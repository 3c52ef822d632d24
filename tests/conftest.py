"""Run hypothesis deterministically: the same examples on every run, no
example database, and its storage directory (which still caches the
constants it reads from source files) in a temporary directory instead of
the checkout."""

import atexit
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HOME = tempfile.mkdtemp(prefix="hypothesis-")
atexit.register(shutil.rmtree, _HOME, ignore_errors=True)
set_hypothesis_home_dir(_HOME)

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
