"""Run hypothesis deterministically: the same examples on every run, and no
example database written to disk."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
