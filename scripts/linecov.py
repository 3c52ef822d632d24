#!/usr/bin/env python3
"""Lines of the kernel that neither Tier-1 nor ``check all`` executes.

    python scripts/linecov.py

Run from the root of a checkout.  Line-traces the Tier-1 suite (in this
process, through ``pytest.main``) and then one ``run_check("all")``, and
prints, for each module of ``src/dilcalc``, its executable lines that never
ran.  The tracer is set again before each test: a test that ends in
``RecursionError`` clears ``sys.settrace``.  Tests that start a child
process trace nothing in the child.
"""

import dis
import sys
from pathlib import Path

import pytest

SRC = Path("src/dilcalc").resolve()
sys.path.insert(0, str(SRC.parent))
hits = set()


def local(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return local


def tracer(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(str(SRC)) else None


class Retrace:
    def pytest_runtest_setup(self, item):
        sys.settrace(tracer)


def executable(code):
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= executable(const)
    return lines


sys.settrace(tracer)
pytest.main(["-q", "-p", "no:cacheprovider", "tests"], plugins=[Retrace()])
sys.settrace(tracer)
from dilcalc.suites import run_check  # noqa: E402

run_check("all")
sys.settrace(None)
for path in sorted(SRC.glob("*.py")):
    lines = executable(compile(path.read_text(), str(path), "exec"))
    missed = sorted(lines - {line for name, line in hits if name == str(path)})
    print(f"{path.name}: {len(missed)} of {len(lines)} lines unexecuted", *missed)
