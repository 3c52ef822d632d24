"""Host speed reference for the end-to-end times.

On a shared 2-CPU virtual machine the same CPU-bound Python code ran up to
about 1.5x slower for spells of a second to minutes, so 20-second runs of
one workload spread by 10-20% however much work they held.  Each run therefore
also times a fixed piece of reference work about every 0.1 s, between ops
and never inside one, and every end-to-end time is reported at the
reference speed:

    reported = measured * REFERENCE_S / median(nearby reference samples)

where the nearby samples are the NEIGHBOURS taken just before and after the
op started.  The reference work is a small Cantor-normal-form ordinal sum
and comparison loop over frozen dataclasses, the kernel's hottest pattern,
written here so that it never changes with the kernel: a kernel change
moves the reported times exactly as it moves the measured ones.  The
measured times are printed with every run as well.

cli-scenario is the exception: its ops are whole interpreter starts, whose
wall time on this host tracks other tenants' load far more than the
kernel's work (the p90 of 100 starts spread by 20% between runs).  Each of
its ops is timed as the child's CPU time (user + system, from wait4), which
on an idle host is its wall time less a few ms, and a bare interpreter
start (``python -c pass``) timed the same way right after each op is its
reference, with SPAWN_REFERENCE_S in place of REFERENCE_S.  The reference
imports nothing of the kernel, so a change to the kernel's import or
dispatch cost moves the reported times as it moves the measured ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass

# median duration of reference_work() between kernel ops on a 2-CPU
# virtual machine with Python 3.11; only the scale of the reported times
# depends on it
REFERENCE_S = 0.0023
SAMPLE_EVERY_S = 0.1
NEIGHBOURS = 4
# median CPU time of a bare ``python -c pass`` start on the same machine
SPAWN_REFERENCE_S = 0.080


@dataclass(frozen=True)
class _Cnf:
    terms: tuple = ()  # ((exponent, coefficient), ...) descending


def _cmp(a: _Cnf, b: _Cnf) -> int:
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = _cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a.terms) > len(b.terms)) - (len(a.terms) < len(b.terms))


def _add(a: _Cnf, b: _Cnf) -> _Cnf:
    if not b.terms:
        return a
    lead, kept = b.terms[0][0], []
    for exp, coeff in a.terms:
        c = _cmp(exp, lead)
        if c > 0:
            kept.append((exp, coeff))
        elif c == 0:
            kept.append((exp, coeff + b.terms[0][1]))
            return _Cnf(tuple(kept) + b.terms[1:])
        else:
            break
    return _Cnf(tuple(kept) + b.terms)


def reference_work() -> int:
    zero = _Cnf()
    one = _Cnf(((zero, 1),))
    omega = _Cnf(((one, 1),))
    pool = [one, omega, _Cnf(((omega, 1),)), _Cnf(((_Cnf(((omega, 1),)), 1),))]
    total, seen = zero, {}
    for i in range(300):
        x = pool[i % 4]
        total = _add(total, x) if i % 7 else _add(x, total)
        seen[total] = i
        if len(pool) < 40:
            pool.append(_add(pool[-1], pool[i % 3]))
    return len(seen)


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class HostClock:
    """Samples the reference at most every SAMPLE_EVERY_S seconds."""

    def __init__(self):
        self.samples = []  # (perf_counter at start, seconds)
        self._last = -SAMPLE_EVERY_S
        self.tick()

    def tick(self):
        now = time.perf_counter()
        if now - self._last >= SAMPLE_EVERY_S:
            self.samples.append((now, reference_seconds()))
            self._last = time.perf_counter()


def at_reference_speed(starts, seconds, samples, reference=REFERENCE_S) -> list:
    """Each duration scaled by the reference samples taken around its start."""
    times = [t for t, _ in samples]
    refs = [r for _, r in samples]
    out = []
    for start, spent in zip(starts, seconds):
        i = bisect.bisect(times, start)
        nearby = refs[max(0, i - NEIGHBOURS): i + NEIGHBOURS]
        out.append(spent * reference / statistics.median(nearby))
    return out
