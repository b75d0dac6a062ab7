"""Host-speed reference: a fixed pure-Python kernel timed next to each
measurement, so that times can be scaled to one nominal host speed.

On a shared host the same pass can take 40% longer for minutes at a time,
because other tenants load the physical cores and caches.  The kernel below
does the kind of work the program does most (method calls on small objects,
dict lookups, building long lists of 0.0/1.0 rows) and is timed in the gaps
just before and just after each measured stretch, for a share of the
stretch's length that the caller sets.  A scaled time is

    wall seconds * NOMINAL_S / mean kernel seconds around the stretch

that is, the time the stretch would have taken on a host where the kernel
takes NOMINAL_S.  A change to the program moves the wall seconds but not the
kernel, so it shows in the scaled time in full.  The correction is not
exact: the program and the kernel do not slow down by quite the same factor,
so scaled times still spread between runs, only less than wall times.  The
kernel needs neither numpy nor the package, so it can bracket the import as
well.
"""

from __future__ import annotations

import time

# a typical kernel time on the host the benchmark was written on (2 vCPUs of
# a shared x86-64 machine, CPython 3.11), where it ranged from 0.12 to 0.25 s
NOMINAL_S = 0.16


class _Feature:
    __slots__ = ("a", "b", "v")

    def __init__(self, a, b, v):
        self.a, self.b, self.v = a, b, v

    def evaluate(self, u, r):
        return u.get(self.a) == self.v and r.get(self.b) == self.v


_FEATURES = [_Feature(i % 7, (i * 3) % 7, i % 3) for i in range(400)]
_USERS = [{j: (i + j) % 3 for j in range(7)} for i in range(55)]
_RESOURCES = [{j: (i * j) % 3 for j in range(7)} for i in range(55)]


def reference_seconds() -> float:
    """Wall seconds of one run of the fixed kernel."""
    t = time.perf_counter()
    rows = []
    for u in _USERS:
        for r in _RESOURCES:
            rows.append([1.0 if f.evaluate(u, r) else 0.0 for f in _FEATURES])
    ones = sum(sum(row) for row in rows)
    seconds = time.perf_counter() - t
    if ones <= 0:  # keeps the work from being skipped, and checks it ran
        raise RuntimeError("host-speed kernel computed nothing")
    return seconds


def sample(seconds: float) -> list:
    """Kernel seconds of each run, run until they add up to `seconds`
    (at least once)."""
    samples = [reference_seconds()]
    while sum(samples) < seconds:
        samples.append(reference_seconds())
    return samples


def scaled(wall_s: float, before: list, after: list) -> float:
    """Wall seconds scaled to the nominal host speed by the mean of the
    kernel samples taken just before and just after."""
    kernel = before + after
    return wall_s * NOMINAL_S * len(kernel) / sum(kernel)
