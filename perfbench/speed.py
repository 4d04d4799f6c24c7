"""Machine-speed probe, so that timings can be put at one reference speed.

The benchmark runs on a shared host whose other tenants slow a
single-threaded pass by up to about 1.8x, in spells from a few seconds to
many minutes; the pass's CPU time slows as much as its wall time, so the
cause is slower execution, not waiting for a core.  A fixed pure-Python
probe, timed while the pass runs, slows down with it.

The probe has two kernels, because the tenants do not slow every kind of
code alike: ``arithmetic`` (calls, allocations and dict updates on small
objects, like ring arithmetic; it stays in the core's own caches) and
``scan`` (a strided walk over a 4 MiB list, like the pivot scan of a dense
matrix; it misses the 2 MiB L2 cache).  A sample's speed is the mean of
the two kernels' speeds, each relative to its own reference time.  Over 39
jobs of each kind, timed while the host was busy, the raw time of a
Smith-normal-form job varied by 13 % (coefficient of variation) and that of
a cyclotomic HC job by 19 %; divided by the arithmetic kernel's speed alone
they varied by 3.7 % and 5.8 %, by the scan's alone 4.7 % and 9.5 %, and by
the mean of both 1.9 % and 4.9 %.

``Sampler`` runs the probe every ``INTERVAL_S`` of wall time from a
``SIGALRM`` handler, which Python runs on the main thread between bytecodes,
so samples are spread evenly over the pass, inside long jobs too.
``reference_seconds`` takes an interval of the pass, subtracts the probe time
spent inside it, and scales the rest by the mean speed of the samples in and
next to it: seconds the interval would have taken if the machine ran at the
reference speed.  The probe does not touch hopfcycl, so a faster program
gives proportionally fewer reference seconds.

Only ``signal`` and ``time`` are imported, and the probe uses builtins only,
so the worker can sample before the timed ``import hopfcycl`` without
charging or sparing any module of it.
"""

import signal
import time

ARITHMETIC_ITERATIONS = 1500
SCAN_ITERATIONS = 5000
SCAN_LENGTH = 1 << 19  # list slots: 4 MiB of pointers
SCAN_STRIDE = 211  # odd, so the walk visits every slot before it repeats
# Kernel times at the reference speed: about the fastest each ran on the
# 2-core host the benchmark was written on (Python 3.11.7).  Only a scale.
REFERENCE_ARITHMETIC_S = 0.0015
REFERENCE_SCAN_S = 0.00045
INTERVAL_S = 0.1
SETUP_PROBES = 5  # explicit probes on each side of a set-up

_TABLE = [0] * SCAN_LENGTH
for _k in range(0, SCAN_LENGTH, 97):
    _TABLE[_k] = _k
_scan_at = 0


class _Term:
    """A small value with pure-Python arithmetic, like a ring element."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __mul__(self, other):
        return _Term(self.a * other.a % 1000003, (self.b + other.b) & 0xFFFF)

    def __add__(self, other):
        return _Term((self.a + other.a) % 1000003, self.b ^ other.b)


def arithmetic() -> float:
    """Seconds one fixed loop of calls, allocations and dict updates takes."""
    start = time.perf_counter()
    table = {}
    x = _Term(3, 5)
    zero = _Term(0, 0)
    for i in range(ARITHMETIC_ITERATIONS):
        key = (i & 255, i % 7)
        y = x * _Term(i + 1, i)
        table[key] = table.get(key, zero) + y
        x = y
    return time.perf_counter() - start


def scan() -> float:
    """Seconds a strided search for the smallest nonzero entry takes; each
    call goes on where the last one stopped."""
    global _scan_at
    start = time.perf_counter()
    table, j, best = _TABLE, _scan_at, None
    for _ in range(SCAN_ITERATIONS):
        v = table[j]
        if v and (best is None or v < best):
            best = v
        j = (j + SCAN_STRIDE) & (SCAN_LENGTH - 1)
    _scan_at = j
    return time.perf_counter() - start


def probe() -> tuple[float, float]:
    """(seconds, speed) of one run of both kernels; speed 1 is the reference."""
    a = arithmetic()
    s = scan()
    return a + s, (REFERENCE_ARITHMETIC_S / a + REFERENCE_SCAN_S / s) / 2


class Sampler:
    """Probe samples ``(start, seconds, speed)`` taken on a wall-clock timer."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append((start, *probe()))

    def _tick(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float, neighbours: int = 1) -> float:
        """Mean speed of the samples that start inside ``[start, end)`` and
        of the ``neighbours`` nearest on each side."""
        inside = [v for s, _, v in self.samples if start <= s < end]
        before = [v for s, _, v in self.samples if s < start][-neighbours:]
        after = [v for s, _, v in self.samples if s >= end][:neighbours]
        speeds = before + inside + after
        if not speeds:
            raise ValueError("no probe samples next to the interval")
        return sum(speeds) / len(speeds)

    def reference_seconds(self, start: float, end: float) -> tuple[float, float]:
        """(seconds, reference seconds) of ``[start, end]`` without its probes."""
        seconds = (end - start) - sum(d for s, d, _ in self.samples if start <= s < end)
        return seconds, seconds * self.speed(start, end)
