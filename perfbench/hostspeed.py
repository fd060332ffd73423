"""Host-speed probe: scales measured host seconds to a reference host.

The benchmark runs on a shared machine whose speed changes by up to
1.8x within seconds (other tenants on the same physical cores), and
process CPU time slows down just as much as wall time. A raw timing
therefore says as much about the neighbours as about the program.

:class:`HostSpeed` runs a small fixed probe from a ``SIGALRM`` handler
every ``period`` seconds while a workload runs, so the probe interleaves
with the program's own bytecodes on the same core. The probe is
independent of the program: it walks a dict of small objects in a
seeded random order, reads their attributes and replaces them with new
ones, which matches the interpreter-, allocator- and cache-bound mix of
the simulator better than a tight arithmetic loop. An interval of host
time ``t`` is reported as ``t * mean(REFERENCE_PROBE_S / p)`` over the
probe times ``p`` taken in it: *reference seconds*, the time the same
work would take on a host where the probe takes ``REFERENCE_PROBE_S``.
The probe's own time is subtracted from every interval first.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

#: Probe time that defines one reference second (about this host's
#: quiet-period speed, so reference and host seconds are close there).
REFERENCE_PROBE_S = 1.0e-3
#: Probes per second of host time while sampling.
PERIOD_S = 0.1
#: An interval shorter than this is widened to this length around its
#: midpoint before its probes are taken.
MIN_WINDOW_S = 1.0

_NODES = 60_000
_STEPS = 1_500


class _Node:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int):
        self.key = key
        self.weight = weight


class HostSpeed:
    """Samples the probe on a timer; scales intervals to reference time."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        rng = random.Random(0x5EED)
        self._table = {i: _Node(i, rng.randrange(1 << 16)) for i in range(_NODES)}
        self._keys = [rng.randrange(_NODES) for _ in range(_STEPS)]
        #: (start, probe seconds) of every probe taken.
        self.samples: list[tuple[float, float]] = []
        #: Host seconds spent in the signal handler so far.
        self.spent = 0.0
        self._previous = None

    def probe(self) -> float:
        """Run the probe once; its duration in host seconds."""
        t0 = time.perf_counter()
        table, acc = self._table, 0
        for k in self._keys:
            node = table[k]
            acc += node.weight - node.key
            table[k] = _Node(node.key, node.weight ^ (acc & 1))
        return time.perf_counter() - t0

    def _on_alarm(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, self.probe()))
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "HostSpeed":
        """Start probing every ``period`` seconds."""
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def reference_s(self, host_s: float, start: float, end: float) -> float:
        """``host_s`` measured over ``[start, end]``, in reference seconds.

        A probe that took ``p`` seconds reads as host speed
        ``REFERENCE_PROBE_S / p``; the work done in the interval is its
        host time times the mean speed of the probes in it (the interval
        is widened to at least ``MIN_WINDOW_S`` around its midpoint, and
        the probe nearest its midpoint stands in when none falls inside).
        """
        mid = (start + end) / 2
        if end - start < MIN_WINDOW_S:
            start, end = mid - MIN_WINDOW_S / 2, mid + MIN_WINDOW_S / 2
        probes = [p for t, p in self.samples if start <= t <= end]
        if not probes and self.samples:
            probes = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        if not probes:
            return host_s
        return host_s * statistics.fmean(REFERENCE_PROBE_S / p for p in probes)
