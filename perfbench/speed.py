"""CPU time converted to seconds at a fixed machine speed.

The benchmark's machines are virtual CPUs shared with other tenants. While a
neighbour is busy, the same Python work takes up to twice the CPU time, and
the machine switches between the two speeds many times a second, for
stretches from a tenth of a second to minutes. Raw CPU time of one
40-second pass therefore moved by a third between runs of the same code.

``SpeedMeter`` samples the speed while the benchmark runs: a ``SIGPROF``
every ``PROBE_INTERVAL_S`` of CPU time runs ``probe``, a fixed task shaped
like doccat's work (strings, dicts, JSON, small numpy gathers), and
records the cost of a second, cache-warm run of it. ``seconds(start, end)``
converts an interval of this thread's CPU time into reference seconds: each stretch between probes counts
``REFERENCE_PROBE_S / cost``, with the cost smoothed over neighbouring probes,
and the probes' own time counts zero. With the CPU uncontended a reference
second is a CPU second; under contention the slowdown the probe sees is
divided out.

``clock`` is the thread's CPU clock: while a process-wide profiling timer is
armed, the process CPU clock advances only in scheduler ticks.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

clock = time.thread_time

PROBE_INTERVAL_S = 0.005
# Warm probe cost with the CPU uncontended, measured in the signal handler on
# a 2-vCPU Intel Xeon KVM guest at 2.0 GHz (45-55e-6 s when contended). It
# only sets the unit: a reference second is a CPU second on that machine
# when no other tenant contends.
REFERENCE_PROBE_S = 26e-6
SMOOTHING_PROBES = 5

_WEIGHTS = np.linspace(0.0, 1.0, 64)
_INDICES = np.arange(0, 64, 4)
_VALUES = np.ones(16)
_WORDS = ("বাংলাদেশের", "মানুষ,", "খেলা।", "দেশের", "Dhaka", "সরকারের") * 3
_PAYLOAD = json.dumps({"terms": [["শব্দ", 1, 2]] * 8, "weights": [0.125, -1.5e-3] * 16})


def probe() -> float:
    """A fixed task mixing the kinds of work doccat does: string and dict
    handling, JSON parsing with many small allocations, small numpy gathers."""
    counts: dict[str, int] = {}
    for word in _WORDS:
        token = word.strip("।,").lower()
        if token.endswith("ের"):
            token = token[:-2]
        counts[token] = counts.get(token, 0) + 1
    payload = json.loads(_PAYLOAD)
    weights = np.asarray(payload["weights"])
    total = float(weights.sum())
    for _ in range(4):
        total += float(_WEIGHTS[_INDICES] @ _VALUES)
    return total + len(counts)


class SpeedMeter:
    """Context manager that samples machine speed; convert intervals afterwards."""

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._costs: list[float] = []
        self._xs = self._ys = None
        self._sampling = False

    def __enter__(self) -> SpeedMeter:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._build()

    def _sample(self, signum, frame) -> None:
        if self._sampling:  # a signal that lands inside the handler is dropped
            return
        self._sampling = True
        # The first probe only brings its code and data back into cache, so
        # the timed one measures the CPU, not what the program evicted.
        started = clock()
        probe()
        warm = clock()
        probe()
        finished = clock()
        self._starts.append(started)
        self._ends.append(finished)
        self._costs.append(finished - warm)
        self._sampling = False

    def _build(self) -> None:
        """Piecewise-linear map from thread CPU time to reference seconds."""
        starts = np.asarray(self._starts)
        costs = np.asarray(self._costs)
        if len(starts) < 2:
            self._xs, self._ys = np.array([0.0, 1.0]), np.array([0.0, 1.0])
            return
        half = SMOOTHING_PROBES // 2
        padded = np.pad(costs, half, mode="edge")
        smoothed = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTHING_PROBES), axis=1)
        rates = REFERENCE_PROBE_S / np.maximum(smoothed, 1e-9)
        ends = np.asarray(self._ends)
        at_starts = np.concatenate([[0.0], np.cumsum((starts[1:] - ends[:-1]) * rates[:-1])])
        # Before the first probe and after the last, extend at the edge rates.
        far = 1e6
        xs = np.empty(2 * len(starts) + 2)
        ys = np.empty_like(xs)
        xs[1:-1:2], xs[2:-1:2] = starts, ends
        ys[1:-1:2], ys[2:-1:2] = at_starts, at_starts
        xs[0], ys[0] = starts[0] - far, -far * rates[0]
        xs[-1], ys[-1] = ends[-1] + far, at_starts[-1] + far * rates[-1]
        self._xs, self._ys = xs, ys

    def seconds(self, start, end):
        """Reference seconds between thread CPU times `start` and `end` (scalars or arrays)."""
        return np.interp(end, self._xs, self._ys) - np.interp(start, self._xs, self._ys)

    def slowdown(self) -> float:
        """Median probe cost over the reference cost: 1 on an uncontended CPU."""
        return statistics.median(self._costs) / REFERENCE_PROBE_S if self._costs else 1.0

    @property
    def probes(self) -> int:
        return len(self._costs)
