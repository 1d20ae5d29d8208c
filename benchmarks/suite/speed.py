"""Machine-speed normalisation of the closed-loop timings.

The host this benchmark was defined on switches between two speed modes
about 1.7x apart, several times a second (other tenants on shared
cores; CPU time tracks wall time, so it is not preemption).  Measured
there: identical 16-session closed-loop rounds took 62-156 ms, and the
throughput of 20-round repetitions spread 24% (quartile distance over
median).  Repetition cannot average that away within a run's budget.

While timed single-threaded work runs, a ``SIGALRM`` handler runs a
fixed probe every :data:`PERIOD_S`.  A timed interval's length, minus
the probe time inside it, is rescaled by ``REFERENCE_PROBE_S *
mean(1 / probe duration)`` — the time the same work takes at the speed
where the probe takes :data:`REFERENCE_PROBE_S`.  On the same 20-round
repetitions this cut the spread from 24% to 7%.  Only phases with one
thread use it: the handler runs in the main thread, so with the drain
thread running a probe would also time waits for the interpreter lock.
A traced repetition runs under the sampler too, its spans timed on
:meth:`SpeedSampler.work_ns`, which stands still during probes.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.01
#: Probe duration at the host's fast speed mode (sets the unit only).
REFERENCE_PROBE_S = 160e-6

_A = np.linspace(0.0, 1.0, 16 * 64).reshape(16, 64)
_V = np.linspace(1.0, 0.0, 256)


def _probe() -> None:
    """Fixed interpreter + small-numpy work, the mix the program runs."""
    acc: dict[int, float] = {}
    for i in range(600):
        acc[i & 31] = acc.get(i & 31, 0.0) + i * 0.5
    for _ in range(8):
        (_A @ _A.T).sum()
        np.sort(_V)


class SpeedSampler:
    """Context manager sampling machine speed while timed work runs."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.probe_ns = 0
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter_ns()
        _probe()
        took = time.perf_counter_ns() - started
        self.durations.append(took / 1e9)
        self.probe_ns += took

    def work_ns(self) -> int:
        """A nanosecond clock that stands still while a probe runs."""
        return time.perf_counter_ns() - self.probe_ns

    def mark(self) -> tuple[int, float]:
        return len(self.durations), time.perf_counter()

    def seconds_since(self, mark: tuple[int, float]) -> float:
        """Reference-speed seconds of the work done since ``mark``."""
        index, started = mark
        elapsed = time.perf_counter() - started
        inside = np.asarray(self.durations[index:])
        # An interval shorter than one period takes the nearest samples.
        speed = inside if len(inside) else np.asarray(self.durations[-8:])
        if len(speed) == 0:
            return elapsed
        return (elapsed - inside.sum()) * REFERENCE_PROBE_S * float(np.mean(1.0 / speed))
