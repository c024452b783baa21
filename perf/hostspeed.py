"""Host-noise control: what a timing would read on an undisturbed host.

The hosts this benchmark runs on are shared virtual machines, and two
things their neighbours do reach the guest (measured here: a fixed 3 s
engine workload repeated for 8 minutes had a quartile spread of 19 %
and a range of 80 % of its median):

* **Stolen time.**  The hypervisor takes the virtual CPU away for
  bursts of a few seconds (``steal`` in ``/proc/stat``): wall time
  stretches, CPU time does not.  Thirty repetitions of one sweep spread
  20 % as clocked and 7 % with the stolen time of their CPU taken out.
* **Slower execution.**  For minutes at a time everything executes up
  to half as fast: CPU time stretches with wall time.  A small fixed
  kernel timed beside the workload tracks it (correlation 0.8-0.9).

So a :class:`Sampler` thread inside the process being measured (a busy
process: a sampler in an idle one mostly times its own cold wake-ups)
reads the steal counter and times that kernel for a millisecond, twenty
times a second, and every end-to-end timing is reported as
:func:`rescale` gives it: the stolen time taken out, and the CPU-busy
part of what is left multiplied by the host speed of its own window.
Time the system spent idle or waiting on a timer is left alone.

The result is an estimate, not a reading: the kernel shares the
subject's core and interpreter lock, so it is no perfectly independent
witness.  Every caller therefore keeps the clock's own reading beside
the rescaled one (``raw`` in result files), and ``compare.py`` judges
both.  The driver's contract caps a metric's ten-seed spread at 25 %,
which the readings as clocked exceed on these hosts (README, Host-noise
control).

The steal counter is per CPU.  A single-threaded subject pins itself to
the CPU it is on (``stack.pin_to_current_cpu``) so that CPU's counter is its own; one
that runs on several CPUs is charged the mean over them.
"""

from __future__ import annotations

import os
import threading
import time

#: Thread CPU seconds one slice takes on the undisturbed baseline host
#: (Intel Xeon @ 2.10GHz, Python 3.11).  Fixes the scale only: a
#: different constant multiplies every timing by the same factor.
NOMINAL_SLICE_S = 0.0009
_SLICE_ITERATIONS = 4000
_INTERVAL_S = 0.05
_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _allowed_cpus() -> frozenset[str]:
    try:
        return frozenset(f"cpu{index}" for index in os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return frozenset()


def _steal_seconds(cpus: frozenset[str]) -> float:
    """Seconds stolen so far, as the mean over *cpus* (0.0 if unknown)."""
    ticks = 0
    try:
        with open("/proc/stat") as stream:
            for line in stream:
                fields = line.split()
                if fields[0] in cpus and len(fields) > 8:
                    ticks += int(fields[8])
    except OSError:
        return 0.0
    return ticks / _CLK_TCK / max(1, len(cpus))


def _slice() -> float:
    """Thread CPU seconds for the fixed kernel (dict and tuple churn)."""
    started = time.thread_time()
    table: dict = {}
    total = 0
    for index in range(_SLICE_ITERATIONS):
        key = (index & 255, "k")
        table[key] = table.get(key, 0) + index
        total += len(table)
    return time.thread_time() - started


class Sampler(threading.Thread):
    """Samples the host every 50 ms until stopped; about 2 % of a core.

    A sample is ``(wall clock, slice seconds, seconds stolen so far)``.
    Create it after pinning: it watches the CPUs the process may run
    on when it is created.
    """

    def __init__(self):
        super().__init__(name="perf-hostspeed", daemon=True)
        self.samples: list[tuple[float, float, float]] = []
        self._cpus = _allowed_cpus()
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.is_set():
            self.samples.append((time.time(), _slice(), _steal_seconds(self._cpus)))
            self._stop_event.wait(_INTERVAL_S)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


def speed(samples, start: float, end: float) -> float:
    """Host speed over a wall-clock window, 1.0 being nominal.

    A run's time is the sum of its work stretched by the slowdown of the
    moment, so the window's slowdown is the mean of its samples (the
    extreme tenth at either end dropped: a slice that was itself
    preempted says nothing about speed); a window too short to hold
    three samples takes the three nearest ones.
    """
    samples = list(samples)
    inside = sorted(sample[1] for sample in samples if start <= sample[0] <= end)
    if len(inside) < 3:
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))[:3]
        inside = sorted(sample[1] for sample in nearest)
    if not inside:
        return 1.0
    trim = len(inside) // 10
    kept = inside[trim:len(inside) - trim]
    return NOMINAL_SLICE_S / (sum(kept) / len(kept))


def stolen(samples, start: float, end: float) -> float:
    """Seconds stolen over a wall-clock window: the steal counter at its
    end minus at its start, each read off the nearest sample."""
    samples = list(samples)
    if not samples:
        return 0.0

    def counter(at: float) -> float:
        return min(samples, key=lambda sample: abs(sample[0] - at))[2]

    return max(0.0, counter(end) - counter(start))


def sampler_cpu(samples, start: float, end: float) -> float:
    """CPU seconds the sampler itself used over a wall-clock window."""
    return sum(sample[1] for sample in samples if start <= sample[0] <= end)


def rescale(wall_s: float, busy_s: float, speed: float, stolen_s: float = 0.0) -> float:
    """*wall_s* without the stolen time that hit the subject, and with
    its CPU-busy part as it would read at nominal speed.

    The hypervisor steals from a CPU only while that CPU has work, so
    the subject is charged the share of *stolen_s* that it was busy for:
    all of it when CPU-bound, next to none when it sat on a timer.
    """
    runnable = max(wall_s - stolen_s, 1e-9)
    wall = wall_s - stolen_s * min(1.0, busy_s / runnable)
    busy = min(wall, busy_s)
    return (wall - busy) + busy * speed


def nominal(samples, start: float, end: float, cpu_s: float) -> float:
    """The window's duration as an undisturbed host would clock it;
    *cpu_s* is the CPU the process used meanwhile, its sampler included."""
    samples = list(samples)
    return rescale(
        end - start, max(0.0, cpu_s - sampler_cpu(samples, start, end)),
        speed(samples, start, end), stolen(samples, start, end),
    )
