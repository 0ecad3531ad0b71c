"""Machine-speed reference for the ledger's time metrics.

The sandboxes this ledger runs in are a few cores of a shared host.
The same deterministic pass takes 15-30% more or less wall time from
one run to the next, for three reasons, and each has its own remedy:

* The thread is runnable but something else has the core, or the host
  has taken the core from the whole VM (steal).  The thread's CPU clock
  stops for both (this kernel charges steal to nobody), so an interval
  in which the thread never waited of its own accord is worth the CPU
  time it got, not the wall time that passed.
* The core itself runs faster or slower (up to 3x over tens of
  seconds: frequency, shared caches, how busy the VM looks to the
  host).  Every ``PERIOD`` seconds a timer signal interrupts the
  measuring thread and times a fixed stdlib-only kernel *in that
  thread*, on its CPU clock.  CPU seconds are scaled by
  ``NOMINAL_S`` over the kernel's cost around them.
* The thread waits for others (pool workers).  Then
  wall time is what counts, scaled by the same kernel speed.  Whether it
  waited between two samples is read off its voluntary context
  switches.

The ledger's seconds are therefore **reference seconds**: the time the
interval would have taken, undisturbed, at the speed where the kernel
takes ``NOMINAL_S``.

Why in the measuring thread and on its CPU clock (numbers in the
README): a sampler in another process reads another core and cannot
see time taken from the measured one; and a kernel timed by the wall
clock sees lost time only when it falls inside a 2.5 ms sample, at
moments tied to the scheduler's own decisions.

The kernel must never import ``repro``: it is the yardstick, so code
under test may not make it faster.  Its mix (heap pushes and pops of
tuples, dict traffic, 64-bit mask arithmetic, list churn) was chosen
against a plain arithmetic loop because it tracked the simulator's
slowdown better on recorded runs (log-log slope 1.03 on 55 runs of a
256-rank job while raw speed ranged 0.79-1.16).
"""

from __future__ import annotations

import bisect
import heapq
import resource
import signal
import statistics
import time

__all__ = ["NOMINAL_S", "PERIOD", "SpeedMeter", "kernel"]

#: Kernel duration that defines one reference second (this sandbox
#: class at its usual fast state).  Changing it rescales every time
#: metric: a benchmark change, never part of a PR that claims a gain.
NOMINAL_S = 0.0025

#: Seconds between kernel samples (~5% of the measured thread's time;
#: the kernel's own share of an interval is taken out again).
PERIOD = 0.05

#: Kernel speed at a point is taken from this many samples on either
#: side of it (a second's worth while sampling every ``PERIOD``).
_NEAR = 10

_M64 = 0xFFFFFFFFFFFFFFFF


def kernel(n: int = 3000) -> int:
    """Fixed stdlib-only work unit; see the module docstring."""
    heap: list = []
    table: dict = {}
    out: list = []
    push = heapq.heappush
    pop = heapq.heappop
    z = 0x9E3779B97F4A7C15
    for i in range(n):
        z = (z + 0x9E3779B97F4A7C15) & _M64
        x = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        x ^= x >> 31
        push(heap, (x & 0xFFFFF, i, None))
        table[x & 0xFFF] = i
        if i & 1:
            t, j, _ = pop(heap)
            out.append(table.get(t & 0xFFF, j))
            if len(out) > 64:
                del out[:32]
    return len(heap)


class SpeedMeter:
    """Kernel samples taken in the calling thread, and what they make
    an interval of that thread's life worth.

    ``with meter:`` samples every ``PERIOD`` seconds from a ``SIGALRM``
    handler, so it must be entered in the main thread; ``burst()``
    samples on the spot (a child at the end of set-up, and on either
    side of its profiled pass).
    """

    def __init__(self) -> None:
        # Per sample: wall and thread-CPU clock at its start, what the
        # kernel cost on each, and the thread's voluntary context
        # switches so far (it slept between two samples iff they differ).
        self._wall: list[float] = []
        self._wall_cost: list[float] = []
        self._cpu: list[float] = []
        self._cpu_cost: list[float] = []
        self._sleeps: list[int] = []
        self._sampling = False
        kernel()  # warm the code path; not recorded

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # a late signal inside the kernel: one sample, not two
            return
        self._sampling = True
        sleeps = resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw
        w0 = time.perf_counter()
        c0 = time.thread_time()
        kernel()
        c1 = time.thread_time()
        w1 = time.perf_counter()
        self._wall.append(w0)
        self._wall_cost.append(w1 - w0)
        self._cpu.append(c0)
        self._cpu_cost.append(c1 - c0)
        self._sleeps.append(sleeps)
        self._sampling = False

    def burst(self, n: int = _NEAR) -> None:
        for _ in range(n):
            self.sample()

    def __enter__(self) -> "SpeedMeter":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # Not SIG_DFL: an alarm raised just before the timer stopped may
        # still be on its way, and the default action ends the process.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def _gap_speed(self, i: int) -> float:
        """Reference seconds per wall second between samples ``i`` and ``i + 1``."""
        lo, hi = max(i + 1 - _NEAR, 0), i + 1 + _NEAR
        costs = self._cpu_cost[lo:hi]
        speed = len(costs) * NOMINAL_S / sum(costs)
        wall = self._wall[i + 1] - self._wall[i] - self._wall_cost[i]
        if self._sleeps[i + 1] == self._sleeps[i] and wall > 0.0:
            # Never waited of its own accord: what it did not spend on
            # the CPU was taken from it, and does not count.
            speed *= (self._cpu[i + 1] - self._cpu[i] - self._cpu_cost[i]) / wall
        return speed

    def reference(self, t0: float, t1: float, minus: float = 0.0) -> float:
        """Reference seconds of ``[t0, t1]``, the kernel's own excluded.

        ``minus`` is raw seconds inside the interval that are not to be
        counted; they go out in proportion.
        """
        wall = self._wall
        n = len(wall)
        if n < 2:
            raise RuntimeError("speed meter has fewer than two samples")
        if t1 <= t0:
            return 0.0
        own = 0.0
        i = bisect.bisect_right(wall, t0) - 1  # the sample [t0 follows; -1: none
        while True:
            # The piece between the end of sample i and the start of the next.
            start = wall[i] + self._wall_cost[i] if i >= 0 else t0
            end = wall[i + 1] if i + 1 < n else t1
            lo, hi = max(start, t0), min(end, t1)
            if hi > lo:
                # Before the first sample and after the last: the nearest gap's.
                own += (hi - lo) * self._gap_speed(min(max(i, 0), n - 2))
            if end >= t1:
                break
            i += 1
        return own * (1.0 - minus / (t1 - t0))

    def median_cost(self) -> float:
        """Median kernel CPU seconds so far (``NOMINAL_S`` at reference speed)."""
        return statistics.median(self._cpu_cost)
