"""Machine-speed references, so that times taken on a shared host compare.

On a small shared host the speed at which a core runs Python swings by a
factor of up to two within seconds as other tenants come and go; the swing
shows in CPU time as well as in wall time.  A reference workload that
belongs to the benchmark, timed alongside the operations, tracks it: each
operation's time is multiplied by reference_s / (the reference's time
around it), which gives the time the operation would have taken at the
speed where the reference takes reference_s.  A change to the program
cannot move a reference.

Two references, because the two kinds of work drift apart:

* ``SampledClock``, for work in this process: an interval timer runs a
  short kernel every SAMPLE_PERIOD_S, in the middle of the program's own
  calls, and the time it takes is left out of every operation.  Timings
  taken only between long operations could not follow the swings inside
  them.  The kernel is made of the kinds of work the workload does: float
  arithmetic with small allocations followed the Quaternion objects of
  ``state_pool`` better than float arithmetic alone, and numpy- and
  allocation-heavy work less well than a mix of all three.
* ``LaunchClock``, for work in child processes: the launch of a bare
  interpreter, timed after every operation.  The in-process kernel does not
  follow the cost of starting a process; it made those timings noisier.

On the 2-vCPU x86-64 host the benchmark was written on, the spread of a
metric over runs with different seeds (IQR / median) reached 0.2-0.5
unscaled; scaled, it stayed below 0.03 for the in-process workloads and
below 0.05 for the subprocess one.
"""

from __future__ import annotations

import gc
import math
import signal
import subprocess
import sys
import time

# Round numbers near each reference's typical time on that host, so that
# scaled times read close to wall time there: each kernel part, and the
# bare launch.
PART_REFERENCE_S = {"float": 0.15e-3, "alloc": 0.15e-3, "numpy": 0.25e-3}
LAUNCH_REFERENCE_S = 0.04
KERNEL_PARTS = tuple(PART_REFERENCE_S)

KERNEL_N = 700
SAMPLE_PERIOD_S = 0.05   # about 1 % of the time goes to the kernel
FLUSH_PERIOD_S = 1.0
LAUNCH_TIMEOUT_S = 60

BARE_LAUNCH = "import time\nprint(time.perf_counter())\n"


def launch_s(code: str = BARE_LAUNCH, cwd=None) -> float:
    """Seconds from launching ``python -c code`` until it prints perf_counter.

    perf_counter is the system-wide monotonic clock, so the child's reading
    compares with the parent's.
    """
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=LAUNCH_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1]) - t0


class SampledClock:
    """Operation timer for in-process work; scales by the sampled kernel.

    ``now()`` excludes the time spent in the sampling handler.  ``factor()``
    gives the operations timed since its last call the factor from the
    samples taken over that interval.  Use as a context manager: the timer
    runs inside it.
    """

    def __init__(self, parts: tuple[str, ...] = KERNEL_PARTS):
        self._parts = [getattr(self, "_" + part) for part in parts]
        self._reference_s = sum(PART_REFERENCE_S[part] for part in parts)
        if "numpy" in parts:
            # Imported here, not at the top: the subprocess workload never
            # needs it, and a child's peak RSS (its peak_rss_mb) counts the
            # parent's size when it forks.
            import numpy as np

            self._np = np
            self._sx = np.array([[0, 1], [1, 0]], dtype=complex)
            self._i2 = np.eye(2, dtype=complex)
            self._v = np.ones(4, dtype=complex)
        self._samples: list[float] = []
        self._stolen = 0.0
        self._due = 0.0
        self._last = None
        self._old_handler = None

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._due = time.perf_counter() + FLUSH_PERIOD_S
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def _sample(self, signum=None, frame=None) -> None:
        # With the collector off, the kernel's allocations, all freed again,
        # leave the program's collections where they were.
        t0 = time.perf_counter()
        gc_was_on = gc.isenabled()
        gc.disable()
        for part in self._parts:
            part()
        if gc_was_on:
            gc.enable()
        t1 = time.perf_counter()
        self._samples.append(t1 - t0)
        self._stolen += time.perf_counter() - t0

    # The kernel's parts: the kinds of work the program does.

    @staticmethod
    def _float() -> None:
        """Interpreted float arithmetic."""
        acc = 0.0
        for i in range(KERNEL_N):
            a = i * 0.5
            b = 1.0 / (i + 1)
            acc += math.sqrt(a * a + b * b)

    @staticmethod
    def _alloc() -> None:
        """Building and dropping small dicts, lists and strings."""
        acc = 1.0
        for i in range(KERNEL_N // 4):
            d = {"x": [i, acc], "s": f"{acc * i:.15g}"}
            acc += len(d["s"])

    def _numpy(self) -> None:
        """Small numpy calls, whose cost is mostly the call itself."""
        for _ in range(KERNEL_N // 70):
            self._np.kron(self._sx, self._i2) @ self._v

    def now(self) -> float:
        while True:  # retry if the handler ran while reading
            stolen = self._stolen
            t = time.perf_counter()
            if stolen == self._stolen:
                return t - stolen

    def due(self) -> bool:
        return time.perf_counter() >= self._due

    def factor(self) -> float:
        samples, self._samples = self._samples, []
        if samples:
            self._last = self._reference_s * len(samples) / sum(samples)
        elif self._last is None:
            self._sample()
            return self.factor()
        self._due = time.perf_counter() + FLUSH_PERIOD_S
        return self._last


class LaunchClock:
    """Operation timer for work in child processes; scales by a bare launch
    timed before the first operation and after each one."""

    def __enter__(self):
        self._before = launch_s()
        return self

    def __exit__(self, *exc):
        return False

    now = staticmethod(time.perf_counter)

    def due(self) -> bool:
        return True

    def factor(self) -> float:
        after = launch_s()
        factor = LAUNCH_REFERENCE_S / (0.5 * (self._before + after))
        self._before = after
        return factor
