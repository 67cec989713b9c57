"""Host-speed sampling, so timings can be stated at a fixed reference speed.

The machines this benchmark runs on are shared: the same input takes
anywhere from 9 to 14 s on one host within a minute, and the speed changes
on a scale of seconds. CPU time tracks wall time, so the scheduler is not
the cause; the host itself runs faster or slower.

A SIGALRM timer interrupts the main thread every INTERVAL_S and runs a
fixed chunk of pure-Python integer work that looks like the program's own
(fraction-free elimination on small integer matrices, tuples, a set, a
sort) twice. The second, warm run's duration gives the host speed at that
moment; the first keeps the program's effect on the caches out of it. The
handler also reads the steal time of the process's CPU from /proc/stat:
time in which the hypervisor ran something else, which at times takes a
quarter of the CPU. An interval [a, b] of program time is then reported as

    (b - a - sampling time - steal time inside it) * mean(REF_CHUNK_S / chunk duration)

over the chunks taken within PAD_S of the interval, leaving out chunks
that took over three times the median, which were preempted: the time the
same work would take on a host where the chunk takes exactly REF_CHUNK_S.
The chunk is code of the benchmark, so no change to the program can move
it; a slower program still reads slower. The signal handler runs in the
main thread, so the workload stays single-threaded.
"""

from __future__ import annotations

import bisect
import gc
import os
import random
import signal
import statistics
import time

INTERVAL_S = 0.1
REF_CHUNK_S = 0.0003
PAD_S = 1.0
MIN_SAMPLES = 10


def bareiss(rows):
    """Determinant of a small integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    prev, sign = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        p = a[k][k]
        for i in range(k + 1, n):
            ri, rk = a[i], a[k]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * p - aik * rk[j]) // prev
        prev = p
    return sign * a[-1][-1]


_rng = random.Random(20260417)
_MATRICES = tuple(
    tuple(tuple(_rng.randint(-4, 4) for _ in range(5)) for _ in range(5)) for _ in range(12)
)
_POINTS = tuple(tuple(_rng.randint(-6, 6) for _ in range(5)) for _ in range(8))
del _rng


def chunk() -> int:
    """Fixed work in the program's idioms: Bareiss rows, and cone-membership
    tests built from generator expressions over tuples."""
    seen = set()
    for m in _MATRICES:
        seen.add((bareiss(m),) + tuple(sorted(m[0])))
    normals = _MATRICES[0]
    for x in _POINTS:
        for h in _POINTS:
            d = tuple(a - b for a, b in zip(x, h))
            if all(sum(a * b for a, b in zip(n, d)) >= 0 for n in normals):
                seen.add(d)
    return len(sorted(seen))


def pin_to_one_cpu() -> int:
    """Keep this process on one CPU, so that CPU's steal time is the process's."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    """Samples the chunk duration while started; converts intervals to reference time."""

    def __init__(self, cpu: int) -> None:
        self.starts: list[float] = []  # when each sample began, warm-up included
        self.spent: list[float] = []  # the sample's whole time, warm-up included
        self.durations: list[float] = []  # the timed, warm chunk only
        self.steal: list[float] = []  # the CPU's steal seconds when the sample ended
        self._prefix = f"cpu{cpu} ".encode()
        self._tick_s = 1 / os.sysconf("SC_CLK_TCK")

    def _steal_s(self) -> float:
        """Steal time of the pinned CPU so far; 0 where the kernel does not report it.

        Binary mode: the signal handler must import nothing, or it can find
        a codec module half-imported by the code it interrupted.
        """
        try:
            with open("/proc/stat", "rb") as fh:
                for line in fh:
                    if line.startswith(self._prefix):
                        fields = line.split()
                        return int(fields[8]) * self._tick_s if len(fields) > 8 else 0.0
        except OSError:
            pass
        return 0.0

    def _on_alarm(self, signum, frame) -> None:
        gc_was_on = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not host speed
        try:
            start = time.perf_counter()
            chunk()  # warm-up: the program's work has evicted the chunk from cache
            t0 = time.perf_counter()
            chunk()
            t1 = time.perf_counter()
        finally:
            if gc_was_on:
                gc.enable()
        self.starts.append(start)
        self.spent.append(t1 - start)
        self.durations.append(t1 - t0)
        self.steal.append(self._steal_s())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def settle(self, seconds: float = PAD_S + INTERVAL_S) -> None:
        """Wait long enough that the last interval has samples after it too."""
        time.sleep(seconds)

    def speed(self, a: float, b: float) -> float:
        """Mean host speed around [a, b], as a multiple of the reference speed."""
        lo = bisect.bisect_left(self.starts, a - PAD_S)
        hi = bisect.bisect_left(self.starts, b + PAD_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, (a + b) / 2)
            lo = max(0, mid - MIN_SAMPLES // 2)
            hi = min(len(self.starts), lo + MIN_SAMPLES)
            lo = max(0, hi - MIN_SAMPLES)
        window = self.durations[lo:hi]
        if not window:
            raise RuntimeError("no host-speed samples were taken")
        limit = 3 * statistics.median(window)
        kept = [d for d in window if d <= limit]
        return sum(REF_CHUNK_S / d for d in kept) / len(kept)

    def _steal_at(self, t: float) -> float:
        """Steal seconds at time t, interpolated between samples."""
        i = bisect.bisect_left(self.starts, t)
        if i == 0:
            return self.steal[0]
        if i == len(self.starts):
            return self.steal[-1]
        t0, t1 = self.starts[i - 1], self.starts[i]
        return self.steal[i - 1] + (self.steal[i] - self.steal[i - 1]) * (t - t0) / (t1 - t0)

    def reference_seconds(self, a: float, b: float) -> float:
        """Length of [a, b] at reference speed, without the chunks and steal inside it."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        inside = sum(self.spent[lo:hi]) + self._steal_at(b) - self._steal_at(a)
        return max(0.0, b - a - inside) * self.speed(a, b)
