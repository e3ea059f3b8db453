"""Host-speed probe: puts host times on a scale that a shared host's drift
does not move.

On a shared machine the speed of a core can change by a factor of two
within a second, as other tenants come and go. The probe runs a fixed,
short kernel from a SIGALRM handler every INTERVAL_S seconds while a
scenario runs (the handler runs between bytecodes of the one main thread;
no thread is started), so it samples the host's speed during the scenario
itself. A scenario's nominal time is its host time, less the time spent in
probes, with each stretch between probes scaled by NOMINAL_PROBE_S over
the probe duration measured there.

A probe inside a scenario must not measure the program. Each sample
therefore runs the kernel once untimed, to refill the cache the program
left behind, and then once timed, both with the garbage collector off, so
that no collection of the program's objects lands in the probe. `timed`
checks that this holds: it also probes while the program is idle, before
and after the scenario, and records the ratio of the two medians in
`inside_over_idle`, which stays near 1 when the probe does not follow
the program.

The kernel mixes random reads from a 4 MiB buffer, dict and bytes work,
CRC-32 and small numpy operations: code whose slowdown under contention
is close to the simulator's, which pure arithmetic loops' is not.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
import zlib

import numpy as np

INTERVAL_S = 0.05
IDLE_PROBES = 5  # on each side of the measured work
# The unit of nominal time. A kernel run takes 1.0-1.4 ms on a 2-core
# Intel Xeon host, idle to contended.
NOMINAL_PROBE_S = 0.001
BUFFER_BYTES = 1 << 22


class SpeedProbe:
    def __init__(self):
        self._buf = bytearray(range(256)) * (BUFFER_BYTES // 256)
        self._x = 1
        self.samples: list[tuple[float, float, float]] = []  # (start, time taken, kernel duration)
        self.inside_over_idle: list[float] = []  # one per `timed` call
        for _ in range(5):
            self.kernel()  # warm

    def kernel(self) -> int:
        buf = self._buf
        x = self._x
        acc = 0
        for _ in range(1000):
            x = (x * 1103515245 + 12345) & (BUFFER_BYTES - 1)
            acc += buf[x]
        self._x = x
        table: dict[int, int] = {}
        out = bytearray()
        for i in range(1000):
            k = (i * 2654435761) & 1023
            table[k] = table.get(k, 0) + 1
            out += ((i ^ k) & 0xFFFF).to_bytes(2, "big")
        acc ^= zlib.crc32(out)
        bits = np.unpackbits(np.arange(64, dtype=np.uint8))
        for _ in range(15):
            bits = bits ^ np.roll(bits, 43)
            acc += int(np.count_nonzero(bits[0::4]))
        return acc

    def _sample(self, signum=None, frame=None):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.kernel()
            t1 = time.perf_counter()
            self.kernel()
            t2 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append((t0, t2 - t0, t2 - t1))

    def _idle(self) -> list[float]:
        """Kernel durations of IDLE_PROBES samples taken back to back."""
        self.samples = []
        for _ in range(IDLE_PROBES):
            self._sample()
        return [d for _, _, d in self.samples]

    def timed(self, fn, *args, **kwargs):
        """Run fn with probes firing; returns (result, host seconds net of
        probe time, nominal seconds).

        Each stretch of work between two probes is scaled by the median of
        the durations of the probe that ends it and its two neighbours, so
        a change of host speed within the scenario is followed."""
        idle = self._idle()
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        inside = list(self.samples)
        idle += self._idle()
        net = t1 - t0 - sum(taken for _, taken, _ in inside)
        if len(inside) < 3:  # too short for the timer: the idle probes around it
            return result, net, net * NOMINAL_PROBE_S / statistics.median(idle)
        durations = [d for _, _, d in inside]
        self.inside_over_idle.append(statistics.median(durations) / statistics.median(idle))
        smooth = [
            statistics.median(durations[max(0, k - 1) : k + 2]) for k in range(len(durations))
        ]
        nominal = 0.0
        start = t0
        for k, (at, taken, _) in enumerate(inside):
            nominal += (at - start) / smooth[k]
            start = at + taken
        nominal += (t1 - start) / smooth[-1]
        return result, net, nominal * NOMINAL_PROBE_S

    def around(self, fn, *args, **kwargs):
        """Like `timed`, for work done outside this process (a child
        interpreter): probes run just before and just after it instead."""
        idle = self._idle()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        idle += self._idle()
        return result, dt, dt * NOMINAL_PROBE_S / statistics.median(idle)
