"""Probe-normalised time: phase times corrected for the machine's speed of the moment.

The measurement box is a few cores of a shared host, and its speed swings in
states that last 10 to 45 s: a fixed unit of NumPy and Python work took 0.31,
0.47 or 0.58 ms in different stretches of one 150 s run, and a desk training
iteration 25 ms in some stretches and 40 ms in others. A run of the pipeline
(20 to 50 s) falls into whichever state the box is in, so raw wall times of the
same code spread by up to half between runs.

`Probe` runs a fixed, small piece of work (a Python dict loop, NumPy calls on
2-element arrays and NumPy calls on 8K-element arrays: the three kinds of work
the pipeline does) from a SIGALRM handler every PERIOD_S seconds, in the
pipeline's own process and between its bytecodes, and records when each probe
ran. The probe's time is the machine's speed of that moment.

`SpeedClock` turns the recorded probes into two clocks over the run:

  active(a, b)  wall time between a and b with the probes' own time taken out
  norm(a, b, k) active time with each stretch between two probes divided by the
                machine's slowdown there to the power k: the probe's time (median
                of SMOOTH neighbours) over REF_PROBE_S. k is 1, except for
                training iterations (FIT_EXPONENT)

so `norm` reads in seconds of a machine on which the probe takes REF_PROBE_S,
a speed within the range of the box the benchmark was tuned on. The probe does
not run any ncs code, so a change to the program moves `norm` as it moves the
wall time, while a slow stretch of the host moves both the probe and the program
and cancels out.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
SMOOTH = 5  # probes in the running median that gives the speed of a stretch
REF_PROBE_S = 1.0e-3  # probe time that counts as speed 1; per-run medians on the tuning box: 0.6 to 1.2 ms
# How strongly a phase follows the probe: its time scales as the probe's to this
# power. A training iteration (NumPy on batch-sized arrays under an autodiff
# tape) swings less than the probe: its spread across 20 in-process rounds was
# smallest at 0.75 (3.1 % against 6.6 % at 1 and 12.3 % raw), and a regression
# of 1 s windows of ten benchmark fits on the probe gave 0.75 too. Reconstruction
# and evaluation follow it one to one (2.4 % and 8.7 % at 1, against 18.6 % and
# 22.4 % raw), and so does set-up, as far as that can be measured.
FIT_EXPONENT = 0.75


class Probe:
    """A fixed unit of work timed from a SIGALRM handler every PERIOD_S seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random(8192).astype(np.float32)
        self._idx = rng.integers(0, 8192, 8192)
        self._m = rng.random((2, 2))
        self._o = rng.random(2)
        self._q = rng.random(2)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parts: list[tuple[float, float, float]] = []
        self._old = None

    def interpreter(self) -> None:
        acc = {}
        for i in range(1800):
            acc[i & 255] = acc.get(i & 255, 0) + i * 3

    def tiny_arrays(self) -> None:
        # NumPy calls on 2-element arrays, as in DiskChart.locate
        m, o, q = self._m, self._o, self._q
        for _ in range(80):
            d = q - o
            b1 = m[0, 0] * d[0] + m[0, 1] * d[1]
            np.array([b1, 1.0 - b1]).sum()

    def batch_arrays(self) -> None:
        # NumPy calls on batch-sized arrays
        x = self._x
        for _ in range(8):
            y = np.tanh(x) * x
            y[self._idx].sum()

    def _handler(self, signum, frame):
        # timed as it comes, with whatever the program left in the caches: a probe
        # timed after an untimed warm-up pass tracked reference evals worse
        # (spread 12 to 19 % against 9 to 10 % over 45 in-process evals)
        t0 = time.perf_counter()
        self.interpreter()
        t1 = time.perf_counter()
        self.tiny_arrays()
        t2 = time.perf_counter()
        self.batch_arrays()
        t3 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t3)
        self.parts.append((t1 - t0, t2 - t1, t3 - t2))

    def start(self) -> None:
        for _ in range(2):  # first calls load NumPy's code paths
            self.interpreter()
            self.tiny_arrays()
            self.batch_arrays()
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.siginterrupt(signal.SIGALRM, False)  # restart system calls the alarm interrupts
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old if self._old is not None else signal.SIG_DFL)


def running_median(x: np.ndarray, k: int) -> np.ndarray:
    if len(x) < k:
        return np.full(len(x), np.median(x)) if len(x) else x
    pad = np.pad(x, (k // 2, k - 1 - k // 2), mode="edge")
    return np.median(np.lib.stride_tricks.sliding_window_view(pad, k), axis=1)


class SpeedClock:
    """Active and probe-normalised time over [t_begin, t_end] from recorded probes."""

    def __init__(self, starts, ends, t_begin: float, t_end: float):
        s = np.asarray(starts, dtype=np.float64)
        e = np.asarray(ends, dtype=np.float64)
        keep = (s >= t_begin) & (e <= t_end)
        s, e = s[keep], e[keep]
        self.probe_s = e - s
        # knots: run start, each probe's start and end, run end; the stretch before a
        # probe runs at that probe's speed, the stretch after the last one at the last
        self._t = np.concatenate([[t_begin], np.column_stack([s, e]).ravel(), [t_end]])
        self._gap = np.diff(self._t)
        self._gap[1::2] = 0.0  # inside a probe: no program time passes
        self._slow = np.ones(len(self._gap))
        if len(s):
            slow = running_median(self.probe_s, SMOOTH) / REF_PROBE_S
            self._slow[0::2] = np.append(slow, slow[-1])
        self._cum = {}

    def _knots(self, k: float) -> np.ndarray:
        if k not in self._cum:
            self._cum[k] = np.concatenate([[0.0], np.cumsum(self._gap / self._slow ** k)])
        return self._cum[k]

    def active(self, a, b):
        return self.norm(a, b, 0.0)

    def norm(self, a, b, k: float = 1.0):
        """Active time between a and b, each stretch divided by the slowdown there to the power k."""
        c = self._knots(k)
        return np.interp(b, self._t, c) - np.interp(a, self._t, c)
