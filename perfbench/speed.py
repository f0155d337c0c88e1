"""How fast the machine runs while a command runs, for scaling timings.

The host this benchmark was built on is shared. The same CPU-bound work
takes up to 1.7x longer from one few-second stretch to the next, and
all work slows together (NOTES.md). No number of repeats within a run
removes that: a run's median moves with the load of the hour.

So while a run measures, a SIGALRM timer interrupts the program every
PERIOD_S and times a fixed reference kernel in the handler. The kernel
mixes small numpy operations with plain Python, as the toolkit does,
and shares no code with minis2s, so a change to minis2s cannot move
it. A timing multiplied by REFERENCE_S over the kernel's mean time
during that timing reads as if the machine ran at reference speed.
The handler's own time is taken out of every timing. Python runs the
handler between bytecodes in the main thread, so it never sees minis2s
in the middle of an operation and leaves every output unchanged.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

# Kernel time on the build machine in its fast state (Intel Xeon at
# 2.1 GHz, Python 3.11, numpy 2.4, one BLAS thread). Only its constancy
# matters: it fixes the scale of every scaled timing.
REFERENCE_S = 0.002
PERIOD_S = 0.06
# a window with fewer kernel samples is scaled by the whole run's samples
MIN_SAMPLES = 5

_X = np.linspace(-1.0, 1.0, 32 * 64).reshape(32, 64)
_W = np.eye(64) * 0.9
_W4 = np.linspace(-0.1, 0.1, 64 * 256).reshape(64, 256)


def _kernel() -> float:
    """About equal parts of the three kinds of work minis2s does: matrix
    products over a sequence, one-row LSTM-cell arithmetic with small
    objects kept alive, and plain Python. Each part alone tracks the
    toolkit's slowdowns less well than their sum."""
    acc = 0.0
    for _ in range(40):
        acc += float(np.tanh(_X @ _W + 0.1).sum())
    h = np.zeros((1, 64))
    c = np.zeros((1, 64))
    keep = []
    for _ in range(25):
        g = h @ _W4
        i = 1.0 / (1.0 + np.exp(-g[:, 0:64]))
        f = 1.0 / (1.0 + np.exp(-g[:, 64:128]))
        o = 1.0 / (1.0 + np.exp(-g[:, 192:256]))
        c = f * c + i * np.tanh(g[:, 128:192])
        h = o * np.tanh(c)
        keep.append((h, c, lambda x, h=h: x * h))
    d = {}
    for i in range(3000):
        d[i % 97] = d.get(i % 97, 0.0) + i * 0.5
    return acc + float(h.sum()) + sum(d.values())


Mark = Tuple[int, float]


class Speed:
    """Kernel times sampled on a timer between `start` and `stop`."""

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0       # seconds spent in the handler
        self._busy = False
        self._old = None

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if self._old is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._old = None

    @contextlib.contextmanager
    def paused(self):
        """No samples inside; for waiting on a child process, which runs
        on the other CPU while the handler would run on this one."""
        if self._old is None:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt
        self._busy = False

    def mark(self) -> Mark:
        return len(self.samples), self.spent

    def spent_since(self, mark: Mark) -> float:
        return self.spent - mark[1]

    def window(self, mark: Mark) -> List[float]:
        return self.samples[mark[0]:]

    def scale(self, window: List[float]) -> float:
        """Factor that takes a timing measured during `window` to the
        reference speed; 1 when nothing was sampled. A timing sums the
        machine's slowness over its window, so the kernel times are
        averaged, not their median taken; the top and bottom tenth are
        cut first, for samples that a context switch hit."""
        if len(window) < MIN_SAMPLES:
            window = self.samples
        if not window:
            return 1.0
        w = sorted(window)
        cut = len(w) // 10
        return REFERENCE_S / statistics.mean(w[cut:len(w) - cut])
