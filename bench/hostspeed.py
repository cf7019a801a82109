"""The host's speed, sampled while the benchmark runs.

This benchmark runs on shared machines whose speed drifts by 20-100% over
seconds to minutes as other tenants load the same cores and memory, so a
raw pass time mostly measures the neighbours. A ``Probe`` times a small
fixed kernel that does not use codeq, either in bursts or on a wall-clock
interval timer while a pass runs, and turns each timing into a speed:
``NOMINAL_S[kind]`` over the measured duration, so 1.0 is the reference
speed and 0.5 half of it. The kernel is chosen to slow down the way the
workload's own hot loop does:

- ``python``: interpreter work on small NumPy arrays, read one scalar at
  a time into a Python list, as in the information-set engine's candidate
  loop;
- ``numpy``: an XOR-indexed gather and element-wise minimum over
  half-million-cell arrays, as in the syndrome DP;
- ``mixed``: one of each, for set-up, which is partly interpreter work
  (executing module bodies, building tables) and partly native code
  (loading extension modules, NumPy calls).

A pass that took ``wall`` seconds, of which ``probe`` went to the probe's
own kernels, at a mean sampled speed ``v``, would have taken
``(wall - probe) * v`` seconds at the reference speed. The mean of speeds
over samples taken at even wall-clock intervals is the pass's mean rate
of progress, which is what turns elapsed time into work done.
"""

import contextlib
import signal
import statistics
from time import perf_counter

import numpy as np

# Kernel times that count as the reference speed: about their typical
# in-pass times on a 2-core Intel Xeon VM (Python 3.11, NumPy 2.4). Any
# fixed values would do; they only set the scale of the normalised times.
NOMINAL_S = {"python": 0.0029, "numpy": 0.0061, "mixed": 0.0080}
CELLS = 1 << 19
INTERVAL_S = 0.1
# Sample slots are allocated up front: a list that grew inside the timer
# handler would reallocate on the C heap in the middle of a pass and could
# raise its peak RSS. 4096 slots cover a pass of nearly seven minutes.
MAX_SAMPLES = 4096


class Probe:
    """The probe kernels, their arrays, and the speeds measured per kind.

    One ``Probe`` serves a whole worker process, so the arrays (about
    5 MB) are allocated once.
    """

    def __init__(self):
        self._digits = np.arange(64, dtype=np.int64) % 4
        self._base = np.arange(CELLS, dtype=np.int32)
        self._index = np.empty(CELLS, dtype=np.int32)
        self._dist = np.resize(np.arange(251, dtype=np.uint8), CELLS)
        self._out = np.empty(CELLS, dtype=np.uint8)
        self._times = {k: [0.0] * MAX_SAMPLES for k in NOMINAL_S}
        self._count = dict.fromkeys(NOMINAL_S, 0)
        self._mixed()  # first call pays for lazy set-up inside NumPy

    def _python(self) -> None:
        digits = self._digits
        for _ in range(160):
            word = [0] * 64
            for j in range(64):
                word[j] = (word[j] + int(digits[j])) & 3
            sum(1 for x in word if x)

    def _numpy(self) -> None:
        for k in (1, 2):
            np.bitwise_xor(self._base, k, out=self._index)
            np.take(self._dist, self._index, out=self._out)
            np.minimum(self._out, self._dist, out=self._out)

    def _mixed(self) -> None:
        self._python()
        self._numpy()

    def sample(self, kind: str) -> None:
        """Time one kernel of ``kind``; once its slots are full, do nothing."""
        i = self._count[kind]
        if i == MAX_SAMPLES:
            return
        kernel = getattr(self, f"_{kind}")
        t = perf_counter()
        kernel()
        self._times[kind][i] = perf_counter() - t
        self._count[kind] = i + 1

    def durations(self, kind: str) -> list[float]:
        return self._times[kind][:self._count[kind]]

    def burst(self, kind: str, count: int) -> None:
        for _ in range(count):
            self.sample(kind)

    def spent_s(self, kind: str) -> float:
        return sum(self.durations(kind))

    def speed(self, kind: str) -> float | None:
        """Mean speed over the samples of ``kind``, relative to the reference.

        None if there are no samples.
        """
        nominal = NOMINAL_S[kind]
        samples = self.durations(kind)
        return statistics.fmean(nominal / d for d in samples) if samples else None

    @contextlib.contextmanager
    def sampling(self, kind: str):
        """Sample ``kind`` every ``INTERVAL_S`` of wall time inside the block.

        The handler runs between bytecodes, so a sample due during a long
        NumPy call is taken as soon as that call returns. One more sample
        is taken as the block ends, so a short block has one too.
        """
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown probe kind {kind!r}")
        previous = signal.signal(signal.SIGALRM,
                                 lambda *_: self.sample(kind))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample(kind)
