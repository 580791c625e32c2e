"""A fixed piece of work that samples how fast the machine runs right now.

The benchmark runs on a shared host whose speed changes in phases of a few
seconds to minutes, by up to 1.5x.  The probe times the same small
computations every time, shaped like the three kinds of work qmcbounds
does: a pure-Python loop over a dict of lattice scores (the lattice DP),
many small numpy operations on 4 x 4 complex arrays (the samplers'
per-step kernels) and a dense LAPACK eigen-decomposition (the spectral
certificates).  Its time depends only on the machine, never on qmcbounds,
so ``Probe.scaled`` can turn a time measured between two samples into the
time it would have taken at the reference speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# probe runs per sample; the median of a sample before and one after a
# timed step sets its speed
RUNS = 5

_RNG = np.random.default_rng(20260418)
_SMALL = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_SMALL /= np.linalg.norm(_SMALL, 2)
_DENSE = _RNG.standard_normal((48, 48)) + 1j * _RNG.standard_normal((48, 48))


def _python_part() -> float:
    scores = {0: 1.0}
    for _ in range(64):
        nxt: dict = {}
        for s, m in scores.items():
            for step, w in ((1, 0.25), (0, 0.5), (-1, 0.25)):
                nxt[s + step] = nxt.get(s + step, 0.0) + m * w
        scores = nxt
    return sum(scores.values())


def _numpy_part() -> float:
    rho = np.eye(4, dtype=complex) / 4.0
    for _ in range(120):
        rho = _SMALL @ rho @ _SMALL.conj().T
        rho = rho / np.trace(rho).real
    return float(rho[0, 0].real)


def _lapack_part() -> float:
    return float(np.abs(np.linalg.eigvals(_DENSE)).max())


# each part with its time in a quiet phase of the development machine;
# scaled times read as if every probe run had taken its reference time
PARTS = {
    "python": (_python_part, 0.0018),
    "numpy": (_numpy_part, 0.0013),
    "lapack": (_lapack_part, 0.0018),
}


class Probe:
    """The named parts of the probe, run as one."""

    def __init__(self, parts):
        self.parts = [PARTS[name][0] for name in parts]
        self.reference_s = sum(PARTS[name][1] for name in parts)
        self.sample()  # the first runs pay numpy's lazy set-up

    def _run_once(self) -> float:
        start = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - start

    def sample(self) -> list[float]:
        """Seconds taken by each of ``RUNS`` runs of the probe."""
        return [self._run_once() for _ in range(RUNS)]

    def scaled(self, elapsed: float, *samples: list[float]) -> float:
        """``elapsed`` at the reference speed, by the median probe run of ``samples``."""
        return elapsed * self.reference_s / statistics.median(t for s in samples for t in s)
