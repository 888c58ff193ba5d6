"""Feasibility map of the (sigma1, eta_a1) plane.

Scans a rectangular grid of exchange coefficients and fixed-point stocks and
cross-checks against the closed-form answer: all four feasibility conditions
are linear in k = sigma1*(eta_a1 - 1), so the feasible set is exactly an
interval in k.

The scan evaluates the whole grid in one vectorized pass, bit-identical to
per-node ``feasibility_check``: elementwise IEEE ``+ - * /`` on arrays
rounds exactly as the scalar path does. The interval endpoints are
tightened to float resolution against the same rate formulas, so interval
membership and the scan agree exactly at every representable k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator

import numpy as np

from .core import TwoGoodScenario
from .exchange import bisect

# feasibility_check is the per-node reference the scan reproduces; it stays
# importable from here because perfbench counts calls to it through this module.
from .money import _rates_at_k, feasibility_check, margins

__all__ = ["GridSpec", "RegionScan", "KInterval", "scan_region", "feasible_k_interval"]

_BRACKET_CAP = 1e30

#: Most nodes a grid may have (sigma1_steps*eta_steps); each node is a row of
#: the output file.
MAX_GRID_NODES = 10**7


@dataclass(frozen=True)
class GridSpec:
    """Node counts and ranges of the scan; ``*_steps`` counts nodes per axis."""

    sigma1_min: float
    sigma1_max: float
    sigma1_steps: int
    eta_min: float
    eta_max: float
    eta_steps: int

    def __post_init__(self) -> None:
        for name in ("sigma1_min", "sigma1_max", "eta_min", "eta_max"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if not (self.sigma1_min < self.sigma1_max):
            raise ValueError("sigma1_min must be < sigma1_max")
        if not (self.eta_min < self.eta_max):
            raise ValueError("eta_min must be < eta_max")
        if self.sigma1_steps < 2 or self.eta_steps < 2:
            raise ValueError("each axis needs at least 2 nodes")
        if self.sigma1_steps * self.eta_steps > MAX_GRID_NODES:
            raise ValueError(
                f"sigma1_steps*eta_steps = {self.sigma1_steps * self.eta_steps} exceeds "
                f"the cap of {MAX_GRID_NODES} nodes"
            )
        if self.sigma1_min < 0.0:
            raise ValueError("sigma1_min must be >= 0")
        if self.eta_min < 1.0:
            raise ValueError("eta_min must be >= 1")

    def sigma1_values(self) -> list[float]:
        return _axis(self.sigma1_min, self.sigma1_max, self.sigma1_steps)

    def eta_values(self) -> list[float]:
        return _axis(self.eta_min, self.eta_max, self.eta_steps)


def _axis(lo: float, hi: float, n: int) -> list[float]:
    # Interpolate from the endpoints with index fractions; no accumulated
    # rounding, identical nodes on every platform.
    span = hi - lo
    last = n - 1
    return [lo + span * (i / last) for i in range(n)]


@dataclass(frozen=True)
class KInterval:
    """Closed interval of transfer intensities k = sigma1*(eta_a1 - 1);
    empty when lo > hi."""

    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, k: float) -> bool:
        return self.lo <= k <= self.hi


@dataclass(eq=False)
class RegionScan:
    """Feasibility on the grid as arrays: rows indexed by eta_a1, columns by
    sigma1."""

    grid: GridSpec
    sigma1: np.ndarray
    eta_a1: np.ndarray
    k: np.ndarray
    dm_a: np.ndarray
    dm_b: np.ndarray
    p_a2: np.ndarray
    p_b1: np.ndarray
    feasible: np.ndarray

    def rows(
        self,
    ) -> Iterator[tuple[float, float, float, float, float, float, float, bool]]:
        """Flat (sigma1, eta_a1, k, dm_a, dm_b, p_a2, p_b1, feasible) tuples of
        Python scalars in row-major eta order."""
        sig = self.sigma1.tolist()
        columns = (self.k, self.dm_a, self.dm_b, self.p_a2, self.p_b1, self.feasible)
        # One eta row at a time: converting whole columns up front raises the
        # peak memory of a 40k-node scan.
        for i, eta in enumerate(self.eta_a1.tolist()):
            yield from zip(sig, repeat(eta), *(a[i].tolist() for a in columns))

    def feasible_mask(self) -> np.ndarray:
        return self.feasible


def scan_region(s: TwoGoodScenario, grid: GridSpec) -> RegionScan:
    """Evaluate the feasibility conditions at every grid node in one
    vectorized pass, bit-identical to per-node ``feasibility_check``.

    ``GridSpec`` guarantees finite nodes with sigma1 >= 0 and eta_a1 >= 1,
    so no node needs the per-call checks of the scalar path. Raises
    ``ValueError`` if the scenario is invalid or a rate overflows.
    """
    sig = np.array(grid.sigma1_values())
    eta = np.array(grid.eta_values())
    with np.errstate(over="ignore", invalid="ignore"):
        k = sig[None, :] * (eta[:, None] - 1.0)
        dm_a, dm_b, _, p_a2, p_b1, _ = _rates_at_k(s, margins(s), k)
    finite = np.isfinite(k) & np.isfinite(dm_a) & np.isfinite(dm_b)
    finite &= np.isfinite(p_a2) & np.isfinite(p_b1)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(
            f"region rates overflow at sigma1={float(sig[j])!r}, "
            f"eta_a1={float(eta[i])!r}; shrink the grid ranges"
        )
    feasible = (dm_a >= 0.0) & (dm_b >= 0.0) & (p_a2 >= 0.0) & (p_b1 >= 0.0)
    return RegionScan(grid, sig, eta, k, dm_a, dm_b, p_a2, p_b1, feasible)


def _switch(pred: Callable[[float], bool]) -> tuple[float, float]:
    """Bracket the switch of a monotone false-to-true predicate on k >= 0:
    (largest float where it is false, smallest float where it is true).

    Returns (-inf, 0.0) when it already holds at 0 and (inf, inf) when it
    never holds below the bracket cap."""
    if pred(0.0):
        return -math.inf, 0.0
    lo, hi = 0.0, 1.0
    while not pred(hi):
        lo = hi
        hi *= 2.0
        if hi > _BRACKET_CAP:
            return math.inf, math.inf
    lo, hi, _ = bisect(lambda k: pred(k) or None, lo, hi, at_hi=True)
    return lo, hi


def feasible_k_interval(s: TwoGoodScenario) -> KInterval:
    """Solve the four feasibility conditions for k and intersect.

    The money conditions are non-decreasing in k (exports earn, so more
    transfer helps) and the production conditions non-increasing (the
    importers' own production shrinks), giving two lower and two upper
    bounds. Endpoints are exact at float resolution with respect to the
    scanner's arithmetic.
    """
    m = margins(s)
    lo = max(
        _switch(lambda k: _rates_at_k(s, m, k)[0] >= 0.0)[1],  # country A money rate
        _switch(lambda k: _rates_at_k(s, m, k)[1] >= 0.0)[1],  # country B money rate
        0.0,
    )
    hi = min(
        _switch(lambda k: not _rates_at_k(s, m, k)[3] >= 0.0)[0],  # A's production of good 2
        _switch(lambda k: not _rates_at_k(s, m, k)[4] >= 0.0)[0],  # B's production of good 1
    )
    return KInterval(lo, hi)
