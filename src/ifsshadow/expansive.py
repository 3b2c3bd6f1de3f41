"""Expansiveness estimation: separation times and expansiveness constants.

Expansiveness relative to a schedule means distinct points cannot keep all
their two-sided orbit distances below some threshold.  On a continuum this
can only be probed, never proved, by sampling: reports carry the verdict
``expansive-at-Delta`` meaning "no violation found at this resolution".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Optional

import numpy as np

from .core import IFS, SymbolSequence, orbit_steps
from .space import MetricGrid, _as_points, _check_real, _norms

# defaults of the expansiveness estimates, which the CLI's defaults read too
PAIR_TOLERANCE, N_CAP, N_PAIRS = 1e-3, 30, 512
DELTA_GRID = (0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05, 0.02, 0.01)


def separation_time(F: IFS, sigma: SymbolSequence, x, y, eta: float,
                    n_cap: int) -> Optional[int]:
    """Smallest |n| <= n_cap with dist(O(n)x, O(n)y) > eta, or None if saturated.

    Searches n = 0, +1, -1, +2, -2, ... so the returned time is the minimal
    |n|; symmetric in (x, y).
    """
    times = separation_times_batch(F, sigma, np.asarray(x, float)[None, :],
                                   np.asarray(y, float)[None, :], eta, n_cap)
    t = times[0]
    return None if np.isinf(t) else int(t)


def _separations(F: IFS, sigma: SymbolSequence, X, Y,
                 n_cap: int) -> Iterator[np.ndarray]:
    """Yield max(dist(O(n)x, O(n)y), dist(O(-n)x, O(-n)y)) per pair, n = 0..n_cap."""
    _check_real("n_cap", n_cap, 0)  # a negative horizon would read as saturated
    space = F.space
    XY = np.stack([_as_points(space, X), _as_points(space, Y)])
    for f, b in zip(orbit_steps(F, sigma, XY, n_cap),
                    orbit_steps(F, sigma, XY, -n_cap)):
        yield np.maximum(space.dist(f[0], f[1]), space.dist(b[0], b[1]))


def separation_times_batch(F: IFS, sigma: SymbolSequence, X, Y, eta: float,
                           n_cap: int) -> np.ndarray:
    """Vectorized separation times for pair arrays (inf where saturated)."""
    _check_real("eta", eta, 0)  # identical points would exceed eta < 0 at n = 0
    times = np.full(len(X), np.inf)
    for n, sep in enumerate(_separations(F, sigma, X, Y, n_cap)):
        times[np.isinf(times) & (sep > eta)] = n
        if not np.any(np.isinf(times)):
            break
    return times


def max_orbit_separation(F: IFS, sigma: SymbolSequence, X, Y,
                         n_cap: int) -> np.ndarray:
    """max over |n| <= n_cap of dist(O(n)x, O(n)y), per pair."""
    return reduce(np.maximum, _separations(F, sigma, X, Y, n_cap))


@dataclass(frozen=True)
class DeltaVerdict:
    delta: float
    violated: bool
    n_violations: int


@dataclass(frozen=True)
class ExpansivenessReport:
    sigma: SymbolSequence
    candidate_delta: Optional[float]   # largest tested Delta with no violation
    n_cap: int
    pair_tolerance: float
    verdicts: tuple[DeltaVerdict, ...]
    violating_pairs: tuple[tuple[np.ndarray, np.ndarray, float], ...]
    verdict: str                       # "expansive-at-Delta" | "violated" | "inconclusive"

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma.to_dict(),
            "candidate_Delta": self.candidate_delta,
            "N_cap": self.n_cap,
            "pair_tolerance": self.pair_tolerance,
            "Delta_grid": [v.delta for v in self.verdicts],
            "verdicts": [
                {"Delta": v.delta, "violated": v.violated,
                 "n_violations": v.n_violations}
                for v in self.verdicts
            ],
            "violations": [
                {"x": list(x), "y": list(y), "max_sep": s}
                for x, y, s in self.violating_pairs
            ],
            "verdict": self.verdict,
        }


def _sample_pairs(F: IFS, grid: MetricGrid, pair_tolerance: float,
                  n_pairs: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random grid pairs plus systematic near pairs at ~2*pair_tolerance."""
    rng = np.random.default_rng(seed)
    pts = grid.points
    i = rng.integers(0, len(pts), size=n_pairs)
    j = rng.integers(0, len(pts), size=n_pairs)
    X, Y = pts[i], pts[j]
    d = F.space.dim
    base = pts[rng.integers(0, len(pts), size=min(n_pairs, 256))]
    # d+1 offsets of length 2*pair_tolerance: one per axis, one diagonal
    offs = np.vstack([np.diag(np.full(d, 2.0 * pair_tolerance)),
                      np.full(d, 2.0 * pair_tolerance / np.sqrt(d))])
    X = np.concatenate([X, np.tile(base, (d + 1, 1))])
    Y = np.concatenate([Y, F.space.normalize(base + offs[:, None]).reshape(-1, d)])
    keep = F.space.dist(X, Y) > pair_tolerance
    return X[keep], Y[keep]


def estimate_expansive_const(
    F: IFS,
    sigma: SymbolSequence,
    grid: MetricGrid,
    pair_tolerance: float = PAIR_TOLERANCE,
    n_cap: int = N_CAP,
    delta_grid=DELTA_GRID,
    n_pairs: int = N_PAIRS,
    seed: int = 0,
) -> ExpansivenessReport:
    """Estimate the expansiveness constant relative to sigma by pair sampling.

    For each Delta (descending), a violation is a sampled pair at distance
    above pair_tolerance whose two-sided orbit never separates beyond Delta
    within n_cap steps.  The candidate constant is the largest Delta without
    sampled violations - an estimate, not a proof.
    """
    _check_real("n_cap", n_cap, 0)
    _check_real("pair_tolerance", pair_tolerance, 0)
    _check_real("n_pairs", n_pairs, 1)
    deltas = sorted({_check_real("Delta", float(d)) for d in delta_grid}, reverse=True)
    max_recorded = 16                  # violating pairs kept (all are counted)
    X, Y = _sample_pairs(F, grid, pair_tolerance, n_pairs, seed)
    if X.shape[0] == 0 or not deltas:
        return ExpansivenessReport(sigma, None, n_cap, pair_tolerance,
                                   tuple(DeltaVerdict(d, False, 0) for d in deltas),
                                   (), "inconclusive")
    maxsep = max_orbit_separation(F, sigma, X, Y, n_cap)
    verdicts = []
    violations: list[tuple[np.ndarray, np.ndarray, float]] = []
    candidate = None
    for dlt in deltas:
        viol = maxsep <= dlt
        n_viol = int(np.count_nonzero(viol))
        verdicts.append(DeltaVerdict(dlt, n_viol > 0, n_viol))
        if n_viol == 0 and candidate is None:
            candidate = dlt
        for idx in np.nonzero(viol)[0][: max_recorded - len(violations)]:
            violations.append((X[idx].copy(), Y[idx].copy(), float(maxsep[idx])))
    verdict = "expansive-at-Delta" if candidate is not None else "violated"
    return ExpansivenessReport(sigma, candidate, n_cap, pair_tolerance,
                               tuple(verdicts), tuple(violations), verdict)


def estimate_N_of_mu(
    F: IFS,
    sigma: SymbolSequence,
    eta: float,
    mu: float,
    grid: MetricGrid,
    n_cap: int = N_CAP,
    seed: int = 0,
) -> Optional[int]:
    """Smallest N <= n_cap such that no sampled pair at distance >= mu keeps all
    its orbit distances <= eta for |n| < N; None if saturated.

    Pairs are grid points displaced by mu along a direction fan (the slowest
    separating orientations matter; off d = 2 the fan is random directions
    plus the coordinate axes) plus random grid pairs.
    """
    _check_real("n_cap", n_cap, 0)
    _check_real("eta", eta, 0)
    _check_real("mu", mu)
    if mu > F.space.diameter():
        return 1
    n_pairs, n_directions = 256, 16
    rng = np.random.default_rng(seed)
    pts = grid.points
    d = F.space.dim
    base = pts[rng.integers(0, len(pts), size=n_pairs)]
    if d == 2:
        ang = np.linspace(0.0, np.pi, n_directions, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    else:
        # random directions plus the d axes, which a pair split along a
        # fixed coordinate needs (the axes take no draw from rng)
        dirs = rng.standard_normal((n_directions, d))
        dirs = np.concatenate([dirs / _norms(dirs)[:, None], np.eye(d)])
    X = np.repeat(base, len(dirs), axis=0)
    Y = F.space.normalize(X + mu * np.tile(dirs, (len(base), 1)))
    i = rng.integers(0, len(pts), size=n_pairs)
    j = rng.integers(0, len(pts), size=n_pairs)
    X = np.concatenate([X, pts[i]])
    Y = np.concatenate([Y, pts[j]])
    keep = F.space.dist(X, Y) >= mu
    X, Y = X[keep], Y[keep]
    if X.shape[0] == 0:
        return 1
    times = separation_times_batch(F, sigma, X, Y, eta, n_cap)
    if np.any(np.isinf(times)):
        return None
    N = int(np.max(times)) + 1
    return N if N <= n_cap else None
