"""IFS families, symbol sequences, chains and the map/family distances.

An iterated function system is a finite indexed family of maps on one space;
a symbol sequence schedules which map is applied at each step.  Chains are
finite windows {x_0, ..., x_m} with per-link residuals
``dist(x_{k+1}, f_{sigma(k)}(x_k))``; a delta-chain keeps every residual
at most delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .maps import SmoothMap
from .space import MetricGrid, Space, _as_points, ball_sample


@dataclass(frozen=True)
class IFS:
    """Finite ordered family of maps sharing one space, indexed 0..N-1."""

    maps: tuple[SmoothMap, ...]

    def __post_init__(self):
        if len(self.maps) == 0:
            raise ValueError("an IFS needs at least one map")
        sp = self.maps[0].space
        if any(m.space != sp for m in self.maps):
            raise ValueError("all maps of an IFS must share one space")

    @property
    def space(self) -> Space:
        return self.maps[0].space

    def __len__(self) -> int:
        return len(self.maps)

    @property
    def invertible(self) -> bool:
        return all(m.invertible for m in self.maps)

    def step(self, symbols, X) -> np.ndarray:
        """Images f_{symbols[i]}(X[i]), one map call per distinct symbol."""
        X = np.asarray(X, dtype=float)
        out = np.empty_like(X)
        for s, idx in _symbol_groups(symbols):
            out[idx] = self.maps[s](X[idx])
        return out

    def jacobians(self, symbols, X) -> np.ndarray:
        """Jacobians Df_{symbols[i]}(X[i]), one map call per distinct symbol."""
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape + X.shape[-1:])
        for s, idx in _symbol_groups(symbols):
            out[idx] = self.maps[s].jacobian(X[idx])
        return out


def _symbol_groups(symbols) -> Iterator[tuple[int, np.ndarray]]:
    symbols = np.asarray(symbols)
    for s in np.unique(symbols):
        yield int(s), np.nonzero(symbols == s)[0]


def make_ifs(maps: Iterable[SmoothMap]) -> IFS:
    return IFS(tuple(maps))


@dataclass(frozen=True)
class SymbolSequence:
    """Symbol schedule: an explicit window plus an extension rule.

    ``extension`` is either ``"periodic"`` (repeat the window over Z) or
    ``"constant:J"`` (symbol J outside the window).  ``lookup(k)`` is total
    over the integers.
    """

    window: tuple[int, ...]
    extension: str = "periodic"
    k_min: int = 0

    def __post_init__(self):
        if len(self.window) == 0:
            raise ValueError("symbol window must be nonempty")
        kind, _, value = self.extension.partition(":")
        if kind == "constant":
            try:
                int(value)
            except ValueError:
                raise ValueError(
                    f"constant extension needs a symbol, got {self.extension!r}"
                ) from None
        elif kind != "periodic":
            raise ValueError(f"unknown extension rule {self.extension!r}")

    @classmethod
    def constant(cls, symbol: int) -> "SymbolSequence":
        return cls(window=(symbol,), extension=f"constant:{symbol}")

    @classmethod
    def periodic(cls, symbols: Sequence[int]) -> "SymbolSequence":
        return cls(window=tuple(int(s) for s in symbols), extension="periodic")

    @classmethod
    def random(cls, n_symbols: int, length: int, seed: int) -> "SymbolSequence":
        rng = np.random.default_rng(seed)
        w = rng.integers(0, n_symbols, size=length)
        return cls(window=tuple(int(s) for s in w), extension="periodic")

    def lookup(self, k: int) -> int:
        i = k - self.k_min
        n = len(self.window)
        if 0 <= i < n:
            return self.window[i]
        if self.extension == "periodic":
            return self.window[i % n]
        return int(self.extension.split(":", 1)[1])

    def symbols(self, k_from: int, k_to: int) -> np.ndarray:
        """Symbols for k in [k_from, k_to), as an integer array."""
        window = np.array(self.window, dtype=np.intp)
        i = np.arange(k_from - self.k_min, k_to - self.k_min)
        if self.extension == "periodic":
            return window[i % window.size]
        out = np.full(i.size, int(self.extension.split(":", 1)[1]), dtype=np.intp)
        inside = (i >= 0) & (i < window.size)
        out[inside] = window[i[inside]]
        return out

    def shift(self, offset: int) -> "SymbolSequence":
        """Sequence s' with s'(k) = s(k + offset)."""
        return SymbolSequence(self.window, self.extension, self.k_min - offset)

    def to_dict(self) -> dict:
        d = {"window": list(self.window), "extension": self.extension}
        if self.k_min:
            d["k_min"] = self.k_min
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SymbolSequence":
        return cls(window=tuple(int(s) for s in d["window"]),
                   extension=d.get("extension", "periodic"),
                   k_min=int(d.get("k_min", 0)))


CHAIN_KINDS = ("exact-chain", "delta-chain", "shadow-candidate")


@dataclass(frozen=True, eq=False)
class ChainRecord:
    """Finite window of points x_0..x_m with its symbol schedule.

    ``delta`` is the claimed slack (0 for exact chains); ``kind`` tags how
    the chain was produced, not a verified property - use validate_chain.
    """

    points: np.ndarray  # shape (m+1, d)
    sigma: SymbolSequence
    delta: float = 0.0
    kind: str = "delta-chain"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("chain needs a (m+1, d) array with m >= 0")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.kind not in CHAIN_KINDS:
            raise ValueError(f"unknown chain kind {self.kind!r}")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def n_links(self) -> int:
        return self.points.shape[0] - 1


def orbit_steps(F: IFS, sigma: SymbolSequence, x, k: int) -> Iterator[np.ndarray]:
    """Lazily yield O(0)x, O(1)x, ..., O(k)x, batched over x's leading axes.

    Forward steps apply f_{s(j)} and reduce mod 1 on the torus, with the
    values of SmoothMap.__call__; a negative k steps back through the
    inverses f_{s(-1)}^{-1}, f_{s(-2)}^{-1}, ... and raises ValueError,
    before yielding anything, when a map is not invertible.  The schedule is
    resolved with one ``symbols`` call.
    """
    if k < 0 and not F.invertible:
        raise ValueError("negative-step orbit map needs invertible maps")
    space = F.space
    y = space.normalize(_as_points(space, x))
    yield y
    if k >= 0:
        fwds = [m.fwd for m in F.maps]
        periodic = space.periodic
        for s in sigma.symbols(0, k).tolist():
            y = np.asarray(fwds[s](y), dtype=float)
            if periodic:
                y = y - np.floor(y)
            yield y
    else:
        for s in sigma.symbols(k, 0)[::-1].tolist():
            y = F.maps[s].invert(y)
            yield y


def orbit_map(F: IFS, sigma: SymbolSequence, k: int, x) -> np.ndarray:
    """k-step orbit map O(k): O(0) = id, O(k) = f_{s(k-1)} o ... o f_{s(0)}.

    Negative k composes inverses: O(-1) = f_{s(-1)}^{-1} etc., so the cocycle
    O(k+1) = f_{s(k)} o O(k) holds for every integer k.
    """
    for y in orbit_steps(F, sigma, x, k):
        pass
    return y


@dataclass(frozen=True)
class ChainVerdict:
    is_exact_chain: bool
    max_residual: float          # the smallest delta the chain is a delta-chain for
    worst_k: Optional[int]       # link with the largest residual, None for one point


def link_residuals(F: IFS, chain: ChainRecord) -> np.ndarray:
    """Per-link residuals dist(x_{k+1}, f_{sigma(k)}(x_k)), vectorized by symbol."""
    pts = chain.points
    images = F.step(chain.sigma.symbols(0, chain.n_links), pts[:-1])
    return F.space.dist(images, pts[1:])


def validate_chain(F: IFS, chain: ChainRecord, tol: float = 1e-9) -> ChainVerdict:
    res = link_residuals(F, chain)
    if res.size == 0:
        return ChainVerdict(True, 0.0, None)
    worst = int(np.argmax(res))
    worst_val = float(res[worst])
    return ChainVerdict(worst_val <= tol, worst_val, worst)


NOISE_MODELS = ("uniform-ball", "round")


def _parse_noise(noise: str) -> tuple[str, int]:
    if noise == "uniform-ball":
        return "uniform-ball", 0
    if noise.startswith("round:"):
        decimals = int(noise.split(":", 1)[1])
        if decimals < 0:
            raise ValueError("round noise model needs decimals >= 0")
        return "round", decimals
    raise ValueError(f"unknown noise model {noise!r}")


def gen_pseudo_orbit(
    F: IFS,
    sigma: SymbolSequence,
    x0,
    delta: float,
    steps: int,
    noise: str = "uniform-ball",
    seed: int = 0,
) -> ChainRecord:
    """Seeded delta-chain of `steps` links: x_{k+1} = f_{sigma(k)}(x_k) + e_k.

    ``uniform-ball`` draws e_k uniformly from the delta-ball; ``round:D``
    rounds every image (and x_0) to D decimals, for which the recorded slack
    is the rounding bound 0.5 * 10^-D * sqrt(d).
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    kind, decimals = _parse_noise(noise)
    space = F.space
    d = space.dim
    x = space.normalize(_as_points(space, x0))
    pts = np.empty((steps + 1, d))
    if kind == "round":
        x = space.normalize(np.round(x, decimals))
    pts[0] = x
    if kind == "uniform-ball" and delta > 0:
        errs = ball_sample(np.random.default_rng(seed), steps, d, delta)
    else:
        errs = np.zeros((steps, d))
    fwds = [m.fwd for m in F.maps]
    periodic = space.periodic
    for k, s in enumerate(sigma.symbols(0, steps).tolist()):
        y = np.asarray(fwds[s](pts[k]), dtype=float)
        if periodic:
            y = y - np.floor(y)
        if kind == "round":
            y = np.round(y, decimals)
        y = y + errs[k]
        if periodic:
            y = y - np.floor(y)
        pts[k + 1] = y
    if kind == "round":
        bound = 0.5 * 10.0 ** (-decimals) * np.sqrt(d)
    else:
        bound = delta
    return ChainRecord(
        points=pts,
        sigma=sigma,
        delta=float(bound),
        kind="exact-chain" if bound == 0.0 else "delta-chain",
    )


def iterate_chain(F: IFS, sigma: SymbolSequence, x0, steps: int) -> ChainRecord:
    """Exact chain from x0: plain forward iteration under the schedule."""
    return gen_pseudo_orbit(F, sigma, x0, 0.0, steps)


# ---------------------------------------------------------------------------
# distances between maps and between families
# ---------------------------------------------------------------------------

def _require_invertible(*ms: SmoothMap):
    for m in ms:
        if not m.invertible:
            raise ValueError(f"map {m.label!r} is not invertible")


def rho0(f: SmoothMap, g: SmoothMap, grid: MetricGrid) -> float:
    """sup over the grid of the forward and inverse discrepancies of f and g."""
    _require_invertible(f, g)
    X = grid.points
    space = f.space
    fwd = float(np.max(space.dist(f(X), g(X))))
    bwd = float(np.max(space.dist(f.invert(X), g.invert(X))))
    return max(fwd, bwd)


def _spectral_norms(M: np.ndarray) -> np.ndarray:
    return np.linalg.svd(M, compute_uv=False)[..., 0]


def rho1(f: SmoothMap, g: SmoothMap, grid: MetricGrid) -> float:
    """rho0 plus the sup of the spectral norm of the Jacobian difference."""
    if f.jac is None or g.jac is None:
        raise ValueError("rho1 needs Jacobians on both maps")
    X = grid.points
    dJ = f.jacobian(X) - g.jacobian(X)
    return rho0(f, g, grid) + float(np.max(_spectral_norms(dJ)))


def _family_distance(F: IFS, G: IFS, grid: MetricGrid, mode: str, metric) -> float:
    if F is G or F == G:
        return 0.0
    if mode == "matched":
        if len(F) != len(G):
            raise ValueError(
                f"matched mode needs equally sized families ({len(F)} vs {len(G)})"
            )
        return max(metric(f, g, grid) for f, g in zip(F.maps, G.maps))
    if mode == "all-pairs":
        return max(metric(f, g, grid) for f in F.maps for g in G.maps)
    raise ValueError(f"unknown mode {mode!r}")


def dist_D0(F: IFS, G: IFS, grid: MetricGrid, mode: str = "matched") -> float:
    """Family distance built from rho0.

    ``matched`` compares equal indices (the form consumed by the stability
    constructions); ``all-pairs`` takes the max over every cross pair.
    Identical families are at distance 0 in both modes.
    """
    return _family_distance(F, G, grid, mode, rho0)


def dist_D1(F: IFS, G: IFS, grid: MetricGrid, mode: str = "matched") -> float:
    """Family distance built from rho1 (adds the Jacobian-difference term)."""
    return _family_distance(F, G, grid, mode, rho1)
