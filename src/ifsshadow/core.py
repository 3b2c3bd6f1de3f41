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

from .maps import SmoothMap, _require_invertible, _require_jacobian
from .space import (MetricGrid, Space, _as_points, _check_count, _check_real, _finite_points,
                    _norms, ball_sample)

EXACT_CHAIN_TOL = 1e-9   # largest link residual of a chain counted as exact


def _same_space(what: str, *items) -> Space:
    """The one space of maps, families or grids; ValueError naming `what` if two differ."""
    spaces = {it.space for it in items}
    if len(spaces) > 1:
        raise ValueError(f"{what} must share one space, got "
                         f"{' and '.join(sorted(map(str, spaces)))}")
    return items[0].space


@dataclass(frozen=True)
class IFS:
    """Finite ordered family of maps sharing one space, indexed 0..N-1."""

    maps: tuple[SmoothMap, ...]

    def __post_init__(self):
        if len(self.maps) == 0:
            raise ValueError("an IFS needs at least one map")
        _same_space("all maps of an IFS", *self.maps)

    @property
    def space(self) -> Space:
        return self.maps[0].space

    def __len__(self) -> int:
        return len(self.maps)

    def step(self, symbols, X) -> np.ndarray:
        """Images f_{symbols[i]}(X[i]), one map call per distinct symbol."""
        X = np.asarray(X, dtype=float)
        out = np.empty_like(X)
        for s, idx in self._symbol_groups(symbols):
            out[idx] = self.maps[s](X[idx])
        return out

    def jacobians(self, symbols, X) -> np.ndarray:
        """Jacobians Df_{symbols[i]}(X[i]), one map call per distinct symbol."""
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape + X.shape[-1:])
        for s, idx in self._symbol_groups(symbols):
            out[idx] = self.maps[s].jacobian(X[idx])
        return out

    def _symbol_groups(self, symbols) -> Iterator[tuple[int, np.ndarray | slice]]:
        """(s, the indices i with symbols[i] == s) for each symbol present, in
        increasing order; slice(None) when only one symbol is present."""
        symbols = _in_family(self, np.asarray(symbols))
        if symbols.size == 0:
            return
        present = np.flatnonzero(np.bincount(symbols, minlength=len(self)))
        if present.size == 1:
            yield int(present[0]), slice(None)
            return
        for s in present.tolist():
            yield s, np.nonzero(symbols == s)[0]


def _in_family(F: IFS, symbols: np.ndarray) -> np.ndarray:
    """`symbols`, after checking that each one indexes a map of F; raises
    ValueError naming a symbol outside the family."""
    if symbols.size:
        lo, hi = int(np.min(symbols)), int(np.max(symbols))
        if lo < 0 or hi >= len(F):
            raise ValueError(f"symbol {lo if lo < 0 else hi} is outside the "
                             f"family of {len(F)} maps (symbols 0..{len(F) - 1})")
    return symbols


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
        fill = None                # the symbol outside the window; None: periodic
        if kind == "constant":
            try:
                fill = int(value)
            except ValueError:
                raise ValueError(
                    f"constant extension needs a symbol, got {self.extension!r}"
                ) from None
        elif self.extension != "periodic":
            raise ValueError(f"unknown extension rule {self.extension!r}")
        if min(self.window) < 0 or (fill is not None and fill < 0):
            raise ValueError(f"symbols must be >= 0, got window {self.window} "
                             f"and extension {self.extension!r}")
        object.__setattr__(self, "_fill", fill)
        array = np.array(self.window, dtype=np.intp)
        array.flags.writeable = False
        object.__setattr__(self, "_array", array)  # the window, read-only

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
        return cls(window=tuple(w.tolist()), extension="periodic")

    def lookup(self, k: int) -> int:
        return int(self.symbols(k, k + 1)[0])

    def symbols(self, k_from: int, k_to: int) -> np.ndarray:
        """Symbols for k in [k_from, k_to), as an integer array."""
        window = self._array
        i = np.arange(k_from - self.k_min, k_to - self.k_min)
        if self._fill is None:
            return window[i % window.size]
        out = np.full(i.size, self._fill, dtype=np.intp)
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
        """The schedule of a ``to_dict`` record; ValueError naming the field
        that is missing or has the wrong type."""
        if not isinstance(d, dict):
            raise ValueError(f"a schedule must be an object, got {d!r}")
        window = d.get("window")
        if not isinstance(window, list) or not all(map(_is_int, window)):
            raise ValueError(f"schedule field 'window' must be a list of integers, got {window!r}")
        extension = d.get("extension", "periodic")
        if not isinstance(extension, str):
            raise ValueError(f"schedule field 'extension' must be a string, got {extension!r}")
        k_min = d.get("k_min", 0)
        if not _is_int(k_min):
            raise ValueError(f"schedule field 'k_min' must be an integer, got {k_min!r}")
        return cls(window=tuple(window), extension=extension, k_min=k_min)


def _is_int(v) -> bool:
    """Whether v is a JSON integer: an int, but not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True, eq=False)
class ChainRecord:
    """Finite window of points x_0..x_m with its symbol schedule.

    ``delta`` is the claimed slack (0 for exact chains), not a verified
    property - use validate_chain.
    """

    points: np.ndarray  # shape (m+1, d)
    sigma: SymbolSequence
    delta: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("chain needs a (m+1, d) array with m >= 0")
        _check_real("delta", self.delta, 0)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def n_links(self) -> int:
        return self.points.shape[0] - 1


def orbit_steps(F: IFS, sigma: SymbolSequence, x, k: int) -> Iterator[np.ndarray]:
    """Lazily yield O(0)x, O(1)x, ..., O(k)x, batched over x's leading axes.

    Each step is one map call: SmoothMap.__call__ of f_{s(j)} forward, and
    for a negative k SmoothMap.invert of f_{s(-1)}, f_{s(-2)}, ...; a
    negative k raises ValueError (maps._require_invertible), before
    yielding anything, when a map is not invertible.  The schedule is
    resolved with one ``symbols`` call, checked against the family size
    before anything is yielded.

    A caller may ``send()`` a boolean mask over axis -2 of the last yielded
    step: later steps carry only the kept rows (taken with ``np.compress``,
    which keeps C order).  Plain iteration keeps every row.
    """
    if k < 0:
        _require_invertible(*F.maps)
    symbols = _in_family(F, sigma.symbols(min(k, 0), max(k, 0)))
    steps = [m if k >= 0 else m.invert for m in F.maps]
    y = F.space.normalize(x)
    keep = yield y
    for s in (symbols if k >= 0 else symbols[::-1]).tolist():
        if keep is not None:
            y = np.compress(keep, y, axis=-2)
        y = steps[s](y)
        keep = yield y


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


def _link_errors(F: IFS, symbols: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Displacements from f_{s(k)}(y_k) to y_{k+1} for chains Y (..., m+1, d)
    on one schedule, batched over Y's leading axes; (..., m, d)."""
    *lead, n, d = Y.shape
    B = int(np.prod(lead))
    images = F.step(np.tile(symbols, B), Y[..., :-1, :].reshape(-1, d))
    return F.space.displacement(
        images, Y[..., 1:, :].reshape(-1, d)).reshape(*lead, n - 1, d)


def link_residuals(F: IFS, chain: ChainRecord) -> np.ndarray:
    """Per-link residuals dist(x_{k+1}, f_{sigma(k)}(x_k)), vectorized by symbol."""
    return _norms(_link_errors(F, chain.sigma.symbols(0, chain.n_links), chain.points))


def validate_chain(F: IFS, chain: ChainRecord,
                   tol: float = EXACT_CHAIN_TOL) -> ChainVerdict:
    """Whether every link residual is <= tol; raises ValueError unless tol is
    finite and >= 0."""
    _check_real("tol", tol, 0)
    res = link_residuals(F, chain)
    if res.size == 0:
        return ChainVerdict(True, 0.0, None)
    worst = int(np.argmax(res))
    worst_val = float(res[worst])
    return ChainVerdict(worst_val <= tol, worst_val, worst)


def _parse_noise(noise: str) -> Optional[int]:
    """The decimals of ``round:D``; None for ``uniform-ball``."""
    if noise == "uniform-ball":
        return None
    if noise.startswith("round:"):
        decimals = int(noise.split(":", 1)[1])
        if decimals < 0:
            raise ValueError("round noise model needs decimals >= 0")
        return decimals
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
    _check_real("delta", delta, 0)
    decimals = _parse_noise(noise)
    bound = delta
    if decimals is not None:       # the rounding is the only noise
        bound, delta = 0.5 * 10.0 ** (-decimals) * np.sqrt(F.space.dim), 0.0
    return ChainRecord(
        points=_step_chain(F, sigma, x0, steps, decimals, delta, seed),
        sigma=sigma,
        delta=float(bound),
    )


def iterate_chain(F: IFS, sigma: SymbolSequence, x0, steps: int) -> ChainRecord:
    """Exact chain from x0: plain forward iteration under the schedule."""
    return ChainRecord(points=_step_chain(F, sigma, x0, steps, None),
                       sigma=sigma, delta=0.0)


def _step_chain(F: IFS, sigma: SymbolSequence, x0, steps: int, decimals: Optional[int],
                delta: float = 0.0, seed: int = 0) -> np.ndarray:
    """Points x_0..x_steps of the one-point chain x_{k+1} = f_{s(k)}(x_k) + e_k.

    `steps` must be an integer >= 0 and x0 finite (ValueError otherwise,
    as for an x0 that rounding takes to infinity); x_0 is x0 normalized.
    Each image is f_{s(k)}(x_k) as SmoothMap.__call__ gives it (reduced mod
    1 on the torus), rounded to `decimals` places when given (x_0 too),
    shifted by e_k, drawn uniformly from the delta-ball by the seed's
    generator when delta > 0 (zero otherwise), and normalized again.  Unrounded
    chains step on Python floats when d <= 2 and all maps carry ``affine``
    (_affine_steps says when its bits can differ from the array loop's) or,
    failing that, all carry ``point`` (_float_steps: the bits of the array
    loop wherever ``point`` has those of ``fwd``).  Other families and
    ``round:D`` chains step on arrays, one map call per link.
    """
    steps = _check_count("steps", steps, 0)
    space = F.space
    x0 = _finite_points("x0", _as_points(space, x0))
    x = space.normalize(x0)
    if decimals is not None:
        with np.errstate(over="ignore"):
            x = np.round(x, decimals)
        if not np.isfinite(x).all():
            raise ValueError(f"x0 = {x0.tolist()} is not finite when rounded to "
                             f"{decimals} decimals")
        x = space.normalize(x)
    symbols = _in_family(F, sigma.symbols(0, steps))
    pts = np.empty((steps + 1, space.dim))
    pts[0] = x
    errs = (ball_sample(np.random.default_rng(seed), steps, space.dim, delta) if delta > 0
            else np.zeros((steps, space.dim)))
    if decimals is None:
        coefs = [m.affine for m in F.maps]
        points = [m.point for m in F.maps]
        if space.dim <= 2 and all(c is not None for c in coefs):
            _affine_steps(pts, coefs, symbols, errs, space.periodic)
            return pts
        if all(p is not None for p in points):
            _float_steps(pts, points, symbols, errs, space.periodic)
            return pts
    maps = F.maps
    for k, s in enumerate(symbols.tolist()):
        y = maps[s](pts[k])
        if decimals is not None:
            y = np.round(y, decimals)
        pts[k + 1] = space.normalize(y + errs[k])
    return pts


def _affine_steps(pts: np.ndarray, coefs, symbols: np.ndarray, errs: np.ndarray,
                  periodic: bool) -> None:
    """_float_steps for d = 1 or d = 2 maps with coefficients coefs[s] = (A, b),
    written out on scalars.

    Coordinate i of an image is a_i0 x_0 + a_i1 x_1 + b_i, added left to
    right.  BLAS may add in another order or with fused multiply-adds, so
    where a product or a partial sum is not exact (d = 2) the last bit can
    differ from ``x @ A.T``; for d = 1, and on the cat and rotation maps,
    the bits are the same.  ``x @ A.T`` starts each sum at +0.0, so it is
    never -0.0, and a -0.0 in b leaves it unchanged; b + 0.0 turns that
    -0.0 into +0.0, which gives the same signs of zero on scalars.
    """
    rows = [(A.tolist(), (b + 0.0).tolist()) for A, b in coefs]
    # y % 1.0 equals y - floor(y): the remainder is exact, and +0.0 at zero;
    # the second % 1.0 takes a rounded-up 1.0 to 0.0 and keeps every other value
    if pts.shape[1] == 1:
        ab = [(A[0][0], b[0]) for A, b in rows]
        x = float(pts[0, 0])
        out = []
        for s, e in zip(symbols.tolist(), errs[:, 0].tolist()):
            a, b = ab[s]
            y = a * x + b
            if periodic:
                y = y % 1.0 % 1.0
            x = y + e
            if periodic:
                x = x % 1.0 % 1.0
            out.append(x)
        pts[1:, 0] = out
    else:
        ab = [(a00, a01, a10, a11, b0, b1)
              for ((a00, a01), (a10, a11)), (b0, b1) in rows]
        x0, x1 = pts[0].tolist()
        out0, out1 = [], []
        for s, e0, e1 in zip(symbols.tolist(), errs[:, 0].tolist(), errs[:, 1].tolist()):
            a00, a01, a10, a11, b0, b1 = ab[s]
            y0 = a00 * x0 + a01 * x1 + b0
            y1 = a10 * x0 + a11 * x1 + b1
            if periodic:
                y0 = y0 % 1.0 % 1.0
                y1 = y1 % 1.0 % 1.0
            x0 = y0 + e0
            x1 = y1 + e1
            if periodic:
                x0 = x0 % 1.0 % 1.0
                x1 = x1 % 1.0 % 1.0
            out0.append(x0)
            out1.append(x1)
        pts[1:, 0] = out0
        pts[1:, 1] = out1


def _float_steps(pts: np.ndarray, points, symbols: np.ndarray, errs: np.ndarray,
                 periodic: bool) -> None:
    """Fill pts[1:] as _step_chain does, on Python floats, taking each image
    from points[s](x).  v % 1.0 % 1.0 reduces as in _affine_steps.
    """
    n, d = pts.shape
    x = pts[0].tolist()
    out = []
    for s, e in zip(symbols.tolist(), errs.tolist()):
        y = []
        for v, ei in zip(points[s](x), e):
            if periodic:
                v = v % 1.0 % 1.0
            v += ei
            if periodic:
                v = v % 1.0 % 1.0
            y.append(v)
        x = y
        out += y
    pts[1:] = np.reshape(out, (n - 1, d))


# ---------------------------------------------------------------------------
# distances between maps and between families
# ---------------------------------------------------------------------------

def _rho0_gap(space: Space, forward, inverse) -> float:
    """rho0 from `forward()` and `inverse()`, each returning the grid images
    under f and under g (forward maps, then inverses); the forward pair is
    released before the inverse pair is computed."""
    fwd = float(np.max(space.dist(*forward())))
    bwd = float(np.max(space.dist(*inverse())))
    return max(fwd, bwd)


def rho0(f: SmoothMap, g: SmoothMap, grid: MetricGrid) -> float:
    """sup over the grid of the forward and inverse discrepancies of f and g."""
    _require_invertible(f, g)
    _same_space("f, g and the grid", f, g, grid)
    X = grid.points
    return _rho0_gap(f.space, lambda: (f(X), g(X)), lambda: (f.invert(X), g.invert(X)))


def _same_bits(stack: np.ndarray) -> bool:
    """Whether every entry of a nonempty float stack has the bits of its first
    entry along axis 0 (signed zeros and NaN payloads included)."""
    bits = np.ascontiguousarray(stack, dtype=float).reshape(len(stack), -1).view(np.uint64)
    # the last entry first: most stacks that differ anywhere differ there
    return bool(np.array_equal(bits[-1], bits[0]) and np.all(bits[1:] == bits[0]))


# The Frobenius screen of _max_spectral_norm: a matrix is kept when its
# Frobenius norm is at least s0 * (1 - _SCREEN_MARGIN), and the screen runs
# only when the largest |entry| lies in _SCREEN_RANGE: there no sum of
# squares overflows, and what underflow loses is far below the margin.
_SCREEN_MARGIN = 1e-9
_SCREEN_RANGE = (1e-140, 1e140)


def _max_spectral_norm(M: np.ndarray) -> float:
    """The largest spectral norm over a float stack M (k, m, n) of matrices,
    with the bits of ``np.max(np.linalg.svd(M, compute_uv=False)[..., 0])``.

    numpy runs LAPACK once per matrix, so the SVD only needs the matrices
    that can hold the maximum: one, when every matrix has the first one's
    bits; otherwise the Frobenius norm ||A||_F >= ||A||_2 screens them.  The
    matrix with the largest Frobenius norm gives s0 <= the maximum, and a
    matrix with ||A||_F < s0 * (1 - 1e-9) has a spectral norm below s0 far
    beyond rounding.  A stack that is empty, holds a non-finite entry (so
    the SVD's LinAlgError or NaN is the dense one) or has its largest
    |entry| outside [1e-140, 1e140] runs the SVD on every matrix.
    """
    if len(M) > 1 and _same_bits(M):
        M = M[:1]
    elif M.size:
        top = max(M.max(), -M.min())   # NaN for a NaN entry: no screen
        if _SCREEN_RANGE[0] <= top <= _SCREEN_RANGE[1]:
            sq = np.einsum("kij,kij->k", M, M)
            s0 = np.linalg.svd(M[np.argmax(sq)], compute_uv=False)[0]
            M = M[sq >= (s0 * (1 - _SCREEN_MARGIN)) ** 2]
    return float(np.max(np.linalg.svd(M, compute_uv=False)[..., 0]))


def rho1(f: SmoothMap, g: SmoothMap, grid: MetricGrid) -> float:
    """rho0 plus the sup of the spectral norm of the Jacobian difference.

    The sup has the bits of an SVD at every grid point, but the SVD runs
    only where the sup can be reached (_max_spectral_norm): at one point
    when all differences are equal (two affine maps), and otherwise at the
    points whose difference's Frobenius norm, a bound on its spectral norm,
    reaches (1 - 1e-9) s0, s0 the spectral norm where that bound is largest.
    """
    _require_jacobian(f, g)
    r0 = rho0(f, g, grid)
    X = grid.points
    return r0 + _max_spectral_norm(f.jacobian(X) - g.jacobian(X))


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
