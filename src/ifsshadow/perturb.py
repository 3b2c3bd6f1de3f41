"""Point-moving diffeomorphisms, perturbed families, semiconjugacies and the
ball-cover probe.

The constructions here are the executable versions of the small-perturbation
machinery: a compactly supported bump diffeomorphism moving finitely many
points to prescribed nearby targets, adjusted (pairwise-distinct) chain
points, a perturbed family admitting the adjusted points as an exact chain,
and a sampled semiconjugacy transporting orbits of a nearby family back to
the reference family via shadowing.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .core import (ChainRecord, IFS, SymbolSequence, _link_errors, _require_invertible,
                   _rho0_gap, _same_space, link_residuals, make_ifs, orbit_steps,
                   validate_chain)
from .maps import InversionError, SmoothMap, compose
from .shadowing import (NEWTON_TOL, _gauss_newton, _max_residual, _pair_ratios,
                        lipschitz_estimate)
from .space import (MetricGrid, Space, _as_points, _ball_points, _check_real, _mod1,
                    _norms, ball_sample, check_resolution)


class SupportError(ValueError):
    """Bump supports cannot satisfy disjointness and invertibility together."""


class CoverageError(ValueError):
    """Sample table too sparse to interpolate the semiconjugacy."""


# smooth compact radial profile: 1 at 0, 0 beyond 1, C^1 with bounded slope
def bump_profile(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def bump_profile_deriv(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    u = 1.0 - ti * ti
    out[inside] = np.exp(1.0 - 1.0 / u) * (-2.0 * ti / (u * u))
    return out


#: sup |d/dt bump_profile|, attained near t = 0.76
MAX_ABS_PROFILE_DERIV = 2.17035709

#: the bump inverse stops a point when its Newton step moves it by at most
#: BUMP_INVERSE_TOL; points still moving after BUMP_INVERSE_MAX_ITER steps raise
BUMP_INVERSE_TOL = 1e-13
BUMP_INVERSE_MAX_ITER = 60


def _profile_roots(c: np.ndarray, b: np.ndarray, a: float, tol: float,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Root t in [0, 1] of g(t) = t - bump_profile(s(t)) for each entry, where
    s(t)^2 = c - 2 t b + t^2 a, by Newton's method safeguarded by bisection.

    g is strictly increasing with g(0) <= 0 <= g(1) when sqrt(a) max|profile'|
    < 1.  Each step shrinks the bracket [lo, hi] of the root to the side of t
    that g's sign leaves, and a Newton step that leaves the bracket is replaced
    by its midpoint.  The profile is taken as a function of u = s^2,
    exp(1 - 1/(1 - u)), so g' has no 1/s at s = 0.  An entry stops once its
    Newton step g/g' is at most tol (never a NaN one): a step that small lands
    within tol of the root, or leaves a bracket narrower than itself.  Returns
    t and the indices still moving after BUMP_INVERSE_MAX_ITER steps.
    """
    t = np.zeros_like(c)
    idx = np.arange(c.size)
    tt, lo, hi = t.copy(), t.copy(), np.ones_like(c)
    for _ in range(BUMP_INVERSE_MAX_ITER):
        u = c + tt * (tt * a - 2.0 * b)
        # 1 - u < 2**-53 only for u >= 1, outside the support, where the
        # profile and its slope underflow to 0 as they should
        r = 1.0 / np.maximum(1.0 - u, 1e-16)
        phi = np.exp(1.0 - r)
        g = tt - phi
        dg = 1.0 + 2.0 * phi * r * r * (tt * a - b)
        lo = np.where(g < 0.0, tt, lo)
        hi = np.where(g > 0.0, tt, hi)
        step = g / dg
        new = tt - step
        bisect = (new < lo) | (new > hi)
        new[bisect] = 0.5 * (lo[bisect] + hi[bisect])
        t[idx] = new
        keep = ~(np.abs(step) <= tol)
        if not keep.all():
            idx, c, b, new, lo, hi = (v[keep] for v in (idx, c, b, new, lo, hi))
            if not idx.size:
                break
        tt = new
    return t, idx


@dataclass(frozen=True)
class BumpDiffeo(SmoothMap):
    """Identity perturbation supported on disjoint balls around the centers."""

    centers: np.ndarray = field(kw_only=True)
    displacements: np.ndarray = field(kw_only=True)
    support_radius: float = field(kw_only=True)


def move_points_diffeo(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    delta: float,
    space: Space | None = None,
    support_radius: float | None = None,
    label: str = "bump",
) -> BumpDiffeo:
    """Diffeomorphism f with f(p_i) = q_i exactly and sup |f - id| < delta.

    Requires pairwise-distinct sources and targets with dist(p_i, q_i) < delta
    and dim >= 2.  The perturbation x -> x + sum_i profile(|x-p_i|/R) d_i is a
    contraction of the identity on each support (|d_i| max|profile'| < R), so
    the inverse exists.  In support i every preimage of p is z = p - t d_i,
    where t in [0, 1] is the one root of t = profile(|w - t d_i|/R) and w is
    the displacement from p_i to p; ``_profile_roots`` finds it by a
    safeguarded scalar Newton solve per point.

    For k >= 2 the supports are disjoint (else SupportError), so each point
    lies in at most one support and gets at most one nonzero term: the
    perturbation, Jacobian and inverse visit the centers one at a time on
    (N, d) arrays, with memory linear in N.  Points outside every support are
    their own preimage.  A point with a non-finite coordinate, or still moving
    after BUMP_INVERSE_MAX_ITER Newton steps, makes the inverse raise
    InversionError.
    """
    _check_real("delta", delta)
    if space is None:
        if not pairs:
            raise ValueError("an empty pair list needs an explicit space")
        space = Space(len(pairs[0][0]))
    if space.dim < 2:
        raise ValueError("point-moving diffeomorphisms need dim >= 2")
    none = np.empty((0, space.dim))
    P = space.normalize(np.array([p for p, _ in pairs] or none, dtype=float))
    Q = space.normalize(np.array([q for _, q in pairs] or none, dtype=float))

    k = P.shape[0]
    d_pq = space.dist(P, Q)
    if np.any(d_pq >= delta):
        raise ValueError(
            f"displacement {float(np.max(d_pq)):.3e} is not < delta = {delta:.3e}"
        )
    min_sep = np.inf
    iu, ju = np.triu_indices(k, 1)
    for which, pts in (("sources", P), ("targets", Q)):
        sep = space.dist(pts[iu], pts[ju])
        if np.any(sep == 0.0):
            raise ValueError(f"{which} must be pairwise distinct")
        min_sep = min(min_sep, float(np.min(sep, initial=np.inf)))
    D = space.geodesic_displacement(P, Q)

    if support_radius is None:
        R = 0.2 if k <= 1 else 0.4 * min_sep
        if space.periodic:
            R = min(R, 0.45)
    else:
        R = _check_real("support_radius", float(support_radius))
    maxd = float(np.max(_norms(D), initial=0.0))
    if k >= 2 and min_sep <= 2.0 * R:
        raise SupportError(
            f"supports of radius {R:.4f} overlap (min center/target separation "
            f"{min_sep:.4f}); use a smaller support_radius"
        )
    if k and maxd * MAX_ABS_PROFILE_DERIV >= R:
        raise SupportError(
            f"displacement {maxd:.3e} too large for support radius {R:.4f} "
            f"(needs |d| * {MAX_ABS_PROFILE_DERIV:.4f} < R); infeasible if the "
            f"required disjoint supports are smaller"
        )

    R2 = R * R

    def near(i, flat):
        """Indices of the rows of flat within R of center i, and their
        displacements from it.  _norms(w) >= |w_0| in floating point
        (sqrt(fl(x * x)) == |x|), so only rows whose first coordinate is
        within R can be: that column is wrapped alone first, with the bits
        of ``space.displacement``, and only those rows get a full one."""
        r = flat[:, 0] - P[i, 0]
        if space.periodic:
            r -= np.floor(r)
            r -= r > 0.5
        idx = np.flatnonzero(np.abs(r) < R)
        w = space.displacement(P[i], flat[idx])
        inside = _norms(w) < R
        return idx[inside], w[inside]

    def perturbation(x):
        flat = x.reshape(-1, space.dim)
        out = np.zeros_like(flat)
        for i in range(k):
            idx, w = near(i, flat)
            out[idx] += bump_profile(_norms(w) / R)[:, None] * D[i]
        return out.reshape(x.shape)

    def fwd(x):
        return x + perturbation(x)

    def inv(p):
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1, space.dim)
        z = flat.copy()             # points outside every support stay put
        stuck = [np.flatnonzero(~np.isfinite(flat).all(axis=-1))]
        for i in range(k):
            idx, w = near(i, flat)                  # from center i to p
            if not idx.size:
                continue
            a = float(D[i] @ D[i])
            tol = BUMP_INVERSE_TOL / np.sqrt(a) if a else np.inf
            t, moving = _profile_roots(np.sum(w * w, axis=-1) / R2, (w @ D[i]) / R2,
                                       a / R2, tol)
            z[idx] = space.normalize(flat[idx] - t[:, None] * D[i])
            stuck.append(idx[moving])
        stuck = np.concatenate(stuck)
        if stuck.size:
            raise InversionError(
                f"bump inverse of {label!r}: {stuck.size} points still moving after "
                f"{BUMP_INVERSE_MAX_ITER} steps", best=z.reshape(p.shape),
                residual=float(np.max(space.dist(fwd(z[stuck]), flat[stuck]))))
        return z.reshape(p.shape)

    eye = np.eye(space.dim)

    def jac(x):
        flat = x.reshape(-1, space.dim)
        J = np.broadcast_to(eye, flat.shape + (space.dim,)).copy()
        for i in range(k):
            idx, v = near(i, flat)                  # from center i to x
            dist = _norms(v)
            pos = dist > 0.0
            di = dist[pos]
            grads = (bump_profile_deriv(di / R) / (R * di))[:, None] * v[pos]
            J[idx[pos]] += D[i][:, None] * grads[:, None, :]
        return J.reshape(x.shape + (space.dim,))

    return BumpDiffeo(
        label=label, space=space, fwd=fwd, inv=inv, jac=jac,
        centers=P, displacements=D, support_radius=R,
    )


def adjusted_points(F: IFS, chain: ChainRecord, m: int, eta: float,
                    seed: int = 0) -> np.ndarray:
    """Pairwise-distinct points y_0..y_m near the chain window.

    Follows the inductive recipe: y_0 = x_0, each y_k within
    min(eta, delta / L) of x_k (L an estimated Lipschitz bound of the family)
    and nudged minimally when it collides with an earlier point.  The outputs
    satisfy dist(x_k, y_k) < eta and dist(y_{k+1}, f(y_k)) < 3 delta.
    """
    if not 0 <= m < len(chain):
        raise ValueError(f"m = {m} outside the chain window of {len(chain)} points")
    _check_real("eta", eta)
    res = link_residuals(F, chain)
    delta = max(chain.delta, float(np.max(res[:m])) if m else 0.0)
    L = max(lipschitz_estimate(f) for f in F.maps)
    if delta > 0:
        slack = 0.9 * min(eta, delta / max(L, 1.0))
    else:
        slack = 0.9 * min(eta, 1e-12)
    rng = np.random.default_rng(seed)
    space = F.space
    ys = np.empty((m + 1, space.dim))
    for k in range(m + 1):
        cand = chain.points[k].copy()
        scale = slack
        attempts = 0
        while np.any(np.all(ys[:k] == cand, axis=1)):
            cand = space.normalize(chain.points[k] + ball_sample(rng, 1, space.dim, scale)[0])
            attempts += 1
            scale *= 0.5
            if attempts > 100:
                raise RuntimeError(
                    f"could not make y_{k} distinct within eta = {eta}"
                )
        ys[k] = cand
    return ys


def inverse_lipschitz_estimate(m: SmoothMap) -> float:
    """Lipschitz estimate of the inverse map (uniform-continuity modulus), from
    512 points of a fixed seed, so memoised on the map like lipschitz_estimate."""
    if "inverse_lipschitz" not in m._memo:
        rng = np.random.default_rng(0)
        X = m.space.uniform(rng, 512)
        if m.jac is None:
            L = float(np.max(_pair_ratios(m.invert, m.space, X, rng, 1e-3)))
        else:
            svals = np.linalg.svd(m.jacobian(X), compute_uv=False)
            smin = float(np.min(svals[..., -1]))
            if smin <= 0:
                raise ValueError(f"map {m.label!r} has a singular Jacobian on the sample")
            L = 1.0 / smin
        m._memo["inverse_lipschitz"] = L
    return m._memo["inverse_lipschitz"]


@dataclass(frozen=True)
class PerturbedIFS:
    """Perturbed family with an exact chain through the adjusted points."""

    gs: IFS
    chain: ChainRecord
    pairing: tuple[int, ...]       # index of the reference map each member perturbs
    matched_d0: float
    delta_max: float               # largest admissible chain slack for this Delta
    max_point_dist: float          # max_{k<=m} dist(x_k, y_k)
    exact_residual: float
    grid_resolution: int


def perturbed_ifs(
    F: IFS,
    chain: ChainRecord,
    m: int,
    Delta: float,
    grid_resolution: int | None = None,
    seed: int = 0,
) -> PerturbedIFS:
    """Perturbed family G carrying an exact chain Delta-close to the input.

    Builds adjusted points y_0..y_m, one bump diffeomorphism h_k moving
    f_{sigma(k)}(y_k) to y_{k+1} per link, and the family
    {h_k o f_lambda} u {f_lambda}; the chain continues beyond the window with
    the unperturbed maps.  Verifies the matched family distance against Delta
    on a grid (by default of resolution check_resolution(dim))
    and errors if the measurement fails.
    """
    _check_real("Delta", Delta)
    if F.space.dim < 2:
        raise ValueError("needs dim >= 2 (bump constructions)")
    sigma = chain.sigma

    l_inv = [inverse_lipschitz_estimate(f) for f in F.maps]
    delta0 = min([Delta / 2.0] + [0.95 * Delta / L for L in l_inv])
    delta_max = delta0 / 6.0
    delta_meas = validate_chain(F, chain).max_residual
    if delta_meas > delta_max * (1 + 1e-12):
        raise ValueError(
            f"chain slack {delta_meas:.3e} exceeds the admissible "
            f"delta(Delta) = {delta_max:.3e}"
        )

    ys = adjusted_points(F, chain, m, eta=Delta, seed=seed)
    N = len(F)
    space = F.space
    grid = MetricGrid(space, check_resolution(space.dim) if grid_resolution is None
                      else grid_resolution)
    sources = F.step(sigma.symbols(0, m), ys[:m])
    gmaps: list[SmoothMap] = []
    pairing: list[int] = []
    matched = 0.0
    images = None      # f_lambda(X), f_lambda^{-1}(X) on the grid X, taken for the first h_k
    for k in range(m + 1):
        # block k < m is h_k o F, block m the unperturbed family; a link whose
        # point already lands on y_{k+1} keeps the plain maps
        h = None
        if k < m and not np.array_equal(space.normalize(sources[k]),
                                        space.normalize(ys[k + 1])):
            h = move_points_diffeo([(sources[k], ys[k + 1])], delta=delta0 / 2.0,
                                   space=space, label=f"h{k}")
            if images is None:
                _require_invertible(*F.maps)
                images = [(f(grid.points), f.invert(grid.points)) for f in F.maps]
            h_inv = h.invert(grid.points)
        for lam, f in enumerate(F.maps):
            pairing.append(lam)
            if h is None:
                gmaps.append(f)
                continue
            gmaps.append(compose(h, f, label=f"g{k}_{lam}"))
            # rho0(h_k o f, f): the member maps X to h_k(f(X)) and back to
            # f^{-1}(h_k^{-1}(X)), the same arrays its own calls return
            f_X, f_inv_X = images[lam]
            val = _rho0_gap(space, lambda: (h(f_X), f_X),
                            lambda: (space.normalize(f.invert(h_inv)), f_inv_X))
            if val >= Delta:
                raise RuntimeError(
                    f"measured matched distance {val:.3e} >= Delta for pair "
                    f"({gmaps[-1].label}, {f.label})"
                )
            matched = max(matched, val)
    gs = make_ifs(gmaps)

    n_pts = len(chain)
    extension = orbit_steps(F, sigma.shift(m), ys[m], n_pts - 1 - m)
    ypts = np.concatenate([ys[:m], list(extension)])
    # link k < m uses member (k, sigma(k)), later links the unperturbed block
    n_sym = max(n_pts - 1, 1)
    blocks = np.minimum(np.arange(n_sym), m)
    symbols = (blocks * N + sigma.symbols(0, n_sym)).tolist()
    ysigma = SymbolSequence(window=tuple(symbols),
                            extension=f"constant:{symbols[-1]}")
    ychain = ChainRecord(ypts, ysigma, delta=0.0)

    verdict = validate_chain(gs, ychain)
    if not verdict.is_exact_chain:
        raise RuntimeError(
            f"constructed chain is not exact (residual {verdict.max_residual:.3e})"
        )
    max_pd = float(np.max(space.dist(chain.points[: m + 1], ys)))
    if max_pd >= Delta:
        raise RuntimeError("adjusted points strayed beyond Delta")
    return PerturbedIFS(
        gs=gs, chain=ychain, pairing=tuple(pairing), matched_d0=matched,
        delta_max=delta_max, max_point_dist=max_pd,
        exact_residual=verdict.max_residual, grid_resolution=grid.resolution,
    )


# ---------------------------------------------------------------------------
# semiconjugacy from shadowing
# ---------------------------------------------------------------------------

def _orbit_window(G: IFS, sigma: SymbolSequence, X: np.ndarray, K: int,
                  two_sided: bool = True) -> np.ndarray:
    """Orbit points O(k)(x) for k in [-K, K] (or [0, K]), one row per sample."""
    forward = list(orbit_steps(G, sigma, X, K))
    if not two_sided:
        return np.stack(forward, axis=1)
    return np.stack(list(orbit_steps(G, sigma, X, -K))[:0:-1] + forward, axis=1)


def _nearest_samples(space: Space, samples: np.ndarray, queries: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest sample and the distance to it, for each query.

    A k-d tree (periodic with box 1 on the torus) proposes the two nearest
    samples of each query.  Where the second is as near as the first, up to
    the tree's rounding, all samples in that ball are re-ranked by
    ``space.dist``, and among equal distances the lowest sample index wins,
    as ``np.argmin`` over all samples would choose; elsewhere the first is
    the nearest.  Repeated sample rows enter the tree once, under their first
    index, so they cause no ties.  Memory is linear in the numbers of samples
    and queries.
    """
    keep = np.sort(np.unique(samples, axis=0, return_index=True)[1])
    # the periodic tree takes coordinates in [0, 1) only
    data, probes = space.normalize(samples[keep]), space.normalize(queries)
    tree = cKDTree(data, boxsize=1.0 if space.periodic else None)
    k = min(len(keep), 2)
    tree_d, cand = (a.reshape(len(queries), -1) for a in tree.query(probes, k=k))
    idx = keep[cand[:, 0]]
    if k == 2:
        radius = tree_d[:, 0] * (1.0 + 1e-9) + 1e-12
        for q in np.flatnonzero(tree_d[:, 1] <= radius):
            ball = keep[np.sort(tree.query_ball_point(probes[q], radius[q]))]
            idx[q] = ball[np.argmin(space.dist(queries[q], samples[ball]))]
    return idx, space.dist(queries, samples[idx])


@dataclass(frozen=True)
class SemiConjugacy:
    """Sampled table of the map h transporting G-orbits to F-chains."""

    samples: np.ndarray          # (n, d)
    images: np.ndarray           # (n, d), NaN rows where the solver failed
    epsilon: float
    K: int
    sigma: SymbolSequence
    residuals: np.ndarray        # (n, window) per-step shadowing distances
    chain_delta: np.ndarray      # (n,) measured slack of each pseudo-orbit
    flagged: tuple[int, ...]     # samples whose shadowing solve failed
    two_sided: bool = True       # windows k in [-K, K]; [0, K] on the cube
    # the samples' G-orbit windows (n, window, d) and the family G they were
    # stepped in, for semiconj_residual to reuse
    windows: np.ndarray | None = field(default=None, compare=False, repr=False)
    G: IFS | None = field(default=None, compare=False, repr=False)

    @property
    def _usable(self) -> np.ndarray:
        """Indices of the samples whose shadowing solve succeeded."""
        return np.setdiff1d(np.arange(self.samples.shape[0]), self.flagged)

    @property
    def max_residual(self) -> float:
        ok = self._usable
        return float(np.max(self.residuals[ok])) if ok.size else np.inf

    def max_image_dist(self, space: Space) -> float:
        ok = self._usable
        if not ok.size:
            return np.inf
        return float(np.max(space.dist(self.samples[ok], self.images[ok])))

    def image_covering_radius(self, space: Space) -> float:
        """Covering radius of the image set over a probe grid of resolution
        check_resolution(dim), the grid that checks a perturbed family.

        Surjectivity of h is only checkable approximately from finite data:
        a value at most 2*epsilon means the images form a 2*epsilon-net.  Each
        probe's nearest image comes from a k-d tree, so memory is linear in
        the numbers of probes and images.
        """
        ok = self._usable
        if not ok.size:
            return np.inf
        probes = MetricGrid(space, check_resolution(space.dim)).points
        _, dist = _nearest_samples(space, self.images[ok], probes)
        return float(np.max(dist))


def build_semiconj(
    F: IFS,
    G: IFS,
    sigma: SymbolSequence,
    eps: float,
    samples: np.ndarray,
    K: int,
) -> SemiConjugacy:
    """h(x) = k=0 point of the F-chain shadowing the G-orbit window of x.

    Each sample's G-orbit window is a delta-chain of F (delta = the matched
    family distance); shadowing it with F and reading off the k = 0 point
    defines h.  One batched Gauss-Newton solve, with ``shadow_newton``'s
    stopping rule (NEWTON_TOL, at most NEWTON_MAX_ITER sweeps), shadows all
    windows, so F needs Jacobians, and each row has the bits of
    ``shadow_newton`` on its window.  Samples whose window misses NEWTON_TOL
    are flagged, with NaN rows; a LinAlgError of the stacked solve flags them
    all.  `eps` is the table's epsilon, the coverage tolerance of
    ``semiconj_residual``.
    Residuals store dist(G-orbit_k(x), F-orbit_k(h(x))).  Windows follow
    the space: k in [-K, K] on the torus, k in [0, K] on the cube, where the
    inverse of a contraction blows orbits up.  F and G must share one space.
    """
    _check_real("eps", eps)
    _check_real("K", K, 0)
    two_sided = _same_space("F and G", F, G).periodic
    X = _as_points(F.space, samples)
    lo = K if two_sided else 0
    windows = _orbit_window(G, sigma, X, K, two_sided)      # (n, window, d)
    symbols = sigma.symbols(-lo, K)
    chain_delta = _max_residual(_link_errors(F, symbols, windows))   # window slacks
    try:
        shadows, res, _, _ = _gauss_newton(F, symbols, windows)
        failed = ~(res <= NEWTON_TOL)
    except np.linalg.LinAlgError:
        shadows, failed = np.empty_like(windows), np.ones(X.shape[0], dtype=bool)
    shadows[failed] = np.nan
    return SemiConjugacy(
        samples=X, images=shadows[:, lo].copy(), epsilon=eps, K=K, sigma=sigma,
        residuals=F.space.dist(windows, shadows), chain_delta=chain_delta,
        flagged=tuple(np.flatnonzero(failed).tolist()), two_sided=two_sided,
        windows=windows, G=G,
    )


def semiconj_residual(
    F: IFS,
    G: IFS,
    sigma: SymbolSequence,
    h: SemiConjugacy,
    K: int,
) -> float:
    """Defect of the conjugation identity, max over samples and |k| <= K of
    dist(F-orbit_k(h(x)), h(G-orbit_k(x))), with h read off at the nearest
    sample.  Raises CoverageError if a queried point is farther than the
    table's epsilon from every sample.  The nearest sample comes from a k-d
    tree, so memory is linear in the number of samples.  F and G must share
    one space, and `sigma` must agree with the table's schedule on every link
    either window uses (ValueError otherwise).  For the G the table was built
    with and K <= h.K, the G-orbit windows are the table's, trimmed to [-K, K].
    """
    _check_real("K", K, 0)
    _same_space("F and G", F, G)
    hi = max(K, h.K)
    lo = hi if h.two_sided else 0
    if not np.array_equal(sigma.symbols(-lo, hi), h.sigma.symbols(-lo, hi)):
        raise ValueError("sigma differs from the semiconjugacy table's schedule")
    ok = h._usable
    if ok.size == 0:
        raise ValueError("semiconjugacy table is empty")
    samples = h.samples[ok]
    images = h.images[ok]
    space = F.space
    if G is h.G and K <= h.K:
        # the table's windows hold k in [-h.K, h.K], or [0, h.K] one-sided
        PG = h.windows[ok, lo - K if h.two_sided else 0:lo + K + 1]
    else:
        PG = _orbit_window(G, sigma, samples, K, h.two_sided)
    nearest, dist = _nearest_samples(space, samples, PG.reshape(-1, space.dim))
    coverage = float(np.max(dist))
    if coverage > h.epsilon:
        raise CoverageError(
            f"nearest-sample distance {coverage:.4f} exceeds {h.epsilon:.4f}; "
            f"sample the space more densely"
        )
    h_of_queries = images[nearest].reshape(PG.shape)
    PF = _orbit_window(F, sigma, images, K, h.two_sided)
    return float(np.max(space.dist(PF, h_of_queries)))


# ---------------------------------------------------------------------------
# ball-cover probe
# ---------------------------------------------------------------------------

#: probe coordinates per ball-cover block (16,384 probes at d = 4): one
#: such array is 512 KB, so the few alive at once while a block is checked
#: fit a core's 2 MB L2 cache; 2^16 beat 2^13, 2^14, 2^15 and 2^17
_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class CoverReport:
    """Result of probing B(F(X), eps+delta) subset F(B(X, eps)) by sampling."""

    passed: bool
    eps: float
    delta: float
    n_centers: int
    n_probes: int
    seed: int
    center_flags: np.ndarray           # per-center: a violation was found
    violations: tuple[tuple[np.ndarray, np.ndarray, float], ...]
    n_violations: int

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "epsilon": self.eps,
            "delta": self.delta,
            "n_centers": self.n_centers,
            "n_probes": self.n_probes,
            "seed": self.seed,
            "n_violating_centers": int(np.count_nonzero(self.center_flags)),
            "n_violations": self.n_violations,
            "violations": [
                {"X": list(x), "Z": list(z), "preimage_dist": dd}
                for x, z, dd in self.violations
            ],
        }


def check_ball_cover(
    Fi: SmoothMap,
    eps: float,
    delta: float,
    n_centers: int,
    n_probes: int,
    seed: int,
    centers: np.ndarray | None = None,
    threads: int = 1,
) -> CoverReport:
    """Sample probes Z in the ball of radius eps+delta around F(X) and test
    dist(F^{-1}(Z), X) < eps; report any violations found.

    Raises ValueError unless eps > 0 and eps + delta > 0 are finite (so delta
    is too), the centres are finite and there are at least one centre and one
    probe per centre: an empty probe set passes nothing, and an infinite
    radius or a NaN centre tests nothing.

    The calling thread draws the probes 64 centres at a time, normals then
    uniforms, so a seed draws the same probes for any thread count.  Each
    chunk is checked in blocks of at most _BLOCK_VALUES probe coordinates,
    small enough for their temporaries to stay in cache: whole centres when
    one centre's probes fit, ranges of one centre's probes when they do not.
    Each probe's arithmetic is its own, so the blocks change no bit.  With
    threads == 1 the calling thread checks the blocks; with threads > 1 a
    chunk has at least ``threads`` blocks (when it has that many probes),
    and pool tasks shape, offset, reduce, invert and measure them in place
    while the next chunk is drawn.  Violations are counted in full and
    recorded in (centre, probe) order until 100 are kept.
    """
    if not Fi.invertible:
        raise ValueError(f"map {Fi.label!r} must be invertible")
    _check_real("threads", threads, 1)
    _check_real("eps", eps)
    radius = _check_real("the probe radius eps + delta", eps + delta)  # so is delta
    _check_real("n_probes", n_probes, 1)
    chunk = 64              # centers per probe batch: fixes the probes a seed draws
    max_recorded = 100      # violations kept (all are counted)
    space = Fi.space
    d = space.dim
    rng = np.random.default_rng(seed)
    if centers is not None:
        X = _as_points(space, np.asarray(centers, dtype=float))
        if not np.all(np.isfinite(X)):
            raise ValueError("ball-cover centres must be finite")
        X = space.normalize(X)
        n_centers = X.shape[0]
    if n_centers < 1:
        raise ValueError(f"the ball cover needs at least one centre, got {n_centers}")
    if centers is None:
        X = space.uniform(rng, n_centers)

    def check(Xc, FX, v, u, cs, ps):
        """Probes v[cs, ps] (normals) and u[cs, ps] (uniforms) of the centres
        cs become Z = normalize(F(X) + ball point) in v and dist(F^{-1}(Z), X)
        in u, in place."""
        vb, ub = v[cs, ps], u[cs, ps]
        _ball_points(vb, ub, radius)
        vb += FX[cs, None, :]
        if space.periodic:
            _mod1(vb, out=vb)
        pre = Fi.invert(vb)
        _norms(space.displacement(pre, Xc[cs, None, :]), out=ub[..., 0])

    flags = np.zeros(n_centers, dtype=bool)
    total = 0
    recorded: list[tuple[np.ndarray, np.ndarray, float]] = []

    def collect(lo, Xc, v, u, futures=()):
        """Wait for a chunk's blocks, then flag, count and record its
        violations in (centre, probe) order, until max_recorded are kept."""
        nonlocal total
        for f in futures:
            f.result()
        bad = u[..., 0] >= eps
        flags[lo: lo + Xc.shape[0]] = np.any(bad, axis=1)
        total += int(np.count_nonzero(bad))
        if len(recorded) < max_recorded:
            recorded.extend((Xc[ci].copy(), v[ci, pi].copy(), float(u[ci, pi, 0]))
                            for ci, pi in np.argwhere(bad)[:max_recorded - len(recorded)])

    def chunks():
        for lo in range(0, n_centers, chunk):
            Xc = X[lo: lo + chunk]
            m = Xc.shape[0]
            v = rng.standard_normal((m * n_probes, d)).reshape(m, n_probes, d)
            u = rng.random((m * n_probes, 1)).reshape(m, n_probes, 1)
            yield lo, Xc, Fi(Xc), v, u

    if threads == 1:
        # no pool: one worker would only add a hand-off per block, as it
        # slowed the benchmark's single-chunk oracle when that was one block
        for lo, Xc, FX, v, u in chunks():
            for cs, ps in _cover_blocks(Xc.shape[0], n_probes, d, threads):
                check(Xc, FX, v, u, cs, ps)
            collect(lo, Xc, v, u)
    else:
        # the pool checks one chunk while this thread draws the next; a
        # chunk is collected once the next is submitted, so two are held
        with ThreadPoolExecutor(max_workers=threads) as ex:
            pending = None
            for lo, Xc, FX, v, u in chunks():
                futures = [ex.submit(check, Xc, FX, v, u, cs, ps)
                           for cs, ps in _cover_blocks(Xc.shape[0], n_probes, d, threads)]
                if pending is not None:
                    collect(*pending)
                pending = (lo, Xc, v, u, futures)
            collect(*pending)
    return CoverReport(
        passed=not bool(np.any(flags)), eps=eps, delta=delta,
        n_centers=n_centers, n_probes=n_probes, seed=seed,
        center_flags=flags, violations=tuple(recorded), n_violations=total,
    )


def _cover_blocks(m: int, n_probes: int, d: int,
                  threads: int) -> list[tuple[slice, slice]]:
    """The (centre slice, probe slice) blocks that check a chunk of m centres
    with n_probes probes each in d dimensions: at most _BLOCK_VALUES
    coordinates each, whole centres when a centre's probes fit, and at least
    ``threads`` blocks when the chunk has that many probes."""
    cap = max(1, _BLOCK_VALUES // d)                # probes per block
    if n_probes <= cap and m >= threads:
        parts = max(-(-m // (cap // n_probes)), threads)
        return [(slice(a, b), slice(None)) for a, b in _splits(m, parts)]
    parts = max(-(-n_probes // cap), -(-threads // m))
    return [(slice(c, c + 1), slice(a, b))
            for c in range(m) for a, b in _splits(n_probes, parts)]


def _splits(n: int, parts: int) -> list[tuple[int, int]]:
    """The nonempty ranges of range(n) cut into ``parts`` near-equal pieces."""
    edges = [n * i // parts for i in range(parts + 1)]
    return [(a, b) for a, b in zip(edges, edges[1:]) if a < b]
