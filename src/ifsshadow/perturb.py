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
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .core import (ChainRecord, IFS, SymbolSequence, link_residuals, make_ifs,
                   orbit_steps, rho0, validate_chain)
from .maps import InversionError, SmoothMap, compose
from .shadowing import _gauss_newton, _link_errors, _max_residual, lipschitz_estimate
from .space import MetricGrid, Space, ball_sample, _as_points


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
    the inverse exists and is computed by fixed-point iteration.
    """
    if pairs:
        P = np.stack([np.asarray(p, dtype=float) for p, _ in pairs])
        Q = np.stack([np.asarray(q, dtype=float) for _, q in pairs])
        if space is None:
            space = Space(P.shape[1])
        P = space.normalize(P)
        Q = space.normalize(Q)
    else:
        if space is None:
            raise ValueError("an empty pair list needs an explicit space")
        P = np.zeros((0, space.dim))
        Q = np.zeros((0, space.dim))
    if space.dim < 2:
        raise ValueError("point-moving diffeomorphisms need dim >= 2")

    k = P.shape[0]
    if k:
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
    else:
        min_sep = np.inf
        D = np.zeros((0, space.dim))

    if support_radius is None:
        R = 0.2 if k <= 1 else 0.4 * min_sep
        if space.periodic:
            R = min(R, 0.45)
    else:
        R = float(support_radius)
    maxd = float(np.max(np.linalg.norm(D, axis=-1))) if k else 0.0
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

    def perturbation(x):
        if k == 0:
            return np.zeros_like(x)
        v = space.displacement(P, x[..., None, :])      # from centers to x
        dist = np.sqrt(np.sum(v * v, axis=-1))
        w = bump_profile(dist / R)
        return np.einsum("...i,id->...d", w, D)

    def fwd(x):
        return x + perturbation(x)

    def inv(p):
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1, space.dim)
        z = space.normalize(flat.copy())
        active = np.arange(flat.shape[0])
        # fixed-point iteration z <- p - perturbation(z); the perturbation is a
        # contraction, and points outside every support converge immediately
        for _ in range(120):
            z_next = space.normalize(flat[active] - perturbation(z[active]))
            step = space.dist(z_next, z[active])
            z[active] = z_next
            active = active[step > 1e-13]
            if active.size == 0:
                return z.reshape(p.shape)
        raise InversionError(
            f"bump inverse of {label!r}: {active.size} points still moving after "
            f"120 fixed-point steps", best=z.reshape(p.shape))

    eye = np.eye(space.dim)

    def jac(x):
        J = np.broadcast_to(eye, np.shape(x)[:-1] + (space.dim, space.dim)).copy()
        if k == 0:
            return J
        v = space.displacement(P, x[..., None, :])
        dist = np.sqrt(np.sum(v * v, axis=-1))
        t = dist / R
        coef = np.zeros_like(dist)
        pos = dist > 0.0
        coef[pos] = bump_profile_deriv(t[pos]) / (R * dist[pos])
        grads = coef[..., None] * v                     # (..., k, d)
        J += np.einsum("ia,...ib->...ab", D, grads)
        return J

    return BumpDiffeo(
        label=label, space=space, fwd=fwd, inv=inv, jac=jac,
        centers=P, displacements=D, support_radius=R,
    )


@dataclass(frozen=True)
class AdjustedConditions:
    max_point_dist: float     # max_k dist(x_k, y_k)
    max_link_residual: float  # max_k dist(y_{k+1}, f_{sigma(k)}(y_k))
    distinct: bool


def adjusted_conditions(F: IFS, chain: ChainRecord, ys: np.ndarray,
                        ) -> AdjustedConditions:
    """Measure the three adjusted-point conditions for a candidate set."""
    m = ys.shape[0] - 1
    adj = ChainRecord(ys, chain.sigma, delta=0.0, kind="shadow-candidate")
    res = link_residuals(F, adj)
    max_res = float(np.max(res)) if res.size else 0.0
    dist = float(np.max(F.space.dist(chain.points[: m + 1], ys)))
    equal = np.all(ys[:, None, :] == ys[None, :, :], axis=-1)
    distinct = not np.any(np.triu(equal, 1))
    return AdjustedConditions(dist, max_res, distinct)


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
    if eta <= 0:
        raise ValueError("eta must be positive")
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
        while any(np.array_equal(cand, ys[j]) for j in range(k)):
            cand = space.normalize(chain.points[k] + ball_sample(rng, 1, space.dim, scale)[0])
            attempts += 1
            scale *= 0.5
            if attempts > 100:
                raise RuntimeError(
                    f"could not make y_{k} distinct within eta = {eta}"
                )
        ys[k] = cand
    return ys


def inverse_lipschitz_estimate(m: SmoothMap, n_samples: int = 512,
                               seed: int = 0) -> float:
    """Lipschitz estimate of the inverse map (uniform-continuity modulus)."""
    if m.jac is not None:
        rng = np.random.default_rng(seed)
        X = m.space.uniform(rng, n_samples)
        svals = np.linalg.svd(m.jacobian(X), compute_uv=False)
        smin = float(np.min(svals[..., -1]))
        if smin <= 0:
            raise ValueError(f"map {m.label!r} has a singular Jacobian on the sample")
        return 1.0 / smin
    rng = np.random.default_rng(seed)
    X = m.space.uniform(rng, n_samples)
    Y = m.space.normalize(X + ball_sample(rng, n_samples, m.space.dim, 1e-3))
    dxy = m.space.dist(X, Y)
    ok = dxy > 0
    return float(np.max(m.space.dist(m.invert(X[ok]), m.invert(Y[ok])) / dxy[ok]))


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
    sigma: SymbolSequence | None = None,
    grid_resolution: int = 64,
    seed: int = 0,
) -> PerturbedIFS:
    """Perturbed family G carrying an exact chain Delta-close to the input.

    Builds adjusted points y_0..y_m, one bump diffeomorphism h_k moving
    f_{sigma(k)}(y_k) to y_{k+1} per link, and the family
    {h_k o f_lambda} u {f_lambda}; the chain continues beyond the window with
    the unperturbed maps.  Verifies the matched family distance against Delta
    on a grid and errors if the measurement fails.
    """
    if Delta <= 0:
        raise ValueError("Delta must be positive")
    if F.space.dim < 2:
        raise ValueError("needs dim >= 2 (bump constructions)")
    sigma = sigma or chain.sigma
    if sigma is not chain.sigma:
        chain = ChainRecord(chain.points, sigma, chain.delta, chain.kind)

    l_inv = [inverse_lipschitz_estimate(f, seed=seed) for f in F.maps]
    delta0 = min([Delta / 2.0] + [0.95 * Delta / L for L in l_inv])
    delta_max = delta0 / 6.0
    res = link_residuals(F, chain)
    delta_meas = float(np.max(res)) if res.size else 0.0
    if delta_meas > delta_max * (1 + 1e-12):
        raise ValueError(
            f"chain slack {delta_meas:.3e} exceeds the admissible "
            f"delta(Delta) = {delta_max:.3e}"
        )

    ys = adjusted_points(F, chain, m, eta=Delta, seed=seed)
    N = len(F)
    space = F.space
    bumps: list[Optional[BumpDiffeo]] = []
    for k, src in enumerate(F.step(sigma.symbols(0, m), ys[:m])):
        dst = ys[k + 1]
        if np.array_equal(space.normalize(src), space.normalize(dst)):
            bumps.append(None)
            continue
        bumps.append(move_points_diffeo([(src, dst)], delta=delta0 / 2.0,
                                        space=space, label=f"h{k}"))

    gmaps: list[SmoothMap] = []
    pairing: list[int] = []
    for k in range(m):
        for lam, f in enumerate(F.maps):
            g = f if bumps[k] is None else compose(bumps[k], f, label=f"g{k}_{lam}")
            gmaps.append(g)
            pairing.append(lam)
    for lam, f in enumerate(F.maps):
        gmaps.append(f)
        pairing.append(lam)
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
    ychain = ChainRecord(ypts, ysigma, delta=0.0, kind="exact-chain")

    grid = MetricGrid(space, grid_resolution)
    matched = 0.0
    for idx, (g, lam) in enumerate(zip(gmaps, pairing)):
        if g is F.maps[lam]:
            continue
        val = rho0(g, F.maps[lam], grid)
        if val >= Delta:
            raise RuntimeError(
                f"measured matched distance {val:.3e} >= Delta for pair "
                f"({g.label}, {F.maps[lam].label})"
            )
        matched = max(matched, val)

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
        exact_residual=verdict.max_residual, grid_resolution=grid_resolution,
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

    A k-d tree (periodic with box 1 on the torus) proposes 2^d + 1 candidates
    per query, enough to hold the 2^d samples equidistant from a lattice cell
    centre; ``space.dist`` re-ranks them, and among equal distances the lowest
    sample index wins, as ``np.argmin`` over all samples would choose.  Where
    the last candidate ties the first, all samples in that ball are re-ranked.
    Memory is linear in the numbers of samples and queries.
    """
    data, probes = samples, queries
    if space.periodic:
        # normalize may return exactly 1.0 (from -1e-20), which the periodic
        # tree rejects; a second mod sends it to 0.0, the same torus point
        data, probes = (np.mod(np.mod(x, 1.0), 1.0) for x in (samples, queries))
    tree = cKDTree(data, boxsize=1.0 if space.periodic else None)
    k = min(len(samples), 2 ** space.dim + 1)
    tree_d, cand = (a.reshape(len(queries), -1) for a in tree.query(probes, k=k))
    cand = np.sort(cand, axis=1)
    d = space.dist(queries[:, None, :], samples[cand])
    best = np.argmin(d, axis=1)
    rows = np.arange(len(queries))
    idx, dist = cand[rows, best], d[rows, best]
    if k < len(samples):
        radius = tree_d[:, 0] * (1.0 + 1e-9) + 1e-12
        for q in np.flatnonzero(tree_d[:, -1] <= radius):
            ball = np.sort(tree.query_ball_point(probes[q], radius[q]))
            dq = space.dist(queries[q], samples[ball])
            idx[q], dist[q] = ball[np.argmin(dq)], np.min(dq)
    return idx, dist


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
    two_sided: bool = True

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

    def image_covering_radius(self, space: Space,
                              probe_resolution: int = 64) -> float:
        """Covering radius of the image set over a probe grid.

        Surjectivity of h is only checkable approximately from finite data:
        a value at most 2*epsilon means the images form a 2*epsilon-net.  Each
        probe's nearest image comes from a k-d tree, so memory is linear in
        the numbers of probes and images.
        """
        ok = self._usable
        if not ok.size:
            return np.inf
        probes = MetricGrid(space, probe_resolution).points
        _, dist = _nearest_samples(space, self.images[ok], probes)
        return float(np.max(dist))


def build_semiconj(
    F: IFS,
    G: IFS,
    sigma: SymbolSequence,
    eps: float,
    samples: np.ndarray,
    K: int,
    two_sided: bool = True,
) -> SemiConjugacy:
    """h(x) = k=0 point of the F-chain shadowing the G-orbit window of x.

    Each sample's G-orbit window is a delta-chain of F (delta = the matched
    family distance); shadowing it with F and reading off the k = 0 point
    defines h.  One batched Gauss-Newton solve (tol 1e-10, 20 sweeps) shadows
    all windows, so F needs Jacobians, and each row has the bits of
    ``shadow_newton`` on its window.  Samples whose window misses the tol are
    flagged, with NaN rows; a LinAlgError of the stacked solve flags them all.
    Residuals store dist(G-orbit_k(x), F-orbit_k(h(x))).  Use one-sided
    windows (``two_sided=False``) for families whose inverses blow orbits
    up, e.g. contractions.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    X = _as_points(F.space, samples)
    lo = K if two_sided else 0
    windows = _orbit_window(G, sigma, X, K, two_sided)      # (n, window, d)
    symbols = sigma.symbols(-lo, K)
    chain_delta = _max_residual(_link_errors(F, symbols, windows))   # window slacks
    try:
        shadows, res, _, _ = _gauss_newton(F, symbols, windows, 1e-10, 20)
        failed = ~(res <= 1e-10)
    except np.linalg.LinAlgError:
        shadows, failed = np.empty_like(windows), np.ones(X.shape[0], dtype=bool)
    shadows[failed] = np.nan
    return SemiConjugacy(
        samples=X, images=shadows[:, lo].copy(), epsilon=eps, K=K, sigma=sigma,
        residuals=F.space.dist(windows, shadows), chain_delta=chain_delta,
        flagged=tuple(np.flatnonzero(failed).tolist()), two_sided=two_sided,
    )


def semiconj_residual(
    F: IFS,
    G: IFS,
    sigma: SymbolSequence,
    h: SemiConjugacy,
    K: int,
    coverage_tol: float | None = None,
) -> float:
    """Defect of the conjugation identity, max over samples and |k| <= K of
    dist(F-orbit_k(h(x)), h(G-orbit_k(x))), with h read off at the nearest
    sample.  Raises CoverageError if a queried point is farther than epsilon
    (or coverage_tol) from every sample.  The nearest sample comes from a k-d
    tree, so memory is linear in the number of samples.
    """
    tol = h.epsilon if coverage_tol is None else coverage_tol
    ok = h._usable
    if ok.size == 0:
        raise ValueError("semiconjugacy table is empty")
    samples = h.samples[ok]
    images = h.images[ok]
    space = F.space
    PG = _orbit_window(G, sigma, samples, K, h.two_sided)
    nearest, dist = _nearest_samples(space, samples, PG.reshape(-1, space.dim))
    coverage = float(np.max(dist))
    if coverage > tol:
        raise CoverageError(
            f"nearest-sample distance {coverage:.4f} exceeds {tol:.4f}; "
            f"sample the space more densely"
        )
    h_of_queries = images[nearest].reshape(PG.shape)
    PF = _orbit_window(F, sigma, images, K, h.two_sided)
    return float(np.max(space.dist(PF, h_of_queries)))


# ---------------------------------------------------------------------------
# ball-cover probe
# ---------------------------------------------------------------------------

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
    """
    if not Fi.invertible:
        raise ValueError(f"map {Fi.label!r} must be invertible")
    chunk = 64              # centers per probe batch: fixes the probes a seed draws
    max_recorded = 100      # violations kept (all are counted)
    space = Fi.space
    rng = np.random.default_rng(seed)
    if centers is None:
        X = space.uniform(rng, n_centers)
    else:
        X = space.normalize(_as_points(space, np.asarray(centers, dtype=float)))
        n_centers = X.shape[0]
    radius = eps + delta
    tasks = []
    for lo in range(0, n_centers, chunk):
        Xc = X[lo: lo + chunk]
        balls = ball_sample(rng, Xc.shape[0] * n_probes, space.dim, radius)
        tasks.append((lo, Xc, balls.reshape(Xc.shape[0], n_probes, space.dim)))

    def run(task):
        lo, Xc, balls = task
        FX = Fi(Xc)
        Z = space.normalize(FX[:, None, :] + balls)
        pre = Fi.invert(Z.reshape(-1, space.dim)).reshape(Z.shape)
        dd = space.dist(pre, Xc[:, None, :])
        bad = dd >= eps
        found = [(Xc[ci].copy(), Z[ci, pi].copy(), float(dd[ci, pi]))
                 for ci, pi in np.argwhere(bad)[:max_recorded]]
        return lo, np.any(bad, axis=1), int(np.count_nonzero(bad)), found

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(run, tasks))
    else:
        results = [run(t) for t in tasks]

    flags = np.zeros(n_centers, dtype=bool)
    total = 0
    recorded: list[tuple[np.ndarray, np.ndarray, float]] = []
    for lo, chunk_flags, count, found in results:
        flags[lo: lo + len(chunk_flags)] = chunk_flags
        total += count
        recorded.extend(found[: max_recorded - len(recorded)])
    return CoverReport(
        passed=not bool(np.any(flags)), eps=eps, delta=delta,
        n_centers=n_centers, n_probes=n_probes, seed=seed,
        center_flags=flags, violations=tuple(recorded), n_violations=total,
    )
