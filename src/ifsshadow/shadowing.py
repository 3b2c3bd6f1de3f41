"""Shadowing solvers: find exact chains near delta-chains.

Three solvers cover the systems in the catalog:

* ``shadow_contraction`` - forward iteration anchored at the first chain
  point; for families with Lipschitz factor q < 1 the telescoping bound
  sup_k dist(x_k, y_k) <= delta / (1 - q) holds.
* ``shadow_linear_hyperbolic`` - closed-form correction for integer-matrix
  toral automorphisms with no eigenvalue on the unit circle: link errors are
  split in the eigenbasis, summed as geometric series (forward along
  contracting modes, backward along expanding ones), then projected to the
  exact chain of minimal total correction.
* ``shadow_newton`` - Gauss-Newton on the stacked link residuals
  lift(y_{k+1} - f_{sigma(k)}(y_k)) with minimal-norm steps.  The chain
  Jacobian is block bidiagonal, so its normal matrix is symmetric
  positive-definite and banded (bandwidth 2d - 1), and each sweep is one
  banded Cholesky solve (O(window length)).

On linear systems the Newton and closed-form solvers converge to the same
minimal-correction chain.  Every Gauss-Newton solve stops by one rule, read at
call time: a largest link residual at most NEWTON_TOL, or NEWTON_MAX_ITER
sweeps.  ``check_uniqueness`` (multi-start trials) and
``perturb.build_semiconj`` (one window per sample) each run one batched
Gauss-Newton solve: each sweep steps every active chain with one map call
per symbol and solves all their normal systems with one banded Cholesky, and
every chain gets the iterates of a ``shadow_newton`` call on it alone.  When
every chain's link Jacobians are equal bit for bit, as on affine families,
the sweep factors one chain's normal matrix and solves it for all chains as
many right-hand sides, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dpbsv

from .core import (EXACT_CHAIN_TOL, ChainRecord, IFS, SymbolSequence,
                   _link_errors, _spectral_norms, iterate_chain, validate_chain)
from .maps import SmoothMap
from .space import _check_real, _norms, ball_sample

# Gauss-Newton's stopping rule: a largest link residual at most NEWTON_TOL,
# or NEWTON_MAX_ITER sweeps
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 20


class NotContractingError(ValueError):
    pass


class NotHyperbolicError(ValueError):
    pass


class ShadowingConvergenceError(RuntimeError):
    """Solver ran out of iterations; carries the best iterate and residual."""

    def __init__(self, msg, best_points=None, residual=None, iterations=None):
        super().__init__(msg)
        self.best_points = best_points
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class ShadowResult:
    shadow: ChainRecord
    sup_dist: float
    solver: str
    iterations: int
    residual: float


def _finish(F: IFS, chain: ChainRecord, ypts: np.ndarray, solver: str,
            iterations: int) -> ShadowResult:
    shadow = ChainRecord(points=ypts, sigma=chain.sigma, delta=0.0)
    residual = validate_chain(F, shadow).max_residual
    sup = float(np.max(F.space.dist(chain.points, ypts)))
    return ShadowResult(shadow=shadow, sup_dist=sup, solver=solver,
                        iterations=iterations, residual=residual)


def _pair_ratios(g, space, X: np.ndarray, rng, scale: float) -> np.ndarray:
    """Ratios dist(g(X), g(Y)) / dist(X, Y) for Y = X + a ball sample of
    radius `scale`, over the pairs with Y != X."""
    Y = space.normalize(X + ball_sample(rng, len(X), space.dim, scale))
    dxy = space.dist(X, Y)
    ok = dxy > 0
    return space.dist(g(X[ok]), g(Y[ok])) / dxy[ok]


def lipschitz_estimate(m: SmoothMap) -> float:
    """Numerical Lipschitz estimate from Jacobian norms and sampled pair ratios.

    The estimate uses 512 samples of a fixed seed, so it is memoised on the
    map object and computed once per map.
    """
    if "lipschitz" in m._memo:
        return m._memo["lipschitz"]
    n_samples = 512
    rng = np.random.default_rng(0)
    X = m.space.uniform(rng, n_samples)
    best = 0.0
    if m.jac is not None:
        best = float(np.max(_spectral_norms(m.jacobian(X))))
    for scale in (1e-4, 1e-2):
        ratios = _pair_ratios(m, m.space, X, rng, scale)
        if ratios.size:
            best = max(best, float(np.max(ratios)))
    m._memo["lipschitz"] = best
    return best


def shadow_contraction(F: IFS, chain: ChainRecord) -> ShadowResult:
    """Shadow a one-sided delta-chain of a contracting family.

    Anchors y_0 = x_0 and iterates exactly; the result is an exact chain with
    sup_dist <= delta / (1 - q), q the largest contraction factor.
    """
    for m in F.maps:
        q = lipschitz_estimate(m)
        if q >= 1.0:
            raise NotContractingError(
                f"map {m.label!r} is not contracting (Lipschitz estimate {q:.4f})"
            )
    y = iterate_chain(F, chain.sigma, chain.points[0], chain.n_links).points
    return _finish(F, chain, y, "contraction", 0)


def hyperbolic_splitting(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvector columns of an integer toral automorphism.

    Raises NotHyperbolicError if any eigenvalue has modulus 1.
    """
    A = np.asarray(matrix, dtype=float)
    w, V = np.linalg.eig(A)
    if np.any(np.abs(np.abs(w) - 1.0) < 1e-9):
        raise NotHyperbolicError("matrix has an eigenvalue on the unit circle")
    return w, V


def shadow_linear_hyperbolic(A: SmoothMap, chain: ChainRecord) -> ShadowResult:
    """Minimal-correction exact orbit of the hyperbolic torus map A.affine."""
    if A.affine is None or not A.space.periodic:
        raise NotHyperbolicError(f"map {A.label!r} is not a linear toral automorphism")
    symbols = chain.sigma.symbols(0, chain.n_links)
    if np.any(symbols != 0):
        raise NotHyperbolicError("the closed form needs symbol 0 on every link")
    F = IFS((A,))
    w, V = hyperbolic_splitting(A.affine[0])
    pts = chain.points
    m = chain.n_links
    if m == 0:
        return _finish(F, chain, pts.copy(), "linear-hyperbolic", 1)
    space = A.space
    E = _link_errors(F, symbols, pts)                   # (m, d)
    Et = np.linalg.solve(V, E.T).T                      # eigen coordinates

    # per mode: the geometric-series correction, and the exact-orbit kernel
    # columns of its anchored profile (w^k if |w| < 1, w^(k-m) if |w| > 1),
    # real and imaginary parts once per conjugate pair
    ks = np.arange(m + 1)
    Wt = np.empty((m + 1, w.size), dtype=complex)
    cols = []
    for j, wj in enumerate(w):
        e = Et[:, j].tolist()
        v = [0.0]
        if abs(wj) < 1.0:
            # forward: v[0] = 0, v[k+1] = w v[k] - e[k]
            wk = wj.item()
            for ek in e:
                v.append(wk * v[-1] - ek)
            prof = wj ** ks
        else:
            # backward: v[m] = 0, v[k] = c e[k] + c v[k+1] with c = 1/w
            # (numpy's complex quotient; Python's gives other bits)
            c = (1.0 / wj).item()
            for ek in reversed(e):
                v.append(c * ek + c * v[-1])
            v.reverse()
            prof = (1.0 / wj) ** (m - ks)
        Wt[:, j] = v
        col = prof[:, None] * V[:, j]                   # (m+1, d)
        if abs(wj.imag) < 1e-12:
            cols.append(np.real(col).ravel())
        elif wj.imag > 0:
            cols += [np.real(col).ravel(), np.imag(col).ravel()]
    W = np.real(Wt @ V.T)

    # remove the exact-orbit kernel component: minimal total correction
    K = np.stack(cols, axis=1)
    c, *_ = np.linalg.lstsq(K, W.ravel(), rcond=None)
    W = W - (K @ c).reshape(W.shape)

    y = space.normalize(pts + W)
    return _finish(F, chain, y, "linear-hyperbolic", 1)


def _normal_solve(jacs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (J_b J_b^T) u_b = rhs_b for a stack of chain Jacobians J_b.

    `rhs` is (B, m, d), and `jacs` (B_j, m, d, d) holds the link blocks A_k
    of each chain, B_j = B, or B_j = 1 when all B chains share one J.  Row k
    of J_b is [-A_k at y_k, I at y_{k+1}], so J_b J_b^T is block tridiagonal
    with diagonal blocks I + A_k A_k^T and super-diagonal blocks -A_{k+1}^T.
    The B_j chains are put one after another, with zero coupling blocks at
    chain boundaries, in one upper-banded matrix, ab[p + i - j, j] = M[i, j]
    with p = 2d - 1 super-diagonals, factored once by a banded Cholesky
    (LAPACK pbsv) and solved for B // B_j right-hand sides.  For p below
    LAPACK's block size pbsv factors column by column, so the zero couplings
    add exact zeros, and its solve (pbtrs) runs the same two triangular
    solves on each right-hand side: every chain's solution has the bits of a
    solve on its own, whether its J is shared or stacked.  pbsv is called
    directly: scipy's solveh_banded hands two-row storage (d = 1) to ptsv
    instead, which rejects a 1 x 1 system.
    """
    Bj, m, d, _ = jacs.shape
    B = rhs.shape[0]
    p = 2 * d - 1
    ab = np.zeros((p + 1, Bj * m * d))
    a, b = np.triu_indices(d)
    D = np.eye(d) + jacs @ np.swapaxes(jacs, -1, -2)
    ab[p + a - b, np.arange(Bj * m)[:, None] * d + b] = D.reshape(-1, d, d)[:, a, b]
    if m > 1:
        a, b = np.indices((d, d)).reshape(2, -1)
        blocks = (np.arange(Bj)[:, None] * m + np.arange(1, m)).reshape(-1, 1)
        ab[d - 1 + a - b, blocks * d + b] = -jacs[:, 1:, b, a].reshape(-1, d * d)
    _, u, info = dpbsv(ab, rhs.reshape(B // Bj, Bj * m * d).T, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"banded Cholesky failed (LAPACK info {info})")
    return u.T.reshape(B, m, d)


def _max_residual(R: np.ndarray) -> np.ndarray:
    """Largest link residual of each chain in a stack R (B, m, d); 0 for m = 0."""
    return np.max(_norms(R), axis=1, initial=0.0)


def _gauss_newton(F: IFS, symbols: np.ndarray, Y: np.ndarray):
    """Gauss-Newton sweeps on a stack Y (B, m+1, d) of chains on one schedule.

    Each sweep makes one IFS.step call, one IFS.jacobians call and one
    _normal_solve over all active chains.  A chain leaves the active set
    when its largest link residual is at most NEWTON_TOL or is not finite;
    after NEWTON_MAX_ITER sweeps every chain stops.  Returns, per chain, the
    best iterate (B, m+1, d), its residual (B,), the sweep at which the chain
    stopped (NEWTON_MAX_ITER if it never did) and whether its last residual
    was finite.
    """
    tol, max_iter = NEWTON_TOL, NEWTON_MAX_ITER
    for m_ in F.maps:
        if m_.jac is None:
            raise ValueError(f"shadow_newton needs Jacobians (map {m_.label!r})")
    y = F.space.normalize(Y)
    B, n, d = y.shape
    m = n - 1
    best, best_res = y.copy(), np.full(B, np.inf)
    sweeps, finite = np.full(B, max_iter), np.ones(B, dtype=bool)
    active = np.arange(B)
    for it in range(max_iter + 1):
        R = _link_errors(F, symbols, y)
        res = _max_residual(R)
        better = res < best_res[active]
        best[active[better]] = y[better]
        best_res[active[better]] = res[better]
        stop = (res <= tol) | ~np.isfinite(res)
        finite[active[stop]] = np.isfinite(res[stop])
        sweeps[active[stop]] = it
        active, y, R = active[~stop], y[~stop], R[~stop]
        if active.size == 0 or it == max_iter or m == 0:  # m = 0: nothing to solve
            break
        jacs = F.jacobians(np.tile(symbols, active.size),
                           y[:, :-1].reshape(-1, d)).reshape(-1, m, d, d)
        # chains whose link blocks all have the first chain's bits (signed
        # zeros and NaN payloads included) share one factorization
        bits = jacs.reshape(active.size, -1).view(np.uint64)
        u = _normal_solve(jacs[:1] if np.all(bits[1:] == bits[0]) else jacs, -R)
        delta = np.zeros_like(y)
        delta[:, 0] = -(np.swapaxes(jacs[:, 0], 1, 2) @ u[:, 0, :, None])[..., 0]
        if m > 1:
            delta[:, 1:m] = u[:, :-1] - np.einsum("bkji,bkj->bki", jacs[:, 1:], u[:, 1:])
        delta[:, m] = u[:, m - 1]
        y = F.space.normalize(y + delta)
    return best, best_res, sweeps, finite


def shadow_newton(F: IFS, chain: ChainRecord) -> ShadowResult:
    """Gauss-Newton chain-residual minimization with minimal-norm steps,
    started at the chain's own points.

    Each sweep linearises the link residuals R around the iterate, takes the
    minimal-norm step J^T u with (J J^T) u = -R (one banded Cholesky solve),
    and stops once the largest link residual is at most NEWTON_TOL.  Raises
    ShadowingConvergenceError after NEWTON_MAX_ITER sweeps, or at once when
    the residual is not finite.  To start elsewhere, shadow
    ChainRecord(start, chain.sigma).
    """
    best, res, sweeps, finite = _gauss_newton(
        F, chain.sigma.symbols(0, chain.n_links), chain.points[None])
    best_y, best_res, it = best[0], float(res[0]), int(sweeps[0])
    if best_res <= NEWTON_TOL:
        return _finish(F, chain, best_y, "newton", it)
    if not finite[0]:
        raise ShadowingConvergenceError(
            f"Gauss-Newton residual is not finite at sweep {it} "
            f"(best {best_res:.3e})",
            best_points=best_y, residual=best_res, iterations=it,
        )
    raise ShadowingConvergenceError(
        f"Gauss-Newton did not reach residual {NEWTON_TOL:.1e} in {it} iterations "
        f"(best {best_res:.3e})",
        best_points=best_y, residual=best_res, iterations=it,
    )


def shadow_auto(F: IFS, chain: ChainRecord) -> ShadowResult:
    """First applicable solver: closed form for one hyperbolic automorphism,
    then contraction, then Gauss-Newton."""
    if len(F) == 1:
        try:
            return shadow_linear_hyperbolic(F.maps[0], chain)
        except NotHyperbolicError:
            pass
    try:
        return shadow_contraction(F, chain)
    except NotContractingError:
        return shadow_newton(F, chain)


@dataclass(frozen=True)
class VerifyVerdict:
    ok: bool
    is_exact: bool
    exact_residual: float
    max_point_dist: float
    worst_index: Optional[int]


def verify_shadowing(F: IFS, xi: ChainRecord, y: ChainRecord, eps: float,
                     tol: float = EXACT_CHAIN_TOL) -> VerifyVerdict:
    """Check that y is an exact chain and stays within eps of xi pointwise.

    Raises ValueError unless eps > 0 and tol >= 0, both finite, so a NaN or
    an infinite radius is a config error, not a verdict.
    """
    _check_real("eps", eps)
    if len(xi) != len(y):
        raise ValueError("chains must share a common window")
    v = validate_chain(F, y, tol)
    dists = F.space.dist(xi.points, y.points)
    worst = int(np.argmax(dists))
    max_dist = float(dists[worst])
    return VerifyVerdict(
        ok=bool(v.is_exact_chain and max_dist <= eps),
        is_exact=v.is_exact_chain,
        exact_residual=v.max_residual,
        max_point_dist=max_dist,
        worst_index=worst,
    )


@dataclass(frozen=True)
class UniquenessVerdict:
    status: str                  # "unique" | "not-unique" | "inconclusive"
    n_candidates: int
    trials: int
    core_spread: float           # max pointwise gap between candidates on the core
    margin: int                  # window entries trimmed at each end
    eps: float
    unconverged: int = 0         # trials that stopped without converging


def check_uniqueness(
    F: IFS,
    sigma: SymbolSequence,
    chain: ChainRecord,
    eps: float,
    trials: int = 20,
    seed: int = 0,
) -> UniquenessVerdict:
    """Multi-start statistical probe of shadowing uniqueness.

    Runs the Newton solver from `trials` initializations, each the chain
    displaced by a ball sample of radius eps/4, all in one batched solve with
    ``shadow_newton``'s stopping rule (NEWTON_TOL, at most NEWTON_MAX_ITER
    sweeps).  It keeps the converged candidates that stay within eps of the
    chain (a residual at most NEWTON_TOL passes verify_shadowing's
    exact-chain test too) and compares them pointwise on the window core.
    The margin trims the window ends, where finite-window solutions
    legitimately differ by decaying exact-orbit modes even when the
    bi-infinite shadow is unique.  Trials that stop unconverged are counted
    in `unconverged`.  `sigma` must agree with the chain's own schedule on
    its links, `trials` be at least 1 and `eps` finite and positive
    (ValueError otherwise).
    """
    _check_real("trials", trials, 1)
    _check_real("eps", eps)
    n = len(chain)
    symbols = sigma.symbols(0, chain.n_links)
    if not np.array_equal(symbols, chain.sigma.symbols(0, chain.n_links)):
        raise ValueError("sigma differs from the chain's schedule on its links")
    margin = min(chain.n_links // 4, 40)
    rng = np.random.default_rng(seed)
    space = F.space
    noise = np.array([ball_sample(rng, n, space.dim, eps / 4.0) for _ in range(trials)])
    starts = space.normalize(chain.points + noise.reshape(trials, n, space.dim))
    best, res, _, _ = _gauss_newton(F, symbols, starts)
    # res is the best iterate's largest link residual, measured by the solve
    ok = res <= NEWTON_TOL
    unconverged = trials - int(np.count_nonzero(ok))
    ok[ok] = np.max(space.dist(chain.points, best[ok]), axis=1) <= eps
    candidates = best[ok]
    if not len(candidates):
        return UniquenessVerdict("inconclusive", 0, trials, np.inf, margin, eps,
                                 unconverged)
    core = candidates[:, margin:n - margin]
    spread = max((float(np.max(space.dist(core[i], core[i + 1:])))
                  for i in range(len(core) - 1)), default=0.0)
    agree_tol = 1e-8         # largest core spread between candidates of one shadow
    status = "unique" if spread <= agree_tol else "not-unique"
    return UniquenessVerdict(status, len(candidates), trials, spread, margin, eps,
                             unconverged)
