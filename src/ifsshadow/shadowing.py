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
minimal-correction chain.  ``check_uniqueness`` (multi-start trials) and
``perturb.build_semiconj`` (one window per sample) each run one batched
Gauss-Newton solve: each sweep steps every active chain with one map call
per symbol and solves all their normal systems with one banded Cholesky, and
every chain gets the iterates of a ``shadow_newton`` call on it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dpbsv
from scipy.signal import lfilter

from .core import ChainRecord, IFS, SymbolSequence, orbit_steps, validate_chain
from .maps import SmoothMap
from .space import ball_sample


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
    shadow = ChainRecord(points=ypts, sigma=chain.sigma, delta=0.0, kind="exact-chain")
    residual = validate_chain(F, shadow).max_residual
    sup = float(np.max(F.space.dist(chain.points, ypts)))
    return ShadowResult(shadow=shadow, sup_dist=sup, solver=solver,
                        iterations=iterations, residual=residual)


def lipschitz_estimate(m: SmoothMap, n_samples: int = 512, seed: int = 0) -> float:
    """Numerical Lipschitz estimate from Jacobian norms and sampled pair ratios.

    The estimate is deterministic in (n_samples, seed), so it is memoised on
    the map object and computed once per map and sample set.
    """
    key = ("lipschitz", n_samples, seed)
    if key in m._memo:
        return m._memo[key]
    rng = np.random.default_rng(seed)
    X = m.space.uniform(rng, n_samples)
    best = 0.0
    if m.jac is not None:
        J = m.jacobian(X)
        best = float(np.max(np.linalg.svd(J, compute_uv=False)[..., 0]))
    for scale in (1e-4, 1e-2):
        Y = m.space.normalize(X + ball_sample(rng, n_samples, m.space.dim, scale))
        dxy = m.space.dist(X, Y)
        ok = dxy > 0
        ratios = m.space.dist(m(X[ok]), m(Y[ok])) / dxy[ok]
        if ratios.size:
            best = max(best, float(np.max(ratios)))
    m._memo[key] = best
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
    y = np.array(list(orbit_steps(F, chain.sigma, chain.points[0], chain.n_links)))
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


def split_error(matrix: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split vectors into their contracting and expanding eigencomponents."""
    w, V = hyperbolic_splitting(matrix)
    coeff = np.linalg.solve(V, np.asarray(e, dtype=float).T).T
    stable = coeff * (np.abs(w) < 1.0)
    unstable = coeff * (np.abs(w) > 1.0)
    es = np.real(stable @ V.T)
    eu = np.real(unstable @ V.T)
    return es, eu


def _mode_profiles(w: np.ndarray, m: int) -> np.ndarray:
    """Anchored power profiles per mode: w^k for |w|<1, w^(k-m) for |w|>1."""
    ks = np.arange(m + 1)
    prof = np.empty((m + 1, w.size), dtype=complex)
    for j, wj in enumerate(w):
        if abs(wj) < 1.0:
            prof[:, j] = wj ** ks
        else:
            prof[:, j] = (1.0 / wj) ** (m - ks)
    return prof


def _kernel_basis(w: np.ndarray, V: np.ndarray, m: int) -> np.ndarray:
    """Real basis of bounded exact-orbit perturbations over the window."""
    prof = _mode_profiles(w, m)
    cols = []
    for j in range(w.size):
        col = prof[:, j:j + 1] * V[:, j][None, :]  # (m+1, d) complex
        if abs(w[j].imag) < 1e-12:
            cols.append(np.real(col).ravel())
        elif w[j].imag > 0:
            cols.append(np.real(col).ravel())
            cols.append(np.imag(col).ravel())
    return np.stack(cols, axis=1)


def shadow_linear_hyperbolic(A: SmoothMap, chain: ChainRecord) -> ShadowResult:
    """Minimal-correction exact orbit of a hyperbolic toral automorphism."""
    if A.matrix is None:
        raise NotHyperbolicError(f"map {A.label!r} is not a linear toral automorphism")
    if np.any(chain.sigma.symbols(0, chain.n_links) != 0):
        raise NotHyperbolicError("the closed form needs symbol 0 on every link")
    F = IFS((A,))
    w, V = hyperbolic_splitting(A.matrix)
    pts = chain.points
    m = chain.n_links
    if m == 0:
        return _finish(F, chain, pts.copy(), "linear-hyperbolic", 1)
    space = A.space
    E = space.displacement(A(pts[:-1]), pts[1:])       # link errors, (m, d)
    Et = np.linalg.solve(V, E.T).T                      # eigen coordinates

    Wt = np.empty((m + 1, w.size), dtype=complex)
    for j, wj in enumerate(w):
        x = np.append(Et[:, j], 0.0)
        if abs(wj) < 1.0:
            # forward recursion v[k+1] = wj v[k] - e[k], v[0] = 0
            Wt[:, j] = lfilter([0.0, -1.0], [1.0, -wj], x)
        else:
            # backward recursion v[k] = (v[k+1] + e[k]) / wj, v[m] = 0
            z = lfilter([0.0, 1.0 / wj], [1.0, -1.0 / wj], np.append(Et[::-1, j], 0.0))
            Wt[:, j] = z[::-1]
    W = np.real(Wt @ V.T)

    # remove the exact-orbit kernel component: minimal total correction
    K = _kernel_basis(w, V, m)
    c, *_ = np.linalg.lstsq(K, W.ravel(), rcond=None)
    W = W - (K @ c).reshape(W.shape)

    y = space.normalize(pts + W)
    return _finish(F, chain, y, "linear-hyperbolic", 1)


def _normal_solve(jacs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (J_b J_b^T) u_b = rhs_b for a stack of chain Jacobians J_b.

    `jacs` (B, m, d, d) holds the link blocks A_k of each chain and `rhs` is
    (B, m, d).  Row k of J_b is [-A_k at y_k, I at y_{k+1}], so J_b J_b^T is
    block tridiagonal with diagonal blocks I + A_k A_k^T and super-diagonal
    blocks -A_{k+1}^T.  The chains are put one after another, with zero
    coupling blocks at chain boundaries, in one upper-banded matrix,
    ab[p + i - j, j] = M[i, j] with p = 2d - 1 super-diagonals, and factored
    by one banded Cholesky (LAPACK pbsv).  For p below LAPACK's block size
    pbsv factors column by column, so the zero couplings add exact zeros and
    each chain's solution has the bits of a solve on its own.  pbsv is
    called directly: scipy's solveh_banded hands two-row storage (d = 1) to
    ptsv instead, which rejects a 1 x 1 system.
    """
    B, m, d, _ = jacs.shape
    p = 2 * d - 1
    ab = np.zeros((p + 1, B * m * d))
    a, b = np.triu_indices(d)
    D = np.eye(d) + jacs @ np.swapaxes(jacs, -1, -2)
    ab[p + a - b, np.arange(B * m)[:, None] * d + b] = D.reshape(-1, d, d)[:, a, b]
    if m > 1:
        a, b = np.indices((d, d)).reshape(2, -1)
        blocks = (np.arange(B)[:, None] * m + np.arange(1, m)).reshape(-1, 1)
        ab[d - 1 + a - b, blocks * d + b] = -jacs[:, 1:, b, a].reshape(-1, d * d)
    _, u, info = dpbsv(ab, rhs.reshape(-1, 1), overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"banded Cholesky failed (LAPACK info {info})")
    return u.reshape(B, m, d)


def _link_errors(F: IFS, symbols: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Displacements from f_{s(k)}(y_k) to y_{k+1} for a stack Y (B, m+1, d)."""
    B, n, d = Y.shape
    images = F.step(np.tile(symbols, B), Y[:, :-1].reshape(-1, d))
    return F.space.displacement(images, Y[:, 1:].reshape(-1, d)).reshape(B, n - 1, d)


def _max_residual(R: np.ndarray) -> np.ndarray:
    """Largest link residual of each chain in a stack R (B, m, d); 0 for m = 0."""
    return np.max(np.sqrt(np.sum(R * R, axis=-1)), axis=1, initial=0.0)


def _gauss_newton(F: IFS, symbols: np.ndarray, Y: np.ndarray, tol: float,
                  max_iter: int):
    """Gauss-Newton sweeps on a stack Y (B, m+1, d) of chains on one schedule.

    Each sweep makes one IFS.step call, one IFS.jacobians call and one
    _normal_solve over all active chains.  A chain leaves the active set
    when its largest link residual is at most `tol` or is not finite.
    Returns, per chain, the best iterate (B, m+1, d), its residual (B,), the
    sweep at which the chain stopped (`max_iter` if it never did) and
    whether its last residual was finite.
    """
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
        u = _normal_solve(jacs, -R)
        delta = np.zeros_like(y)
        delta[:, 0] = -(np.swapaxes(jacs[:, 0], 1, 2) @ u[:, 0, :, None])[..., 0]
        if m > 1:
            delta[:, 1:m] = u[:, :-1] - np.einsum("bkji,bkj->bki", jacs[:, 1:], u[:, 1:])
        delta[:, m] = u[:, m - 1]
        y = F.space.normalize(y + delta)
    return best, best_res, sweeps, finite


def shadow_newton(
    F: IFS,
    chain: ChainRecord,
    tol: float = 1e-10,
    max_iter: int = 20,
    initial_points: np.ndarray | None = None,
) -> ShadowResult:
    """Gauss-Newton chain-residual minimization with minimal-norm steps.

    Each sweep linearises the link residuals R around the iterate, takes the
    minimal-norm step J^T u with (J J^T) u = -R (one banded Cholesky solve),
    and stops once the largest link residual is at most `tol`.  Raises
    ShadowingConvergenceError after `max_iter` sweeps, or at once when the
    residual is not finite.
    """
    y = np.array(initial_points if initial_points is not None else chain.points,
                 dtype=float)
    best, res, sweeps, finite = _gauss_newton(
        F, chain.sigma.symbols(0, chain.n_links), y[None], tol, max_iter)
    best_y, best_res, it = best[0], float(res[0]), int(sweeps[0])
    if best_res <= tol:
        return _finish(F, chain, best_y, "newton", it)
    if not finite[0]:
        raise ShadowingConvergenceError(
            f"Gauss-Newton residual is not finite at sweep {it} "
            f"(best {best_res:.3e})",
            best_points=best_y, residual=best_res, iterations=it,
        )
    raise ShadowingConvergenceError(
        f"Gauss-Newton did not reach residual {tol:.1e} in {max_iter} iterations "
        f"(best {best_res:.3e})",
        best_points=best_y, residual=best_res, iterations=max_iter,
    )


def shadow_auto(F: IFS, chain: ChainRecord, tol: float = 1e-10,
                max_iter: int = 20) -> ShadowResult:
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
        return shadow_newton(F, chain, tol=tol, max_iter=max_iter)


@dataclass(frozen=True)
class VerifyVerdict:
    ok: bool
    is_exact: bool
    exact_residual: float
    max_point_dist: float
    worst_index: Optional[int]


def verify_shadowing(F: IFS, xi: ChainRecord, y: ChainRecord, eps: float,
                     tol: float = 1e-9) -> VerifyVerdict:
    """Check that y is an exact chain and stays within eps of xi pointwise."""
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
class WindowProbe:
    n_links: int
    delta: float
    sup_dist: float
    passed: bool
    error: Optional[str] = None


@dataclass(frozen=True)
class ProbeReport:
    windows: tuple[WindowProbe, ...]
    eps: float
    all_passed: bool


def finite_shadow_probe(F: IFS, windows: list[ChainRecord], eps: float,
                        solver: Callable[[IFS, ChainRecord], ShadowResult] | None = None,
                        ) -> ProbeReport:
    """Shadow each finite window and report sup distances against eps.

    Window-length stability of the sup distances is the finite stand-in for
    shadowing of bi-infinite chains.
    """
    solve = solver or shadow_auto
    rows = []
    for win in windows:
        try:
            r = solve(F, win)
            rows.append(WindowProbe(win.n_links, win.delta, r.sup_dist,
                                    r.sup_dist <= eps))
        except (ShadowingConvergenceError, NotContractingError,
                NotHyperbolicError) as exc:
            rows.append(WindowProbe(win.n_links, win.delta, np.inf, False, str(exc)))
    return ProbeReport(tuple(rows), eps, all(r.passed for r in rows))


@dataclass(frozen=True)
class UniquenessVerdict:
    status: str                  # "unique" | "not-unique" | "inconclusive"
    n_candidates: int
    trials: int
    core_spread: float           # max pointwise gap between candidates on the core
    margin: int                  # window entries trimmed at each end
    eps: float
    unconverged: int = 0         # trials stopped at max_iter or a non-finite residual


def check_uniqueness(
    F: IFS,
    sigma: SymbolSequence,
    chain: ChainRecord,
    eps: float,
    trials: int = 20,
    seed: int = 0,
    init_scale: float | None = None,
    tol: float = 1e-10,
    max_iter: int = 30,
) -> UniquenessVerdict:
    """Multi-start statistical probe of shadowing uniqueness.

    Runs the Newton solver from `trials` perturbed initializations, all in
    one batched solve, keeps the converged candidates that eps-shadow the
    chain (verify_shadowing's tests: exact-chain residual <= 1e-9 and sup
    distance <= eps), and compares them pointwise on the window core.  The
    margin trims the window ends, where finite-window solutions legitimately
    differ by decaying exact-orbit modes even when the bi-infinite shadow is
    unique.  Trials that stop unconverged are counted in `unconverged`.
    """
    if chain.sigma != sigma:
        chain = ChainRecord(chain.points, sigma, chain.delta, chain.kind)
    n = len(chain)
    margin = min(chain.n_links // 4, 40)
    if 2 * margin >= n:
        margin = max((n - 1) // 2, 0)
    scale = eps / 4.0 if init_scale is None else init_scale
    rng = np.random.default_rng(seed)
    space = F.space
    noise = np.array([ball_sample(rng, n, space.dim, scale) for _ in range(trials)])
    starts = space.normalize(chain.points + noise.reshape(trials, n, space.dim))
    symbols = sigma.symbols(0, n - 1)
    best, res, _, _ = _gauss_newton(F, symbols, starts, tol, max_iter)
    converged = best[res <= tol]
    ok = ((_max_residual(_link_errors(F, symbols, converged)) <= 1e-9)
          & (np.max(space.dist(chain.points, converged), axis=1) <= eps))
    candidates = converged[ok]
    unconverged = trials - len(converged)
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
