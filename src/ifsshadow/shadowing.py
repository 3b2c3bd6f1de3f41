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
minimal-correction chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dpbsv
from scipy.signal import lfilter

from .core import ChainRecord, IFS, SymbolSequence, validate_chain
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
    """Numerical Lipschitz estimate from Jacobian norms and sampled pair ratios."""
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
    return best


def shadow_contraction(F: IFS, chain: ChainRecord, seed: int = 0) -> ShadowResult:
    """Shadow a one-sided delta-chain of a contracting family.

    Anchors y_0 = x_0 and iterates exactly; the result is an exact chain with
    sup_dist <= delta / (1 - q), q the largest contraction factor.
    """
    for m in F.maps:
        q = lipschitz_estimate(m, seed=seed)
        if q >= 1.0:
            raise NotContractingError(
                f"map {m.label!r} is not contracting (Lipschitz estimate {q:.4f})"
            )
    pts = chain.points
    y = np.empty_like(pts)
    y[0] = pts[0]
    fwds = [m.fwd for m in F.maps]
    periodic = F.space.periodic
    for k, s in enumerate(chain.sigma.symbols(0, chain.n_links).tolist()):
        img = np.asarray(fwds[s](y[k]), dtype=float)
        y[k + 1] = img - np.floor(img) if periodic else img
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
    """Solve (J J^T) u = rhs for the chain Jacobian J with link blocks A_k.

    Row k of J is [-A_k at y_k, I at y_{k+1}], so J J^T is block tridiagonal
    with diagonal blocks I + A_k A_k^T and super-diagonal blocks -A_{k+1}^T.
    It is assembled in upper-banded storage, ab[p + i - j, j] = (J J^T)[i, j]
    with p = 2d - 1 super-diagonals, and factored by one banded Cholesky
    (LAPACK pbsv).  pbsv is called directly: scipy's solveh_banded hands
    two-row storage (d = 1) to ptsv instead, which rejects a 1 x 1 system.
    """
    m, d, _ = jacs.shape
    p = 2 * d - 1
    ab = np.zeros((p + 1, m * d))
    a, b = np.triu_indices(d)
    D = np.eye(d) + jacs @ np.swapaxes(jacs, 1, 2)
    ab[p + a - b, np.arange(m)[:, None] * d + b] = D[:, a, b]
    if m > 1:
        a, b = np.indices((d, d)).reshape(2, -1)
        ab[d - 1 + a - b, np.arange(1, m)[:, None] * d + b] = -jacs[1:, b, a]
    _, u, info = dpbsv(ab, rhs.reshape(-1, 1), overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"banded Cholesky failed (LAPACK info {info})")
    return u.reshape(m, d)


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
    for m_ in F.maps:
        if m_.jac is None:
            raise ValueError(f"shadow_newton needs Jacobians (map {m_.label!r})")
    space = F.space
    m = chain.n_links
    y = np.array(initial_points if initial_points is not None else chain.points,
                 dtype=float)
    y = space.normalize(y)
    if m == 0:
        return _finish(F, chain, y, "newton", 0)
    syms = chain.sigma.symbols(0, m)
    best_y, best_res = y, np.inf
    for it in range(max_iter + 1):
        images = np.empty_like(y[:-1])
        jacs = np.empty((m, space.dim, space.dim))
        for s in np.unique(syms):
            idx = np.nonzero(syms == s)[0]
            images[idx] = F.maps[int(s)](y[idx])
            jacs[idx] = F.maps[int(s)].jacobian(y[idx])
        R = space.displacement(images, y[1:])
        res = float(np.max(np.sqrt(np.sum(R * R, axis=-1))))
        if not np.isfinite(res):
            raise ShadowingConvergenceError(
                f"Gauss-Newton residual is not finite at sweep {it} "
                f"(best {best_res:.3e})",
                best_points=best_y, residual=best_res, iterations=it,
            )
        if res < best_res:
            best_y, best_res = y.copy(), res
        if res <= tol:
            return _finish(F, chain, y, "newton", it)
        if it == max_iter:
            break
        u = _normal_solve(jacs, -R)
        delta = np.zeros_like(y)
        delta[0] = -jacs[0].T @ u[0]
        if m > 1:
            delta[1:m] = u[:-1] - np.einsum("kji,kj->ki", jacs[1:], u[1:])
        delta[m] = u[m - 1]
        y = space.normalize(y + delta)
    raise ShadowingConvergenceError(
        f"Gauss-Newton did not reach residual {tol:.1e} in {max_iter} iterations "
        f"(best {best_res:.3e})",
        best_points=best_y, residual=best_res, iterations=max_iter,
    )


def shadow_auto(F: IFS, chain: ChainRecord, tol: float = 1e-10,
                max_iter: int = 20) -> ShadowResult:
    """Dispatch to the applicable solver for the given family."""
    if len(F) == 1 and F.maps[0].matrix is not None:
        try:
            hyperbolic_splitting(F.maps[0].matrix)
            return shadow_linear_hyperbolic(F.maps[0], chain)
        except NotHyperbolicError:
            pass
    qs = [lipschitz_estimate(m) for m in F.maps]
    if max(qs) < 1.0:
        return shadow_contraction(F, chain)
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


def check_uniqueness(
    F: IFS,
    sigma: SymbolSequence,
    chain: ChainRecord,
    eps: float,
    trials: int = 20,
    seed: int = 0,
    init_scale: float | None = None,
    agree_tol: float = 1e-8,
    margin: int | None = None,
    tol: float = 1e-10,
    max_iter: int = 30,
) -> UniquenessVerdict:
    """Multi-start statistical probe of shadowing uniqueness.

    Runs the Newton solver from `trials` perturbed initializations, keeps the
    candidates that eps-shadow the chain, and compares them pointwise on the
    window core.  The margin trims the window ends, where finite-window
    solutions legitimately differ by decaying exact-orbit modes even when the
    bi-infinite shadow is unique.
    """
    if chain.sigma != sigma:
        chain = ChainRecord(chain.points, sigma, chain.delta, chain.kind)
    n = len(chain)
    if margin is None:
        margin = min(chain.n_links // 4, 40)
    if 2 * margin >= n:
        margin = max((n - 1) // 2, 0)
    scale = eps / 4.0 if init_scale is None else init_scale
    rng = np.random.default_rng(seed)
    candidates = []
    for _ in range(trials):
        noise = ball_sample(rng, n, F.space.dim, scale)
        init = F.space.normalize(chain.points + noise)
        try:
            r = shadow_newton(F, chain, tol=tol, max_iter=max_iter,
                              initial_points=init)
        except ShadowingConvergenceError:
            continue
        if verify_shadowing(F, chain, r.shadow, eps).ok:
            candidates.append(r.shadow.points)
    if not candidates:
        return UniquenessVerdict("inconclusive", 0, trials, np.inf, margin, eps)
    core = slice(margin, n - margin)
    spread = 0.0
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            gap = float(np.max(F.space.dist(candidates[i][core], candidates[j][core])))
            spread = max(spread, gap)
    status = "unique" if spread <= agree_tol else "not-unique"
    return UniquenessVerdict(status, len(candidates), trials, spread, margin, eps)
