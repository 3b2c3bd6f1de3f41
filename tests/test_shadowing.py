import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifsshadow import (ChainRecord, NotContractingError, NotHyperbolicError,
                       ShadowingConvergenceError, SmoothMap, Space, SymbolSequence,
                       affine_map, ball_sample, check_uniqueness,
                       gen_pseudo_orbit, hyperbolic_splitting, iterate_chain,
                       lipschitz_estimate, make_ifs, shadow_auto,
                       shadow_contraction, shadow_linear_hyperbolic,
                       shadow_newton, validate_chain, verify_shadowing)
from ifsshadow import shadowing
from ifsshadow.core import _link_errors
from ifsshadow.shadowing import _gauss_newton, _normal_solve
from ifsshadow.systems import (CAT_MATRIX, build_cat_ifs, build_contraction_ifs,
                               build_identity_ifs, build_rotation_ifs,
                               build_torus_example, build_torus_f1)

CAT = build_cat_ifs()
SIG0 = SymbolSequence.constant(0)
LAM_S = (3 - np.sqrt(5)) / 2
LAM_U = (3 + np.sqrt(5)) / 2
CAT_BOUND_CONST = 1 / (1 - LAM_S) + 1 / (LAM_U - 1)


# --- contraction solver ---------------------------------------------------

def test_contraction_exact_chain_shadows_itself():
    F = build_contraction_ifs(0.5)
    chain = iterate_chain(F, SymbolSequence.random(2, 100, 0), [0.37], 100)
    r = shadow_contraction(F, chain)
    assert r.sup_dist == 0.0
    assert r.residual <= 1e-12


def test_contraction_binary_ifs_meets_bound_and_oracle():
    q, offsets = 0.5, (0.0, 0.5)
    F = build_contraction_ifs(q, offsets)
    sig = SymbolSequence.random(2, 1000, seed=42)
    chain = gen_pseudo_orbit(F, sig, [0.3], 0.01, 1000, seed=42)
    r = shadow_contraction(F, chain)
    assert r.sup_dist <= 0.01 / (1 - q) + 1e-12
    assert validate_chain(F, r.shadow).is_exact_chain

    # independent oracle: raw-float forward iteration and running max
    y = float(chain.points[0, 0])
    sup = 0.0
    for k in range(chain.n_links):
        y = q * y + offsets[sig.lookup(k)]
        sup = max(sup, abs(y - float(chain.points[k + 1, 0])))
        assert abs(y - float(r.shadow.points[k + 1, 0])) <= 1e-12
    assert abs(sup - r.sup_dist) <= 1e-12


def test_contraction_q09_bound_over_seeds():
    q = 0.9
    F = build_contraction_ifs(q, (0.0, 0.05))
    bound = 0.01 / (1 - q)
    for seed in range(100):
        sig = SymbolSequence.random(2, 300, seed=seed)
        chain = gen_pseudo_orbit(F, sig, [0.5], 0.01, 300, seed=seed)
        r = shadow_contraction(F, chain)
        assert r.sup_dist <= bound + 1e-12


def test_contraction_rejects_expanding_map():
    chain = iterate_chain(CAT, SIG0, [0.2, 0.3], 10)
    with pytest.raises(NotContractingError, match="cat"):
        shadow_contraction(CAT, chain)


# --- linear hyperbolic solver ----------------------------------------------

def test_hyperbolic_zero_delta_returns_input():
    chain = iterate_chain(CAT, SIG0, [0.21, 0.83], 100)
    r = shadow_linear_hyperbolic(CAT.maps[0], chain)
    assert r.sup_dist <= 1e-12
    assert r.residual <= 1e-12


def test_hyperbolic_bound_and_newton_agreement():
    for seed in range(20):
        x0 = np.random.default_rng(100 + seed).random(2)
        chain = gen_pseudo_orbit(CAT, SIG0, x0, 1e-3, 500, seed=seed)
        rh = shadow_linear_hyperbolic(CAT.maps[0], chain)
        assert rh.sup_dist <= 1e-3 * CAT_BOUND_CONST + 1e-9
        assert rh.residual <= 1e-9
        rn = shadow_newton(CAT, chain)
        gap = np.max(CAT.space.dist(rh.shadow.points, rn.shadow.points))
        assert gap <= 1e-8


def dense_lstsq_gap(F, chain, shadow):
    """Largest gap between the shadow's correction and the minimal-norm
    correction from a dense lstsq solve of the stacked linearized chain
    constraints of the linear map F.maps[0]."""
    m, d = chain.n_links, F.space.dim
    A = F.maps[0].affine[0]
    space = F.space
    E = space.displacement(F.maps[0](chain.points[:-1]), chain.points[1:])
    J = np.zeros((m * d, (m + 1) * d))
    for k in range(m):
        J[k * d:(k + 1) * d, k * d:(k + 1) * d] = -A
        J[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = np.eye(d)
    w, *_ = np.linalg.lstsq(J, -E.ravel(), rcond=None)
    got = space.displacement(chain.points, shadow.points)
    return np.max(np.abs(w.reshape(m + 1, d) - got))


def test_hyperbolic_matches_dense_least_squares_oracle():
    chain = gen_pseudo_orbit(CAT, SIG0, [0.42, 0.17], 1e-3, 40, seed=6)
    r = shadow_linear_hyperbolic(CAT.maps[0], chain)
    assert dense_lstsq_gap(CAT, chain, r.shadow) <= 1e-9


def test_hyperbolic_splitting_eigenvalues():
    w, _ = hyperbolic_splitting(CAT_MATRIX)
    assert sorted(np.abs(w)) == pytest.approx([LAM_S, LAM_U], abs=1e-12)


def test_closed_form_memoises_the_splitting_but_not_its_failure(monkeypatch):
    calls = []
    splitting = shadowing.hyperbolic_splitting
    monkeypatch.setattr(shadowing, "hyperbolic_splitting",
                        lambda M: calls.append(1) or splitting(M))
    shear = affine_map(Space(2), [[1, 1], [0, 1]], np.zeros(2), "shear")
    chain = iterate_chain(make_ifs([shear]), SIG0, [0.2, 0.3], 5)
    for n in (1, 2):
        with pytest.raises(NotHyperbolicError, match="unit circle"):
            shadow_linear_hyperbolic(shear, chain)
        assert len(calls) == n
    A = affine_map(Space(2), CAT_MATRIX, np.zeros(2), "cat")
    chain = gen_pseudo_orbit(make_ifs([A]), SIG0, [0.42, 0.17], 1e-3, 900, seed=2)
    first, second = (shadow_linear_hyperbolic(A, chain) for _ in range(2))
    assert len(calls) == 3
    assert first.shadow.points.tobytes() == second.shadow.points.tobytes()
    assert (first.sup_dist, first.residual) == (second.sup_dist, second.residual)


def test_not_hyperbolic_rejected():
    with pytest.raises(NotHyperbolicError):
        hyperbolic_splitting(np.array([[1, 1], [0, 1]]))
    R = build_rotation_ifs([0.1])
    chain = iterate_chain(R, SIG0, [0.2], 5)
    with pytest.raises(NotHyperbolicError):
        shadow_linear_hyperbolic(R.maps[0], chain)


def _cube_cat_map():
    return affine_map(Space(2, periodic=False), CAT_MATRIX, np.zeros(2), "cube_cat")


@pytest.mark.parametrize("build", [
    lambda: build_torus_f1().maps[0],
    lambda: build_identity_ifs(2).maps[0],
    _cube_cat_map,
])
def test_closed_form_needs_an_affine_torus_map(build):
    # torus_F1 is not affine, the identity carries no affine record, and the
    # cat matrix on the cube (not the torus) is no toral automorphism
    A = build()
    chain = ChainRecord(np.full((3, A.space.dim), 0.25), SIG0)
    with pytest.raises(NotHyperbolicError,
                       match=f"map {A.label!r} is not a linear toral automorphism"):
        shadow_linear_hyperbolic(A, chain)


def test_hyperbolic_nonsymmetric_matrix():
    # oblique eigenbasis; exactness and solver agreement still hold
    from ifsshadow import Space, affine_map, make_ifs
    A = affine_map(Space(2), [[3, 2], [1, 1]], [0.0, 0.0], "hyp32")
    F = make_ifs([A])
    chain = gen_pseudo_orbit(F, SIG0, [0.21, 0.68], 1e-3, 300, seed=9)
    rh = shadow_linear_hyperbolic(A, chain)
    assert rh.residual <= 1e-9
    rn = shadow_newton(F, chain)
    assert np.max(F.space.dist(rh.shadow.points, rn.shadow.points)) <= 1e-8
    assert verify_shadowing(F, chain, rh.shadow, eps=5e-3).ok


def test_hyperbolic_four_dimensional_block_matrix():
    from ifsshadow import Space, affine_map, make_ifs
    M = np.zeros((4, 4))
    M[:2, :2] = CAT_MATRIX
    M[2:, 2:] = [[3, 2], [1, 1]]
    A = affine_map(Space(4), M, np.zeros(4), "hyp4")
    F = make_ifs([A])
    chain = gen_pseudo_orbit(F, SIG0, [0.1, 0.7, 0.3, 0.9], 1e-4, 200, seed=2)
    rh = shadow_linear_hyperbolic(A, chain)
    assert rh.residual <= 1e-9
    rn = shadow_newton(F, chain)
    assert np.max(F.space.dist(rh.shadow.points, rn.shadow.points)) <= 1e-8
    assert verify_shadowing(F, chain, rh.shadow, eps=1e-3).ok


def test_hyperbolic_complex_eigenvalue_pair():
    # companion matrix of x^3 - x - 1: det 1, one real expanding eigenvalue
    # (1.3247) and a complex contracting pair (|w| = 0.8688)
    A = affine_map(Space(3), [[0, 0, 1], [1, 0, 1], [0, 1, 0]], np.zeros(3), "cubic")
    w, _ = hyperbolic_splitting(A.affine[0])
    assert np.count_nonzero(np.abs(w.imag) > 1e-12) == 2
    F = make_ifs([A])
    chain = gen_pseudo_orbit(F, SIG0, [0.31, 0.58, 0.77], 1e-4, 200, seed=4)
    rh = shadow_linear_hyperbolic(A, chain)
    assert rh.residual <= 1e-9
    rn = shadow_newton(F, chain)
    assert np.max(F.space.dist(rh.shadow.points, rn.shadow.points)) <= 1e-8
    assert dense_lstsq_gap(F, chain, rh.shadow) <= 1e-9


def lfilter_closed_form(A, chain):
    """Shadow points of the closed form with each mode's geometric series run
    through scipy.signal.lfilter, an independent implementation of the two
    recurrences: coefficients [0, -1] / [1, -w] for contracting modes,
    [0, 1/w] / [1, -1/w] over the reversed errors for expanding ones."""
    from scipy.signal import lfilter
    w, V = hyperbolic_splitting(A.affine[0])
    m, pts = chain.n_links, chain.points
    E = _link_errors(make_ifs([A]), chain.sigma.symbols(0, m), pts)
    Et = np.linalg.solve(V, E.T).T
    ks = np.arange(m + 1)
    Wt = np.empty((m + 1, w.size), dtype=complex)
    cols = []
    for j, wj in enumerate(w):
        if abs(wj) < 1.0:
            Wt[:, j] = lfilter([0.0, -1.0], [1.0, -wj], np.append(Et[:, j], 0.0))
            prof = wj ** ks
        else:
            z = lfilter([0.0, 1.0 / wj], [1.0, -1.0 / wj], np.append(Et[::-1, j], 0.0))
            Wt[:, j] = z[::-1]
            prof = (1.0 / wj) ** (m - ks)
        col = prof[:, None] * V[:, j]
        if abs(wj.imag) < 1e-12:
            cols.append(np.real(col).ravel())
        elif wj.imag > 0:
            cols += [np.real(col).ravel(), np.imag(col).ravel()]
    W = np.real(Wt @ V.T)
    K = np.stack(cols, axis=1)
    c, *_ = np.linalg.lstsq(K, W.ravel(), rcond=None)
    W = W - (K @ c).reshape(W.shape)
    return A.space.normalize(pts + W)


# delta = 0.1 keeps the corrections large enough that a last-bit change in a
# series survives their addition to the chain points

# cat's contracting eigenvalue 1/phi^2 underflows from k = 775 on
@pytest.mark.parametrize("n_links", [1, 2, 50, 730, 760, 800, 2000, 4000])
def test_hyperbolic_recurrences_match_lfilter_bits_on_cat(n_links):
    x0 = np.random.default_rng(n_links).random(2)
    chain = gen_pseudo_orbit(CAT, SIG0, x0, 0.1, n_links, seed=n_links)
    got = shadow_linear_hyperbolic(CAT.maps[0], chain).shadow.points
    assert np.array_equal(got, lfilter_closed_form(CAT.maps[0], chain))


# each matrix at chain lengths on both sides of the link where its contracting
# powers underflow to 0: 3 - 2 sqrt 2 from k = 423, -1/phi (det -1, so signed
# zeros) from k = 1,549, the complex pair of |w| = 0.8688 from k = 5,300 (a
# complex spectrum, whose powers are all taken), and the zero eigenvalue of a
# singular matrix from k = 1
@pytest.mark.parametrize("M, n_links", [
    ([[5, 2], [2, 1]], 400), ([[5, 2], [2, 1]], 430), ([[5, 2], [2, 1]], 1000),
    ([[0, 1], [1, 1]], 1500), ([[0, 1], [1, 1]], 1600), ([[0, 1], [1, 1]], 3001),
    ([[0, 0, 1], [1, 0, 1], [0, 1, 0]], 5400), ([[1, 1], [1, 1]], 50),
])
def test_hyperbolic_recurrences_match_lfilter_bits_past_underflow(M, n_links):
    d = len(M)
    A = affine_map(Space(d), M, np.zeros(d), "A")
    x0 = np.random.default_rng(n_links).random(d)
    chain = gen_pseudo_orbit(make_ifs([A]), SIG0, x0, 0.1, n_links, seed=n_links)
    got = shadow_linear_hyperbolic(A, chain).shadow.points
    assert np.array_equal(got, lfilter_closed_form(A, chain))


@pytest.mark.parametrize("r", [LAM_S, -LAM_S, (np.sqrt(5) - 1) / 2, (1 - np.sqrt(5)) / 2,
                               3 - 2 * np.sqrt(2), 0.999, -0.5, 1e-3, -1e-3, 5e-324,
                               -5e-324, 0.0, -0.0])
@pytest.mark.parametrize("n", [1, 2, 3, 775, 776, 5000])
def test_decaying_powers_have_the_bits_of_numpy_power(r, n):
    r = np.float64(r)
    got = shadowing._decaying_powers(r, n)
    want = r ** np.arange(n)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_hyperbolic_recurrences_match_lfilter_bits_on_random_automorphisms():
    rng = np.random.default_rng(12)
    n_complex = 0
    for n in range(24):
        while True:
            d = int(rng.integers(2, 5))
            M = rng.integers(-2, 3, size=(d, d))
            if abs(round(np.linalg.det(M))) != 1:
                continue
            w = np.linalg.eigvals(M)
            if np.min(np.abs(np.abs(w) - 1.0)) > 0.05:
                break
        n_complex += bool(np.any(np.abs(w.imag) > 1e-12))
        A = affine_map(Space(d), M, np.zeros(d), "A")
        chain = gen_pseudo_orbit(make_ifs([A]), SIG0, rng.random(d), 0.1,
                                 int(rng.integers(1, 80)), seed=n)
        got = shadow_linear_hyperbolic(A, chain).shadow.points
        assert np.array_equal(got, lfilter_closed_form(A, chain)), M
    assert n_complex >= 4


# --- Gauss-Newton solver ----------------------------------------------------

def test_newton_converges_immediately_on_exact_chain():
    chain = iterate_chain(CAT, SIG0, [0.11, 0.67], 50)
    r = shadow_newton(CAT, chain)
    assert r.iterations <= 1
    assert r.sup_dist <= 1e-10


def test_newton_on_torus_family_regression():
    T = build_torus_example()
    sig = SymbolSequence.periodic([0, 1])
    chain = gen_pseudo_orbit(T, sig, [0.2, 0.4, 0.6, 0.8], 1e-4, 200, seed=5)
    r = shadow_newton(T, chain)
    assert r.residual <= 1e-10
    assert r.sup_dist == pytest.approx(0.00013723611421155143, rel=1e-6)
    assert validate_chain(T, r.shadow).is_exact_chain


@pytest.mark.parametrize("F, sigma, x0, delta, m", [
    (build_torus_example(), SymbolSequence.random(2, 300, 4), [0.2, 0.4, 0.6, 0.8],
     1e-4, 300),
    (CAT, SIG0, [0.3, 0.7], 1e-3, 400),
    (CAT, SIG0, [0.3, 0.7], 0.0, 0),       # no links: residual 0.0
])
def test_newton_residual_is_validate_chains(F, sigma, x0, delta, m, monkeypatch):
    # the solve's own measurement of the best iterate, not a second pass
    chain = gen_pseudo_orbit(F, sigma, x0, delta, m, seed=2)
    calls = []
    monkeypatch.setattr(shadowing, "validate_chain",
                        lambda *a, **k: calls.append(a) or validate_chain(*a, **k))
    r = shadow_newton(F, chain)
    assert calls == []
    assert r.solver == "newton"
    ref = validate_chain(F, r.shadow).max_residual
    assert type(r.residual) is float
    assert np.float64(r.residual).tobytes() == np.float64(ref).tobytes()


def test_newton_nonconvergence_carries_best(monkeypatch):
    chain = gen_pseudo_orbit(CAT, SIG0, [0.2, 0.7], 1e-2, 50, seed=1)
    monkeypatch.setattr(shadowing, "NEWTON_MAX_ITER", 0)
    with pytest.raises(ShadowingConvergenceError, match="in 0 iterations") as exc:
        shadow_newton(CAT, chain)
    assert exc.value.best_points is not None
    assert exc.value.residual > 0
    assert exc.value.iterations == 0


def test_newton_stops_at_nonfinite_residual():
    chain = gen_pseudo_orbit(CAT, SIG0, [0.2, 0.7], 1e-3, 20, seed=1)
    init = chain.points.copy()
    init[5, 0] = np.nan
    with pytest.raises(ShadowingConvergenceError, match="not finite") as exc:
        shadow_newton(CAT, ChainRecord(init, chain.sigma))
    assert exc.value.iterations == 0


def test_newton_leaves_a_cube_chain_unchanged():
    # the cube's normalize returns its input, so the solve starts on the
    # chain's own array and must not write to it
    F = build_contraction_ifs(0.5, (0.0, 0.5))
    sig = SymbolSequence.random(2, 60, 3)
    chain = gen_pseudo_orbit(F, sig, [0.3], 1e-2, 60, seed=3)
    before = chain.points.copy()
    r = shadow_newton(F, chain)
    assert np.array_equal(chain.points, before)
    assert not np.shares_memory(r.shadow.points, chain.points)
    assert r.residual <= 1e-10 and r.iterations >= 1


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 50])
def test_normal_solve_matches_dense(d, m):
    rng = np.random.default_rng(10 * d + m)
    jacs = rng.normal(size=(m, d, d))
    rhs = rng.normal(size=(m, d))
    # chain Jacobian: row block k is [-A_k at y_k, I at y_{k+1}]
    J = np.zeros((m * d, (m + 1) * d))
    for k in range(m):
        J[k * d:(k + 1) * d, k * d:(k + 1) * d] = -jacs[k]
        J[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = np.eye(d)
    dense = np.linalg.solve(J @ J.T, rhs.ravel()).reshape(m, d)
    u = _normal_solve(jacs[None], rhs[None])
    assert u.shape == (1, m, d)
    assert np.max(np.abs(u[0] - dense)) <= 1e-12 * np.max(np.abs(dense))
    # B = 3 with this chain in the middle: every chain keeps the bits of its
    # own one-chain solve, so a coupling leaked across a chain boundary fails
    other = np.random.default_rng(d + 100 * m)
    stack_j = np.stack([other.normal(size=jacs.shape), jacs, other.normal(size=jacs.shape)])
    stack_r = np.stack([other.normal(size=rhs.shape), rhs, other.normal(size=rhs.shape)])
    u3 = _normal_solve(stack_j, stack_r)
    for b in range(3):
        assert np.array_equal(u3[b], _normal_solve(stack_j[b:b + 1], stack_r[b:b + 1])[0])


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("m", [1, 2, 50])
@pytest.mark.parametrize("B", [1, 3])
def test_normal_solve_with_one_shared_jacobian_matches_one_chain_solves(d, m, B):
    rng = np.random.default_rng(100 * d + 10 * m + B)
    jacs = rng.normal(size=(1, m, d, d))
    rhs = rng.normal(size=(B, m, d))
    u = _normal_solve(jacs, rhs)
    assert u.shape == (B, m, d)
    for b in range(B):
        assert np.array_equal(u[b], _normal_solve(jacs, rhs[b:b + 1])[0])
        assert np.array_equal(u[b], _normal_solve(np.repeat(jacs, B, axis=0), rhs)[b])


def skew_ifs(value: float, at: np.ndarray):
    """x -> [[2, 1], [0, 1]] x on the torus, with Jacobian entry (1, 0) set to
    `value` at the point `at` only."""
    A = np.array([[2.0, 1.0], [0.0, 1.0]])

    def jac(x):
        J = np.array(np.broadcast_to(A, x.shape + (2,)))
        J[np.all(x == at, axis=-1), 1, 0] = value
        return J
    return make_ifs([SmoothMap("skew", Space(2), lambda x: x @ A.T, jac=jac)])


@pytest.mark.parametrize("value, n_factored", [(0.0, 1), (-0.0, 3), (np.nan, 3)])
def test_gauss_newton_shares_the_factorization_only_for_equal_bits(monkeypatch,
                                                                   value, n_factored):
    Y = np.random.default_rng(3).random((3, 11, 2))
    F = skew_ifs(value, Y[1, 0])
    shapes = []

    def spy(jacs, rhs):
        shapes.append((jacs.shape[0], rhs.shape[0]))
        return np.zeros_like(rhs)
    monkeypatch.setattr(shadowing, "_normal_solve", spy)
    monkeypatch.setattr(shadowing, "NEWTON_MAX_ITER", 1)
    _gauss_newton(F, np.zeros(10, dtype=int), Y)
    assert shapes == [(n_factored, 3)]


@st.composite
def hyperbolic_sl2z(draw):
    """Products of elementary shears [[1, k], [0, 1]] / [[1, 0], [k, 1]] with
    |trace| > 2: integer matrices of determinant 1 with no unit eigenvalue."""
    M = np.eye(2, dtype=int)
    for upper, k in draw(st.lists(st.tuples(st.booleans(), st.sampled_from([-2, -1, 1, 2])),
                                  min_size=1, max_size=4)):
        M = M @ (np.array([[1, k], [0, 1]]) if upper else np.array([[1, 0], [k, 1]]))
    assume(abs(int(np.trace(M))) > 2)
    return M


@settings(deadline=None, max_examples=30)
@given(M=hyperbolic_sl2z(), seed=st.integers(0, 2 ** 16))
def test_newton_matches_closed_form_on_hyperbolic_sl2z(M, seed):
    A = affine_map(Space(2), M, np.zeros(2), "A")
    F = make_ifs([A])
    x0 = np.random.default_rng(seed).random(2)
    chain = gen_pseudo_orbit(F, SIG0, x0, 1e-4, 60, seed=seed)
    rn = shadow_newton(F, chain)
    rh = shadow_linear_hyperbolic(A, chain)
    assert np.max(F.space.dist(rn.shadow.points, rh.shadow.points)) <= 1e-8


def test_newton_requires_jacobians():
    from ifsshadow import SmoothMap, Space, make_ifs
    m = SmoothMap("nojac", Space(2), lambda x: x, inv=lambda p: p)
    F = make_ifs([m])
    chain = iterate_chain(F, SIG0, [0.1, 0.1], 3)
    with pytest.raises(ValueError, match="Jacobian"):
        shadow_newton(F, chain)


def test_shadow_auto_dispatch():
    c_chain = gen_pseudo_orbit(build_contraction_ifs(0.5),
                               SymbolSequence.random(2, 50, 3), [0.4], 0.01, 50,
                               seed=3)
    assert shadow_auto(build_contraction_ifs(0.5), c_chain).solver == "contraction"
    h_chain = gen_pseudo_orbit(CAT, SIG0, [0.3, 0.4], 1e-3, 50, seed=3)
    assert shadow_auto(CAT, h_chain).solver == "linear-hyperbolic"
    T = build_torus_example()
    t_chain = gen_pseudo_orbit(T, SymbolSequence.periodic([0, 1]),
                               [0.1, 0.2, 0.3, 0.4], 1e-4, 50, seed=3)
    assert shadow_auto(T, t_chain).solver == "newton"


def test_shadow_auto_one_map_without_hyperbolic_closed_form_falls_through():
    # a circle rotation has an integer matrix with eigenvalue 1: the closed
    # form raises NotHyperbolicError, the isometry is not contracting, and
    # Gauss-Newton shadows the chain
    R = build_rotation_ifs([0.1])
    chain = gen_pseudo_orbit(R, SIG0, [0.3], 1e-3, 50, seed=1)
    with pytest.raises(NotHyperbolicError):
        shadow_linear_hyperbolic(R.maps[0], chain)
    r = shadow_auto(R, chain)
    assert r.solver == "newton"
    assert validate_chain(R, r.shadow).is_exact_chain


def test_shadow_auto_estimates_each_lipschitz_constant_once(monkeypatch):
    import ifsshadow.shadowing as shadowing
    calls = []
    estimate = shadowing.lipschitz_estimate
    monkeypatch.setattr(shadowing, "lipschitz_estimate",
                        lambda m, **k: calls.append(m.label) or estimate(m, **k))
    F = build_contraction_ifs(0.5)
    chain = gen_pseudo_orbit(F, SymbolSequence.random(2, 30, 1), [0.4], 0.01, 30)
    assert shadow_auto(F, chain).solver == "contraction"
    assert sorted(calls) == sorted(m.label for m in F.maps)
    calls.clear()
    T = build_torus_example()
    t_chain = gen_pseudo_orbit(T, SymbolSequence.periodic([0, 1]),
                               [0.1, 0.2, 0.3, 0.4], 1e-4, 20, seed=3)
    assert shadow_auto(T, t_chain).solver == "newton"
    assert len(calls) <= len(T)


def test_shadow_contraction_estimates_lipschitz_once_per_family():
    jac_calls = []

    def counted(m):
        def jac(x):
            jac_calls.append(m.label)
            return m.jac(x)
        return dataclasses.replace(m, jac=jac)

    F = make_ifs(counted(m) for m in build_contraction_ifs(0.5).maps)
    chain = gen_pseudo_orbit(F, SymbolSequence.random(2, 40, 1), [0.4], 0.01, 40)
    first = shadow_contraction(F, chain)
    assert sorted(jac_calls) == sorted(m.label for m in F.maps)
    second = shadow_contraction(F, chain)
    assert len(jac_calls) == len(F)
    assert np.array_equal(first.shadow.points, second.shadow.points)


# --- verification -----------------------------------------------------------

def test_verify_exact_chain_against_itself():
    chain = iterate_chain(CAT, SIG0, [0.15, 0.25], 40)
    v = verify_shadowing(CAT, chain, chain, eps=1e-6)
    assert v.ok and v.max_point_dist == 0.0


def test_verify_contraction_bound_case():
    F = build_contraction_ifs(0.5)
    sig = SymbolSequence.random(2, 500, seed=21)
    chain = gen_pseudo_orbit(F, sig, [0.6], 0.01, 500, seed=21)
    r = shadow_contraction(F, chain)
    assert verify_shadowing(F, chain, r.shadow, eps=0.02).ok


def test_verify_flags_displaced_point():
    chain = iterate_chain(CAT, SIG0, [0.15, 0.25], 40)
    eps = 0.01
    pts = chain.points.copy()
    pts[17] = CAT.space.normalize(pts[17] + np.array([2 * eps, 0.0]))
    bad = ChainRecord(pts, SIG0, 0.0)
    v = verify_shadowing(CAT, chain, bad, eps=eps)
    assert not v.ok
    assert v.worst_index == 17


@pytest.mark.parametrize("kwargs, message", [
    (dict(eps=np.nan), "eps must be positive, got nan"),
    (dict(eps=0.0), "eps must be positive, got 0.0"),
    (dict(eps=-0.1), "eps must be positive, got -0.1"),
    (dict(tol=np.nan), "tol must be >= 0, got nan"),
    (dict(tol=-1e-12), "tol must be >= 0, got -1e-12"),
])
def test_verify_rejects_config_errors(kwargs, message):
    # a NaN read as a failed verification, not as a misconfiguration
    chain = iterate_chain(CAT, SIG0, [0.15, 0.25], 10)
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_shadowing(CAT, chain, chain, **{"eps": 0.01, **kwargs})
    if "tol" in kwargs:
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_chain(CAT, chain, kwargs["tol"])


def test_verify_needs_common_window():
    a = iterate_chain(CAT, SIG0, [0.1, 0.1], 10)
    b = iterate_chain(CAT, SIG0, [0.1, 0.1], 9)
    with pytest.raises(ValueError, match="window"):
        verify_shadowing(CAT, a, b, 0.1)


# --- finite windows ----------------------------------------------------------

def test_probe_single_points_trivially_shadowed():
    for i in range(5):
        win = ChainRecord(np.array([[0.1 * i, 0.2]]), SIG0, 0.0)
        assert shadow_auto(CAT, win).sup_dist == 0.0


def test_probe_contraction_windows_all_pass():
    q = 0.5
    F = build_contraction_ifs(q)
    eps = 0.01 / (1 - q)
    for s in range(50):
        win = gen_pseudo_orbit(F, SymbolSequence.random(2, 100, s), [0.3],
                               0.01, 100, seed=s)
        assert shadow_auto(F, win).sup_dist <= eps


def test_probe_window_length_stability_on_cat():
    bound = 1e-3 * CAT_BOUND_CONST + 1e-9
    for n in (25, 50, 100, 200):
        for s in range(5):
            win = gen_pseudo_orbit(CAT, SIG0,
                                   np.random.default_rng(300 + n + s).random(2),
                                   1e-3, n, seed=s)
            assert shadow_auto(CAT, win).sup_dist <= bound   # length-independent


# --- uniqueness --------------------------------------------------------------

def test_uniqueness_cat_map():
    chain = gen_pseudo_orbit(CAT, SIG0, [0.38, 0.59], 1e-3, 300, seed=2)
    v = check_uniqueness(CAT, SIG0, chain, eps=0.2, trials=20, seed=2)
    assert v.status == "unique"
    assert v.n_candidates == 20
    assert v.core_spread <= 1e-8


def test_uniqueness_exact_chain_contains_itself():
    chain = iterate_chain(CAT, SIG0, [0.41, 0.13], 200)
    v = check_uniqueness(CAT, SIG0, chain, eps=0.05, trials=10, seed=3)
    assert v.status == "unique"
    # with delta = 0 the chain is its own shadow on the core
    r = shadow_newton(CAT, chain)
    core = slice(v.margin, len(chain) - v.margin)
    assert np.max(CAT.space.dist(r.shadow.points[core], chain.points[core])) <= 1e-8


def test_uniqueness_identity_control_not_unique():
    I = build_identity_ifs(2)
    const = iterate_chain(I, SIG0, [0.4, 0.6], 100)
    v = check_uniqueness(I, SIG0, const, eps=0.1, trials=20, seed=1)
    assert v.status == "not-unique"
    assert v.core_spread > 1e-8


def test_uniqueness_inconclusive_when_no_candidate_shadows():
    # every trial converges to the shadow, about delta from the chain and so
    # beyond a tiny eps
    chain = gen_pseudo_orbit(CAT, SIG0, [0.3, 0.3], 1e-3, 100, seed=4)
    v = check_uniqueness(CAT, SIG0, chain, eps=1e-9, trials=3, seed=4)
    assert v.status == "inconclusive"
    assert v.n_candidates == 0
    assert v.unconverged == 0


def test_uniqueness_counts_unconverged_trials(monkeypatch):
    chain = gen_pseudo_orbit(CAT, SIG0, [0.3, 0.3], 1e-3, 100, seed=4)
    monkeypatch.setattr(shadowing, "NEWTON_MAX_ITER", 0)
    v = check_uniqueness(CAT, SIG0, chain, eps=0.2, trials=5, seed=4)
    assert v.status == "inconclusive"
    assert v.n_candidates == 0
    assert v.unconverged == v.trials == 5


def test_uniqueness_rejects_a_schedule_the_chain_was_not_built_on():
    T = build_torus_example()
    chain = gen_pseudo_orbit(T, SymbolSequence.periodic([0, 1]), [0.1, 0.5, 0.3, 0.8],
                             1e-4, 20, seed=1)
    with pytest.raises(ValueError, match="schedule"):
        check_uniqueness(T, SIG0, chain, eps=0.1, trials=2, seed=1)
    # another schedule object with the same symbols on the links is accepted
    cat_chain = gen_pseudo_orbit(CAT, SIG0, [0.3, 0.3], 1e-3, 100, seed=4)
    v = check_uniqueness(CAT, SymbolSequence.periodic([0]), cat_chain, eps=0.2,
                         trials=2, seed=4)
    assert v.status == "unique"


@pytest.mark.parametrize("n_links", [0, 1, 2, 3, 4, 5, 400])
def test_uniqueness_margin_is_a_quarter_of_the_links_capped_at_40(n_links):
    chain = gen_pseudo_orbit(CAT, SIG0, [0.38, 0.59], 1e-3, n_links, seed=2)
    assert chain.n_links == n_links
    v = check_uniqueness(CAT, SIG0, chain, eps=0.2, trials=3, seed=2)
    assert v.margin == min(n_links // 4, 40)


@pytest.mark.parametrize("trials", [2.5, True])
def test_uniqueness_trials_must_be_an_integer(trials):
    # both ended in a numpy TypeError
    chain = gen_pseudo_orbit(CAT, SIG0, [0.38, 0.59], 1e-3, 20, seed=2)
    with pytest.raises(ValueError, match=f"trials must be an integer, got {trials}"):
        check_uniqueness(CAT, SIG0, chain, eps=0.2, trials=trials, seed=2)


def test_uniqueness_trials_match_one_newton_solve_each(monkeypatch):
    T = build_torus_example()
    sig = SymbolSequence.random(2, 80, 5)
    pts = gen_pseudo_orbit(T, sig, [0.1, 0.5, 0.3, 0.8], 1e-3, 80, seed=5).points
    # the last point moved by about 2 eps: each shadow takes half the jump, so
    # the converged trials end on both sides of eps
    pts[-1, 0] += 0.19
    chain = ChainRecord(T.space.normalize(pts), sig)
    eps, trials = 0.1, 12
    monkeypatch.setattr(shadowing, "NEWTON_MAX_ITER", 3)
    rng = np.random.default_rng(7)
    starts = [T.space.normalize(chain.points + ball_sample(rng, len(chain), 4, eps / 4))
              for _ in range(trials)]
    # reference: the trials as a loop of single solves
    points, iterations, unconverged = [], [], 0
    for init in starts:
        try:
            r = shadow_newton(T, ChainRecord(init, sig))
        except ShadowingConvergenceError:
            unconverged += 1
            continue
        points.append(r.shadow.points)
        iterations.append(r.iterations)
    assert 0 < unconverged < trials
    best, res, sweeps, finite, start = _gauss_newton(T, sig.symbols(0, chain.n_links),
                                                     np.array(starts))
    done = res <= 1e-10
    assert np.array_equal(best[done], np.array(points))
    assert np.array_equal(sweeps[done], iterations)
    assert np.all(finite)
    # sweep 0 measures each start as validate_chain does
    assert np.array_equal(start, [validate_chain(T, ChainRecord(init, sig)).max_residual
                                  for init in starts])

    candidates = [p for p in points
                  if verify_shadowing(T, chain, ChainRecord(p, sig, 0.0),
                                      eps).ok]
    assert 2 <= len(candidates) < len(points)
    v = check_uniqueness(T, sig, chain, eps, trials=trials, seed=7)
    core = slice(v.margin, len(chain) - v.margin)
    spread = max(float(np.max(T.space.dist(a[core], b[core])))
                 for i, a in enumerate(candidates) for b in candidates[i + 1:])
    assert (v.n_candidates, v.unconverged, v.core_spread) == (
        len(candidates), unconverged, spread)


def test_uniqueness_trials_on_cat_share_one_factorization(monkeypatch):
    chain = gen_pseudo_orbit(CAT, SIG0, [0.38, 0.59], 1e-3, 300, seed=2)
    eps, trials = 0.2, 12
    rng = np.random.default_rng(7)
    starts = [CAT.space.normalize(chain.points + ball_sample(rng, len(chain), 2, eps / 4))
              for _ in range(trials)]
    # an exact chain as one more start stops at sweep 0, the others after 1
    starts.append(shadow_newton(CAT, chain).shadow.points)
    runs = [shadow_newton(CAT, ChainRecord(init, SIG0)) for init in starts]
    solve = shadowing._normal_solve
    shapes = []

    def spy(jacs, rhs):
        shapes.append((jacs.shape[0], rhs.shape[0]))
        return solve(jacs, rhs)
    monkeypatch.setattr(shadowing, "_normal_solve", spy)
    best, res, sweeps, finite, _ = _gauss_newton(CAT, SIG0.symbols(0, chain.n_links),
                                                 np.array(starts))
    assert shapes[0] == (1, trials)          # the exact chain left before sweep 1
    assert np.array_equal(best, np.array([r.shadow.points for r in runs]))
    assert np.array_equal(sweeps, [r.iterations for r in runs])
    assert sorted(set(sweeps.tolist())) == [0, 1] and np.all(finite)

    shapes.clear()
    v = check_uniqueness(CAT, SIG0, chain, eps, trials=trials, seed=7)
    assert shapes and all(j == 1 for j, _ in shapes) and shapes[0][1] == trials
    core = slice(v.margin, len(chain) - v.margin)
    points = [r.shadow.points for r in runs[:trials]]
    spread = max(float(np.max(CAT.space.dist(a[core], b[core])))
                 for i, a in enumerate(points) for b in points[i + 1:])
    assert (v.status, v.n_candidates, v.unconverged, v.core_spread) == (
        "unique", trials, 0, spread)


@pytest.mark.parametrize("kwargs, message", [
    (dict(trials=0), "trials must be >= 1, got 0"),
    (dict(trials=-1), "trials must be >= 1, got -1"),
    (dict(eps=0.0), "eps must be positive, got 0.0"),
    (dict(eps=-0.1), "eps must be positive, got -0.1"),
    (dict(eps=np.nan), "eps must be positive, got nan"),
])
def test_uniqueness_rejects_config_errors(kwargs, message):
    # each of these used to come back as an "inconclusive" verdict
    chain = gen_pseudo_orbit(CAT, SIG0, [0.3, 0.3], 1e-3, 50, seed=4)
    with pytest.raises(ValueError, match=re.escape(message)):
        check_uniqueness(CAT, SIG0, chain, **{"eps": 0.2, "trials": 3, **kwargs})


def test_lipschitz_estimates():
    assert lipschitz_estimate(build_contraction_ifs(0.5).maps[0]) == pytest.approx(0.5, abs=1e-9)
    assert lipschitz_estimate(CAT.maps[0]) == pytest.approx(LAM_U, rel=1e-6)
