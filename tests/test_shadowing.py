import numpy as np
import pytest

from ifsshadow import (ChainRecord, NotContractingError, NotHyperbolicError,
                       ShadowingConvergenceError, SymbolSequence,
                       check_uniqueness, finite_shadow_probe, gen_pseudo_orbit,
                       hyperbolic_splitting, iterate_chain, lipschitz_estimate,
                       shadow_auto, shadow_contraction, shadow_linear_hyperbolic,
                       shadow_newton, split_error, validate_chain,
                       verify_shadowing)
from ifsshadow.shadowing import _normal_solve
from ifsshadow.systems import (CAT_MATRIX, build_cat_ifs, build_contraction_ifs,
                               build_identity_ifs, build_rotation_ifs,
                               build_torus_example)

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


def test_hyperbolic_matches_dense_least_squares_oracle():
    # minimal-norm correction from a dense lstsq solve of the stacked
    # linearized chain constraints
    chain = gen_pseudo_orbit(CAT, SIG0, [0.42, 0.17], 1e-3, 40, seed=6)
    r = shadow_linear_hyperbolic(CAT.maps[0], chain)
    m, d = chain.n_links, 2
    A = CAT_MATRIX.astype(float)
    space = CAT.space
    E = space.displacement(CAT.maps[0](chain.points[:-1]), chain.points[1:])
    J = np.zeros((m * d, (m + 1) * d))
    for k in range(m):
        J[k * d:(k + 1) * d, k * d:(k + 1) * d] = -A
        J[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = np.eye(d)
    w, *_ = np.linalg.lstsq(J, -E.ravel(), rcond=None)
    w = w.reshape(m + 1, d)
    got = space.displacement(chain.points, r.shadow.points)
    assert np.max(np.abs(w - got)) <= 1e-9


def test_single_link_error_split_reconstruction():
    rng = np.random.default_rng(13)
    e = rng.standard_normal((50, 2)) * 1e-3
    es, eu = split_error(CAT_MATRIX, e)
    assert np.max(np.abs(es + eu - e)) <= 1e-12


def test_hyperbolic_splitting_eigenvalues():
    w, _ = hyperbolic_splitting(CAT_MATRIX)
    assert sorted(np.abs(w)) == pytest.approx([LAM_S, LAM_U], abs=1e-12)


def test_not_hyperbolic_rejected():
    with pytest.raises(NotHyperbolicError):
        hyperbolic_splitting(np.array([[1, 1], [0, 1]]))
    R = build_rotation_ifs([0.1])
    chain = iterate_chain(R, SIG0, [0.2], 5)
    with pytest.raises(NotHyperbolicError):
        shadow_linear_hyperbolic(R.maps[0], chain)


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


def test_newton_nonconvergence_carries_best():
    chain = gen_pseudo_orbit(CAT, SIG0, [0.2, 0.7], 1e-2, 50, seed=1)
    with pytest.raises(ShadowingConvergenceError) as exc:
        shadow_newton(CAT, chain, tol=1e-12, max_iter=0)
    assert exc.value.best_points is not None
    assert exc.value.residual > 0


def test_newton_stops_at_nonfinite_residual():
    chain = gen_pseudo_orbit(CAT, SIG0, [0.2, 0.7], 1e-3, 20, seed=1)
    init = chain.points.copy()
    init[5, 0] = np.nan
    with pytest.raises(ShadowingConvergenceError, match="not finite") as exc:
        shadow_newton(CAT, chain, max_iter=20, initial_points=init)
    assert exc.value.iterations == 0
    # the probes keep recording such a failure instead of raising
    rep = finite_shadow_probe(
        CAT, [chain], eps=1.0,
        solver=lambda F, c: shadow_newton(F, c, initial_points=init))
    assert not rep.all_passed and "not finite" in rep.windows[0].error


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
    u = _normal_solve(jacs, rhs)
    assert np.max(np.abs(u - dense)) <= 1e-12 * np.max(np.abs(dense))


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
    bad = ChainRecord(pts, SIG0, 0.0, "shadow-candidate")
    v = verify_shadowing(CAT, chain, bad, eps=eps)
    assert not v.ok
    assert v.worst_index == 17


def test_verify_needs_common_window():
    a = iterate_chain(CAT, SIG0, [0.1, 0.1], 10)
    b = iterate_chain(CAT, SIG0, [0.1, 0.1], 9)
    with pytest.raises(ValueError, match="window"):
        verify_shadowing(CAT, a, b, 0.1)


# --- finite windows ----------------------------------------------------------

def test_probe_single_points_trivially_shadowed():
    windows = [ChainRecord(np.array([[0.1 * i, 0.2]]), SIG0, 0.0, "exact-chain")
               for i in range(5)]
    rep = finite_shadow_probe(CAT, windows, eps=1e-9)
    assert rep.all_passed
    assert all(w.sup_dist == 0.0 for w in rep.windows)


def test_probe_contraction_windows_all_pass():
    q = 0.5
    F = build_contraction_ifs(q)
    eps = 0.01 / (1 - q)
    windows = [gen_pseudo_orbit(F, SymbolSequence.random(2, 100, s), [0.3],
                                0.01, 100, seed=s) for s in range(50)]
    rep = finite_shadow_probe(F, windows, eps=eps)
    assert rep.all_passed


def test_probe_window_length_stability_on_cat():
    bound = 1e-3 * CAT_BOUND_CONST + 1e-9
    sups = []
    for n in (25, 50, 100, 200):
        windows = [gen_pseudo_orbit(CAT, SIG0,
                                    np.random.default_rng(300 + n + s).random(2),
                                    1e-3, n, seed=s) for s in range(5)]
        rep = finite_shadow_probe(CAT, windows, eps=bound)
        assert rep.all_passed
        sups.append(max(w.sup_dist for w in rep.windows))
    assert max(sups) <= bound          # length-independent bound


def test_probe_reports_solver_errors_per_window():
    R = build_rotation_ifs([0.1])
    win = gen_pseudo_orbit(R, SIG0, [0.2], 1e-3, 20, seed=0)
    rep = finite_shadow_probe(R, [win], eps=0.01,
                              solver=lambda F, c: shadow_linear_hyperbolic(F.maps[0], c))
    assert not rep.all_passed
    assert rep.windows[0].error is not None


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
    # huge init perturbations push every Newton solution beyond a tiny eps
    chain = gen_pseudo_orbit(CAT, SIG0, [0.3, 0.3], 1e-3, 100, seed=4)
    v = check_uniqueness(CAT, SIG0, chain, eps=1e-9, trials=3, seed=4,
                         init_scale=0.2)
    assert v.status == "inconclusive"
    assert v.n_candidates == 0


def test_lipschitz_estimates():
    assert lipschitz_estimate(build_contraction_ifs(0.5).maps[0]) == pytest.approx(0.5, abs=1e-9)
    assert lipschitz_estimate(CAT.maps[0]) == pytest.approx(LAM_U, rel=1e-6)
