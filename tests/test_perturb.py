import numpy as np
import pytest

from ifsshadow import (CoverageError, InversionError, MetricGrid, SmoothMap,
                       Space, SupportError, SymbolSequence,
                       adjusted_conditions, adjusted_points,
                       ball_sample, build_semiconj, bump_profile,
                       bump_profile_deriv, check_ball_cover, dist_D0,
                       gen_pseudo_orbit, identity_map, iterate_chain,
                       lattice_samples, make_ifs, move_points_diffeo,
                       perturbed_ifs, rho0, semiconj_residual, shadow_newton,
                       validate_chain)
from ifsshadow.perturb import MAX_ABS_PROFILE_DERIV
from ifsshadow.systems import (build_bumped_cat_ifs, build_cat_ifs,
                               build_contraction_ifs, build_torus_f1)

CAT = build_cat_ifs()
SIG0 = SymbolSequence.constant(0)
SP2 = Space(2)


# --- bump profile ---------------------------------------------------------

def test_profile_endpoints_and_compact_support():
    assert bump_profile(np.array([0.0])) == pytest.approx(1.0)
    t = np.array([1.0, 1.5, -1.2])
    assert np.all(bump_profile(t) == 0.0)
    assert np.all(bump_profile_deriv(t) == 0.0)
    assert np.all(np.diff(bump_profile(np.linspace(0, 0.999, 500))) < 0.0)


def test_profile_derivative_bound_constant():
    t = np.linspace(-0.999999, 0.999999, 400001)
    grid_max = np.max(np.abs(bump_profile_deriv(t)))
    assert grid_max <= MAX_ABS_PROFILE_DERIV
    assert MAX_ABS_PROFILE_DERIV - grid_max <= 1e-5


def test_profile_derivative_is_fd_consistent():
    t = np.linspace(-0.95, 0.95, 1001)
    h = 1e-7
    fd = (bump_profile(t + h) - bump_profile(t - h)) / (2 * h)
    assert np.max(np.abs(fd - bump_profile_deriv(t))) < 1e-5


# --- point-moving diffeomorphism -------------------------------------------

def test_empty_pair_list_is_identity():
    f = move_points_diffeo([], 0.01, space=SP2)
    grid = MetricGrid(SP2, 64)
    assert rho0(f, identity_map(SP2), grid) == 0.0


def test_single_pair_interpolation_and_rho0():
    p, q = np.array([0.3, 0.3]), np.array([0.31, 0.3])
    f = move_points_diffeo([(p, q)], 0.02)
    assert SP2.dist(f(p), q) <= 1e-12
    grid = MetricGrid(SP2, 256)
    assert rho0(f, identity_map(SP2), grid) < 2 * 0.02
    rng = np.random.default_rng(0)
    X = SP2.uniform(rng, 10000)
    assert np.max(SP2.dist(f.invert(f(X)), X)) <= 1e-10


def test_five_pairs_exact_interpolation():
    rng = np.random.default_rng(12)
    centers = []
    while len(centers) < 5:
        c = rng.random(2)
        if all(SP2.dist(c, p) >= 0.2 for p in centers):
            centers.append(c)
    pairs = [(c, SP2.normalize(c + ball_sample(rng, 1, 2, 0.0099)[0]))
             for c in centers]
    f = move_points_diffeo(pairs, 0.01)
    for p, q in pairs:
        assert SP2.dist(f(p), q) <= 1e-12
    X = SP2.uniform(rng, 5000)
    assert np.max(SP2.dist(f.invert(f(X)), X)) <= 1e-10


def test_displacement_outside_supports_is_zero():
    p, q = np.array([0.5, 0.5]), np.array([0.505, 0.5])
    f = move_points_diffeo([(p, q)], 0.01)
    far = np.array([[0.0, 0.0], [0.9, 0.1], [0.5, 0.9]])
    assert np.max(SP2.dist(f(far), far)) == 0.0


def test_preconditions_rejected():
    p, q = np.array([0.3, 0.3]), np.array([0.32, 0.3])
    with pytest.raises(ValueError, match="delta"):
        move_points_diffeo([(p, q)], 0.01)      # dist not < delta
    with pytest.raises(ValueError, match="distinct"):
        move_points_diffeo([(p, q), (p, np.array([0.4, 0.4]))], 0.2)
    with pytest.raises(ValueError, match="dim"):
        move_points_diffeo([(np.array([0.3]), np.array([0.31]))], 0.02,
                           space=Space(1))


def test_support_infeasibility_raises():
    # centers 0.02 apart force supports too small for the displacement
    pairs = [(np.array([0.3, 0.3]), np.array([0.307, 0.3])),
             (np.array([0.32, 0.3]), np.array([0.327, 0.3]))]
    with pytest.raises(SupportError):
        move_points_diffeo(pairs, 0.01)


def test_explicit_support_radius_disjointness_check():
    pairs = [(np.array([0.2, 0.2]), np.array([0.201, 0.2])),
             (np.array([0.6, 0.6]), np.array([0.601, 0.6]))]
    with pytest.raises(SupportError, match="overlap"):
        move_points_diffeo(pairs, 0.01, support_radius=0.3)


def test_bump_jacobian_consistency():
    from ifsshadow import fd_jacobian
    f = move_points_diffeo([(np.array([0.4, 0.6]), np.array([0.41, 0.59]))], 0.03)
    rng = np.random.default_rng(5)
    X = SP2.uniform(rng, 500)
    assert np.max(np.abs(f.jacobian(X) - fd_jacobian(f, X))) <= 1e-4


def test_bump_inverse_raises_when_unconverged():
    # |d| * max|profile'| / R = 0.999: the fixed-point iteration contracts so
    # slowly near t = 0.76 that 120 steps leave points moving
    p, d = np.array([0.5, 0.5]), 0.01
    R = d * MAX_ABS_PROFILE_DERIV / 0.999
    f = move_points_diffeo([(p, p + [d, 0.0])], 0.02, support_radius=R)
    t = np.linspace(-0.95, 0.95, 39)
    X = p + np.stack([t * R, np.zeros_like(t)], axis=-1)
    with pytest.raises(InversionError, match=r"\d+ points still moving"):
        f.invert(f(X))
    g = move_points_diffeo([(p, p + [d, 0.0])], 0.02)
    assert np.max(SP2.dist(g.invert(g(X)), X)) <= 1e-12


# --- adjusted points --------------------------------------------------------

def test_adjusted_points_m0_is_anchor():
    chain = gen_pseudo_orbit(CAT, SIG0, [0.3, 0.8], 1e-3, 10, seed=0)
    ys = adjusted_points(CAT, chain, 0, eta=0.01)
    assert np.array_equal(ys, chain.points[:1])


def test_adjusted_points_exact_distinct_chain_unchanged():
    chain = iterate_chain(CAT, SIG0, [0.123, 0.456], 20)
    ys = adjusted_points(CAT, chain, 20, eta=0.01)
    assert np.array_equal(ys, chain.points)
    cond = adjusted_conditions(CAT, chain, ys)
    assert cond.distinct and cond.max_point_dist == 0.0


def test_adjusted_points_conditions_on_noisy_chain():
    chain = gen_pseudo_orbit(CAT, SIG0, [0.21, 0.43], 0.01, 30, seed=9)
    ys = adjusted_points(CAT, chain, 20, eta=0.005, seed=9)
    cond = adjusted_conditions(CAT, chain, ys)
    assert cond.max_point_dist < 0.005
    assert cond.max_link_residual < 3 * 0.01
    assert cond.distinct


def test_adjusted_points_resolves_collisions():
    # constant chain of the identity has every point equal
    from ifsshadow import build_identity_ifs
    I = build_identity_ifs(2)
    pts = np.tile(np.array([0.5, 0.5]), (6, 1))
    chain = gen_pseudo_orbit(I, SIG0, [0.5, 0.5], 1e-4, 0, seed=0)
    chain = chain.__class__(pts, SIG0, 1e-4, "delta-chain")
    ys = adjusted_points(I, chain, 5, eta=1e-3, seed=1)
    cond = adjusted_conditions(I, chain, ys)
    assert cond.distinct
    assert cond.max_point_dist < 1e-3


def test_adjusted_points_bad_args():
    chain = iterate_chain(CAT, SIG0, [0.1, 0.9], 5)
    with pytest.raises(ValueError):
        adjusted_points(CAT, chain, 9, eta=0.01)
    with pytest.raises(ValueError):
        adjusted_points(CAT, chain, 3, eta=0.0)


# --- perturbed family -------------------------------------------------------

def test_perturbed_ifs_exact_chain_gives_zero_distance():
    chain = iterate_chain(CAT, SIG0, [0.271, 0.653], 15)
    res = perturbed_ifs(CAT, chain, m=10, Delta=0.05)
    assert res.matched_d0 == 0.0           # all bumps degenerate to identity
    assert res.exact_residual <= 1e-9
    assert res.max_point_dist == 0.0


def test_perturbed_ifs_cat_chain_conclusions():
    chain = gen_pseudo_orbit(CAT, SIG0, [0.37, 0.52], 1e-3, 30, seed=17)
    res = perturbed_ifs(CAT, chain, m=10, Delta=0.05, seed=17)
    v = validate_chain(res.gs, res.chain)
    assert v.is_exact_chain and v.max_residual <= 1e-9
    assert res.matched_d0 < 0.05
    assert res.max_point_dist < 0.05
    assert len(res.gs) == 10 * len(CAT) + len(CAT)
    # pairing ties every member to its reference map
    assert res.pairing == tuple([0] * 11)


def test_perturbed_ifs_contraction_family():
    sp = Space(2, periodic=False)
    from ifsshadow import affine_map
    maps = [affine_map(sp, 0.5 * np.eye(2), [0.0, 0.0], "c0"),
            affine_map(sp, 0.5 * np.eye(2), [0.5, 0.5], "c1")]
    F = make_ifs(maps)
    sig = SymbolSequence.random(2, 40, seed=3)
    chain = gen_pseudo_orbit(F, sig, [0.3, 0.4], 1e-3, 40, seed=3)
    res = perturbed_ifs(F, chain, m=5, Delta=0.02, seed=3)
    assert validate_chain(res.gs, res.chain).is_exact_chain
    assert res.matched_d0 < 0.02
    assert res.max_point_dist < 0.02


def test_perturbed_ifs_rejects_oversized_slack():
    chain = gen_pseudo_orbit(CAT, SIG0, [0.37, 0.52], 0.02, 30, seed=1)
    with pytest.raises(ValueError, match="slack"):
        perturbed_ifs(CAT, chain, m=10, Delta=0.05, seed=1)


# --- semiconjugacy -----------------------------------------------------------

def test_semiconj_with_itself_is_identity():
    samples = lattice_samples(40, 2)
    sc = build_semiconj(CAT, CAT, SIG0, eps=0.01, samples=samples, K=10)
    assert sc.max_residual <= 1e-9
    assert sc.max_image_dist(CAT.space) <= 1e-9   # h is the identity on samples
    # with h = id the interpolated conjugation defect is pure coverage
    # geometry; recompute it independently from orbits and nearest samples
    conj = semiconj_residual(CAT, CAT, SIG0, sc, K=10, coverage_tol=0.5)
    from ifsshadow import orbit_map
    oracle = 0.0
    for x in samples:
        for k in range(-10, 11):
            z = orbit_map(CAT, SIG0, k, x)
            near = samples[np.argmin(CAT.space.dist(z, samples))]
            oracle = max(oracle, float(CAT.space.dist(z, near)))
    assert conj == pytest.approx(oracle, abs=1e-12)


def test_semiconj_bumped_cat_conclusions():
    G = build_bumped_cat_ifs(1e-3)
    d0 = dist_D0(CAT, G, MetricGrid(CAT.space, 64), mode="matched")
    assert 0.0 < d0 <= 1e-3
    samples = lattice_samples(200, 2)
    sc = build_semiconj(CAT, G, SIG0, eps=0.05, samples=samples, K=20)
    assert not sc.flagged
    assert sc.max_image_dist(CAT.space) < 0.05
    assert sc.max_residual < 0.05
    assert float(np.max(sc.chain_delta)) <= d0 + 1e-12
    # approximate surjectivity: images form a 2*eps-net of the torus
    assert sc.image_covering_radius(CAT.space) <= 2 * 0.05


def test_semiconj_residual_below_twice_eps_and_monotone_in_K():
    G = build_bumped_cat_ifs(1e-3)
    samples = lattice_samples(200, 2)
    sc = build_semiconj(CAT, G, SIG0, eps=0.05, samples=samples, K=20)
    vals = [semiconj_residual(CAT, G, SIG0, sc, K=k) for k in (5, 10, 20)]
    assert vals[0] <= vals[1] <= vals[2]
    assert vals[2] < 2 * 0.05


def test_semiconj_coverage_error_on_sparse_samples():
    G = build_bumped_cat_ifs(1e-3)
    sparse = lattice_samples(10, 2)
    sc = build_semiconj(CAT, G, SIG0, eps=0.05, samples=sparse, K=5)
    with pytest.raises(CoverageError):
        semiconj_residual(CAT, G, SIG0, sc, K=5)


def test_semiconj_config_error_is_not_a_flagged_sample():
    shift = SmoothMap("shift", SP2, lambda x: x + 0.1, inv=lambda p: p - 0.1)
    F = make_ifs([shift])
    with pytest.raises(ValueError, match="Jacobian"):
        build_semiconj(F, F, SIG0, eps=0.05, samples=lattice_samples(8, 2), K=2,
                       solver=shadow_newton)


def test_semiconj_one_sided_contraction_family():
    F = build_contraction_ifs(0.5, (0.0, 0.25))
    # same maps with slightly rotated fixed points (shifted offsets)
    G = build_contraction_ifs(0.5, (0.002, 0.252))
    grid = MetricGrid(F.space, 1024)
    d0 = dist_D0(F, G, grid, mode="matched")
    assert d0 < 0.01
    sig = SymbolSequence.random(2, 64, seed=8)
    samples = np.linspace(0.0, 1.0, 50)[:, None]
    eps = d0 / (1 - 0.5) + 1e-6
    sc = build_semiconj(F, G, sig, eps=eps, samples=samples, K=30,
                        two_sided=False, solver=lambda FF, c: shadow_newton(FF, c))
    assert sc.max_image_dist(F.space) < eps
    assert sc.max_residual < eps


# --- ball-cover probe --------------------------------------------------------

def test_cover_tiny_radius_passes():
    F1 = build_torus_f1().maps[0]
    rep = check_ball_cover(F1, eps=0.05, delta=-0.05 + 1e-6, n_centers=50,
                           n_probes=200, seed=1)
    assert rep.passed
    assert rep.n_violations == 0


def test_cover_identity_geometry():
    idm = identity_map(SP2)
    ok = check_ball_cover(idm, eps=0.05, delta=0.0, n_centers=50,
                          n_probes=500, seed=2)
    assert ok.passed                     # B(X, eps) inside B(X, eps)
    bad = check_ball_cover(idm, eps=0.05, delta=0.05, n_centers=50,
                           n_probes=500, seed=2)
    assert not bad.passed                # probes at radius 2*eps escape
    x, z, dd = bad.violations[0]
    assert dd >= 0.05
    assert SP2.dist(x, z) <= 0.1 + 1e-12


def test_cover_deterministic_and_reports():
    F1 = build_torus_f1().maps[0]
    a = check_ball_cover(F1, 0.05, 0.05, 20, 100, seed=7)
    b = check_ball_cover(F1, 0.05, 0.05, 20, 100, seed=7)
    assert np.array_equal(a.center_flags, b.center_flags)
    assert a.n_violations == b.n_violations
    d = a.to_dict()
    assert d["seed"] == 7 and d["n_centers"] == 20


def test_cover_threads_do_not_change_result():
    F1 = build_torus_f1().maps[0]
    a = check_ball_cover(F1, 0.05, 0.05, 100, 50, seed=3, threads=1)
    b = check_ball_cover(F1, 0.05, 0.05, 100, 50, seed=3, threads=4)
    assert np.array_equal(a.center_flags, b.center_flags)
    assert a.n_violations == b.n_violations
