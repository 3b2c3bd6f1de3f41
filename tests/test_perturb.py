import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsshadow import (CoverageError, InversionError, MetricGrid, SmoothMap,
                       Space, SupportError, SymbolSequence,
                       adjusted_conditions, adjusted_points,
                       ball_sample, build_semiconj, bump_profile,
                       bump_profile_deriv, check_ball_cover, dist_D0,
                       gen_pseudo_orbit, identity_map, iterate_chain,
                       lattice_samples, make_ifs, move_points_diffeo,
                       perturbed_ifs, rho0, semiconj_residual, shadow_newton,
                       validate_chain)
from ifsshadow import shadowing
from ifsshadow.core import IFS, ChainRecord
from ifsshadow.maps import affine_map, compose
from ifsshadow.perturb import (MAX_ABS_PROFILE_DERIV, _nearest_samples,
                               _orbit_window)
from ifsshadow.shadowing import ShadowingConvergenceError
from ifsshadow.systems import (CAT_MATRIX, build_bumped_cat_ifs, build_cat_ifs,
                               build_contraction_ifs, build_system,
                               build_torus_f1)

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
    with pytest.raises(ValueError, match="targets must be pairwise distinct"):
        move_points_diffeo([(p, q), (np.array([0.33, 0.3]), q)], 0.2)
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


# --- nearest-sample lookup ---------------------------------------------------

def dense_nearest(space, samples, queries):
    d = space.dist(queries[:, None, :], samples[None, :, :])
    idx = np.argmin(d, axis=1)
    return idx, d[np.arange(len(queries)), idx]


# dyadic coordinates make exact distance ties common
coord = st.one_of(st.integers(0, 7).map(lambda i: i / 8),
                  st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def samples_and_queries(draw):
    space = Space(draw(st.integers(1, 3)), periodic=draw(st.booleans()))

    def points(max_size):
        rows = draw(st.lists(st.lists(coord, min_size=space.dim, max_size=space.dim),
                             min_size=1, max_size=max_size))
        return np.array(rows, dtype=float)
    return space, points(30), points(20)


@settings(deadline=None, max_examples=200)
@given(case=samples_and_queries())
def test_nearest_samples_equal_dense_argmin(case):
    space, samples, queries = case
    idx, dist = _nearest_samples(space, samples, queries)
    ref_idx, ref_dist = dense_nearest(space, samples, queries)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(dist, ref_dist)


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("d", [2, 3])
def test_nearest_samples_exact_ties_pick_the_lowest_index(d, periodic):
    space, m = Space(d, periodic), 4
    axis = np.arange(m) / m
    lattice = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), -1).reshape(-1, d)
    samples = lattice[np.random.default_rng(d).permutation(len(lattice))]
    inner = np.all(lattice < (m - 1) / m, axis=1)
    queries = lattice[inner] + 0.5 / m              # cell centres
    idx, dist = _nearest_samples(space, samples, queries)
    for q, i, di in zip(queries, idx, dist):
        corners = np.nonzero(space.dist(q, samples) == di)[0]
        assert len(corners) >= 2 ** d
        assert i == corners.min()
    assert np.array_equal(idx, dense_nearest(space, samples, queries)[0])


def test_nearest_samples_accepts_a_sample_normalised_to_one():
    sp = Space(2)
    samples = np.vstack([sp.normalize([-1e-20, 0.5]), lattice_samples(20, 2)])
    assert samples[0, 0] == 1.0
    queries = np.array([[0.0, 0.5], [0.999, 0.51], [0.4, 0.4]])
    idx, dist = _nearest_samples(sp, samples, queries)
    ref_idx, ref_dist = dense_nearest(sp, samples, queries)
    assert idx[0] == 0 and dist[0] == 0.0
    assert np.array_equal(idx, ref_idx) and np.array_equal(dist, ref_dist)


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


def test_image_covering_radius_equals_dense_oracle():
    G = build_bumped_cat_ifs(1e-3)
    sc = build_semiconj(CAT, G, SIG0, eps=0.05, samples=lattice_samples(60, 2), K=4)
    probes = MetricGrid(CAT.space, 32).points
    dense = CAT.space.dist(probes[:, None, :], sc.images[None, :, :])
    assert sc.image_covering_radius(CAT.space, 32) == float(np.max(np.min(dense, axis=1)))


def test_semiconj_residual_memory_is_linear_in_samples():
    G = build_bumped_cat_ifs(1e-3)
    sc = build_semiconj(CAT, G, SIG0, eps=0.05, samples=lattice_samples(600, 2), K=10)
    tracemalloc.start()
    try:
        semiconj_residual(CAT, G, SIG0, sc, K=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20      # a dense query-by-sample tensor takes ~378 MB


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
        build_semiconj(F, F, SIG0, eps=0.05, samples=lattice_samples(8, 2), K=2)


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
                        two_sided=False)
    assert sc.max_image_dist(F.space) < eps
    assert sc.max_residual < eps


def bumped_copy(F: IFS) -> IFS:
    """F with every map followed by one wide bump moving a point by 1e-3."""
    p = np.full(F.space.dim, 0.37)
    e = np.zeros(F.space.dim)
    e[-1] = 1e-3
    h = move_points_diffeo([(p, p + e)], delta=2e-3, space=F.space,
                           support_radius=0.45, label="h")
    return make_ifs([compose(h, f, label=f"bumped_{f.label}") for f in F.maps])


@pytest.mark.parametrize("name, sigma, n, K", [
    ("cat", SIG0, 60, 6),
    ("torus_example", SymbolSequence.periodic([0, 1, 1]), 40, 3)])
def test_semiconj_rows_equal_shadow_newton_per_window(name, sigma, n, K):
    F = build_system(name)
    G = build_system("cat_bumped:1e-3") if name == "cat" else bumped_copy(F)
    sc = build_semiconj(F, G, sigma, eps=0.05, samples=lattice_samples(n, F.space.dim),
                        K=K)
    assert not sc.flagged
    P = _orbit_window(G, sigma, sc.samples, K)
    sweeps = set()
    for i in range(n):
        window = ChainRecord(P[i], sigma.shift(-K), kind="shadow-candidate")
        r = shadow_newton(F, window)
        sweeps.add(r.iterations)
        assert np.array_equal(sc.images[i], r.shadow.points[K])
        assert np.array_equal(sc.residuals[i], F.space.dist(P[i], r.shadow.points))
    assert max(sweeps) >= 1          # some windows needed Newton sweeps


def cat_with_wrong_jacobian() -> IFS:
    """The cat map, with the sign of its Jacobian flipped where u < 1/2."""
    cat = CAT.maps[0]

    def jac(x):
        J = cat.jacobian(x)
        return np.where((x[..., 0] < 0.5)[..., None, None], -J, J)
    return make_ifs([SmoothMap("cat_wrong_jac", SP2, cat.fwd, inv=cat.inv, jac=jac)])


def test_semiconj_flags_windows_that_do_not_converge():
    F = cat_with_wrong_jacobian()
    G = make_ifs([affine_map(SP2, CAT_MATRIX, [1e-4, 0.0], "cat_shifted")])
    samples = lattice_samples(60, 2)
    sc = build_semiconj(F, G, SIG0, eps=0.05, samples=samples, K=2)
    flagged = list(sc.flagged)
    assert 0 < len(flagged) < 60
    assert np.all(np.isnan(sc.images[flagged]))
    assert np.all(np.isnan(sc.residuals[flagged]))
    P = _orbit_window(G, SIG0, sc.samples, 2)
    with pytest.raises(ShadowingConvergenceError):
        shadow_newton(F, ChainRecord(P[flagged[0]], SIG0, kind="shadow-candidate"))
    # the other samples keep the bits of a run without the flagged ones
    keep = np.setdiff1d(np.arange(60), flagged)
    rest = build_semiconj(F, G, SIG0, eps=0.05, samples=samples[keep], K=2)
    assert not rest.flagged
    assert np.array_equal(rest.images, sc.images[keep])
    assert np.array_equal(rest.residuals, sc.residuals[keep])
    assert np.array_equal(rest.chain_delta, sc.chain_delta[keep])
    assert sc.max_residual == rest.max_residual


def test_semiconj_linalg_error_flags_every_sample(monkeypatch):
    def failing(jacs, rhs):
        raise np.linalg.LinAlgError("banded Cholesky failed")
    monkeypatch.setattr(shadowing, "_normal_solve", failing)
    G = build_bumped_cat_ifs(1e-3)
    sc = build_semiconj(CAT, G, SIG0, eps=0.05, samples=lattice_samples(40, 2), K=5)
    assert sc.flagged == tuple(range(40))
    assert np.all(np.isnan(sc.images)) and np.all(np.isnan(sc.residuals))
    assert sc.max_residual == np.inf and sc.max_image_dist(CAT.space) == np.inf


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
