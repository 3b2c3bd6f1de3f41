import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifsshadow import (ChainRecord, MetricGrid, Space, SymbolSequence, dist_D0,
                       dist_D1, gen_pseudo_orbit, identity_map, iterate_chain,
                       move_points_diffeo, orbit_map, rho0, rho1,
                       validate_chain)
from ifsshadow.systems import (build_cat_ifs, build_contraction_ifs,
                               build_rotation_ifs, build_torus_example)

CAT = build_cat_ifs()
SIG0 = SymbolSequence.constant(0)


# --- symbol sequences ---------------------------------------------------

def test_sigma_constant_total_over_z():
    s = SymbolSequence.constant(3)
    assert [s.lookup(k) for k in (-10, 0, 10)] == [3, 3, 3]


def test_sigma_periodic_total_over_z():
    s = SymbolSequence.periodic([0, 1, 2])
    assert [s.lookup(k) for k in range(6)] == [0, 1, 2, 0, 1, 2]
    assert s.lookup(-1) == 2 and s.lookup(-3) == 0


def test_sigma_shift():
    s = SymbolSequence.periodic([0, 1, 2, 3])
    t = s.shift(-5)
    for k in range(-8, 8):
        assert t.lookup(k) == s.lookup(k - 5)


def test_sigma_random_is_seeded():
    a = SymbolSequence.random(2, 50, seed=9)
    b = SymbolSequence.random(2, 50, seed=9)
    assert a.window == b.window
    assert set(a.window) <= {0, 1}


def test_sigma_roundtrip_dict():
    s = SymbolSequence.periodic([1, 0])
    assert SymbolSequence.from_dict(s.to_dict()) == s
    assert "k_min" not in s.to_dict()   # unshifted schedules keep their JSON
    shifted = SymbolSequence.periodic([0, 1, 1]).shift(1)
    back = SymbolSequence.from_dict(shifted.to_dict())
    assert back == shifted
    assert back.symbols(0, 6).tolist() == [1, 1, 0, 1, 1, 0]


@given(window=st.lists(st.integers(0, 5), min_size=1, max_size=8),
       constant=st.one_of(st.none(), st.integers(0, 5)),
       k_min=st.integers(-20, 20),
       a=st.integers(-30, 30), length=st.integers(0, 40))
def test_sigma_symbols_match_lookup(window, constant, k_min, a, length):
    ext = "periodic" if constant is None else f"constant:{constant}"
    s = SymbolSequence(tuple(window), ext, k_min)
    syms = s.symbols(a, a + length)
    assert syms.dtype.kind == "i"
    assert syms.tolist() == [s.lookup(k) for k in range(a, a + length)]


# --- orbit map ----------------------------------------------------------

def test_orbit_map_zero_steps_is_identity():
    x = np.array([0.3, 0.4])
    assert np.array_equal(orbit_map(CAT, SIG0, 0, x), x)


def test_orbit_map_two_steps_hand_value():
    # G(G(0.25, 0.5)) = G(0.0, 0.75) = (0.75, 0.75)
    y = orbit_map(CAT, SIG0, 2, [0.25, 0.5])
    assert y == pytest.approx([0.75, 0.75])


def test_orbit_map_cocycle():
    T = build_torus_example()
    sig = SymbolSequence.random(2, 64, seed=4)
    rng = np.random.default_rng(4)
    X = rng.random((100, 4))
    for k in range(-5, 6):
        lhs = orbit_map(T, sig, k + 1, X)
        rhs = T.maps[sig.lookup(k)](orbit_map(T, sig, k, X))
        assert np.max(T.space.dist(lhs, rhs)) <= 1e-9


def test_orbit_map_negative_needs_inverses():
    from ifsshadow import SmoothMap, make_ifs
    m = SmoothMap("noinv", Space(2), lambda x: x)
    with pytest.raises(ValueError):
        orbit_map(make_ifs([m]), SIG0, -1, np.zeros(2))


# --- chains and validation ----------------------------------------------

def test_true_orbit_is_exact_chain():
    chain = iterate_chain(CAT, SIG0, [0.1, 0.2], 50)
    v = validate_chain(CAT, chain)
    assert v.is_exact_chain and v.max_residual <= 1e-12


def test_displaced_point_residual_band():
    chain = iterate_chain(CAT, SIG0, [0.1, 0.2], 50)
    pts = chain.points.copy()
    pts[25] = CAT.space.normalize(pts[25] + np.array([0.005, 0.0]))
    v = validate_chain(CAT, ChainRecord(pts, SIG0, 0.02))
    # one link perturbed by |d| = 0.005, the next stretched by at most the
    # cat map's singular values [0.382, 2.618]
    assert 0.005 * 0.9999 <= v.max_residual <= 0.005 * 2.6181
    assert v.worst_k in (24, 25)


def test_single_point_chain_vacuously_exact():
    v = validate_chain(CAT, ChainRecord(np.array([[0.1, 0.2]]), SIG0, 0.0,
                                        "exact-chain"))
    assert v.is_exact_chain and v.max_residual == 0.0 and v.worst_k is None


def test_gen_zero_delta_is_exact():
    chain = gen_pseudo_orbit(CAT, SIG0, [0.3, 0.7], 0.0, 100, seed=1)
    assert chain.kind == "exact-chain"
    assert validate_chain(CAT, chain).max_residual <= 1e-12


def test_gen_uniform_ball_respects_delta():
    F = build_contraction_ifs(0.5)
    sig = SymbolSequence.random(2, 1000, seed=42)
    chain = gen_pseudo_orbit(F, sig, [0.3], 0.01, 1000, seed=42)
    v = validate_chain(F, chain)
    assert not v.is_exact_chain
    assert v.max_residual <= 0.01


def test_gen_delta_monotonicity():
    chain = gen_pseudo_orbit(CAT, SIG0, [0.3, 0.7], 0.005, 300, seed=8)
    measured = validate_chain(CAT, chain).max_residual
    for dprime in (0.005, 0.006, 0.05):
        assert measured <= dprime


def test_gen_rounding_model():
    chain = gen_pseudo_orbit(CAT, SIG0, [0.312, 0.779], 0.0, 200,
                             noise="round:2", seed=0)
    scaled = chain.points * 100.0
    assert np.max(np.abs(scaled - np.round(scaled))) < 1e-9
    assert chain.delta == pytest.approx(0.005 * np.sqrt(2))
    assert validate_chain(CAT, chain).max_residual <= 0.01 * np.sqrt(2)


def test_gen_unknown_noise_model():
    with pytest.raises(ValueError, match="noise model"):
        gen_pseudo_orbit(CAT, SIG0, [0.1, 0.1], 0.01, 10, noise="gauss")


def test_gen_deterministic_in_seed():
    a = gen_pseudo_orbit(CAT, SIG0, [0.2, 0.9], 0.01, 500, seed=77)
    b = gen_pseudo_orbit(CAT, SIG0, [0.2, 0.9], 0.01, 500, seed=77)
    c = gen_pseudo_orbit(CAT, SIG0, [0.2, 0.9], 0.01, 500, seed=78)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


# --- map and family distances -------------------------------------------

def test_rho0_identical_maps():
    g = MetricGrid(CAT.space, 32)
    assert rho0(CAT.maps[0], CAT.maps[0], g) == 0.0


def test_rho0_rotations_gap():
    R = build_rotation_ifs([0.1, 0.12])
    g = MetricGrid(R.space, 512)
    assert rho0(R.maps[0], R.maps[1], g) == pytest.approx(0.02)


def test_rho0_symmetry_exact():
    R = build_rotation_ifs([0.1, 0.3])
    g = MetricGrid(R.space, 256)
    assert rho0(R.maps[0], R.maps[1], g) == rho0(R.maps[1], R.maps[0], g)


def test_rho0_bump_versus_identity():
    sp = Space(2)
    f = move_points_diffeo([(np.array([0.3, 0.3]), np.array([0.31, 0.3]))], 0.02)
    val = rho0(f, identity_map(sp), MetricGrid(sp, 256))
    # sup |f - id| equals the max displacement 0.01 (grid sup slightly under);
    # comfortably below the 2*delta guarantee
    assert 0.009 < val <= 0.0101
    assert val < 2 * 0.02


def test_rho0_grid_refinement_nondecreasing():
    sp = Space(2)
    f = move_points_diffeo([(np.array([0.3, 0.3]), np.array([0.31, 0.3]))], 0.02)
    idm = identity_map(sp)
    vals = [rho0(f, idm, MetricGrid(sp, r)) for r in (64, 128, 256, 512)]
    assert all(vals[i + 1] >= vals[i] for i in range(3))
    assert (vals[-1] - vals[-2]) <= 0.05 * vals[-1]


def test_rho0_requires_invertible():
    from ifsshadow import SmoothMap, make_ifs
    m = SmoothMap("noinv", Space(2), lambda x: x)
    with pytest.raises(ValueError, match="invertible"):
        rho0(m, CAT.maps[0], MetricGrid(Space(2), 16))


def test_rho1_identical_and_rotations():
    R = build_rotation_ifs([0.1, 0.12])
    g = MetricGrid(R.space, 512)
    assert rho1(R.maps[0], R.maps[0], g) == 0.0
    # identity Jacobians: the derivative term vanishes
    assert rho1(R.maps[0], R.maps[1], g) == pytest.approx(0.02)


def test_rho1_f1_f2_regression():
    T = build_torus_example()
    val = rho1(T.maps[0], T.maps[1], MetricGrid(T.space, 12))
    assert val == pytest.approx(1.6392926414123719, rel=1e-6)


def test_d0_identical_families():
    g = MetricGrid(CAT.space, 16)
    assert dist_D0(CAT, CAT, g, "all-pairs") == 0.0
    assert dist_D0(CAT, CAT, g, "matched") == 0.0


def test_d0_rotation_families_matched_vs_all_pairs():
    F = build_rotation_ifs([0.1, 0.3])
    G = build_rotation_ifs([0.11, 0.31])
    g = MetricGrid(F.space, 512)
    assert dist_D0(F, G, g, "matched") == pytest.approx(0.01)
    assert dist_D0(F, G, g, "all-pairs") == pytest.approx(0.21)


def test_d0_singletons_equal_rho0():
    F = build_rotation_ifs([0.1])
    G = build_rotation_ifs([0.35])
    g = MetricGrid(F.space, 512)
    expected = rho0(F.maps[0], G.maps[0], g)
    assert dist_D0(F, G, g, "matched") == expected
    assert dist_D0(F, G, g, "all-pairs") == expected


def test_d0_matched_size_mismatch():
    F = build_rotation_ifs([0.1, 0.3])
    G = build_rotation_ifs([0.1])
    with pytest.raises(ValueError, match="matched"):
        dist_D0(F, G, MetricGrid(F.space, 64), "matched")


def test_d1_dominates_d0():
    pairs = [
        (build_rotation_ifs([0.1, 0.3]), build_rotation_ifs([0.11, 0.31])),
        (build_torus_example(), build_torus_example()),
    ]
    for F, G in pairs:
        g = MetricGrid(F.space, 8 if F.space.dim == 4 else 128)
        assert dist_D1(F, G, g) >= dist_D0(F, G, g)
