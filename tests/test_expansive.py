import numpy as np
import pytest

from ifsshadow import (MetricGrid, Space, SymbolSequence, affine_map, estimate_N_of_mu,
                       estimate_expansive_const, make_ifs, max_orbit_separation,
                       separation_time, separation_times_batch)
from ifsshadow.systems import (build_cat_ifs, build_identity_ifs,
                               build_rotation_ifs)

CAT = build_cat_ifs()
SIG0 = SymbolSequence.constant(0)
LAM_U = (3 + np.sqrt(5)) / 2
V_U = np.array([1.0, LAM_U - 2]) / np.linalg.norm([1.0, LAM_U - 2])


def unstable_pair(seed, sep=1e-3):
    x = np.random.default_rng(seed).random(2)
    return x, CAT.space.normalize(x + sep * V_U)


def test_equal_points_saturate():
    x = np.array([0.3, 0.4])
    assert separation_time(CAT, SIG0, x, x, eta=0.1, n_cap=30) is None


def test_cat_unstable_pair_separates_at_five():
    # growth lambda_u^n * 1e-3 first exceeds 0.1 at n = 5
    assert LAM_U ** 4 * 1e-3 < 0.1 < LAM_U ** 5 * 1e-3
    for seed in range(10):
        x, y = unstable_pair(seed)
        assert separation_time(CAT, SIG0, x, y, eta=0.1, n_cap=30) == 5


def test_separation_time_is_symmetric():
    x, y = unstable_pair(3)
    t_xy = separation_time(CAT, SIG0, x, y, eta=0.1, n_cap=30)
    t_yx = separation_time(CAT, SIG0, y, x, eta=0.1, n_cap=30)
    assert t_xy == t_yx


def test_identity_pairs_saturate():
    I = build_identity_ifs(2)
    assert separation_time(I, SIG0, [0.1, 0.1], [0.15, 0.1], eta=0.1,
                           n_cap=20) is None


def test_immediately_separated_pair_returns_zero():
    assert separation_time(CAT, SIG0, [0.0, 0.0], [0.4, 0.4], eta=0.1,
                           n_cap=5) == 0


def test_batch_matches_scalar():
    xs, ys = zip(*(unstable_pair(s) for s in range(6)))
    times = separation_times_batch(CAT, SIG0, np.array(xs), np.array(ys),
                                   eta=0.1, n_cap=30)
    assert np.all(times == 5)


def test_stable_direction_separates_backward():
    # contracting forward, expanding under the inverse
    v_s = np.array([1.0, (3 - np.sqrt(5)) / 2 - 2])
    v_s /= np.linalg.norm(v_s)
    x = np.array([0.62, 0.27])
    y = CAT.space.normalize(x + 1e-3 * v_s)
    t = separation_time(CAT, SIG0, x, y, eta=0.1, n_cap=30)
    assert t == 5


def test_max_orbit_separation_identity_is_initial_distance():
    I = build_identity_ifs(2)
    X = np.array([[0.1, 0.1], [0.5, 0.5]])
    Y = np.array([[0.13, 0.1], [0.5, 0.58]])
    sep = max_orbit_separation(I, SIG0, X, Y, n_cap=10)
    assert sep == pytest.approx(I.space.dist(X, Y))


# --- expansiveness constant ---------------------------------------------

def test_identity_violated_at_every_delta():
    I = build_identity_ifs(2)
    rep = estimate_expansive_const(I, SIG0, MetricGrid(I.space, 64),
                                   pair_tolerance=1e-3, n_cap=10, seed=2)
    assert rep.verdict == "violated"
    assert rep.candidate_delta is None
    assert all(v.violated for v in rep.verdicts if v.delta >= 1e-3)
    assert len(rep.violating_pairs) > 0


def test_rotation_violated_at_every_delta():
    R = build_rotation_ifs([0.1])
    rep = estimate_expansive_const(R, SIG0, MetricGrid(R.space, 256),
                                   pair_tolerance=1e-3, n_cap=10, seed=2)
    assert rep.verdict == "violated"
    assert rep.candidate_delta is None


def test_cat_candidate_constant_regression():
    rep = estimate_expansive_const(CAT, SIG0, MetricGrid(CAT.space, 64),
                                   pair_tolerance=1e-2, n_cap=30, seed=2)
    assert rep.verdict == "expansive-at-Delta"
    assert rep.candidate_delta == pytest.approx(0.4)
    assert not any(v.violated for v in rep.verdicts)


def test_delta_monotonicity_of_verdicts():
    I = build_identity_ifs(2)
    grid = MetricGrid(I.space, 32)
    rep_desc = estimate_expansive_const(I, SIG0, grid, pair_tolerance=1e-3,
                                        n_cap=5, seed=7,
                                        delta_grid=(0.3, 0.1, 0.01, 0.002))
    rep_asc = estimate_expansive_const(I, SIG0, grid, pair_tolerance=1e-3,
                                       n_cap=5, seed=7,
                                       delta_grid=(0.002, 0.01, 0.1, 0.3))
    assert rep_desc.verdicts == rep_asc.verdicts
    # once violated, every larger Delta is violated too
    flags = [v.violated for v in rep_desc.verdicts]  # descending order
    assert flags == sorted(flags, reverse=True)


def test_violation_record_structure():
    I = build_identity_ifs(2)
    rep = estimate_expansive_const(I, SIG0, MetricGrid(I.space, 32),
                                   pair_tolerance=1e-3, n_cap=5, seed=0)
    x, y, max_sep = rep.violating_pairs[0]
    assert I.space.dist(x, y) > rep.pair_tolerance
    assert max_sep <= max(v.delta for v in rep.verdicts)
    d = rep.to_dict()
    assert d["verdict"] == "violated" and d["violations"]


# --- N(mu) ----------------------------------------------------------------

def test_n_of_mu_vacuous_when_mu_exceeds_diameter():
    grid = MetricGrid(CAT.space, 16)
    assert estimate_N_of_mu(CAT, SIG0, eta=0.1, mu=1.0, grid=grid) == 1


@pytest.mark.parametrize("mu", [-0.1, 0.0, np.nan])
def test_n_of_mu_rejects_a_mu_that_is_not_positive(mu):
    with pytest.raises(ValueError, match=f"mu must be positive, got {mu}"):
        estimate_N_of_mu(CAT, SIG0, eta=0.1, mu=mu, grid=MetricGrid(CAT.space, 16))


def test_n_of_mu_cat_matches_eigenvalue_prediction():
    grid = MetricGrid(CAT.space, 64)
    N = estimate_N_of_mu(CAT, SIG0, eta=0.1, mu=1e-3, grid=grid, n_cap=30,
                         seed=1)
    # worst orientation splits mu across both eigendirections
    prediction = int(np.ceil(np.log(0.1 * np.sqrt(2) / 1e-3) / np.log(LAM_U)))
    assert prediction == 6
    assert abs(N - prediction) <= 1


def test_n_of_mu_off_the_plane_uses_random_directions():
    # d != 2 draws its direction fan at random: on the circle doubling map a
    # pair at distance mu separates past eta after ceil(log2(eta / mu)) steps
    D = make_ifs([affine_map(Space(1), [[2]], [0.0], "doubling")])
    grid = MetricGrid(D.space, 64)
    prediction = int(np.ceil(np.log2(0.1 / 1e-3)))
    for seed in range(3):
        N = estimate_N_of_mu(D, SIG0, eta=0.1, mu=1e-3, grid=grid, seed=seed)
        assert abs(N - prediction) <= 1
    I3 = build_identity_ifs(3)
    assert estimate_N_of_mu(I3, SIG0, eta=0.1, mu=1e-3, grid=MetricGrid(I3.space, 8),
                            n_cap=10) is None


def test_n_of_mu_off_the_plane_displaces_pairs_along_the_axes():
    # on T^3, [[2,1,0],[1,1,0],[0,0,1]] fixes the third coordinate, so a pair
    # split along e3 never separates and N(mu) saturates; a random direction
    # almost surely has a component along the expanding eigenvector
    A = make_ifs([affine_map(Space(3), [[2, 1, 0], [1, 1, 0], [0, 0, 1]],
                             np.zeros(3), "cat_x_id")])
    assert estimate_N_of_mu(A, SIG0, eta=0.1, mu=1e-3,
                            grid=MetricGrid(A.space, 8), seed=0) is None


def test_n_of_mu_identity_saturates():
    I = build_identity_ifs(2)
    grid = MetricGrid(I.space, 32)
    assert estimate_N_of_mu(I, SIG0, eta=0.1, mu=1e-3, grid=grid, n_cap=10) is None


def test_n_of_mu_monotone_in_mu_and_eta():
    grid = MetricGrid(CAT.space, 64)
    ns = [estimate_N_of_mu(CAT, SIG0, eta=0.1, mu=mu, grid=grid, seed=3)
          for mu in (1e-3, 1e-2, 1e-1)]
    assert ns[0] >= ns[1] >= ns[2]
    ne = [estimate_N_of_mu(CAT, SIG0, eta=eta, mu=1e-3, grid=grid, seed=3)
          for eta in (0.05, 0.1, 0.2)]
    assert ne[0] <= ne[1] <= ne[2]


def test_empty_delta_grid_is_inconclusive():
    rep = estimate_expansive_const(CAT, SIG0, MetricGrid(CAT.space, 16), delta_grid=())
    assert rep.verdict == "inconclusive"
    assert rep.candidate_delta is None and rep.verdicts == ()


@pytest.mark.parametrize("n_cap", [-1, -3])
def test_negative_n_cap_is_rejected(n_cap):
    # a negative horizon used to read as a saturated pair or as
    # "expansive-at-Delta"; mu = 1 and an empty delta grid take the early
    # returns of estimate_N_of_mu and estimate_expansive_const
    grid = MetricGrid(CAT.space, 16)
    x, y = unstable_pair(0)
    calls = [
        lambda: separation_time(CAT, SIG0, x, y, 0.1, n_cap),
        lambda: separation_times_batch(CAT, SIG0, x[None], y[None], 0.1, n_cap),
        lambda: max_orbit_separation(CAT, SIG0, x[None], y[None], n_cap),
        lambda: estimate_expansive_const(CAT, SIG0, grid, n_cap=n_cap),
        lambda: estimate_expansive_const(CAT, SIG0, grid, n_cap=n_cap, delta_grid=()),
        lambda: estimate_N_of_mu(CAT, SIG0, eta=0.1, mu=1e-3, grid=grid, n_cap=n_cap),
        lambda: estimate_N_of_mu(CAT, SIG0, eta=0.1, mu=1.0, grid=grid, n_cap=n_cap),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"n_cap must be >= 0, got {n_cap}"):
            call()


def test_zero_n_cap_compares_the_pair_itself():
    x, y = unstable_pair(0)
    assert separation_time(CAT, SIG0, x, y, 0.1, 0) is None
    assert separation_time(CAT, SIG0, x, y, 1e-4, 0) == 0


@pytest.mark.parametrize("kwargs, message", [
    (dict(delta_grid=(-0.1, -0.2)), "Delta must be positive, got -0.1"),
    (dict(delta_grid=(0.2, 0.0)), "Delta must be positive, got 0.0"),
    (dict(delta_grid=(0.2, np.nan)), "Delta must be positive, got nan"),
    (dict(pair_tolerance=-1.0), "pair_tolerance must be >= 0, got -1.0"),
    (dict(pair_tolerance=np.nan), "pair_tolerance must be >= 0, got nan"),
    # a tolerance above the diameter samples no pair: the early return
    (dict(pair_tolerance=10.0, delta_grid=(0.2, -0.1)), "Delta must be positive"),
    # no pairs used to read as "inconclusive"
    (dict(n_pairs=0), "n_pairs must be >= 1, got 0"),
    (dict(n_pairs=-5), "n_pairs must be >= 1, got -5"),
])
def test_expansive_config_errors_are_rejected(kwargs, message):
    # these used to read as "expansive-at-Delta" (Delta <= 0) or "violated"
    # (identical pairs, kept by a negative tolerance, never separate)
    with pytest.raises(ValueError, match=message):
        estimate_expansive_const(CAT, SIG0, MetricGrid(CAT.space, 16), **kwargs)


@pytest.mark.parametrize("eta", [-0.1, np.nan])
def test_negative_eta_is_rejected(eta):
    # identical points used to "separate" at n = 0; mu = 1 takes the early
    # return of estimate_N_of_mu
    grid = MetricGrid(CAT.space, 16)
    x = np.array([0.3, 0.4])
    calls = [
        lambda: separation_time(CAT, SIG0, x, x, eta, 30),
        lambda: separation_times_batch(CAT, SIG0, x[None], x[None], eta, 30),
        lambda: estimate_N_of_mu(CAT, SIG0, eta=eta, mu=1e-3, grid=grid),
        lambda: estimate_N_of_mu(CAT, SIG0, eta=eta, mu=1.0, grid=grid),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"eta must be >= 0, got {eta}"):
            call()


def test_zero_eta_and_tolerance_are_valid():
    x, y = unstable_pair(0)
    assert separation_time(CAT, SIG0, x, y, 0.0, 5) == 0
    rep = estimate_expansive_const(CAT, SIG0, MetricGrid(CAT.space, 16),
                                   pair_tolerance=0.0, n_cap=5)
    assert rep.pair_tolerance == 0.0


def test_each_violating_pair_is_recorded_once():
    # the violations at 0.54 are those at 0.55 again; they used to be
    # recorded a second time (16 pairs, 8 distinct)
    rep = estimate_expansive_const(CAT, SIG0, MetricGrid(CAT.space, 64),
                                   delta_grid=(0.55, 0.54, 0.53, 0.52), seed=1)
    assert [v.n_violations for v in rep.verdicts] == [8, 8, 0, 0]
    pairs = {(tuple(x), tuple(y)) for x, y, _ in rep.violating_pairs}
    assert len(pairs) == len(rep.violating_pairs) == 8
    assert all(s <= 0.55 for _, _, s in rep.violating_pairs)
