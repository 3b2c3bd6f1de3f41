import dataclasses
import json
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsshadow import (MetricGrid, Space, SymbolSequence, affine_map, estimate_N_of_mu,
                       estimate_expansive_const, make_ifs, max_orbit_separation,
                       orbit_steps, separation_time, separation_times_batch)
from ifsshadow.expansive import _sample_pairs, _separations
from ifsshadow.systems import (build_cat_ifs, build_identity_ifs,
                               build_rotation_ifs, build_system)

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


def n_cap_calls(n_cap):
    """Every public function that takes n_cap; mu = 1 and an empty delta
    grid take the early returns of estimate_N_of_mu and
    estimate_expansive_const."""
    grid = MetricGrid(CAT.space, 16)
    x, y = unstable_pair(0)
    return [
        lambda: separation_time(CAT, SIG0, x, y, 0.1, n_cap),
        lambda: separation_times_batch(CAT, SIG0, x[None], y[None], 0.1, n_cap),
        lambda: max_orbit_separation(CAT, SIG0, x[None], y[None], n_cap),
        lambda: estimate_expansive_const(CAT, SIG0, grid, n_cap=n_cap),
        lambda: estimate_expansive_const(CAT, SIG0, grid, n_cap=n_cap, delta_grid=()),
        lambda: estimate_N_of_mu(CAT, SIG0, eta=0.1, mu=1e-3, grid=grid, n_cap=n_cap),
        lambda: estimate_N_of_mu(CAT, SIG0, eta=0.1, mu=1.0, grid=grid, n_cap=n_cap),
    ]


@pytest.mark.parametrize("n_cap", [-1, -3])
def test_negative_n_cap_is_rejected(n_cap):
    # a negative horizon used to read as a saturated pair or as
    # "expansive-at-Delta"
    for call in n_cap_calls(n_cap):
        with pytest.raises(ValueError, match=f"n_cap must be >= 0, got {n_cap}"):
            call()


@pytest.mark.parametrize("n_cap", [2.5, True, 3.0, "3"])
def test_non_integer_n_cap_is_rejected(n_cap):
    # 2.5 used to raise an IndexError and True to be echoed as N_cap true
    for call in n_cap_calls(n_cap):
        with pytest.raises(ValueError, match=f"n_cap must be an integer, got {n_cap}"):
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
    # 100.5 used to raise numpy's TypeError, and True to sample one pair
    (dict(n_pairs=100.5), "n_pairs must be an integer, got 100.5"),
    (dict(n_pairs=True), "n_pairs must be an integer, got True"),
    (dict(n_pairs=8.0), "n_pairs must be an integer, got 8.0"),
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


# --- pruned stepping against the unpruned loop ------------------------------

# a torus automorphism whose matmul rounds differently on a single row
# (the products 5x and 3x are not exact), unlike cat's
ROUNDING = make_ifs([affine_map(Space(2), [[5, 3], [3, 2]], [0.1, 0.0], "a53")])
SYSTEMS = {name: build_system(name) for name in
           ("cat", "torus_example", "identity:2", "rotation:0.1")}
SYSTEMS["a53"] = ROUNDING


def reference_separations(F, sigma, X, Y, n_cap):
    """max(dist(O(n)x, O(n)y), dist(O(-n)x, O(-n)y)) per pair for every
    n = 0..n_cap: every pair stepped to n_cap both ways."""
    space = F.space
    XY = np.stack([np.asarray(X, float), np.asarray(Y, float)])
    return [np.maximum(space.dist(f[0], f[1]), space.dist(b[0], b[1]))
            for f, b in zip(orbit_steps(F, sigma, XY, n_cap),
                            orbit_steps(F, sigma, XY, -n_cap))]


def reference_times(seps, eta):
    """The first n with a separation above eta, inf if none."""
    times = np.full(len(seps[0]), np.inf)
    for n, sep in enumerate(seps):
        times[np.isinf(times) & (sep > eta)] = n
    return times


def reference_report(F, sigma, grid, pair_tolerance, n_cap, delta_grid, n_pairs, seed):
    """estimate_expansive_const's to_dict() from the unpruned maxima."""
    deltas = sorted(set(delta_grid), reverse=True)
    X, Y = _sample_pairs(F, grid, pair_tolerance, n_pairs, seed)
    maxsep = reduce(np.maximum, reference_separations(F, sigma, X, Y, n_cap))
    counts = [int(np.count_nonzero(maxsep <= d)) for d in deltas]
    clean = [d for d, c in zip(deltas, counts) if c == 0]
    return {
        "sigma": sigma.to_dict(),
        "candidate_Delta": clean[0] if clean else None,
        "N_cap": n_cap,
        "pair_tolerance": pair_tolerance,
        "Delta_grid": deltas,
        "verdicts": [{"Delta": d, "violated": c > 0, "n_violations": c}
                     for d, c in zip(deltas, counts)],
        "violations": [{"x": list(X[i]), "y": list(Y[i]), "max_sep": float(maxsep[i])}
                       for i in np.flatnonzero(maxsep <= deltas[0])[:16]],
        "verdict": "expansive-at-Delta" if clean else "violated",
    }


def schedule(name, window):
    return (SymbolSequence.periodic(window) if name == "torus_example"
            else SymbolSequence.constant(0))


WINDOWS = st.lists(st.integers(0, 1), min_size=1, max_size=5)


@settings(deadline=None, max_examples=120)
@given(name=st.sampled_from(sorted(SYSTEMS)), window=WINDOWS,
       n=st.integers(1, 40), seed=st.integers(0, 2**16),
       eta=st.sampled_from([0.0, 1e-3, 0.05, 0.2, 0.4, 0.8]), n_cap=st.integers(0, 12))
def test_pruned_separations_match_the_unpruned_loop(name, window, n, seed, eta, n_cap):
    F = SYSTEMS[name]
    sigma = schedule(name, window)
    rng = np.random.default_rng(seed)
    X = rng.random((n, F.space.dim))
    # pairs from far apart (settled at n = 0) to 1e-6 apart (never settled)
    scale = 10.0 ** rng.uniform(-6, -0.3, (n, 1))
    Y = F.space.normalize(X + scale * rng.standard_normal((n, F.space.dim)))
    seps = reference_separations(F, sigma, X, Y, n_cap)
    times = separation_times_batch(F, sigma, X, Y, eta, n_cap)
    assert times.tobytes() == reference_times(seps, eta).tobytes()
    maxima = max_orbit_separation(F, sigma, X, Y, n_cap)
    assert maxima.tobytes() == reduce(np.maximum, seps).tobytes()


@settings(deadline=None, max_examples=60)
@given(name=st.sampled_from(["cat", "torus_example", "identity:2", "rotation:0.1"]),
       window=WINDOWS, seed=st.integers(0, 2**16), n_cap=st.integers(0, 12),
       pair_tolerance=st.sampled_from([1e-3, 1e-2]),
       delta_grid=st.lists(st.sampled_from([0.55, 0.4, 0.2, 0.1, 0.05, 0.01]),
                           min_size=1, max_size=4))
def test_pruned_report_matches_the_unpruned_loop(name, window, seed, n_cap,
                                                 pair_tolerance, delta_grid):
    F = SYSTEMS[name]
    sigma = schedule(name, window)
    grid = MetricGrid(F.space, 6 if F.space.dim == 4 else 32)
    rep = estimate_expansive_const(F, sigma, grid, pair_tolerance, n_cap,
                                   delta_grid, 64, seed)
    want = reference_report(F, sigma, grid, pair_tolerance, n_cap, delta_grid, 64, seed)
    assert json.dumps(rep.to_dict()) == json.dumps(want)


def test_reports_with_violations_match_the_unpruned_loop():
    # the identity and the rotation record violations at every Delta, and
    # cat at 0.55; each recorded max_sep is the full max over |n| <= n_cap
    for name, delta_grid in (("identity:2", (0.4, 0.1)), ("rotation:0.1", (0.4, 0.1)),
                             ("cat", (0.55, 0.54))):
        F = SYSTEMS[name]
        grid = MetricGrid(F.space, 64)
        rep = estimate_expansive_const(F, SIG0, grid, 1e-3, 30, delta_grid, 512, 1)
        want = reference_report(F, SIG0, grid, 1e-3, 30, delta_grid, 512, 1)
        assert want["violations"]
        assert json.dumps(rep.to_dict()) == json.dumps(want)


def counting_ifs(F):
    """F with every forward and inverse call recording its rows."""
    calls = []

    def counted(fn):
        def call(x):
            calls.append(x.shape[:-1])
            return fn(x)
        return call

    maps = [dataclasses.replace(m, fwd=counted(m.fwd), inv=counted(m.inv),
                                affine=None, point=None) for m in F.maps]
    return make_ifs(maps), calls


def test_pairs_separated_at_zero_are_never_stepped():
    F, calls = counting_ifs(CAT)
    rng = np.random.default_rng(0)
    near = rng.random((3, 2))
    X = np.concatenate([[[0.1, 0.1]] * 5, near])
    Y = np.concatenate([[[0.5, 0.6]] * 5, CAT.space.normalize(near + 1e-7)])
    times = separation_times_batch(F, SIG0, X, Y, 0.1, 4)
    assert times.tolist() == [0] * 5 + [np.inf] * 3
    # four steps each way, every one on the three open pairs only
    assert calls == [(2, 3)] * 8


def test_a_lone_open_pair_keeps_the_bits_of_the_batch():
    # when one open pair is left, a settled one is stepped beside it: alone,
    # the pair would step through another BLAS path, with other last bits
    rng = np.random.default_rng(5)
    x = rng.random((20, 2))
    for xi in x:
        X = np.array([[0.0, 0.0], xi])
        Y = np.array([[0.5, 0.5], ROUNDING.space.normalize(xi + 1e-9)])
        want = reduce(np.maximum, reference_separations(ROUNDING, SIG0, X, Y, 8))
        times, maxima = _separations(ROUNDING, SIG0, X, Y, 8, 0.4)
        assert times[0] == 0 and np.isinf(times[1])
        assert maxima[1] == want[1]


# --- config errors ------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_rejected(bad):
    # a NaN used to read as "never separates" (None) and an inf as the same
    # after a RuntimeWarning
    good, broken = np.array([[0.3, 0.4]]), np.array([[bad, 0.2]])
    for side, (X, Y) in (("X", (broken, good)), ("Y", (good, broken))):
        calls = [
            lambda: separation_time(CAT, SIG0, X[0], Y[0], 0.1, 5),
            lambda: separation_times_batch(CAT, SIG0, X, Y, 0.1, 5),
            lambda: max_orbit_separation(CAT, SIG0, X, Y, 5),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"{side} holds a non-finite point"):
                call()


def test_numpy_integer_counts_are_accepted():
    rep = estimate_expansive_const(CAT, SIG0, MetricGrid(CAT.space, 16),
                                   n_cap=np.int64(5), n_pairs=np.int32(8))
    assert rep.n_cap == 5 and type(rep.n_cap) is int
