import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifsshadow import (ChainRecord, MetricGrid, SmoothMap, Space,
                       SymbolSequence, dist_D0, dist_D1, gen_pseudo_orbit,
                       identity_map, iterate_chain, make_ifs,
                       move_points_diffeo, orbit_map, orbit_steps, rho0, rho1,
                       shadow_contraction, validate_chain)
from ifsshadow.core import _max_spectral_norm
from ifsshadow.io import ifs_from_dict
from ifsshadow.maps import affine_map, compose
from ifsshadow.space import _mod1, ball_sample
from ifsshadow.systems import (build_bumped_cat_ifs, build_cat_ifs,
                               build_contraction_ifs, build_rotation_ifs,
                               build_torus_example, build_torus_f1, build_torus_f2)

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

    def reference(k):
        if constant is None:
            return window[(k - k_min) % len(window)]
        return window[k - k_min] if 0 <= k - k_min < len(window) else constant
    expected = [reference(k) for k in range(a, a + length)]
    syms = s.symbols(a, a + length)
    assert syms.dtype.kind == "i"
    assert syms.tolist() == expected
    assert [s.lookup(k) for k in range(a, a + length)] == expected
    syms += 7                     # the caller's array, not the cached window
    assert s.symbols(a, a + length).tolist() == expected


@given(window=st.lists(st.integers(0, 5), min_size=1, max_size=8),
       constant=st.one_of(st.none(), st.integers(0, 5)),
       k_min=st.integers(-20, 20))
def test_sigma_json_roundtrip_is_lossless(window, constant, k_min):
    ext = "periodic" if constant is None else f"constant:{constant}"
    s = SymbolSequence(tuple(window), ext, k_min)
    assert SymbolSequence.from_dict(json.loads(json.dumps(s.to_dict()))) == s


@pytest.mark.parametrize("make", [
    lambda: SymbolSequence.constant(-1),
    lambda: SymbolSequence.periodic([0, -2]),
    lambda: SymbolSequence((0, 1), "constant:-1"),
])
def test_sigma_rejects_negative_symbols(make):
    with pytest.raises(ValueError, match="symbols must be >= 0"):
        make()


@pytest.mark.parametrize("extension, message", [
    ("periodic:2", "unknown extension rule"),
    ("mirror", "unknown extension rule"),
    ("constant:x", "constant extension needs a symbol"),
])
def test_sigma_rejects_malformed_extensions(extension, message):
    # the extension is parsed once, when the schedule is built
    with pytest.raises(ValueError, match=message):
        SymbolSequence((0, 1), extension)


@pytest.mark.parametrize("record, message", [
    (5, "a schedule must be an object, got 5"),
    ([0, 1], "a schedule must be an object, got [0, 1]"),
    ({}, "field 'window' must be a list of integers, got None"),
    ({"window": 3}, "field 'window' must be a list of integers, got 3"),
    ({"window": [0, 1.5]}, "field 'window' must be a list of integers, got [0, 1.5]"),
    ({"window": [0, "1"]}, "field 'window' must be a list of integers, got [0, '1']"),
    ({"window": [True]}, "field 'window' must be a list of integers, got [True]"),
    ({"window": [0], "extension": 3}, "field 'extension' must be a string, got 3"),
    ({"window": [0], "k_min": 1.0}, "field 'k_min' must be an integer, got 1.0"),
    ({"window": [0], "k_min": "2"}, "field 'k_min' must be an integer, got '2'")])
def test_sigma_from_dict_names_a_malformed_field(record, message):
    # each of these used to end in a TypeError, or to truncate 1.5 to 1
    with pytest.raises(ValueError, match=re.escape(message)):
        SymbolSequence.from_dict(record)


def test_schedule_outside_the_family_is_value_error():
    two, x = build_torus_example(), np.full(4, 0.3)
    with pytest.raises(ValueError, match="symbol 5 is outside the family of 2 maps"):
        gen_pseudo_orbit(two, SymbolSequence.constant(5), x, 0.0, 3)
    with pytest.raises(ValueError, match="symbol 5 is outside the family of 2 maps"):
        next(orbit_steps(two, SymbolSequence.periodic([0, 5]), x, 3))
    with pytest.raises(ValueError, match="symbol 5 is outside the family of 2 maps"):
        orbit_map(two, SymbolSequence.periodic([5, 1]), -2, x)


@pytest.mark.parametrize("symbols, bad", [([0, 5], 5), ([-1, 1], -1)])
def test_ifs_step_checks_both_ends_of_the_symbols(symbols, bad):
    two, X = build_torus_example(), np.full((2, 4), 0.3)
    for call in (two.step, two.jacobians):
        with pytest.raises(ValueError, match=f"symbol {bad} is outside the family"):
            call(symbols, X)


def _counted(F):
    """F with each map's fwd and jac wrapped to record its symbol per call."""
    calls = []

    def wrap(s, f):
        return lambda x: calls.append(s) or f(x)
    maps = [replace(m, fwd=wrap(s, m.fwd), jac=wrap(s, m.jac))
            for s, m in enumerate(F.maps)]
    return make_ifs(maps), calls


def _per_point(F, symbols, X):
    """Images and Jacobians of each row under its own map, one call per row."""
    d = X.shape[-1]
    images, jacs = np.empty_like(X), np.empty(X.shape + (d,))
    for i, s in enumerate(symbols):
        images[i] = F.maps[s](X[i:i + 1])[0]
        jacs[i] = F.maps[s].jacobian(X[i:i + 1])[0]
    return images, jacs


def test_ifs_step_on_no_symbols_calls_no_map():
    F, calls = _counted(build_rotation_ifs([0.1, 0.2, 0.3]))
    for symbols in ([], np.array([], dtype=np.intp)):
        assert F.step(symbols, np.empty((0, 1))).shape == (0, 1)
        assert F.jacobians(symbols, np.empty((0, 1))).shape == (0, 1, 1)
    assert calls == []


def test_ifs_step_on_a_constant_schedule_is_one_call_on_every_row():
    # cos and sin may give a many-row array other bits than one-row calls, so
    # the reference is the one call on all rows that "one map call per
    # distinct symbol" promises
    two, calls = _counted(build_torus_example())
    X = np.random.default_rng(3).random((500, 4))
    symbols = SymbolSequence.constant(1).symbols(0, 500)
    images, jacs = two.maps[1](X), two.maps[1].jacobian(X)
    calls.clear()
    assert np.array_equal(two.step(symbols, X), images)
    assert np.array_equal(two.jacobians(symbols, X), jacs)
    assert calls == [1, 1]


def test_ifs_step_on_a_sparse_subset_of_symbols_matches_per_point_calls():
    # rotations by an identity matrix: a one-row call has the bits of a
    # many-row one, so the reference can call each row on its own
    F, calls = _counted(build_rotation_ifs([0.1, 0.25, 0.7]))
    symbols = np.random.default_rng(5).choice([0, 2], size=300)
    X = np.random.default_rng(6).random((300, 1))
    images, jacs = _per_point(F, symbols, X)
    calls.clear()
    assert np.array_equal(F.step(symbols, X), images)
    assert np.array_equal(F.jacobians(symbols, X), jacs)
    assert calls == [0, 2, 0, 2]


@pytest.mark.parametrize("symbols, bad", [([0, 3, 2], 3), ([2, -4, 0], -4),
                                          ([-1, 7], -1), ([7], 7)])
def test_ifs_step_rejects_symbols_outside_a_three_map_family(symbols, bad):
    F = build_rotation_ifs([0.1, 0.25, 0.7])
    X = np.full((len(symbols), 1), 0.3)
    for call in (F.step, F.jacobians):
        with pytest.raises(ValueError, match=re.escape(
                f"symbol {bad} is outside the family of 3 maps (symbols 0..2)")):
            call(symbols, X)


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


# --- schedule stepping: orbit_steps, IFS.step, IFS.jacobians --------------

# families whose maps are exact on single rows and on batches alike, so the
# kernel must reproduce a per-step lookup loop bit for bit
FAMILIES = (build_torus_example(), build_contraction_ifs(0.5, [0.0, 0.5]),
            build_rotation_ifs([[0.1, 0.3], [0.25, 0.7], [0.05, 0.9]]))
LEADING_SHAPES = ((), (3,), (2, 3))


@st.composite
def family_and_schedule(draw):
    F = draw(st.sampled_from(FAMILIES))
    symbol = st.integers(0, len(F) - 1)
    window = draw(st.lists(symbol, min_size=1, max_size=6))
    constant = draw(st.one_of(st.none(), symbol))
    ext = "periodic" if constant is None else f"constant:{constant}"
    return F, SymbolSequence(tuple(window), ext, draw(st.integers(-8, 8)))


@settings(deadline=None)
@given(case=family_and_schedule(), k=st.integers(-10, 10),
       lead=st.sampled_from(LEADING_SHAPES), seed=st.integers(0, 2**16))
def test_orbit_steps_match_lookup_loop(case, k, lead, seed):
    F, sigma = case
    x = np.random.default_rng(seed).random(lead + (F.space.dim,))
    y = F.space.normalize(x)
    expected = [y]
    for j in (range(k) if k >= 0 else range(-1, k - 1, -1)):
        m = F.maps[sigma.lookup(j)]
        y = m(y) if k >= 0 else m.invert(y)
        expected.append(y)
    got = list(orbit_steps(F, sigma, x, k))
    assert len(got) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    assert np.array_equal(orbit_map(F, sigma, k, x), expected[-1])


@settings(deadline=None)
@given(case=family_and_schedule(), start=st.integers(-20, 20),
       n=st.integers(0, 12), lead=st.sampled_from(LEADING_SHAPES[:2]),
       seed=st.integers(0, 2**16))
# numpy's vectorised cos/sin may give a 2-row array other bits than two 1-row
# calls, so the reference makes one map call per symbol, as IFS.step does
@example(case=(FAMILIES[0], SymbolSequence((0,))), start=0, n=2, lead=(),
         seed=921)
def test_ifs_step_and_jacobians_match_per_row_calls(case, start, n, lead, seed):
    F, sigma = case
    d = F.space.dim
    X = np.random.default_rng(seed).random((n,) + lead + (d,))
    looked_up = np.array([sigma.lookup(start + i) for i in range(n)], dtype=int)
    images, jacs = np.empty_like(X), np.empty(X.shape + (d,))
    for s in np.unique(looked_up):
        rows = looked_up == s
        images[rows] = F.maps[s](X[rows])
        jacs[rows] = F.maps[s].jacobian(X[rows])
    syms = sigma.symbols(start, start + n)
    assert np.array_equal(F.step(syms, X), images)
    assert np.array_equal(F.jacobians(syms, X), jacs)


def test_orbit_steps_is_lazy():
    calls = []
    m = CAT.maps[0]
    counted = SmoothMap("cat", m.space, lambda x: calls.append(1) or m.fwd(x),
                        inv=m.inv, jac=m.jac)
    steps = orbit_steps(make_ifs([counted]), SIG0, [0.1, 0.2], 10**6)
    assert np.array_equal(next(steps), [0.1, 0.2])
    next(steps)
    assert len(calls) == 1


@pytest.mark.parametrize("k", [4, -4])
def test_orbit_steps_sent_mask_drops_rows(k):
    # a mask sent over axis -2 drops those rows from every later step, which
    # stay C-contiguous and equal the kept rows of the unmasked orbit
    X = np.random.default_rng(2).random((2, 6, 2))
    full = list(orbit_steps(CAT, SIG0, X, k))
    keep = np.array([True, False, True, True, False, True])
    steps = orbit_steps(CAT, SIG0, X, k)
    got = [next(steps), steps.send(keep)] + list(steps)
    assert np.array_equal(got[0], full[0])
    for g, f in zip(got[1:], full[1:]):
        assert g.flags.c_contiguous and np.array_equal(g, f[:, keep])


def test_orbit_steps_backward_needs_inverses():
    m = SmoothMap("noinv", Space(2), lambda x: x)
    with pytest.raises(ValueError, match="invertible"):
        next(orbit_steps(make_ifs([m]), SIG0, np.zeros(2), -1))


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
    v = validate_chain(CAT, ChainRecord(np.array([[0.1, 0.2]]), SIG0, 0.0))
    assert v.is_exact_chain and v.max_residual == 0.0 and v.worst_k is None


def test_gen_zero_delta_is_exact():
    chain = gen_pseudo_orbit(CAT, SIG0, [0.3, 0.7], 0.0, 100, seed=1)
    assert chain.delta == 0.0
    assert validate_chain(CAT, chain).max_residual <= 1e-12


NOJAC = SmoothMap("nojac", Space(2), lambda x: x, inv=lambda p: p)


@pytest.mark.parametrize("call, message", [
    (lambda: make_ifs([]), "an IFS needs at least one map"),
    (lambda: make_ifs([identity_map(Space(2)), identity_map(Space(2, periodic=False))]),
     "all maps of an IFS must share one space"),
    (lambda: SymbolSequence(()), "symbol window must be nonempty"),
    (lambda: ChainRecord(np.zeros(3), SIG0), r"chain needs a \(m\+1, d\) array"),
    (lambda: ChainRecord(np.zeros((0, 2)), SIG0), r"chain needs a \(m\+1, d\) array"),
    (lambda: ChainRecord(np.zeros((2, 2)), SIG0, -1e-3), "delta must be >= 0, got -0.001"),
    (lambda: ChainRecord(np.zeros((2, 2)), SIG0, np.nan),
     "delta must be >= 0, got nan"),
    (lambda: gen_pseudo_orbit(CAT, SIG0, [0.1, 0.2], -0.1, 5),
     "delta must be >= 0, got -0.1"),
    (lambda: gen_pseudo_orbit(CAT, SIG0, [0.1, 0.2], np.nan, 5),
     "delta must be >= 0, got nan"),
    (lambda: gen_pseudo_orbit(CAT, SIG0, [0.1, 0.2], np.inf, 5),
     "delta must be finite, got inf"),
    (lambda: gen_pseudo_orbit(CAT, SIG0, [0.1, 0.2], 0.1, -1),
     "steps must be nonnegative"),
    (lambda: gen_pseudo_orbit(CAT, SIG0, [0.1, 0.2], 0.1, 5, noise="round:-1"),
     "round noise model needs decimals >= 0"),
    (lambda: dist_D0(CAT, build_rotation_ifs([[0.1, 0.2]]), MetricGrid(CAT.space, 8),
                     mode="nearest"), "unknown mode 'nearest'"),
    (lambda: rho1(NOJAC, CAT.maps[0], MetricGrid(CAT.space, 8)),
     "rho1 needs Jacobians on both maps"),
])
def test_malformed_families_schedules_and_chains_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


CIRCLE, INTERVAL = build_rotation_ifs([0.1]), build_contraction_ifs(0.5, (0.25,))


@pytest.mark.parametrize("call", [
    lambda grid: rho0(INTERVAL.maps[0], CIRCLE.maps[0], grid),
    lambda grid: rho1(INTERVAL.maps[0], CIRCLE.maps[0], grid),
    lambda grid: rho0(INTERVAL.maps[0], INTERVAL.maps[0], MetricGrid(CIRCLE.space, 16)),
    lambda grid: dist_D0(INTERVAL, CIRCLE, grid),
    lambda grid: dist_D1(INTERVAL, CIRCLE, grid, mode="all-pairs")])
def test_distances_between_two_spaces_are_rejected(call):
    # a circle map measured with the interval's metric used to give a number
    with pytest.raises(ValueError, match=re.escape(
            "must share one space, got Space(dim=1, periodic=False) and "
            "Space(dim=1, periodic=True)")):
        call(MetricGrid(INTERVAL.space, 16))


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


def test_gen_uniform_ball_noise_is_the_written_out_formula():
    steps, delta, seed = 300, 0.01, 5
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((steps, 2))
    norms = np.linalg.norm(dirs, axis=-1, keepdims=True)
    norms[norms == 0.0] = 1.0
    errs = dirs / norms * (delta * rng.random((steps, 1)) ** (1.0 / 2))
    pts = [np.array([0.2, 0.9])]
    for e in errs:
        y = CAT.maps[0].fwd(pts[-1])
        y = y - np.floor(y) + e
        pts.append(y - np.floor(y))
    chain = gen_pseudo_orbit(CAT, SIG0, [0.2, 0.9], delta, steps, seed=seed)
    assert np.array_equal(chain.points, np.array(pts))


def test_gen_deterministic_in_seed():
    a = gen_pseudo_orbit(CAT, SIG0, [0.2, 0.9], 0.01, 500, seed=77)
    b = gen_pseudo_orbit(CAT, SIG0, [0.2, 0.9], 0.01, 500, seed=77)
    c = gen_pseudo_orbit(CAT, SIG0, [0.2, 0.9], 0.01, 500, seed=78)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


# --- one-point chains of affine families on Python floats ----------------

def reference_mod1(y):
    """y - floor(y), where a result of 1.0 gives 0.0."""
    y = y - np.floor(y)
    return np.where(y == 1.0, 0.0, y)


def reference_step(F, s, x, e, decimals=None):
    """One step of the per-step array loop: f_s(x) mod 1, rounded, + e, mod 1."""
    y = np.asarray(F.maps[s].fwd(x), dtype=float)
    if F.space.periodic:
        y = reference_mod1(y)
    if decimals is not None:
        y = np.round(y, decimals)
    y = y + e
    if F.space.periodic:
        y = reference_mod1(y)
    return y


def reference_chain(F, sigma, x0, steps, errs=None, decimals=None):
    """The per-step array loop, one map call per link: the reference for
    chains stepped on Python floats."""
    space = F.space
    x = np.asarray(x0, dtype=float)
    if space.periodic:
        x = reference_mod1(x)
    if decimals is not None:
        x = np.round(x, decimals)
        if space.periodic:
            x = reference_mod1(x)
    pts = np.empty((steps + 1, space.dim))
    pts[0] = x
    if errs is None:
        errs = np.zeros((steps, space.dim))
    for k, s in enumerate(sigma.symbols(0, steps).tolist()):
        pts[k + 1] = reference_step(F, s, pts[k], errs[k], decimals)
    return pts


def same_bits(a, b):
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


COORDINATES = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1e-20, 1e-300, 0.0005, 0.9995]))


# entries whose products with any float are exact, so that BLAS, which may
# add the products of ``x @ A.T`` with fused multiply-adds, rounds each sum
# of a d = 2 image as the float loop does
EXACT_ENTRIES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


@st.composite
def affine_case(draw):
    """An affine family, a schedule on it and a starting point: a catalog
    family (contraction, cat or rotation), a family of one or two integral
    maps of the 2-torus, or one or two maps of the unit square with negative
    and signed-zero entries."""
    kind = draw(st.sampled_from(["contraction", "cat", "rotation", "torus2", "square2"]))
    if kind == "contraction":
        q = draw(st.one_of(st.sampled_from([0.3, 0.8]), st.floats(0.01, 0.99)))
        offset = st.one_of(st.floats(0.0, 1.0 - q), st.just(-0.0))
        F = build_contraction_ifs(q, draw(st.lists(offset, min_size=1, max_size=3)))
    elif kind == "cat":
        F = CAT
    elif kind == "rotation":
        dim = draw(st.integers(1, 3))
        angle = st.one_of(st.floats(-2.0, 2.0), st.just(-0.0))
        angles = draw(st.lists(st.lists(angle, min_size=dim, max_size=dim),
                               min_size=1, max_size=3))
        F = build_rotation_ifs(angles)
    else:
        periodic = kind == "torus2"
        space = Space(2, periodic)
        entry = st.integers(-2, 2).map(float) if periodic else EXACT_ENTRIES
        offset = st.one_of(st.floats(-1.0, 1.0), st.just(-0.0))
        matrix = st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2)
        F = make_ifs(affine_map(space, draw(matrix),
                                draw(st.lists(offset, min_size=2, max_size=2)))
                     for _ in range(draw(st.integers(1, 2))))
    symbol = st.integers(0, len(F) - 1)
    window = draw(st.lists(symbol, min_size=1, max_size=8))
    x0 = draw(st.lists(COORDINATES, min_size=F.space.dim, max_size=F.space.dim))
    return F, SymbolSequence(tuple(window)), x0


NOISES = st.one_of(st.just("uniform-ball"),
                   st.integers(0, 25).map(lambda D: f"round:{D}"))
DELTAS = st.one_of(st.just(0.0), st.floats(0.0, 0.5))


def assert_chains_have_the_bits_of_the_array_loop(F, sigma, x0, steps, noise,
                                                  delta, seed):
    """gen_pseudo_orbit and iterate_chain against reference_chain; returns
    the pseudo-orbit."""
    d = F.space.dim
    decimals, errs = None, None
    if noise.startswith("round:"):
        decimals = int(noise[6:])
    elif delta > 0:
        errs = ball_sample(np.random.default_rng(seed), steps, d, delta)
    chain = gen_pseudo_orbit(F, sigma, x0, delta, steps, noise, seed)
    assert same_bits(chain.points, reference_chain(F, sigma, x0, steps, errs, decimals))
    exact = reference_chain(F, sigma, x0, steps)
    assert same_bits(iterate_chain(F, sigma, x0, steps).points, exact)
    return chain


@settings(deadline=None, max_examples=300)
@given(case=affine_case(), steps=st.integers(0, 60), noise=NOISES, delta=DELTAS,
       seed=st.integers(0, 2**16))
def test_affine_chains_have_the_bits_of_the_array_loop(case, steps, noise, delta, seed):
    F, sigma, x0 = case
    chain = assert_chains_have_the_bits_of_the_array_loop(F, sigma, x0, steps, noise,
                                                          delta, seed)
    if F.space.periodic or F.space.dim > 1:     # the contractions of [0, 1]
        return
    shadow = shadow_contraction(F, chain).shadow.points
    assert same_bits(shadow, reference_chain(F, sigma, chain.points[0], steps))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("noise,delta", [("uniform-ball", 0.0),
                                         ("uniform-ball", 5e-324)])
def test_affine_chains_keep_the_zero_signs_of_the_array_loop(dim, noise, delta):
    # x @ A.T sums from +0.0: products that round to -0.0 plus an offset of
    # -0.0 give +0.0 there, and -0.0 on a sum started at the first product
    F = make_ifs([affine_map(Space(dim, periodic=False), 0.3 * np.eye(dim),
                             [-0.0] * dim)])
    assert_chains_have_the_bits_of_the_array_loop(F, SIG0, [-5e-324] * dim, 3,
                                                  noise, delta, 4)


MOD1_EDGES = [-1e-20, 0.0, -0.0, 5e-324, -5e-324, 1 - 2**-53, -(1 - 2**-53),
              1e300, -1e300]


@pytest.mark.parametrize("y", MOD1_EDGES + [np.inf, -np.inf, np.nan])
def test_the_float_reduction_has_the_bits_of_mod1(y):
    # the float loops reduce by y % 1.0 % 1.0: the first remainder is exact
    # (+0.0 at zero) and may round up to 1.0, which the second takes to 0.0
    got = np.array([y % 1.0 % 1.0])
    with np.errstate(invalid="ignore"):
        want = _mod1(np.array([y]))
    if np.isfinite(y):
        assert same_bits(got, want)
    else:
        assert np.isnan(got[0]) and np.isnan(want[0])


@pytest.mark.parametrize("y", MOD1_EDGES)
def test_chains_reduce_edge_images_as_the_array_loop(y):
    # an offset y puts the first image of x0 = 0 on y, on the d = 1 and d = 2
    # affine loops and the array loop (d = 3, and every rounded chain); noise
    # shows a 1.0 left unreduced, and noise of 1e-20 puts y + e_k on the edge
    # at y = 0
    for dim in (1, 2, 3):
        F = make_ifs([affine_map(Space(dim), np.eye(dim), [y] * dim)])
        for noise, delta in (("uniform-ball", 0.0), ("uniform-ball", 1e-3),
                             ("uniform-ball", 1e-20), ("round:3", 0.0)):
            assert_chains_have_the_bits_of_the_array_loop(F, SIG0, [0.0] * dim, 8,
                                                          noise, delta, 0)


# BLAS may add the terms of x @ A.T in another order, or with fused
# multiply-adds, than the d = 2 float loop's a_i0 x_0 + a_i1 x_1 + b_i; with
# 3 terms below 16 in size, each of the <= 5 roundings of an image and its
# noise moves it by at most ulp(16) / 2 = 8 eps
AFFINE_TOL = 64 * np.finfo(float).eps


@settings(deadline=None)
@given(d=st.integers(2, 4), steps=st.integers(1, 60), seed=st.integers(0, 2**16),
       delta=st.floats(1e-3, 0.1))
def test_json_affine_chains_agree_with_the_array_loop_to_rounding(d, steps, seed, delta):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-0.9, 0.9, (d, d)) / d      # inexact products, |A|_inf < 1
    b = rng.random(d)
    F = ifs_from_dict({"space": {"dim": d, "periodic": False},
                       "maps": [{"kind": "affine",
                                 "params": {"matrix": A.tolist(), "offset": b.tolist()}}]})
    x0 = rng.random(d)
    chain = gen_pseudo_orbit(F, SIG0, x0, delta, steps, seed=seed)
    errs = ball_sample(np.random.default_rng(seed), steps, d, delta)
    pts = chain.points
    if d >= 3:                 # d >= 3 affine families step on the array loop
        assert same_bits(pts, reference_chain(F, SIG0, x0, steps, errs))
    else:
        for k in range(steps):
            ref = reference_step(F, 0, pts[k], errs[k])
            assert np.max(np.abs(pts[k + 1] - ref)) <= AFFINE_TOL
    assert validate_chain(F, chain).max_residual <= delta * (1 + 1e-9)


def counted(F, calls):
    """F with each map's fwd appending to `calls`, as a call-counting wrapper
    would make it: a dataclasses.replace copy, keeping the other fields."""
    def counting(fwd):
        return lambda x: calls.append(1) or fwd(x)

    return make_ifs([replace(m, fwd=counting(m.fwd)) for m in F.maps])


def test_a_replaced_fwd_keeps_the_float_path():
    # the copy keeps the affine coefficients or the one-point formula, and
    # so the float path
    for F, x0 in ((build_contraction_ifs(0.3, [0.0, 0.5, 0.7]), [0.4]),
                  (FAMILIES[0], [0.1, 0.7, 0.35, 0.9])):
        calls = []
        G = counted(F, calls)
        assert all(g.affine is f.affine and g.point is f.point
                   for f, g in zip(F.maps, G.maps))
        sigma = SymbolSequence.random(len(F), 200, seed=1)
        got = gen_pseudo_orbit(G, sigma, x0, 0.01, 200, seed=2)
        assert not calls
        want = gen_pseudo_orbit(F, sigma, x0, 0.01, 200, seed=2)
        assert same_bits(got.points, want.points)
        assert same_bits(iterate_chain(G, sigma, x0, 200).points,
                         iterate_chain(F, sigma, x0, 200).points)
        assert not calls


def test_a_reduction_onto_one_gives_zero():
    # -1e-20 - floor(-1e-20) rounds to 1.0, outside [0, 1): every reduction,
    # on arrays and on floats, d = 1 and d = 2, gives 0.0 there instead
    for angles in ([-1e-20], [[-1e-20, -1e-20]]):
        F = build_rotation_ifs(angles)
        d = F.space.dim
        zero = [0.0] * d
        assert F.space.normalize([-1e-20] * d).tolist() == zero
        assert F.maps[0](zero).tolist() == zero
        assert [y.tolist() for y in orbit_steps(F, SIG0, zero, 2)] == [zero] * 3
        assert orbit_map(F, SIG0, 1, zero).tolist() == zero
        on_arrays = make_ifs([replace(F.maps[0], affine=None)])
        for G in (F, on_arrays):
            assert iterate_chain(G, SIG0, zero, 2).points.tolist() == [zero] * 3
            assert gen_pseudo_orbit(G, SIG0, zero, 0.0, 2, "round:3").points.tolist() \
                == [zero] * 3


# --- one-point chains of torus_example on Python floats ------------------

TORUS = FAMILIES[0]


@settings(max_examples=500)
@given(x=st.lists(st.one_of(COORDINATES, st.floats(-1e3, 1e3)), min_size=4, max_size=4))
def test_torus_point_formula_has_the_bits_of_fwd(x):
    for m in TORUS.maps:
        got = m.point(list(x))
        assert type(got) is list and all(type(v) is float for v in got)
        assert same_bits(np.array(got), m.fwd(np.array(x)))


@settings(deadline=None)
@given(x0=st.lists(COORDINATES, min_size=4, max_size=4),
       window=st.lists(st.integers(0, 1), min_size=1, max_size=8),
       steps=st.integers(0, 60), noise=NOISES, delta=DELTAS,
       seed=st.integers(0, 2**16))
def test_torus_chains_have_the_bits_of_the_array_loop(x0, window, steps, noise,
                                                      delta, seed):
    assert_chains_have_the_bits_of_the_array_loop(TORUS, SymbolSequence(tuple(window)),
                                                  x0, steps, noise, delta, seed)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("F", [build_contraction_ifs(0.5), CAT, TORUS,
                               build_bumped_cat_ifs()],
                         ids=["contraction", "cat", "torus_example", "cat_bumped"])
def test_a_chain_from_a_non_finite_point_is_a_config_error(F, value):
    # every family and noise model, and the contraction shadow of a chain
    # whose first point is not finite: no chain of NaNs comes back
    x0 = np.full(F.space.dim, 0.3)
    x0[0] = value
    sigma = SymbolSequence.constant(0)
    for noise in ("uniform-ball", "round:3"):
        with pytest.raises(ValueError, match="x0 must be finite"):
            gen_pseudo_orbit(F, sigma, x0, 1e-3, 5, noise)
    with pytest.raises(ValueError, match="x0 must be finite"):
        iterate_chain(F, sigma, x0, 5)
    if F.space.periodic:
        return
    chain = gen_pseudo_orbit(F, sigma, [0.3], 1e-3, 5)
    points = chain.points.copy()
    points[0] = value
    with pytest.raises(ValueError, match="x0 must be finite"):
        shadow_contraction(F, ChainRecord(points, sigma, chain.delta))


def test_a_chain_from_a_point_that_rounds_to_infinity_is_a_config_error():
    # np.round scales by 10**D, so a finite x0 near the top of the float range
    # overflows; the chain used to come back as infinities
    with pytest.raises(ValueError, match=re.escape(
            "x0 = [1e+307] is not finite when rounded to 3 decimals")):
        gen_pseudo_orbit(build_contraction_ifs(0.5), SymbolSequence.constant(0),
                         [1e307], 0.0, 3, "round:3")


@pytest.mark.parametrize("labels", [False, True])
def test_json_torus_maps_keep_the_one_point_formula(labels):
    maps = [{"kind": "torus_F1"}, {"kind": "torus_F2"}]
    if labels:
        maps = [dict(m, label=f"G{i}") for i, m in enumerate(maps)]
    F = ifs_from_dict({"space": {"dim": 4}, "maps": maps})
    assert all(m.point is not None for m in F.maps)
    calls = []
    sigma = SymbolSequence.random(2, 50, seed=3)
    chain = gen_pseudo_orbit(counted(F, calls), sigma, [0.2, 0.4, 0.6, 0.8], 1e-3, 50)
    assert not calls
    assert same_bits(chain.points,
                     gen_pseudo_orbit(TORUS, sigma, [0.2, 0.4, 0.6, 0.8], 1e-3, 50).points)


POLY = ifs_from_dict({"space": {"dim": 2, "periodic": False},
                      "maps": [{"kind": "custom_poly", "params": {"terms": [
                          [{"coef": 0.5, "powers": [1, 0]}, {"coef": 0.1, "powers": [0, 2]}],
                          [{"coef": 0.5, "powers": [0, 1]}]]}}]})


@pytest.mark.parametrize("F", [
    build_bumped_cat_ifs(),
    POLY,
    make_ifs([compose(TORUS.maps[0], TORUS.maps[1])]),
], ids=["cat_bumped", "custom_poly", "composition"])
def test_maps_without_a_one_point_formula_step_on_arrays(F):
    calls = []
    x0 = np.linspace(0.2, 0.8, F.space.dim)
    chain = gen_pseudo_orbit(counted(F, calls), SIG0, x0, 1e-3, 20, seed=5)
    assert len(calls) == 20
    errs = ball_sample(np.random.default_rng(5), 20, F.space.dim, 1e-3)
    assert same_bits(chain.points, reference_chain(F, SIG0, x0, 20, errs))


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


def dense_max_spectral_norm(M):
    """The reference: an SVD of every matrix of the stack."""
    return float(np.max(np.linalg.svd(M, compute_uv=False)[..., 0]))


def count_svd_matrices(monkeypatch):
    """Patch np.linalg.svd to count the matrices it is given; a list whose
    sum is the count so far."""
    counts, svd = [], np.linalg.svd

    def counting(M, *args, **kwargs):
        counts.append(int(np.prod(np.shape(M)[:-2])))
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return counts


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 5), n=st.integers(1, 300), pool=st.integers(1, 300),
       kind=st.sampled_from(["dense", "rank-1", "near-ties", "zeros", "identical"]),
       exponent=st.integers(-200, 200), spread=st.integers(0, 200),
       seed=st.integers(0, 2**32 - 1))
@example(d=4, n=300, pool=300, kind="near-ties", exponent=0, spread=0, seed=0)
@example(d=3, n=300, pool=1, kind="identical", exponent=-200, spread=0, seed=1)
@example(d=2, n=50, pool=5, kind="dense", exponent=155, spread=0, seed=2)
@example(d=2, n=1, pool=1, kind="dense", exponent=-161, spread=0, seed=0)
def test_max_spectral_norm_has_the_bits_of_the_dense_svd(d, n, pool, kind, exponent,
                                                        spread, seed):
    # repeated matrices drawn from a pool, rank-deficient and zero ones, near
    # ties within the 1e-9 margin, and scales 1e-200..1e200 (with a spread
    # of up to 200 decades inside one stack, which leaves the screen's range)
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((pool, d, d))
    if kind == "rank-1":
        base = rng.standard_normal((pool, d, 1)) * rng.standard_normal((pool, 1, d))
    elif kind == "near-ties":
        base = base[:1] * (1 + 1e-12 * rng.standard_normal((pool, d, d)))
    elif kind == "zeros":
        base[rng.random(pool) < 0.5] = 0.0
    M = base[rng.integers(0, pool, n)] * 10.0 ** exponent
    if kind == "identical":
        M = np.broadcast_to(M[:1], M.shape).copy()
    elif spread:
        M *= 10.0 ** -rng.integers(0, spread + 1, (n, 1, 1))
    assert _max_spectral_norm(M).hex() == dense_max_spectral_norm(M).hex()


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 5), n=st.integers(1, 300),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       identical=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_max_spectral_norm_of_a_non_finite_stack_is_the_dense_one(d, n, bad, identical,
                                                                  seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((1 if identical else n, d, d))
    M[rng.integers(0, len(M)), rng.integers(0, d), rng.integers(0, d)] = bad
    M = np.broadcast_to(M, (n, d, d)).copy()
    try:
        want = dense_max_spectral_norm(M)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            _max_spectral_norm(M)
    else:
        assert _max_spectral_norm(M).hex() == want.hex()


@pytest.mark.parametrize("d", [1, 3])
def test_max_spectral_norm_of_an_empty_stack_fails_as_the_dense_one(d):
    with pytest.raises(ValueError) as dense:
        dense_max_spectral_norm(np.empty((0, d, d)))
    with pytest.raises(ValueError, match=re.escape(str(dense.value))):
        _max_spectral_norm(np.empty((0, d, d)))


F1, F2 = build_torus_f1(), build_torus_f2()
BUMP = move_points_diffeo([(np.array([0.3, 0.3]), np.array([0.31, 0.3]))], 0.02)


@pytest.mark.parametrize("F, G, resolution, most", [
    (F1, F2, 8, None), (F1, F2, 12, None), (F1, F2, 16, 65536 // 20),
    # equal Jacobians (their difference is all +0.0): one SVD
    (build_rotation_ifs([[0.1, 0.2]]), build_rotation_ifs([[0.12, 0.25]]), 64, 1),
    (CAT, build_bumped_cat_ifs(1e-3), 64, None),
    (make_ifs([BUMP]), make_ifs([identity_map(BUMP.space)]), 64, None)],
    ids=["F1-F2-8", "F1-F2-12", "F1-F2-16", "rotations", "cat-bumped", "bump-id"])
def test_rho1_and_dist_d1_have_the_bits_of_the_dense_svd(F, G, resolution, most,
                                                        monkeypatch):
    (f, g), grid = F.maps + G.maps, MetricGrid(F.space, resolution)
    X = grid.points
    want = rho0(f, g, grid) + dense_max_spectral_norm(f.jacobian(X) - g.jacobian(X))
    counts = count_svd_matrices(monkeypatch)
    assert rho1(f, g, grid) == want
    if most is not None:
        assert sum(counts) <= most, (sum(counts), len(grid.points))
    assert dist_D1(F, G, grid) == want
    assert dist_D1(F, G, grid, mode="all-pairs") == want


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
