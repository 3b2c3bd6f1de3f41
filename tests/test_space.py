import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ifsshadow import (AntipodalError, DimensionError, MetricGrid, Space,
                       ball_sample, default_resolution, grid_for, lattice_samples)
from ifsshadow.space import _check_real, _norms, check_resolution


def test_wraparound_distance():
    sp = Space(1)
    assert sp.dist([0.1], [0.9]) == pytest.approx(0.2)
    assert sp.dist([0.9], [0.1]) == pytest.approx(0.2)


def test_identity_of_indiscernibles():
    sp = Space(3)
    rng = np.random.default_rng(0)
    P = sp.uniform(rng, 100)
    assert np.all(sp.dist(P, P) == 0.0)


def test_flat_metric_hand_value():
    # sqrt(0.5^2 + 0.5^2) on T^2
    assert Space(2).dist([0.0, 0.0], [0.5, 0.5]) == pytest.approx(np.sqrt(0.5))


def test_dimension_mismatch_errors():
    with pytest.raises(DimensionError):
        Space(2).dist([0.1], [0.2, 0.3])
    with pytest.raises(DimensionError):
        Space(2).normalize([0.1, 0.2, 0.3])


def test_normalize_into_unit_box():
    sp = Space(2)
    x = sp.normalize([[1.25, -0.5], [2.0, 0.999], [-1e-20, 0.5]])
    assert np.all(x >= 0.0) and np.all(x < 1.0)
    assert np.allclose(x, [[0.25, 0.5], [0.0, 0.999], [0.0, 0.5]])


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(42)
    for sp in (Space(1), Space(2), Space(4), Space(1, periodic=False)):
        p = sp.uniform(rng, 10000)
        q = sp.uniform(rng, 10000)
        r = sp.uniform(rng, 10000)
        dpq = sp.dist(p, q)
        assert np.all(dpq >= 0.0)
        assert np.allclose(dpq, sp.dist(q, p))
        assert np.all(dpq <= sp.dist(p, r) + sp.dist(r, q) + 1e-12)


def test_torus_diameter_bound():
    rng = np.random.default_rng(7)
    for d in (1, 2, 4):
        sp = Space(d)
        p = sp.uniform(rng, 5000)
        q = sp.uniform(rng, 5000)
        assert np.all(sp.dist(p, q) <= sp.diameter() + 1e-15)


def test_geodesic_displacement_wraparound():
    sp = Space(1)
    assert sp.geodesic_displacement([0.9], [0.1]) == pytest.approx([0.2])
    assert sp.geodesic_displacement([0.3], [0.3]) == pytest.approx([0.0])


def test_geodesic_displacement_componentwise():
    v = Space(2).geodesic_displacement([0.25, 0.75], [0.30, 0.70])
    assert v == pytest.approx([0.05, -0.05])


def test_geodesic_displacement_reconstructs_target():
    sp = Space(3)
    rng = np.random.default_rng(3)
    p = sp.uniform(rng, 2000)
    q = sp.normalize(p + ball_sample(rng, 2000, 3, 0.49))
    v = sp.geodesic_displacement(p, q)
    assert np.max(np.abs(v)) < 0.5
    assert np.max(sp.dist(sp.normalize(p + v), q)) < 1e-12
    assert np.allclose(np.linalg.norm(v, axis=-1), sp.dist(p, q))


def test_antipodal_ambiguity_raises():
    sp = Space(2)
    with pytest.raises(AntipodalError):
        sp.geodesic_displacement([0.25, 0.1], [0.75, 0.1])
    with pytest.raises(AntipodalError):
        sp.geodesic_displacement([0.0, 0.0], [0.4, 0.4])  # dist > 0.5


def test_nonperiodic_space_is_euclidean():
    sp = Space(1, periodic=False)
    assert sp.dist([0.1], [0.9]) == pytest.approx(0.8)
    assert np.allclose(sp.normalize([[1.25]]), [[1.25]])


def test_grid_is_a_net():
    rng = np.random.default_rng(11)
    for sp, res in ((Space(1), 64), (Space(2), 16), (Space(2, periodic=False), 16)):
        grid = MetricGrid(sp, res)
        X = sp.uniform(rng, 500)
        dmin = np.min(sp.dist(X[:, None, :], grid.points[None, :, :]), axis=1)
        assert np.max(dmin) <= np.sqrt(sp.dim) / (2 * res) + 1e-12
        assert len(grid) == res ** sp.dim


def test_grid_points_match_a_meshgrid_reference():
    for d, res in ((1, 7), (2, 5), (3, 4), (4, 3)):
        for sp in (Space(d), Space(d, periodic=False)):
            axis = np.arange(res, dtype=float) / res
            if not sp.periodic:
                axis = axis + 0.5 / res
            mesh = np.meshgrid(*([axis] * d), indexing="ij")
            ref = np.stack(mesh, axis=-1).reshape(-1, d)
            assert np.array_equal(MetricGrid(sp, res).points, ref)


def test_default_resolutions():
    assert default_resolution(1) == 4096
    assert default_resolution(2) == 256
    assert default_resolution(4) == 24
    # the grids that check a construction cap the default at 64
    assert [check_resolution(d) for d in (1, 2, 3, 4)] == [64, 64, 64, 24]


@pytest.mark.parametrize("dim, resolution", [(1, 4096), (2, 256), (3, 64)])
def test_grid_for_defaults_only_a_missing_resolution(dim, resolution):
    assert grid_for(Space(dim)).resolution == resolution
    assert grid_for(Space(dim), 8).resolution == 8
    # 0 used to fall back to the default; the grid is never filled here
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"resolution must be >= 1, got {bad}"):
            grid_for(Space(dim), bad)


def test_ball_sample_radius_and_determinism():
    r1 = ball_sample(np.random.default_rng(5), 5000, 3, 0.2)
    r2 = ball_sample(np.random.default_rng(5), 5000, 3, 0.2)
    assert np.array_equal(r1, r2)
    assert np.max(np.linalg.norm(r1, axis=-1)) <= 0.2


def test_ball_sample_bits_are_pinned():
    # the digest of the points drawn before they were shaped in place
    pts = ball_sample(np.random.default_rng(0), 1000, 4, 0.1)
    assert (hashlib.sha256(pts.tobytes()).hexdigest()
            == "9fed117641dfb25abca0b1a3d34f13956c83e49928f1846e87371731dd079b1a")


def test_lattice_samples_cover_the_torus():
    sp = Space(2)
    pts = lattice_samples(200, 2)
    assert pts.shape == (200, 2)
    probe = MetricGrid(sp, 120).points
    cover = np.max(np.min(sp.dist(probe[:, None, :], pts[None, :, :]), axis=1))
    assert cover <= 0.05


# --- metric kernel properties -----------------------------------------------

def ref_displacement(sp, p, q):
    if not sp.periodic:
        return q - p
    r = (q - p) - np.floor(q - p)
    return np.where(r > 0.5, r - 1.0, r)


def ref_norms(v):
    return np.sqrt(np.sum(v * v, axis=-1))


# exact halves, integers, signed zeros and offsets of 1e-20 next to plain floats
COORDS = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0, -1.0, 2.0, -0.5, 1.5,
                     1e-20, -1e-20, 0.5 + 1e-20, 1.0 - 1e-20]))

# (shape of p, shape of q) given n, k and d
SHAPES = {
    "rows": lambda n, k, d: ((n, d), (n, d)),
    "outer": lambda n, k, d: ((n, 1, d), (k, d)),
    "one-to-many": lambda n, k, d: ((d,), (n, d)),
    "points": lambda n, k, d: ((d,), (d,)),
}


@st.composite
def point_pairs(draw):
    d = draw(st.integers(1, 9))
    sp = Space(d, periodic=draw(st.booleans()))
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    p_shape, q_shape = SHAPES[draw(st.sampled_from(sorted(SHAPES)))](n, k, d)
    p = draw(hnp.arrays(float, p_shape, elements=COORDS))
    q = draw(hnp.arrays(float, q_shape, elements=COORDS))
    return sp, p, q


@settings(deadline=None, max_examples=300)
@given(case=point_pairs())
def test_displacement_and_dist_equal_the_written_out_formulas(case):
    sp, p, q = case
    v = ref_displacement(sp, p, q)
    assert np.array_equal(sp.displacement(p, q), v)
    assert np.array_equal(sp.dist(p, q), ref_norms(v))
    assert np.array_equal(_norms(v), ref_norms(v))


@settings(deadline=None, max_examples=300)
@given(case=point_pairs())
def test_torus_displacement_is_shortest_and_consistent(case):
    sp, p, q = case
    sp = Space(sp.dim)
    v = sp.displacement(p, q)
    assert np.all((v > -0.5) & (v <= 0.5))
    dist = sp.dist(p, q)
    assert np.all((dist >= 0.0) & (dist <= sp.diameter()))
    p, q = sp.normalize(p), sp.normalize(q)
    back = sp.dist(sp.normalize(p + sp.displacement(p, q)), q)
    assert np.all(back <= 1e-15)


@settings(deadline=None, max_examples=200)
@given(v=hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=3, max_side=9),
                    elements=COORDS),
       layout=st.sampled_from(["C", "F", "strided"]))
def test_norms_equal_the_sum_of_squares_in_any_layout(v, layout):
    if layout == "F":
        v = np.asfortranarray(v)
    elif layout == "strided":
        v = np.repeat(v, 2, axis=-1)[..., ::2]
    assert np.array_equal(_norms(v), ref_norms(v))


@given(value=st.one_of(st.floats(), st.integers()),
       least=st.one_of(st.none(), st.integers(-3, 3),
                       st.floats(allow_nan=False, allow_infinity=False)))
@example(value=float("inf"), least=None)
@example(value=float("-inf"), least=0)
@example(value=float("nan"), least=0)
@example(value=0.0, least=None)
@example(value=0.0, least=0)
@example(value=10 ** 400, least=1)
def test_check_real_accepts_exactly_the_finite_values_past_the_bound(value, least):
    finite = isinstance(value, int) or np.isfinite(value)
    if finite and (value > 0 if least is None else value >= least):
        assert _check_real("x", value, least) is value
    else:
        with pytest.raises(ValueError, match="^x must be (positive|>= .*|finite), got "):
            _check_real("x", value, least)
