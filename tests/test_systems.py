import numpy as np
import pytest

from ifsshadow import (MetricGrid, Space, SymbolSequence, fd_jacobian, iterate_chain,
                       lipschitz_estimate)
from ifsshadow.systems import (CATALOG, CAT_MATRIX, build_bumped_cat_ifs,
                               build_cat_ifs, build_contraction_ifs,
                               build_identity_ifs, build_rotation_ifs,
                               build_system, build_torus_example)


def test_catalog_self_check_failure_is_a_value_error():
    # x -> 1e-12 x + o loses x in rounding, so the inverse misses it
    with pytest.raises(ValueError, match="round-trip failure for 'contraction_1'"):
        build_system("contraction:1e-12")


def test_cat_eigenvalues():
    w = np.linalg.eigvals(CAT_MATRIX.astype(float))
    expect = sorted([(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2])
    assert sorted(w) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("shape", [(4,), (1000, 4), (3, 7, 4)])
def test_torus_maps_match_docstring_formulas(shape):
    p = np.random.default_rng(len(shape)).uniform(-1.0, 2.0, size=shape)
    two_pi = 2 * np.pi
    for m, sign in zip(build_torus_example().maps, (1.0, -1.0)):
        x, y, u, v = (p[..., i] for i in range(4))
        cf = np.cos(np.pi * (u + sign * v)) ** 2 * np.sin(two_pi * x) / two_pi
        expect = np.stack([2 * x - cf + y, x - cf + y, 2 * u + v, u + v], axis=-1)
        assert np.array_equal(m.fwd(p), expect)
        X, Y, U, V = (p[..., i] for i in range(4))
        u, v, x = U - V, -U + 2 * V, X - Y
        y = Y - x + np.cos(np.pi * (u + sign * v)) ** 2 * np.sin(two_pi * x) / two_pi
        assert np.array_equal(m.inv(p), np.stack([x, y, u, v], axis=-1))


def test_torus_inverse_matches_the_formula_bit_for_bit():
    # the written-in-place inverse against the docstring formula on fresh
    # arrays; a single point takes numpy's scalar ** 2 (a pow) in both
    two_pi = 2 * np.pi
    rng = np.random.default_rng(7)
    points = [rng.uniform(-1.0, 2.0, size=(2000, 4)), np.zeros((3, 4)),
              np.full((3, 4), 5e-324), rng.uniform(0.0, 1e-300, size=(50, 4)) * 1e-10,
              rng.random(4), np.array([-0.0, 0.0, -0.0, 5e-324])]
    for m, sign in zip(build_torus_example().maps, (1.0, -1.0)):
        for p in points:
            X, Y, U, V = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
            u, v, x = U - V, -U + 2 * V, X - Y
            y = Y - x + np.cos(np.pi * (u + sign * v)) ** 2 * np.sin(two_pi * x) / two_pi
            expect = np.empty(p.shape)
            for j, col in enumerate((x, y, u, v)):
                expect[..., j] = col
            assert np.array_equal(m.inv(p).view(np.uint64), expect.view(np.uint64))


def reference_torus_jacobian(p, sign):
    """The torus Jacobian entry by entry on a zero-filled array."""
    two_pi = 2 * np.pi
    x, u, v = p[..., 0], p[..., 2], p[..., 3]
    c = np.cos(np.pi * (u + sign * v)) ** 2
    cu = -np.pi * np.sin(two_pi * (u + sign * v))
    cv = sign * cu
    fx = np.sin(two_pi * x) / two_pi
    dfx = np.cos(two_pi * x)
    J = np.zeros(p.shape[:-1] + (4, 4))
    J[..., 0, 0] = 2 - c * dfx
    J[..., 0, 1] = 1
    J[..., 0, 2] = -cu * fx
    J[..., 0, 3] = -cv * fx
    J[..., 1, 0] = 1 - c * dfx
    J[..., 1, 1] = 1
    J[..., 1, 2] = -cu * fx
    J[..., 1, 3] = -cv * fx
    J[..., 2, 2] = 2
    J[..., 2, 3] = 1
    J[..., 3, 2] = 1
    J[..., 3, 3] = 1
    return J


def test_torus_jacobian_matches_the_formula_bit_for_bit():
    rng = np.random.default_rng(11)
    points = [rng.uniform(-1.0, 2.0, size=(2000, 4)), np.zeros((3, 4)),
              rng.random((3, 5, 4)), rng.random(4),
              np.array([-0.0, 0.0, -0.0, 5e-324]), MetricGrid(Space(4), 8).points]
    for m, sign in zip(build_torus_example().maps, (1.0, -1.0)):
        for p in points:
            got = m.jacobian(p)
            assert got.shape == p.shape + (4,)
            assert np.array_equal(got.view(np.uint64),
                                  reference_torus_jacobian(p, sign).view(np.uint64))


def test_torus_family_fixed_point_and_collapse():
    T = build_torus_example()
    F1 = T.maps[0]
    assert np.allclose(F1(np.zeros(4)), np.zeros(4))
    # c(0.25, 0.25) = cos^2(pi/2) = 0 collapses F1 to the linear skew form
    from ifsshadow import Space
    rng = np.random.default_rng(0)
    xy = rng.random((100, 2))
    p = np.concatenate([xy, np.tile([0.25, 0.25], (100, 1))], axis=1)
    img = F1(p)
    linear = np.stack([
        (2 * xy[:, 0] + xy[:, 1]) % 1.0,
        (xy[:, 0] + xy[:, 1]) % 1.0,
    ], axis=-1)
    assert np.max(Space(2).dist(img[:, :2], linear)) <= 1e-12


def test_torus_family_coupling_range_on_grid():
    # 0 < c <= 1 on the verification grid (float cos(pi/2) is not exactly 0)
    axis = np.arange(24) / 24.0
    u, v = np.meshgrid(axis, axis, indexing="ij")
    for sign in (+1.0, -1.0):
        c = np.cos(np.pi * (u + sign * v)) ** 2
        assert np.all(c > 0.0)
        assert np.all(c <= 1.0)


def test_torus_family_inverse_roundtrip_bulk():
    T = build_torus_example()
    rng = np.random.default_rng(1)
    X = rng.random((10000, 4))
    for m in T.maps:
        assert np.max(T.space.dist(m.invert(m(X)), X)) <= 1e-10
        assert np.max(T.space.dist(m(m.invert(X)), X)) <= 1e-10


def test_catalog_roundtrip_invariant_bulk():
    rng = np.random.default_rng(2)
    for name in ("cat", "torus_F1", "torus_F2", "rotation:0.1",
                 "contraction:0.5", "identity:2", "cat_bumped:1e-3"):
        F = build_system(name)
        X = F.space.uniform(rng, 10000)
        for m in F.maps:
            assert np.max(F.space.dist(m.invert(m(X)), X)) <= 1e-10


def test_catalog_jacobian_consistency_invariant():
    rng = np.random.default_rng(2)
    for name in ("cat", "torus_F1", "torus_F2"):
        F = build_system(name)
        X = rng.random((1000, F.space.dim))
        for m in F.maps:
            assert np.max(np.abs(m.jacobian(X) - fd_jacobian(m, X))) <= 1e-4


def test_contraction_lipschitz_estimate():
    F = build_contraction_ifs(0.5, [0.0, 0.5])
    for m in F.maps:
        # jacobian part is exactly q; sampled pair ratios add float noise
        assert lipschitz_estimate(m) == pytest.approx(0.5, abs=1e-8)


def test_contraction_rejects_bad_factor():
    with pytest.raises(ValueError):
        build_contraction_ifs(1.0)
    with pytest.raises(ValueError):
        build_contraction_ifs(-0.1)


def test_contraction_default_offsets_keep_the_unit_interval():
    # x -> 0.8 x + o maps [0, 1] into itself only for o <= 0.2; the library
    # default and the catalog spec share the offsets (0, 1 - q)
    F = build_contraction_ifs(0.8)
    chain = iterate_chain(F, SymbolSequence.constant(1), [1.0], 20)
    assert np.all((chain.points >= 0.0) & (chain.points <= 1.0))
    X = np.linspace(0.0, 1.0, 11)[:, None]
    for m, n in zip(F.maps, build_system("contraction:0.8").maps, strict=True):
        assert np.array_equal(m(X), n(X))
    for m, n in zip(build_contraction_ifs(0.5).maps,
                    build_contraction_ifs(0.5, (0.0, 0.5)).maps, strict=True):
        assert np.array_equal(m(X), n(X))


@pytest.mark.parametrize("offsets", [(-0.1,), (0.0, 0.6), (0.0, float("nan"))])
def test_contraction_rejects_offsets_leaving_the_unit_interval(offsets):
    with pytest.raises(ValueError, match="offset"):
        build_contraction_ifs(0.5, offsets)
    with pytest.raises(ValueError, match="offset"):
        build_system("contraction:0.5," + ",".join(map(str, offsets)))


def test_rotation_preserves_distances():
    R = build_rotation_ifs([0.1])
    rng = np.random.default_rng(3)
    X, Y = rng.random((2, 5000, 1))
    assert np.allclose(R.space.dist(R.maps[0](X), R.maps[0](Y)),
                       R.space.dist(X, Y))


def test_identity_ifs():
    I = build_identity_ifs(3)
    X = np.random.default_rng(4).random((10, 3))
    assert np.array_equal(I.maps[0](X), X)


def test_bumped_cat_distance_scale():
    from ifsshadow import MetricGrid, dist_D0
    C = build_cat_ifs()
    G = build_bumped_cat_ifs(1e-3)
    d0 = dist_D0(C, G, MetricGrid(C.space, 64), mode="matched")
    assert 1e-4 < d0 <= 1e-3


def test_build_system_parsing():
    assert len(build_system("contraction:0.5")) == 2
    assert len(build_system("contraction:0.5,0.0,0.25,0.5")) == 3
    assert len(build_system("rotation:0.1,0.3")) == 2
    assert build_system("identity:4").space.dim == 4
    assert build_system("torus_example").space.dim == 4
    with pytest.raises(KeyError):
        build_system("lorenz")
    with pytest.raises(ValueError):
        build_system("cat:3")
    with pytest.raises(ValueError):
        build_system("contraction")


def test_catalog_docs_present():
    for entry in CATALOG.values():
        assert entry.doc
