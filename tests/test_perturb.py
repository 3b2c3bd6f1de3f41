import contextlib
import dataclasses
import hashlib
import re
import struct
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from ifsshadow import (CoverageError, InversionError, MetricGrid, SmoothMap,
                       Space, SupportError, SymbolSequence, adjusted_points,
                       ball_sample, build_semiconj, bump_profile,
                       bump_profile_deriv, check_ball_cover, dist_D0,
                       gen_pseudo_orbit, identity_map, iterate_chain,
                       lattice_samples, make_ifs, move_points_diffeo,
                       perturbed_ifs, rho0, semiconj_residual, shadow_newton,
                       validate_chain)
from ifsshadow import maps, perturb, shadowing
from ifsshadow.core import IFS, ChainRecord
from ifsshadow.maps import affine_map, compose
from ifsshadow.perturb import (MAX_ABS_PROFILE_DERIV, _nearest_samples,
                               _orbit_window)
from ifsshadow.shadowing import ShadowingConvergenceError
from ifsshadow.systems import (CAT_MATRIX, build_bumped_cat_ifs, build_cat_ifs,
                               build_contraction_ifs, build_system,
                               build_rotation_ifs, build_torus_example,
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
    with pytest.raises(ValueError, match="explicit space"):
        move_points_diffeo([], 0.01)


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


@pytest.mark.parametrize("pairs, message", [
    # a NaN centre moved no point, and an infinite target gave a NaN
    # displacement; both passed every distance check
    ([([np.nan, 0.5], [0.3, 0.5])], "sources must be finite, got point 0 = [nan, 0.5]"),
    ([([0.2, 0.5], [np.inf, 0.5])], "targets must be finite, got point 0 = [inf, 0.5]"),
    ([([0.2, 0.5], [0.21, 0.5]), ([0.6, 0.5], [0.6, -np.inf])],
     "targets must be finite, got point 1 = [0.6, -inf]"),
], ids=["nan-source", "inf-target", "minus-inf-target"])
@pytest.mark.parametrize("periodic", [True, False])
def test_non_finite_pairs_rejected(pairs, message, periodic):
    pairs = [(np.array(p), np.array(q)) for p, q in pairs]
    with pytest.raises(ValueError, match=re.escape(message)):
        move_points_diffeo(pairs, 0.02, space=Space(2, periodic))


@pytest.mark.parametrize("delta", [np.nan, 0.0, -0.01])
def test_nonpositive_or_nan_delta_rejected(delta):
    # NaN passes the displacement check, and an empty pair list skips it
    p, q = np.array([0.3, 0.3]), np.array([0.31, 0.3])
    for pairs in ([(p, q)], []):
        with pytest.raises(ValueError, match=f"delta must be positive, got {delta}"):
            move_points_diffeo(pairs, delta, space=SP2)


@pytest.mark.parametrize("R", [np.nan, 0.0, -0.1])
def test_nonpositive_or_nan_support_radius_rejected(R):
    # NaN passes both support checks, and a nonpositive radius is no support
    p, q = np.array([0.3, 0.3]), np.array([0.31, 0.3])
    for pairs in ([(p, q)], [(p, q), (q + 0.2, q + 0.21)]):
        with pytest.raises(ValueError, match=f"support_radius must be positive, got {R}"):
            move_points_diffeo(pairs, 0.02, space=SP2, support_radius=R)


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


def test_bump_inverse_raises_when_unconverged(monkeypatch):
    # |d| * max|profile'| / R = 0.999: g'(t) falls to about 1e-3 where
    # |w - t d| / R is near 0.76, and an unguarded Newton step overshoots
    # there; the bracketed solve still inverts
    p, d = np.array([0.5, 0.5]), 0.01
    R = d * MAX_ABS_PROFILE_DERIV / 0.999
    f = move_points_diffeo([(p, p + [d, 0.0])], 0.02, support_radius=R)
    t = np.linspace(-0.95, 0.95, 39)
    X = p + np.stack([t * R, np.zeros_like(t)], axis=-1)
    assert np.max(SP2.dist(f.invert(f(X)), X)) <= 1e-12
    g = move_points_diffeo([(p, p + [d, 0.0])], 0.02)
    assert np.max(SP2.dist(g.invert(g(X)), X)) <= 1e-12
    # two steps are too few for the points inside the support; the point
    # outside it is its own preimage
    X = np.concatenate([X, [[0.1, 0.1]]])
    monkeypatch.setattr(maps, "INVERSE_MAX_ITER", 2)
    with pytest.raises(InversionError, match=r"\d+ points still moving after 2 steps") as exc:
        f.invert(f(X))
    # the error carries the last iterate; points that left the loop are
    # inverted, and the residual is the largest over those still moving
    res = SP2.dist(f(exc.value.best), f(X))
    assert exc.value.best.shape == X.shape and np.any(res <= 1e-12)
    assert np.isfinite(exc.value.residual) and exc.value.residual == np.max(res) > 1e-12


def test_bump_inverse_of_nan_raises():
    # a NaN step keeps its point moving, so NaN cannot leave the loop unnoticed
    f = move_points_diffeo([(np.array([0.5, 0.5]), np.array([0.51, 0.5]))], 0.02)
    with pytest.raises(InversionError, match="1 points still moving") as exc:
        f.invert(np.array([[0.2, 0.3], [np.nan, 0.5]]))
    assert np.array_equal(exc.value.best[0], [0.2, 0.3])


def test_inverse_lipschitz_estimate_without_jacobian_samples_pair_ratios(monkeypatch):
    cat = CAT.maps[0]
    m = SmoothMap("cat_no_jac", cat.space, cat.fwd, inv=cat.inv)
    # the sampled pair ratios of the inverse on the fixed seed-0 sample, written out
    rng = np.random.default_rng(0)
    X = m.space.uniform(rng, 512)
    Y = m.space.normalize(X + ball_sample(rng, 512, m.space.dim, 1e-3))
    dxy = m.space.dist(X, Y)
    ok = dxy > 0
    expected = float(np.max(m.space.dist(m.invert(X[ok]), m.invert(Y[ok])) / dxy[ok]))
    assert perturb.inverse_lipschitz_estimate(m) == expected
    # the inverse of the cat map stretches by lambda_u as well
    assert expected == pytest.approx((3 + np.sqrt(5)) / 2, rel=1e-2)

    # a second call reads the map's memo and draws no sample
    def no_sampling(*args):
        raise AssertionError("the estimate was sampled twice")

    monkeypatch.setattr(perturb, "_pair_ratios", no_sampling)
    assert perturb.inverse_lipschitz_estimate(m) == expected


@pytest.mark.parametrize("build", [build_cat_ifs, build_torus_f1])
def test_lipschitz_estimates_svd_only_the_jacobians_that_decide_them(build, monkeypatch):
    # on the seed-0 sample, against an SVD of all 512 Jacobians
    m = build().maps[0]
    J = m.jacobian(m.space.uniform(np.random.default_rng(0), 512))
    svals = np.linalg.svd(J, compute_uv=False)
    counts, svd = [], np.linalg.svd

    def counting(M, *args, **kwargs):
        counts.append(int(np.prod(np.shape(M)[:-2])))
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert shadowing.lipschitz_estimate(m) >= float(np.max(svals[:, 0]))
    assert perturb.inverse_lipschitz_estimate(m) == 1.0 / float(np.min(svals[:, -1]))
    if build is build_cat_ifs:
        # the 512 Jacobians of the cat map are equal bit for bit: one SVD each
        assert counts == [1, 1]
    else:
        # the Frobenius screen keeps 193 for the largest singular value; the
        # smallest one has no such bound, so the inverse takes all 512
        assert sum(counts[:-1]) < 512 // 2 and counts[-1] == 512


def test_inverse_lipschitz_estimate_is_a_property_of_the_map():
    # the Jacobian estimates on the seed-0 sample: lambda_u on the cat map
    assert perturb.inverse_lipschitz_estimate(build_cat_ifs().maps[0]) == 2.618033988749896
    F = build_torus_f1()
    assert perturb.inverse_lipschitz_estimate(F.maps[0]) == 3.848515115944892
    # so the admissible slack delta(Delta) of perturbed_ifs no longer depends
    # on its seed (the estimates of seeds 1 and 2 read 3.8642 and 3.8611); m = 0
    # composes no member, so the 24^4 check grid is never filled
    chain = gen_pseudo_orbit(F, SIG0, np.full(4, 0.3), 1e-6, 10, seed=0)
    delta_max = {perturbed_ifs(F, chain, m=0, Delta=0.05, seed=s).delta_max
                 for s in (0, 1, 2)}
    assert delta_max == {0.95 * 0.05 / 3.848515115944892 / 6.0}


# dense reference: every point against every center, summed by einsum
def dense_terms(f, x):
    v = x[..., None, :] - f.centers                 # from every center to x
    if f.space.periodic:
        v = v - np.floor(v)
        v = np.where(v > 0.5, v - 1.0, v)
    return v, np.sqrt(np.sum(v * v, axis=-1))


def dense_perturbation(f, x):
    if not len(f.centers):
        return np.zeros_like(x)
    _, dist = dense_terms(f, x)
    w = bump_profile(dist / f.support_radius)
    return np.einsum("...i,id->...d", w, f.displacements)


def dense_jacobian(f, x):
    d = f.space.dim
    J = np.broadcast_to(np.eye(d), x.shape[:-1] + (d, d)).copy()
    if not len(f.centers):
        return J
    v, dist = dense_terms(f, x)
    R = f.support_radius
    coef = np.zeros_like(dist)
    pos = dist > 0.0
    coef[pos] = bump_profile_deriv(dist[pos] / R) / (R * dist[pos])
    return J + np.einsum("ia,...ib->...ab", f.displacements, coef[..., None] * v)


def dense_invert(f, p):
    sp = f.space
    z = sp.normalize(p.copy())
    active = np.arange(len(p))
    for _ in range(120):
        z_next = sp.normalize(p[active] - dense_perturbation(f, z[active]))
        step = sp.dist(z_next, z[active])
        z[active] = z_next
        active = active[step > 1e-13]
        if not active.size:
            return z
    raise AssertionError("dense reference inverse did not converge")


def random_pair_set(k, seed, space=SP2, support_radius=None, centers=None,
                    far=False):
    """k pairs with random sources (or the given centers) and targets moved by
    a fraction of the largest displacement the supports allow.  A
    support_radius of "tight" is just under half the least separation of the
    sources and of the targets, so neighbouring supports nearly touch."""
    rng = np.random.default_rng(seed)
    d = space.dim
    P = rng.random((k, d)) if centers is None else np.array(centers, dtype=float)
    iu = np.triu_indices(k, 1)
    if k >= 2:
        sep = np.min(space.dist(P[:, None, :], P[None, :, :])[iu])
        R = 0.4 * sep if support_radius in (None, "tight") else support_radius
    else:
        R = 0.2 if support_radius is None else support_radius
    size = 0.3 * R / MAX_ABS_PROFILE_DERIV
    Q = space.normalize(P + ball_sample(rng, k, d, size))
    if support_radius == "tight":
        sep = min(np.min(space.dist(A[:, None, :], A[None, :, :])[iu]) for A in (P, Q))
        support_radius = 0.5 * sep * (1 - 1e-12)
    pairs = list(zip(P, Q))
    f = move_points_diffeo(pairs, 2.0 * size, space=space,
                           support_radius=support_radius)
    # points on, just inside and just outside each support boundary, at the
    # sources and targets, uniform, and outside the unit cube
    if d == 2:
        ang = rng.random(64) * 2 * np.pi
        ring = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    else:
        ring = rng.standard_normal((64, d))
        ring /= np.linalg.norm(ring, axis=-1, keepdims=True)
    R = f.support_radius
    X = [rng.random((3000, d)), rng.uniform(-2.0, 3.0, (500, d)), P, Q]
    for c in P:
        for scale in (R, R * (1 - 1e-12), R * (1 - 1e-9), R * (1 + 1e-12), 0.5 * R):
            X.append(c + scale * ring)
    if far:
        # periodic images of the points at and around the supports out to
        # 2^50 (1e300 on the torus): there the displacement from a centre
        # rounds by more than the support boxes' slack
        near = np.concatenate(X[2:])
        shifts = [2.0 ** 19, 2.0 ** 21, 1e7, 2.0 ** 40, 2.0 ** 50] + [1e300] * space.periodic
        X += [near + s for s in shifts] + [near[:, ::-1] - 2.0 ** 30]
    return f, np.concatenate(X)


@dataclass(frozen=True)
class PairSet:
    k: int
    seed: int
    support_radius: float | str | None = None
    dim: int = 2
    centers: tuple | None = None
    far: bool = False


#: centres within R of the seams: the first box crosses x = 0, the second
#: y = 1, the third both (x = 1 and y = 0)
SEAM_CENTERS = ((0.02, 0.5), (0.5, 0.98), (0.97, 0.03), (0.5, 0.2))

PAIR_SETS = ([pytest.param(PairSet(k, seed), id=f"{k}-{seed}-None")
              for k in range(6) for seed in (1, 2)]
             + [pytest.param(PairSet(3, 7, 0.05), id="3-7-0.05"),
                pytest.param(PairSet(4, 3, centers=SEAM_CENTERS), id="seams"),
                pytest.param(PairSet(5, 4, dim=4), id="d4"),
                # the boxes of the nearest supports overlap
                pytest.param(PairSet(5, 1, "tight"), id="tight"),
                pytest.param(PairSet(4, 5, "tight", dim=4,
                                     centers=[c + c[::-1] for c in SEAM_CENTERS]),
                             id="d4-seams-tight"),
                pytest.param(PairSet(3, 1, "tight", far=True), id="far-images")])


@pytest.mark.parametrize("case", PAIR_SETS)
@pytest.mark.parametrize("periodic", [True, False])
def test_bump_equals_the_dense_all_centers_formulas(case, periodic):
    d = case.dim
    sp = Space(d, periodic=periodic)
    f, X = random_pair_set(case.k, case.seed, sp, case.support_radius, case.centers,
                           case.far)
    assert len(f.centers) == case.k
    fwd = X + dense_perturbation(f, X)
    assert np.array_equal(f.fwd(X), fwd)
    assert np.array_equal(f(X), sp.normalize(fwd))
    assert np.array_equal(f.jacobian(X), dense_jacobian(f, X))
    Y = f(X)
    Z = f.invert(Y)
    # the scalar Newton solve lands closer to the preimage than the dense
    # fixed point, which stops on a step of 1e-13
    assert np.max(sp.dist(f(Z), Y)) <= 1e-15
    assert np.max(sp.dist(Z, dense_invert(f, Y))) <= 1e-13
    # leading axes: a (2, n, d) stack and a single point
    X2 = X[: 2 * (len(X) // 2)].reshape(2, -1, d)
    assert np.array_equal(f(X2), f(X2.reshape(-1, d)).reshape(X2.shape))
    assert np.array_equal(f.jacobian(X2),
                          f.jacobian(X2.reshape(-1, d)).reshape(X2.shape + (d,)))
    assert np.array_equal(f.invert(Y[:2].reshape(1, 2, d)), f.invert(Y[:2])[None])
    assert np.array_equal(f(X[0]), f(X[:1])[0])
    assert np.array_equal(f.jacobian(X[0]), f.jacobian(X[:1])[0])


def bump_inverse_case(k, periodic, d):
    """A bump of k pairs in d dimensions with the default support radius, and
    rows to invert: in and around each support, uniform in [-1, 2)^d, and the
    first of them shifted by whole periods out of [0, 1)."""
    sp = Space(d, periodic=periodic)
    rng = np.random.default_rng(100 * k + 10 * d + periodic)
    P = rng.random((k, d))
    sep = np.min(sp.dist(P[:, None, :], P[None, :, :])[np.triu_indices(k, 1)],
                 initial=0.5)
    size = 0.04 * sep / MAX_ABS_PROFILE_DERIV
    Q = sp.normalize(P + ball_sample(rng, k, d, size))
    f = move_points_diffeo(list(zip(P, Q)), 2.0 * size, space=sp)
    R = f.support_radius
    near = np.concatenate([P, Q, *(q + ball_sample(rng, 200, d, 1.1 * R) for q in Q)])
    rows = np.concatenate([near, rng.uniform(-1.0, 2.0, (500, d)), near + 1.0,
                           near - 2.0])
    return f, rows


@pytest.mark.parametrize("k, periodic, d, digest", [
    # digests of f.invert(rows) from before each support's rows were found by
    # a box test
    (1, True, 2,
     "3c390d6125f02d0a4f6a8a3a8064eb81bf538475ad374e416d0782fe60f6a561"),
    (1, True, 4,
     "62ca8a5c4c600236708f80823cf349e4fdbf86b57d2abe92bc70ba6a9d465b13"),
    (1, False, 2,
     "27a855b690299fa9b735281f3513304385effc83de5de52ada95c2c682988d88"),
    (1, False, 4,
     "e5d1df432d4d884c6339453d197ebbf8c2b54ceefa3807f58822b5e55c6cadf7"),
    (5, True, 2,
     "8bffa0d838a10346291d3a22889436f7cf4ff7aa9199afbb76e362a9be41744d"),
    (5, True, 4,
     "6ebd7c8006d6069d37f5589520fee6a91f2fed460e7c8d9f73b0fc1cde5c6be0"),
    (5, False, 2,
     "a1fc3e64b10512e941e541829b433ceaee3c47e3dd680a764f44d1d6c04c37ec"),
    (5, False, 4,
     "1b335ceed13bc3a8625c527e40ba69c7857bd939cc8eecf91259571e29d137b0"),
])
def test_bump_inverse_bits_are_pinned(k, periodic, d, digest):
    f, rows = bump_inverse_case(k, periodic, d)
    Z = f.invert(rows)
    assert np.max(f.space.dist(f(Z), rows)) <= 1e-15
    assert hashlib.sha256(Z.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bump_non_finite_rows(periodic, bad):
    sp = Space(2, periodic=periodic)
    f = move_points_diffeo([(np.array([0.5, 0.5]), np.array([0.51, 0.5]))], 0.02,
                           space=sp)
    good = np.array([[0.2, 0.3], [0.505, 0.5]])
    X = np.concatenate([good, [[bad, 0.5], [0.5, bad]]])
    # inf - floor(inf) is NaN: the torus reduction warns as it always has
    warns = (pytest.warns(RuntimeWarning, match="invalid value encountered in subtract")
             if periodic and np.isinf(bad) else contextlib.nullcontext())
    with warns:
        fwd, J = f.fwd(X), f.jacobian(X)
    # a non-finite row passes through the perturbation: it is in no support
    assert np.array_equal(fwd, np.concatenate([f.fwd(good), X[2:]]), equal_nan=True)
    assert np.array_equal(J[2:], np.broadcast_to(np.eye(2), (2, 2, 2)))
    assert np.array_equal(J[:2], f.jacobian(good))
    # and makes the inverse raise; the finite rows are inverted in its best
    warns = (pytest.warns(RuntimeWarning, match="invalid value encountered in subtract")
             if np.isinf(bad) else contextlib.nullcontext())
    with warns, pytest.raises(InversionError, match="2 points still moving") as exc:
        f.invert(X)
    assert np.array_equal(exc.value.best[:2], f.invert(good))


@settings(deadline=None, max_examples=60)
@given(ratios=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=5),
       periodic=st.booleans(), seed=st.integers(0, 2**16))
def test_bump_inverse_round_trips(ratios, periodic, seed):
    # k <= 5 centers in distinct cells of a 3 x 2 grid, 0.31 or more apart;
    # bump i moves its center by ratios[i] * R / max|profile'|
    sp = Space(2, periodic=periodic)
    rng = np.random.default_rng(seed)
    k, R = len(ratios), 0.08
    cells = rng.permutation(6)[:k]
    P = np.stack([(cells % 3 + 0.5) / 3, (cells // 3 + 0.5) / 2], axis=-1)
    P += rng.uniform(-0.01, 0.01, P.shape)
    ang = rng.random(k) * 2 * np.pi
    size = np.asarray(ratios) * R / MAX_ABS_PROFILE_DERIV
    Q = sp.normalize(P + size[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1))
    f = move_points_diffeo(list(zip(P, Q)), 0.1, space=sp, support_radius=R)
    # the centers (s = 0, where |w - t D| has no derivative in t), the targets,
    # points on and within 1e-12 of each support boundary, and uniform points
    ang = rng.random(16) * 2 * np.pi
    ring = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    X = [P, Q, rng.random((400, 2))]
    for scale in (R, R * (1 - 1e-12), R * (1 + 1e-12)):
        X.append((P[:, None, :] + scale * ring).reshape(-1, 2))
    X = sp.normalize(np.concatenate(X))
    assert np.max(sp.dist(f(f.invert(X)), X)) <= 1e-15
    assert np.max(sp.dist(f.invert(f(X)), X)) <= 1e-12


# --- adjusted points --------------------------------------------------------

@dataclass(frozen=True)
class AdjustedConditions:
    max_point_dist: float     # max_k dist(x_k, y_k)
    max_link_residual: float  # max_k dist(y_{k+1}, f_{sigma(k)}(y_k))
    distinct: bool


def adjusted_conditions(F: IFS, chain: ChainRecord, ys: np.ndarray,
                        ) -> AdjustedConditions:
    """Reference: the three adjusted-point conditions for a candidate set."""
    m = ys.shape[0] - 1
    adj = ChainRecord(ys, chain.sigma, delta=0.0)
    max_res = validate_chain(F, adj).max_residual
    dist = float(np.max(F.space.dist(chain.points[: m + 1], ys)))
    equal = np.all(ys[:, None, :] == ys[None, :, :], axis=-1)
    distinct = not np.any(np.triu(equal, 1))
    return AdjustedConditions(dist, max_res, distinct)


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
    chain = chain.__class__(pts, SIG0, 1e-4)
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
    with pytest.raises(ValueError, match="eta must be positive, got nan"):
        adjusted_points(CAT, chain, 3, eta=np.nan)


@pytest.mark.parametrize("m, message", [
    # 2.5 used to end in a TypeError, and True in numpy's "all the input
    # arrays must have same number of dimensions"
    (2.5, "m must be an integer, got 2.5"),
    (True, "m must be an integer, got True"),
    (-1, "m must be >= 0, got -1"),
    (6, "m = 6 outside the chain window of 6 points"),
])
def test_a_window_index_that_is_not_a_count_is_rejected(m, message):
    chain = iterate_chain(CAT, SIG0, [0.1, 0.9], 5)
    for call in (lambda: adjusted_points(CAT, chain, m, eta=0.01),
                 lambda: perturbed_ifs(CAT, chain, m=m, Delta=0.05)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


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


def test_perturbed_ifs_two_map_family_members():
    sp = Space(2, periodic=False)
    F = make_ifs([affine_map(sp, 0.5 * np.eye(2), [0.0, 0.0], "c0"),
                  affine_map(sp, 0.5 * np.eye(2), [0.5, 0.5], "c1")])
    sig = SymbolSequence.periodic([0, 1, 1])
    exact = iterate_chain(F, sig, [0.3, 0.4], 12)
    pts = exact.points.copy()
    pts[3] += [1e-4, -5e-5]              # only links 2 and 3 need a bump
    chain = ChainRecord(pts, sig, 0.0)
    m = 6
    res = perturbed_ifs(F, chain, m=m, Delta=0.02, seed=1)
    labels = [g.label for g in res.gs.maps]
    assert labels == [f"g{k}_{lam}" if k in (2, 3) else f"c{lam}"
                      for k in range(m + 1) for lam in (0, 1)]
    assert res.pairing == (0, 1) * (m + 1)
    assert res.grid_resolution == 64
    grid = MetricGrid(sp, res.grid_resolution)
    composed = [rho0(g, F.maps[lam], grid) for g, lam in zip(res.gs.maps, res.pairing)
                if g.label.startswith("g")]
    assert len(composed) == 4 and res.matched_d0 == max(composed) > 0.0


def test_perturbed_ifs_matched_distance_guard_names_the_pair(monkeypatch):
    monkeypatch.setattr(perturb, "_rho0_gap", lambda space, forward, inverse: 0.05)
    chain = gen_pseudo_orbit(CAT, SIG0, [0.37, 0.52], 1e-3, 30, seed=17)
    with pytest.raises(RuntimeError, match=r"5\.000e-02 >= Delta for pair \(g0_0, cat\)"):
        perturbed_ifs(CAT, chain, m=10, Delta=0.05, seed=17)


def test_perturbed_ifs_default_grid_is_capped_by_the_dimension():
    # m = 0 composes no member, so the grid is named but never filled
    T = build_system("torus_example")
    chain = gen_pseudo_orbit(T, SymbolSequence.periodic([0, 1]),
                             [0.1, 0.2, 0.3, 0.4], 1e-6, 10, seed=0)
    res = perturbed_ifs(T, chain, m=0, Delta=0.05)
    assert res.grid_resolution == 24 and len(res.gs) == 2
    assert perturbed_ifs(T, chain, m=0, Delta=0.05, grid_resolution=6).grid_resolution == 6
    cat_chain = iterate_chain(CAT, SIG0, [0.1, 0.9], 5)
    assert perturbed_ifs(CAT, cat_chain, m=0, Delta=0.05).grid_resolution == 64


def test_perturbed_ifs_rejects_oversized_slack():
    chain = gen_pseudo_orbit(CAT, SIG0, [0.37, 0.52], 0.02, 30, seed=1)
    with pytest.raises(ValueError, match="slack"):
        perturbed_ifs(CAT, chain, m=10, Delta=0.05, seed=1)


@pytest.mark.parametrize("F, Delta, message", [
    (CAT, 0.0, "Delta must be positive"),
    (CAT, -0.05, "Delta must be positive"),
    (build_contraction_ifs(0.5), 0.05, "needs dim >= 2 (bump constructions)"),
    (CAT, np.nan, "Delta must be positive, got nan"),
])
def test_perturbed_ifs_rejects_config_errors(F, Delta, message):
    chain = iterate_chain(F, SIG0, np.full(F.space.dim, 0.25), 5)
    with pytest.raises(ValueError, match=re.escape(message)):
        perturbed_ifs(F, chain, m=2, Delta=Delta)


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


@contextlib.contextmanager
def tree_kinds():
    """Record, per k-d tree _nearest_samples builds, whether it is periodic."""
    kinds = []

    def tree(data, boxsize=None):
        kinds.append(boxsize is not None)
        return cKDTree(data, boxsize=boxsize)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perturb, "cKDTree", tree)
        yield kinds


# samples on the torus seam and just below it, which normalise to 0.0
edge_coord = st.one_of(coord, st.sampled_from([1.0, -1e-20, 0.5]))


@st.composite
def image_tree_cases(draw):
    """Periodic samples with repeated rows, and at least 2^d queries per
    sample, some of them at exact half-gaps q_j = s_j +- 1/2 from a sample,
    where two images of that sample are equally near."""
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(edge_coord, min_size=d, max_size=d),
                         min_size=1, max_size=6))
    samples = np.array(rows + draw(st.lists(st.sampled_from(rows), max_size=3)))
    n_queries = 2 ** d * len(samples)
    queries = np.array(draw(st.lists(st.lists(edge_coord, min_size=d, max_size=d),
                                     min_size=n_queries, max_size=n_queries)))
    for q in range(0, n_queries, 2):
        s = samples[draw(st.integers(0, len(samples) - 1))]
        gaps = np.array(draw(st.lists(st.sampled_from([-0.5, 0.0, 0.5]),
                                      min_size=d, max_size=d)))
        queries[q] = np.where(gaps != 0.0, s + gaps, queries[q])
    return Space(d), samples, queries


@settings(deadline=None, max_examples=200)
@given(case=image_tree_cases())
def test_nearest_samples_image_tree_equals_dense_argmin(case):
    space, samples, queries = case
    with tree_kinds() as kinds:
        idx, dist = _nearest_samples(space, samples, queries)
    assert kinds == [False]          # the tree over 2^d images of each sample
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
    centres = lattice[inner] + 0.5 / m              # cell centres
    # repeated until they reach 2^d per sample, the queries take the torus's
    # image tree
    for reps, periodic_tree in ((1, periodic), (-(-2 ** d * m ** d // len(centres)), False)):
        queries = np.tile(centres, (reps, 1))
        with tree_kinds() as kinds:
            idx, dist = _nearest_samples(space, samples, queries)
        assert kinds == [periodic_tree]
        for q, i, di in zip(queries, idx, dist):
            corners = np.nonzero(space.dist(q, samples) == di)[0]
            assert len(corners) >= 2 ** d
            assert i == corners.min()
        assert np.array_equal(idx, dense_nearest(space, samples, queries)[0])


def test_nearest_samples_with_repeated_samples_equal_dense_argmin():
    # half the samples sit at one point, and half the queries on it
    sp = Space(2)
    rng = np.random.default_rng(0)
    samples = rng.random((2000, 2))
    samples[1000:] = samples[1000]
    queries = rng.random((10000, 2))
    queries[5000:] = samples[1000]
    idx, dist = _nearest_samples(sp, samples, queries)
    for lo in range(0, len(queries), 1000):       # dense reference in slices
        ref_idx, ref_dist = dense_nearest(sp, samples, queries[lo: lo + 1000])
        assert np.array_equal(idx[lo: lo + 1000], ref_idx)
        assert np.array_equal(dist[lo: lo + 1000], ref_dist)
    assert np.all(idx[5000:] == 1000)


def test_nearest_samples_accepts_a_sample_normalised_to_one():
    # samples at 1.0 and -1e-20, outside [0, 1), reach the periodic tree as 0.0
    sp = Space(2)
    samples = np.vstack([[[1.0, 0.5], [-1e-20, 0.25]], lattice_samples(20, 2)])
    queries = np.array([[0.0, 0.5], [0.999, 0.51], [0.4, 0.4], [1e-3, 0.25]])
    idx, dist = _nearest_samples(sp, samples, queries)
    ref_idx, ref_dist = dense_nearest(sp, samples, queries)
    assert idx[0] == 0 and dist[0] == 0.0
    assert np.array_equal(idx, ref_idx) and np.array_equal(dist, ref_dist)


# --- semiconjugacy -----------------------------------------------------------

def test_semiconj_with_itself_is_identity():
    samples = lattice_samples(40, 2)
    # eps = 0.5 is the coverage tolerance: 40 samples are a coarse net
    sc = build_semiconj(CAT, CAT, SIG0, eps=0.5, samples=samples, K=10)
    assert sc.max_residual <= 1e-9
    assert sc.max_image_dist(CAT.space) <= 1e-9   # h is the identity on samples
    # with h = id the interpolated conjugation defect is pure coverage
    # geometry; recompute it independently from orbits and nearest samples
    conj = semiconj_residual(CAT, CAT, SIG0, sc, K=10)
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
    # the probe grid of T^2 has resolution min(64, 256)
    probes = MetricGrid(CAT.space, 64).points
    dense = CAT.space.dist(probes[:, None, :], sc.images[None, :, :])
    assert sc.image_covering_radius(CAT.space) == float(np.max(np.min(dense, axis=1)))


def test_image_covering_radius_probe_grid_follows_the_dimension(monkeypatch):
    # a two-point stand-in records each probe resolution, so no 24^4 (or
    # 64^4) probe grid is built
    seen = []

    class RecordingGrid:
        def __init__(self, space, resolution):
            seen.append((space.dim, resolution))
            self.points = np.full((2, space.dim), 0.3)

    monkeypatch.setattr(perturb, "MetricGrid", RecordingGrid)
    for dim in (2, 3, 4):
        pts = lattice_samples(8, dim)
        sc = perturb.SemiConjugacy(
            samples=pts, images=pts, epsilon=0.1, K=0, sigma=SIG0,
            residuals=np.zeros((8, 1)), chain_delta=np.zeros(8), flagged=())
        assert sc.image_covering_radius(Space(dim)) > 0
    # the capped rule of perturbed_ifs: min(64, default_resolution(dim))
    assert seen == [(2, 64), (3, 64), (4, 24)]


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


def contraction_pair():
    """Two maps of the interval and copies with their fixed points moved by
    2e-3: a contraction family for one-sided semiconjugacy tables."""
    return (build_contraction_ifs(0.5, (0.0, 0.5)),
            build_contraction_ifs(0.5, (0.002, 0.498)))


@pytest.mark.parametrize("two_sided", [True, False])
def test_semiconj_residual_reuses_the_tables_windows(monkeypatch, two_sided):
    # two-sided windows on the torus (cat), one-sided on the interval
    if two_sided:
        F, new_G = CAT, lambda: build_bumped_cat_ifs(1e-3)
        sigma, samples = SIG0, lattice_samples(200, 2)
    else:
        F, new_G = contraction_pair()[0], lambda: contraction_pair()[1]
        sigma, samples = SymbolSequence.periodic([0, 1]), np.linspace(0.0, 1.0, 100)[:, None]
    G = new_G()
    sc = build_semiconj(F, G, sigma, eps=0.5, samples=samples, K=6)
    assert sc.two_sided == two_sided
    calls = []

    def window(G, *a):
        calls.append(G)
        return _orbit_window(G, *a)
    monkeypatch.setattr(perturb, "_orbit_window", window)
    for K in (0, 1, sc.K, sc.K + 2):
        calls.clear()
        reused = semiconj_residual(F, G, sigma, sc, K=K)
        # the G-orbit windows are stepped anew only beyond the table's K
        assert any(g is G for g in calls) == (K > sc.K)
        rebuilt = semiconj_residual(F, new_G(), sigma, sc, K=K)
        assert reused == rebuilt


def test_semiconj_residual_rejects_a_negative_K():
    G = build_bumped_cat_ifs(1e-3)
    sc = build_semiconj(CAT, G, SIG0, eps=0.05, samples=lattice_samples(200, 2), K=5)
    with pytest.raises(ValueError, match=re.escape("K must be >= 0, got -1")):
        semiconj_residual(CAT, G, SIG0, sc, K=-1)


@pytest.mark.parametrize("K", [2.5, True])
def test_semiconj_K_must_be_an_integer(K):
    G = build_bumped_cat_ifs(1e-3)
    samples = lattice_samples(16, 2)
    with pytest.raises(ValueError, match=f"K must be an integer, got {K}"):
        build_semiconj(CAT, G, SIG0, eps=0.05, samples=samples, K=K)
    sc = build_semiconj(CAT, G, SIG0, eps=0.05, samples=samples, K=2)
    with pytest.raises(ValueError, match=f"K must be an integer, got {K}"):
        semiconj_residual(CAT, G, SIG0, sc, K=K)


def test_semiconj_coverage_error_on_sparse_samples():
    G = build_bumped_cat_ifs(1e-3)
    sparse = lattice_samples(10, 2)
    sc = build_semiconj(CAT, G, SIG0, eps=0.05, samples=sparse, K=5)
    with pytest.raises(CoverageError):
        semiconj_residual(CAT, G, SIG0, sc, K=5)
    # the table's eps is the coverage tolerance: a larger one accepts them
    loose = build_semiconj(CAT, G, SIG0, eps=0.5, samples=sparse, K=5)
    assert semiconj_residual(CAT, G, SIG0, loose, K=5) < 0.5


def test_semiconj_residual_rejects_a_schedule_the_table_was_not_built_on():
    T = build_torus_example()
    s01 = SymbolSequence.periodic([0, 1])
    sc = build_semiconj(T, T, s01, eps=1.0, samples=lattice_samples(6, 4), K=3)
    with pytest.raises(ValueError, match="schedule"):
        semiconj_residual(T, T, SymbolSequence.constant(1), sc, K=3)
    # equal on the table's links [-3, 3), other at link 3, which K = 4 also uses
    near = SymbolSequence((1, 0, 1, 0, 1, 0), "constant:0", k_min=-3)
    assert (semiconj_residual(T, T, near, sc, K=3)
            == semiconj_residual(T, T, s01, sc, K=3))
    with pytest.raises(ValueError, match="schedule"):
        semiconj_residual(T, T, near, sc, K=4)
    # a one-sided table (on the interval) uses no negative link
    C = contraction_pair()[0]
    one = build_semiconj(C, C, s01, eps=1.0, samples=np.linspace(0.0, 1.0, 6)[:, None],
                         K=3)
    assert not one.two_sided
    ahead = SymbolSequence((0, 1, 0), "constant:0")
    assert (semiconj_residual(C, C, ahead, one, K=3)
            == semiconj_residual(C, C, s01, one, K=3))
    with pytest.raises(ValueError, match="schedule"):
        semiconj_residual(C, C, ahead, one, K=4)


def test_semiconj_config_error_is_not_a_flagged_sample():
    shift = SmoothMap("shift", SP2, lambda x: x + 0.1, inv=lambda p: p - 0.1)
    F = make_ifs([shift])
    with pytest.raises(ValueError, match="Jacobian"):
        build_semiconj(F, F, SIG0, eps=0.05, samples=lattice_samples(8, 2), K=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_semiconj_rejects_non_finite_samples(bad):
    # a NaN sample used to end in the bump inverse's InversionError, and an
    # infinite one in a RuntimeWarning
    samples = lattice_samples(8, 2)
    samples[3, 1] = bad
    with pytest.raises(ValueError, match=re.escape(
            f"samples must be finite, got point 3 = {samples[3].tolist()}")):
        build_semiconj(CAT, build_bumped_cat_ifs(1e-3), SIG0, eps=0.05, samples=samples, K=2)


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
    sc = build_semiconj(F, G, sig, eps=eps, samples=samples, K=30)
    assert not sc.two_sided                 # windows k in [0, K] on the interval
    assert sc.max_image_dist(F.space) < eps
    assert sc.max_residual < eps


@pytest.mark.parametrize("F, G", [
    (CAT, build_bumped_cat_ifs(1e-3)), contraction_pair(),
    (build_torus_example(), build_torus_example())])
def test_semiconj_windows_follow_the_space(F, G):
    sc = build_semiconj(F, G, SIG0, eps=1.0, samples=lattice_samples(8, F.space.dim), K=2)
    assert sc.two_sided == F.space.periodic
    assert sc.windows.shape[1] == (5 if F.space.periodic else 3)


def test_semiconj_pair_on_two_spaces_is_rejected():
    # a circle rotation and an interval contraction share no metric
    C = build_contraction_ifs(0.5, (0.25,))
    R = build_rotation_ifs([0.1])
    samples = np.linspace(0.0, 1.0, 20)[:, None]
    message = re.escape("F and G must share one space, got Space(dim=1, periodic=False) "
                        "and Space(dim=1, periodic=True)")
    with pytest.raises(ValueError, match=message):
        build_semiconj(C, R, SIG0, eps=0.5, samples=samples, K=3)
    sc = build_semiconj(C, C, SIG0, eps=0.5, samples=samples, K=3)
    with pytest.raises(ValueError, match=message):
        semiconj_residual(C, R, SIG0, sc, K=3)


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
        window = ChainRecord(P[i], sigma.shift(-K))
        r = shadow_newton(F, window)
        sweeps.add(r.iterations)
        assert np.array_equal(sc.images[i], r.shadow.points[K])
        assert np.array_equal(sc.residuals[i], F.space.dist(P[i], r.shadow.points))
    assert max(sweeps) >= 1          # some windows needed Newton sweeps


def semiconj_case(name):
    """F, G, sigma, eps, samples and K of a pinned semiconjugacy table."""
    if name.startswith("cat"):
        if name == "cat_lattice":
            samples, eps = (lattice_samples(400, 2) + np.array([0.123, 0.456])) % 1.0, 0.05
        else:
            samples, eps = np.random.default_rng(3).random((400, 2)), 0.1
            samples[::40] = samples[1]          # repeated rows
        return CAT, build_bumped_cat_ifs(1e-3), SIG0, eps, samples, 20
    if name.startswith("torus_F1"):
        F = build_torus_f1()
        return F, bumped_copy(F), SIG0, 0.35, lattice_samples(256, 4), int(name[-1])
    F, G = contraction_pair()
    return (F, G, SymbolSequence.periodic([0, 1]), 0.05,
            np.linspace(0.0, 1.0, 100)[:, None], 20)


@pytest.mark.parametrize("name, digest", [
    # digests from before the nearest samples came from a tree over periodic
    # images and chain_delta from the solve's sweep 0.  The cat windows and
    # probe grids, and torus_F1's at K = 8, take the image tree; torus_F1's
    # 7 * 256 queries at K = 3 take the periodic one, the interval a plain one
    ("cat_lattice", "63cb12eb0c7d9f7d82db934a9c5212bbf0c0b6ac720bb236a4ab1242db3d262e"),
    ("cat_random", "97fa95ca622bbbbfbb1c1fc43d60ee336ae0a15e3a039c743d9db1985781dba7"),
    ("torus_F1_3", "dc1eaaf0f084d0914fbb3c57af76549d4ecd9d1d6557e1d2eba52f1cce53bb38"),
    ("torus_F1_8", "e0187084f93245fef6464ed56fb418fdb36cc221e50dc30e03c5702b074a3992"),
    ("contraction", "8d48e3ebc359c5b2b89f7e0754911cfb14704b4e78cea19791151b5e98cd36a9"),
])
def test_semiconj_bits_are_pinned(name, digest):
    F, G, sigma, eps, samples, K = semiconj_case(name)
    sc = build_semiconj(F, G, sigma, eps=eps, samples=samples, K=K)
    h = hashlib.sha256()
    for a in (sc.chain_delta, sc.images, sc.residuals):
        h.update(a.tobytes())
    h.update(repr(sc.flagged).encode())
    h.update(struct.pack("<2d", semiconj_residual(F, G, sigma, sc, K=K),
                         sc.image_covering_radius(F.space)))
    assert h.hexdigest() == digest


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
        shadow_newton(F, ChainRecord(P[flagged[0]], SIG0))
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
    G = build_bumped_cat_ifs(1e-3)
    solved = build_semiconj(CAT, G, SIG0, eps=0.05, samples=lattice_samples(40, 2), K=5)
    monkeypatch.setattr(shadowing, "_normal_solve", failing)
    sc = build_semiconj(CAT, G, SIG0, eps=0.05, samples=lattice_samples(40, 2), K=5)
    assert sc.flagged == tuple(range(40))
    assert np.all(np.isnan(sc.images)) and np.all(np.isnan(sc.residuals))
    assert sc.max_residual == np.inf and sc.max_image_dist(CAT.space) == np.inf
    # the windows' slacks need no solve
    assert np.array_equal(sc.chain_delta, solved.chain_delta)


def test_semiconj_residual_rejects_an_all_flagged_table(monkeypatch):
    def failing(jacs, rhs):
        raise np.linalg.LinAlgError("banded Cholesky failed")
    monkeypatch.setattr(shadowing, "_normal_solve", failing)
    G = build_bumped_cat_ifs(1e-3)
    sc = build_semiconj(CAT, G, SIG0, eps=0.05, samples=lattice_samples(16, 2), K=5)
    assert sc.flagged == tuple(range(16))
    with pytest.raises(ValueError, match="semiconjugacy table is empty"):
        semiconj_residual(CAT, G, SIG0, sc, K=5)


# --- ball-cover probe --------------------------------------------------------

def test_cover_tiny_radius_passes():
    F1 = build_torus_f1().maps[0]
    rep = check_ball_cover(F1, eps=0.05, delta=-0.05 + 1e-6, n_centers=50,
                           n_probes=200, seed=1)
    assert rep.passed
    assert rep.n_violations == 0


@pytest.mark.parametrize("kwargs, message", [
    (dict(n_centers=0), "at least one centre, got 0"),
    (dict(n_centers=-3), "at least one centre, got -3"),
    (dict(centers=np.empty((0, 4))), "at least one centre, got 0"),
    (dict(n_probes=0), "n_probes must be >= 1, got 0"),
    (dict(eps=0.0), "eps must be positive, got 0.0"),
    (dict(eps=-0.1, delta=0.2), "eps must be positive, got -0.1"),
    (dict(eps=np.nan), "eps must be positive, got nan"),
    (dict(delta=-0.05), "eps + delta must be positive, got 0.0"),
])
def test_cover_without_probes_is_rejected(kwargs, message):
    # an empty probe set would pass vacuously
    args = dict(Fi=build_torus_f1().maps[0], eps=0.05, delta=0.05, n_centers=20,
                n_probes=100, seed=1)
    with pytest.raises(ValueError, match=re.escape(message)):
        check_ball_cover(**{**args, **kwargs})


# the cases given an explicit id keep the name they had when the cover's
# own message, now space._finite_points's, was the id
@pytest.mark.parametrize("kwargs, message", [
    (dict(eps=np.inf), "eps must be finite, got inf"),
    (dict(delta=np.inf), "the probe radius eps + delta must be finite, got inf"),
    pytest.param(dict(centers=[[0.1, 0.2, 0.3, np.nan]]),
                 "centers must be finite, got point 0 = [0.1, 0.2, 0.3, nan]",
                 id="kwargs2-ball-cover centres must be finite"),
    pytest.param(dict(centers=[[0.1, 0.2, 0.3, 0.4], [np.inf, 0.2, 0.3, 0.4]]),
                 "centers must be finite, got point 1 = [inf, 0.2, 0.3, 0.4]",
                 id="kwargs3-ball-cover centres must be finite"),
])
def test_cover_rejects_non_finite_radii_and_centres(kwargs, message):
    # an infinite radius passed every centre, and a NaN centre was never flagged
    args = dict(Fi=build_torus_f1().maps[0], eps=0.05, delta=0.05, n_centers=10,
                n_probes=10, seed=1)
    with pytest.raises(ValueError, match=re.escape(message)):
        check_ball_cover(**{**args, **kwargs})


def test_cover_rejects_a_non_invertible_map():
    noinv = SmoothMap("noinv", SP2, lambda x: x)
    with pytest.raises(ValueError, match="map 'noinv' is not invertible"):
        check_ball_cover(noinv, eps=0.05, delta=0.05, n_centers=20, n_probes=100,
                         seed=1)


def test_cover_identity_geometry():
    idm = identity_map(SP2)
    ok = check_ball_cover(idm, eps=0.05, delta=0.0, n_centers=50,
                          n_probes=500, seed=2)
    assert ok.passed                     # B(X, eps) inside B(X, eps)
    bad = check_ball_cover(idm, eps=0.05, delta=0.05, n_centers=50,
                           n_probes=500, seed=2)
    assert (ok.n_witnessed_centers, bad.n_witnessed_centers) == (0, 50)
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
    assert d["n_witnessed_centers"] == d["n_violations"] == 20


@pytest.mark.parametrize("threads", [0, -2])
def test_cover_thread_count_below_one_is_rejected(threads):
    with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
        check_ball_cover(identity_map(SP2), 0.05, 0.0, 4, 4, seed=0, threads=threads)


@pytest.mark.parametrize("name", ["n_centers", "n_probes", "threads"])
@pytest.mark.parametrize("value", [2.5, True])
def test_cover_counts_must_be_integers(name, value):
    # 2.5 probes were echoed in the report, and 2.5 centres ended in a numpy
    # TypeError
    args = dict(Fi=build_torus_f1().maps[0], eps=0.05, delta=0.05, n_centers=2,
                n_probes=2, seed=1, threads=1)
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
        check_ball_cover(**{**args, name: value})


def _cover_bits(rep):
    """Every field of a CoverReport, arrays and floats as their bytes."""
    return (rep.passed, rep.eps, rep.delta, rep.n_centers, rep.n_probes, rep.seed,
            rep.n_violations, rep.center_flags.dtype, rep.center_flags.tobytes(),
            tuple((x.tobytes(), z.tobytes(), struct.pack("<d", dd))
                  for x, z, dd in rep.violations))


def test_cover_threads_do_not_change_result():
    # 1 and 2 centres are cut into probe ranges to give each thread a block;
    # 65 and 129 leave a short last chunk
    F1 = build_torus_f1().maps[0]
    for n_centers, delta, passed in ((1, 0.05, False), (2, 0.05, False),
                                     (65, 0.05, False), (129, 0.05, False),
                                     (129, -0.03, False), (129, -0.05 + 1e-6, True)):
        reports = [check_ball_cover(F1, 0.05, delta, n_centers, 50, seed=3,
                                    threads=threads) for threads in (1, 2, 3)]
        assert reports[0].passed == passed
        assert reports[0].center_flags.shape == (n_centers,)
        for rep in reports[1:]:
            assert _cover_bits(rep) == _cover_bits(reports[0])


def _cover_digest(rep):
    """SHA-256 of a CoverReport's flags, scalars and recorded violations."""
    h = hashlib.sha256(rep.center_flags.tobytes())
    h.update(repr((rep.passed, rep.eps, rep.delta, rep.n_centers, rep.n_probes,
                   rep.seed, rep.n_violations)).encode())
    for x, z, dd in rep.violations:
        h.update(x.tobytes() + z.tobytes() + struct.pack("<d", dd))
    return h.hexdigest()


def _probe_report(Fi, delta, n_centers, n_probes, seed, threads=1):
    """The report of the probe path alone at eps = 0.05: n_probes probes at
    each of n_centers uniform centres, all drawn from the seed's generator,
    as check_ball_cover drew them before witnesses decided centres."""
    rng = np.random.default_rng(seed)
    X = Fi.space.uniform(rng, n_centers)
    flags, total, recorded = perturb._probe_cover(Fi, X, 0.05, 0.05 + delta, n_probes,
                                                  rng, threads)
    assert [r[0] for r in recorded] == sorted(r[0] for r in recorded)
    assert all(np.array_equal(X[c], x) for c, x, _, _ in recorded)
    return perturb.CoverReport(
        passed=not flags.any(), eps=0.05, delta=delta, n_centers=n_centers,
        n_probes=n_probes, seed=seed, center_flags=flags,
        violations=tuple(r[1:] for r in recorded), n_violations=total,
        n_witnessed_centers=0)


@pytest.mark.parametrize("delta, n_centers, n_probes, seed, counts, digest", [
    # digests from before probes were shaped and checked in place
    (0.05, 130, 20, 5, (2474, 100),
     "7bd548770993e3eabf67ee56338b8d978ac1d113e706218dfbbfeaf39f853396"),
    # fewer than 100 violations in the first chunk: the records span chunks
    (-0.03, 129, 50, 3, (203, 100),
     "bab9bd31107a0d37ad77a13217996af39bb0083ca704abb7e413cba09f97bf2c"),
    # digests from whole-chunk checks, before chunks were checked in blocks
    # of at most _BLOCK_VALUES coordinates: each centre's probes cut into
    # three ranges, and into five
    (0.05, 3, 40000, 3, (113922, 100),
     "9ab355a19a19abb3dc93f1d0b8eb7c51352bcd2cae07a7bb241310695bed19b3"),
    (0.05, 1, 70000, 2, (66557, 100),
     "56f25531bd9c076ba03382c4923cf81504dc2a00d3ec2d50ac4e1b80ea4a84c0"),
    # 16 centres per block, then a short last chunk of 6
    (-0.03, 70, 1000, 5, (2093, 100),
     "6cfd8b73fb851646e057e7e92da2b01e905fc38098c5210bbd28218829c7a6a2"),
    # at most 3 centres per block: 64 centres in 22 blocks of 2 or 3, then 3
    (-0.03, 67, 5000, 11, (8611, 100),
     "8cb8a1b4a96a9fae91e2cb5156f56da61f67df095c2c5adf5d5869728a81e6fa"),
])
def test_cover_report_bits_are_pinned(delta, n_centers, n_probes, seed, counts, digest):
    # the probe path keeps the bits it had before witnesses decided centres
    F1 = build_torus_f1().maps[0]
    for threads in (1, 2, 3):
        rep = _probe_report(F1, delta, n_centers, n_probes, seed, threads)
        assert (rep.n_violations, len(rep.violations)) == counts
        assert _cover_digest(rep) == digest


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n_centers, n_probes", [(3, 40000), (70, 1000), (4, 20000)])
def test_cover_inverts_no_block_above_the_cap(threads, n_centers, n_probes):
    F1 = build_torus_f1().maps[0]
    rows = []

    def inv(p):
        rows.append(int(np.prod(p.shape[:-1])))
        return F1.inv(p)

    counted = dataclasses.replace(F1, inv=inv)
    rep = _probe_report(counted, 0.05, n_centers, n_probes, 1, threads)
    assert _cover_digest(rep) == _cover_digest(
        _probe_report(F1, 0.05, n_centers, n_probes, 1))
    assert sum(rows) == n_centers * n_probes
    assert max(rows) <= perturb._BLOCK_VALUES // 4
    assert len(rows) >= threads * -(-n_centers // 64)


@pytest.mark.parametrize("d", [1, 3, 4, 8])
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("m, n_probes", [(1, 1), (1, 5), (2, 100), (64, 100), (64, 1000),
                                         (5, 16384), (3, 40000), (1, 70000), (64, 21846)])
def test_cover_blocks_tile_the_chunk_in_order(m, n_probes, d, threads):
    cap = perturb._BLOCK_VALUES // d
    blocks = perturb._cover_blocks(m, n_probes, d, threads)
    # (centre, first probe, probe stop) rows, each starting where the last ended
    spans = [(c, *ps.indices(n_probes)[:2]) for cs, ps in blocks for c in range(m)[cs]]
    assert all(a < b for _, a, b in spans)
    assert (spans[0][:2], (spans[-1][0], spans[-1][2])) == ((0, 0), (m - 1, n_probes))
    assert all((c1, a1) in ((c0, b0), (c0 + 1, 0)) and (c1 == c0 or b0 == n_probes)
               for (c0, _, b0), (c1, a1, _) in zip(spans, spans[1:]))
    assert all(len(range(m)[cs]) * len(range(n_probes)[ps]) <= cap for cs, ps in blocks)
    assert len(blocks) >= min(threads, m * n_probes)
    if n_probes <= cap:      # whole centres, unless that leaves a thread idle
        assert all(ps == slice(None) for _, ps in blocks) or m < threads


def _eye_jacobian(Fi):
    """Fi with the identity as its Jacobian: its witnesses try one fixed
    direction, so they decide some centres and leave the rest to probes."""
    d = Fi.space.dim
    return dataclasses.replace(Fi, jac=lambda x: np.broadcast_to(np.eye(d), x.shape + (d,)))


@pytest.mark.parametrize("eye, delta, n_centers, n_probes, seed, counts, digest", [
    # every centre witnessed: no probe is drawn
    (False, 0.05, 130, 20, 5, (130, 100, 130),
     "8ac077c9868e83c18d1263975a21a34b12cc869ca5d8337e09e65900178138b8"),
    (False, -0.03, 129, 50, 3, (129, 100, 129),
     "29b0065367df361b79937c4eaf1015d3ed372c9b6559af9365cf7a7b4a064f83"),
    (False, 0.05, 3, 40000, 3, (3, 3, 3),
     "06fe65f2dfe61247f4ad681edaa5b009d8c3af9159478d5e15092fb211318a43"),
    # near the first-order threshold: witnesses flag 7 centres, probes none
    (False, -0.035, 70, 1000, 5, (7, 7, 7),
     "b35478bef20b206e2ebd5148053c1281e6bebe51cbc3f8e5db4de20b9d452344"),
    # no witness: every centre's probes run, in blocks across the pool
    (False, -0.045, 3, 40000, 3, (0, 0, 0),
     "a46d66f6d196b1c90e5243e4784c27202a2b1ff3b3e45560587d28915be8d960"),
    # witnesses along a fixed direction flag 21 centres and probes 103 more
    (True, -0.028, 130, 100, 5, (846, 100, 21),
     "cf0f7e1634ea5ae3b9ce7993c0307f9f97d754bf923437e60328c035250f9558"),
])
def test_cover_witness_report_bits_are_pinned(eye, delta, n_centers, n_probes, seed,
                                              counts, digest):
    F1 = build_torus_f1().maps[0]
    Fi = _eye_jacobian(F1) if eye else F1
    for threads in (1, 2, 3):
        rep = check_ball_cover(Fi, 0.05, delta, n_centers, n_probes, seed=seed,
                               threads=threads)
        assert (rep.n_violations, len(rep.violations), rep.n_witnessed_centers) == counts
        assert _cover_digest(rep) == digest


def test_cover_records_witnesses_and_probes_in_centre_order():
    # witnesses and probe violations are counted and recorded together, by
    # centre; the probes of the centres without a witness are drawn from the
    # seed's generator as if those were all the centres
    Fi = _eye_jacobian(build_torus_f1().maps[0])
    eps, delta = 0.05, -0.028
    X = Space(4).uniform(np.random.default_rng(5), 130)
    rep = check_ball_cover(Fi, eps, delta, 130, 100, seed=5, centers=X)
    witnessed, _ = perturb._cover_witnesses(Fi, X, eps, eps + delta)
    probe_flags, n_bad, _ = perturb._probe_cover(Fi, X[~witnessed], eps, eps + delta, 100,
                                                 np.random.default_rng(5), 1)
    assert rep.n_witnessed_centers == np.count_nonzero(witnessed) == 21
    assert np.array_equal(rep.center_flags[witnessed], np.ones(21, dtype=bool))
    assert np.array_equal(rep.center_flags[~witnessed], probe_flags)
    assert rep.n_violations == 21 + n_bad
    centre = [int(np.flatnonzero((X == x).all(axis=1))[0]) for x, _, _ in rep.violations]
    assert centre == sorted(centre)
    kept = [c for c in np.flatnonzero(witnessed) if c <= centre[-1]]
    assert [centre.count(c) for c in kept] == [1] * len(kept)
    assert 0 < len(kept) < len(set(centre))


@pytest.mark.parametrize("system, eps, delta", [
    ("torus_F1", 0.05, 0.05), ("cat", 0.05, 0.05), ("rotation:0.1", 0.01, 1e-5),
    ("contraction:0.5", 0.05, 0.05),
])
def test_cover_witnesses_are_violations_the_dense_probes_confirm(system, eps, delta):
    Fi = build_system(system).maps[0]
    space = Fi.space
    X = space.uniform(np.random.default_rng(7), 200)
    rep = check_ball_cover(Fi, eps, delta, 200, 1000, seed=7, centers=X)
    assert rep.violations
    for x, z, dd in rep.violations:
        pre = float(space.dist(Fi.invert(z), x))
        assert pre >= eps and pre == dd
        assert float(space.dist(z, Fi(x))) <= eps + delta
    probe_flags, _, _ = perturb._probe_cover(Fi, X, eps, eps + delta, 1000,
                                             np.random.default_rng(7), 1)
    assert np.all(rep.center_flags[probe_flags])
    # every centre of an isometry fails for delta > 0; 1,000 probes find 118
    assert rep.n_witnessed_centers == np.count_nonzero(rep.center_flags) == 200
    if system.startswith("rotation"):
        assert np.count_nonzero(probe_flags) == 118


def test_cover_without_a_jacobian_goes_straight_to_probes():
    F1 = build_torus_f1().maps[0]
    plain = dataclasses.replace(F1, jac=None)
    rep = check_ball_cover(plain, 0.05, 0.05, 130, 20, seed=5)
    assert rep.n_witnessed_centers == 0
    assert (rep.n_violations, len(rep.violations)) == (2474, 100)
    assert _cover_digest(rep) == _cover_digest(_probe_report(F1, 0.05, 130, 20, 5))


def _dense_cover_flags(Fi, X, eps, radius, n_probes, seed):
    """Per centre X, whether one of n_probes uniform probes Z of the ball of
    the given radius around F(X) has dist(F^{-1}(Z), X) >= eps; one centre
    at a time, drawn by ball_sample, with none of check_ball_cover's code."""
    rng = np.random.default_rng(seed)
    space = Fi.space
    flags = np.zeros(len(X), dtype=bool)
    for i, x in enumerate(X):
        Z = space.normalize(Fi(x) + ball_sample(rng, n_probes, space.dim, radius))
        flags[i] = np.any(space.dist(Fi.invert(Z), x) >= eps)
    return flags


def test_probed_centres_match_a_dense_oracle():
    # at delta -0.035 witnesses decide 7 of these 40 centres, so 1,000 probes
    # each decide the other 33: the flags must be those of 100,000
    # independent probes per centre.  Without a Jacobian all 40 centres are
    # probed, and every centre the probes flag is a centre the oracle flags.
    F1 = build_torus_f1().maps[0]
    X = F1.space.uniform(np.random.default_rng(7), 40)
    dense = _dense_cover_flags(F1, X, 0.05, 0.015, 100_000, 1)
    rep = check_ball_cover(F1, 0.05, -0.035, 40, 1000, seed=7)
    assert (rep.n_witnessed_centers, np.count_nonzero(dense)) == (7, 7)
    assert np.array_equal(rep.center_flags, dense)
    plain = check_ball_cover(dataclasses.replace(F1, jac=None), 0.05, -0.035, 40, 1000,
                             centers=X, seed=7)
    assert plain.n_witnessed_centers == 0 and plain.center_flags.any()
    assert not np.any(plain.center_flags & ~dense)


@pytest.mark.parametrize("system, delta, rows", [
    # one inverse call of every centre decides them all: no probe is drawn
    ("torus_F1", 0.05, [200]),
    # no witness: both signs are tried, then every centre's probes
    ("rotation:0.1", 0.0, [200, 200] + [64 * 30] * 3 + [8 * 30]),
])
def test_cover_witness_inverts_each_sign_once(system, delta, rows):
    Fi = build_system(system).maps[0]
    calls = []

    def inv(p):
        calls.append(int(np.prod(p.shape[:-1])))
        return Fi.inv(p)

    rep = check_ball_cover(dataclasses.replace(Fi, inv=inv), 0.05, delta, 200, 30, seed=2)
    assert calls == rows
    assert rep.passed == (delta == 0.0)
