import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsshadow import (InversionError, SmoothMap, Space, affine_map, compose,
                       fd_jacobian, identity_map, move_points_diffeo)
from ifsshadow import maps
from ifsshadow.systems import CAT_MATRIX, build_cat_ifs, build_torus_f1


def cat_map():
    return build_cat_ifs().maps[0]


def test_cat_forward_hand_value():
    # (2*0.25 + 0.5, 0.25 + 0.5) = (1.0, 0.75) -> (0.0, 0.75)
    assert cat_map()(np.array([0.25, 0.5])) == pytest.approx([0.0, 0.75])


def test_cat_inverse_hand_value():
    # integer inverse [[1,-1],[-1,2]] applied mod 1
    assert cat_map().invert(np.array([0.0, 0.75])) == pytest.approx([0.25, 0.5])


def test_identity_map_is_identity():
    idm = identity_map(Space(2))
    rng = np.random.default_rng(0)
    X = rng.random((100, 2))
    assert np.array_equal(idm(X), X)
    assert np.array_equal(idm.invert(X), X)


def test_affine_non_integer_matrix_rejected_on_torus():
    with pytest.raises(ValueError, match="integral"):
        affine_map(Space(1), [[0.5]], [0.0])
    # fine off the torus
    affine_map(Space(1, periodic=False), [[0.5]], [0.0])


def test_newton_inversion_matches_closed_form():
    f1 = build_torus_f1().maps[0]
    bare = SmoothMap("f1_bare", f1.space, f1.fwd, inv=None, jac=f1.jac)
    rng = np.random.default_rng(1)
    X = rng.random((200, 4))
    q_newton = bare.invert(f1(X))
    assert np.max(f1.space.dist(q_newton, f1.invert(f1(X)))) < 1e-9
    assert np.max(f1.space.dist(bare(q_newton), f1(X))) < 1e-10


def test_newton_inversion_failure_carries_best_iterate(monkeypatch):
    monkeypatch.setattr(maps, "INVERSE_MAX_ITER", 1)
    f1 = build_torus_f1().maps[0]
    bare = SmoothMap("f1_bare", f1.space, f1.fwd, inv=None, jac=f1.jac)
    with pytest.raises(InversionError, match="after 1 steps") as exc:
        bare.invert(np.array([0.3, 0.1, 0.6, 0.9]))
    assert exc.value.best is not None
    assert exc.value.residual is not None and exc.value.residual >= 0.0


def test_newton_inversion_of_nan_raises():
    f1 = build_torus_f1().maps[0]
    bare = SmoothMap("f1_bare", f1.space, f1.fwd, inv=None, jac=f1.jac)
    P = f1(np.array([[0.3, 0.1, 0.6, 0.9], [0.2, 0.4, 0.1, 0.7]]))
    P[1, 0] = np.nan
    with pytest.raises(InversionError, match="1 points still moving after 60 steps") as exc:
        bare.invert(P)
    # each point stops on its own step, so the finite one is inverted
    assert np.max(f1.space.dist(exc.value.best[0], [0.3, 0.1, 0.6, 0.9])) <= 1e-12


def test_invert_without_inverse_or_jacobian():
    m = SmoothMap("fwd_only", Space(2), lambda x: x)
    with pytest.raises(InversionError):
        m.invert(np.zeros(2))


def test_fd_jacobian_agreement_cat():
    m = cat_map()
    rng = np.random.default_rng(2)
    X = rng.random((1000, 2))
    assert np.max(np.abs(m.jacobian(X) - fd_jacobian(m, X))) <= 1e-4


def test_fd_jacobian_wrap_safe_near_boundary():
    m = cat_map()
    X = np.array([[0.9999995, 0.0000003], [0.0, 0.5]])
    assert np.max(np.abs(m.jacobian(X) - fd_jacobian(m, X))) <= 1e-4


def test_compose_chain_rule_and_inverse():
    f1 = build_torus_f1().maps[0]
    g = compose(f1, f1)
    rng = np.random.default_rng(3)
    X = rng.random((100, 4))
    assert np.max(g.space.dist(g(X), f1(f1(X)))) < 1e-12
    assert np.max(np.abs(g.jacobian(X) - fd_jacobian(g, X))) <= 1e-3
    assert np.max(g.space.dist(g.invert(g(X)), X)) < 1e-10


@pytest.mark.parametrize("call, message", [
    (lambda: compose(identity_map(Space(2)), identity_map(Space(3))),
     "composition requires a common space"),
    (lambda: affine_map(Space(2), np.eye(3), np.zeros(2)),
     "affine parameters do not match the space dimension"),
    (lambda: affine_map(Space(2), np.eye(2), np.zeros(3)),
     "affine parameters do not match the space dimension"),
])
def test_maps_on_mismatched_spaces_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_affine_matrix_metadata():
    A, b = cat_map().affine
    assert A.dtype == float and np.array_equal(A, CAT_MATRIX)
    assert np.array_equal(b, np.zeros(2))
    rot = affine_map(Space(2), np.eye(2), [0.1, 0.2], "rot")
    assert np.array_equal(rot.affine[0], np.eye(2))
    assert np.array_equal(rot.affine[1], [0.1, 0.2])
    contr = affine_map(Space(1, periodic=False), [[0.5]], [0.0])
    assert np.array_equal(contr.affine[0], [[0.5]])
    assert identity_map(Space(2)).affine is None


@pytest.mark.parametrize("entry", [2.00001, 2.0 + 1e-12, np.nextafter(2.0, 3.0)])
def test_near_integer_torus_matrix_is_rejected(entry):
    with pytest.raises(ValueError, match="not integral"):
        affine_map(Space(2), [[entry, 1], [1, 1]], np.zeros(2), "near")
    # the same matrix is a well-defined map of the square
    square = affine_map(Space(2, periodic=False), [[entry, 1], [1, 1]], np.zeros(2))
    assert square.affine[0][0, 0] == entry



@pytest.mark.parametrize("space, A, b", [
    (Space(2), [[np.inf, 1], [1, 1]], [0.0, 0.0]),     # np.round(inf) == inf
    (Space(2), [[2, 1], [1, 1]], [np.inf, 0.0]),
    (Space(2, periodic=False), [[0.5, 0], [0, np.nan]], [0.0, 0.0]),
    (Space(1, periodic=False), [[0.5]], [np.nan]),
])
def test_non_finite_affine_parameters_are_rejected(space, A, b):
    with pytest.raises(ValueError, match="affine parameters of 'bad' must be finite"):
        affine_map(space, A, b, "bad")

def torus2_maps():
    """Invertible maps of T^2: rotations, automorphisms and small bumps."""
    T2 = Space(2)
    coord = st.floats(0.0, 1.0)
    rotations = st.tuples(coord, coord).map(
        lambda b: affine_map(T2, np.eye(2), b, "rot"))
    automorphisms = st.sampled_from([[[1, 1], [0, 1]], [[2, 1], [1, 1]],
                                     [[1, 0], [3, 1]]]).map(
        lambda A: affine_map(T2, A, np.zeros(2), "aut"))
    bumps = st.tuples(coord, coord, st.floats(-0.02, 0.02),
                      st.floats(-0.02, 0.02)).map(
        lambda t: move_points_diffeo([(np.array(t[:2]), np.array(t[:2]) + t[2:])],
                                     delta=0.05))
    return st.one_of(rotations, automorphisms, bumps)


@settings(deadline=None, max_examples=60)
@given(outer=torus2_maps(), inner=torus2_maps(), seed=st.integers(0, 2 ** 16))
def test_compose_then_inverse_is_identity(outer, inner, seed):
    g = compose(outer, inner)
    X = g.space.uniform(np.random.default_rng(seed), 64)
    assert np.max(g.space.dist(g.invert(g(X)), X)) <= 1e-10
