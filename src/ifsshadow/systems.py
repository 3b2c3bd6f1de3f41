"""Built-in example systems.

Every builder returns a catalog-conformant IFS: invertible maps with analytic
Jacobians that pass a round-trip and finite-difference self-check on a small
sample at build time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import IFS, make_ifs
from .maps import SmoothMap, affine_map, compose, fd_jacobian, identity_map
from .perturb import move_points_diffeo
from .space import Space

CAT_MATRIX = np.array([[2, 1], [1, 1]])


def _self_check(F: IFS) -> IFS:
    X = F.space.uniform(np.random.default_rng(12345), 64)
    for m in F.maps:
        if m.invertible:
            back = m.invert(m(X))
            rt = float(np.max(F.space.dist(back, X)))
            if rt > 1e-10:
                raise ValueError(f"round-trip failure for {m.label!r}: {rt:.3e}")
        if m.jac is not None:
            err = float(np.max(np.abs(m.jacobian(X) - fd_jacobian(m, X))))
            if err > 1e-4:
                raise ValueError(f"Jacobian mismatch for {m.label!r}: {err:.3e}")
    return F


def build_cat_ifs() -> IFS:
    """The hyperbolic automorphism (u, v) -> (2u+v, u+v) of the 2-torus."""
    space = Space(2)
    return _self_check(make_ifs([affine_map(space, CAT_MATRIX, np.zeros(2), "cat")]))


def _torus_f_map(label: str, c_sign: float) -> SmoothMap:
    """Skew product over the cat map on T^4 with coupling c(u,v) = cos^2 pi(u ± v).

    (x, y, u, v) -> (2x - c(u,v) f(x) + y, x - c(u,v) f(x) + y, 2u+v, u+v)
    with f(x) = sin(2 pi x) / (2 pi).  Closed-form inverse: x = X - Y,
    (u, v) = (U - V, -U + 2V), y = Y - x + c(u,v) f(x).
    """
    space = Space(4)
    two_pi = 2.0 * np.pi
    # the Jacobian's constant entries; jac adds the coupling terms of rows 0-1
    linear = np.array([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]], dtype=float)

    def cval(u, v, cos=np.cos):
        # ** 2, not c * c: numpy's ** 2 on one point is a pow, which can
        # differ from c * c in the last bit, and point has to match it
        return cos(np.pi * (u + c_sign * v)) ** 2

    def image(x, y, u, v, sin, cos):
        """The image of (x, y, u, v), from numpy's sin and cos on arrays or
        math's on Python floats."""
        cf = cval(u, v, cos) * sin(two_pi * x) / two_pi
        return [2 * x - cf + y, x - cf + y, 2 * u + v, u + v]

    def cgrad(u, v):
        s = -np.pi * np.sin(two_pi * (u + c_sign * v))
        return s, c_sign * s

    def fwd(p):
        out = np.empty(p.shape)
        for j, c in enumerate(image(p[..., 0], p[..., 1], p[..., 2], p[..., 3],
                                    np.sin, np.cos)):
            out[..., j] = c
        return out

    def point(q):
        return image(*q, math.sin, math.cos)

    def inv(p):
        # each column is written in place; -U + 2V is the same sum as 2V - U
        out = np.empty(p.shape)
        X, Y, U, V = (p[..., j] for j in range(4))
        x, y, u, v = (out[..., j] for j in range(4))
        np.subtract(X, Y, out=x)
        np.subtract(U, V, out=u)
        np.multiply(V, 2, out=v)
        v -= U
        np.subtract(Y, x, out=y)
        y += cval(u, v) * np.sin(two_pi * x) / two_pi
        return out

    def jac(p):
        x, u, v = p[..., 0], p[..., 2], p[..., 3]
        cu, cv = cgrad(u, v)
        fx = np.sin(two_pi * x) / two_pi
        J = np.empty(p.shape[:-1] + (4, 4))
        J[...] = linear
        J[..., :2, 0] -= (cval(u, v) * np.cos(two_pi * x))[..., None]
        J[..., :2, 2] = (-cu * fx)[..., None]
        J[..., :2, 3] = (-cv * fx)[..., None]
        return J

    return SmoothMap(label=label, space=space, fwd=fwd, inv=inv, jac=jac, point=point)


def build_torus_f1() -> IFS:
    return _self_check(make_ifs([_torus_f_map("torus_F1", +1.0)]))


def build_torus_f2() -> IFS:
    return _self_check(make_ifs([_torus_f_map("torus_F2", -1.0)]))


def build_torus_example() -> IFS:
    """The two-map family {F1, F2} on T^4 (couplings cos^2 pi(u+v), cos^2 pi(u-v))."""
    return _self_check(make_ifs([_torus_f_map("torus_F1", +1.0),
                                 _torus_f_map("torus_F2", -1.0)]))


def build_contraction_ifs(q: float, offsets=None) -> IFS:
    """Affine contractions x -> q x + o of the unit interval into itself
    (Euclidean metric): 0 <= o <= 1 - q, offsets (0, 1 - q) by default.

    A metric contraction like x/2 does not descend to the circle, so these
    families live on the non-periodic unit cube.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"contraction factor must lie in (0, 1), got {q}")
    offsets = (0.0, 1.0 - q) if offsets is None else offsets
    if not all(0.0 <= o <= 1.0 - q for o in offsets):
        raise ValueError(f"offsets {list(offsets)} must lie in [0, {1.0 - q}] so that "
                         f"x -> {q} x + o maps [0, 1] into itself")
    space = Space(1, periodic=False)
    maps = [affine_map(space, [[q]], [float(o)], f"contraction_{i}")
            for i, o in enumerate(offsets)]
    return _self_check(make_ifs(maps))


def build_rotation_ifs(angles) -> IFS:
    """Rigid torus rotations; scalars give circle rotations."""
    maps = []
    for i, a in enumerate(angles):
        b = np.atleast_1d(np.asarray(a, dtype=float))
        space = Space(b.size)
        maps.append(affine_map(space, np.eye(b.size), b, f"rotation_{i}"))
    return _self_check(make_ifs(maps))


def build_identity_ifs(dim: int) -> IFS:
    return _self_check(make_ifs([identity_map(Space(dim))]))


def build_bumped_cat_ifs(d0_target: float = 1e-3) -> IFS:
    """Cat map composed with a small bump, at matched family distance ~d0_target.

    The bump moves a fixed interior point by d0_target / lambda_u (the inverse
    stretch of the cat map caps the pullback discrepancy), so the matched
    distance to the plain cat map measures just under d0_target.
    """
    lam_u = float(np.max(np.abs(np.linalg.eigvals(CAT_MATRIX.astype(float)))))
    disp = 0.95 * d0_target / lam_u
    p = np.array([0.37, 0.61])
    h = move_points_diffeo([(p, p + np.array([0.0, disp]))], delta=1.5 * disp,
                           label="h")
    cat = build_cat_ifs().maps[0]
    return _self_check(make_ifs([compose(h, cat, label="bumped_cat")]))


@dataclass(frozen=True)
class SystemCatalogEntry:
    name: str
    builder: Callable[..., IFS]
    doc: str


CATALOG: dict[str, SystemCatalogEntry] = {
    e.name: e
    for e in [
        SystemCatalogEntry("cat", build_cat_ifs,
                           "hyperbolic toral automorphism (2u+v, u+v) on T^2"),
        SystemCatalogEntry("torus_F1", build_torus_f1,
                           "skew product over the cat map, coupling cos^2 pi(u+v), on T^4"),
        SystemCatalogEntry("torus_F2", build_torus_f2,
                           "skew product over the cat map, coupling cos^2 pi(u-v), on T^4"),
        SystemCatalogEntry("torus_example", build_torus_example,
                           "the pair {F1, F2} on T^4"),
        SystemCatalogEntry("contraction", build_contraction_ifs,
                           "affine contractions on the unit interval, e.g. contraction:0.5"),
        SystemCatalogEntry("rotation", build_rotation_ifs,
                           "rigid rotations (isometric controls), e.g. rotation:0.1,0.3"),
        SystemCatalogEntry("identity", build_identity_ifs,
                           "identity map (isometric control), e.g. identity:2"),
        SystemCatalogEntry("cat_bumped", build_bumped_cat_ifs,
                           "cat map with a small bump, e.g. cat_bumped:1e-3"),
    ]
}


def build_system(spec: str) -> IFS:
    """Build a catalog system from a spec string like ``contraction:0.5``.

    Parameter grammar: ``cat``, ``torus_F1``, ``torus_F2``, ``torus_example``,
    ``contraction:q[,offset,...]``, ``rotation:a[,b,...]``, ``identity:dim``.
    """
    name, _, params = spec.partition(":")
    if name not in CATALOG:
        raise KeyError(f"unknown system {name!r}; known: {sorted(CATALOG)}")
    args = [p for p in params.split(",") if p] if params else []
    if name == "contraction":
        if not args:
            raise ValueError("contraction needs a factor, e.g. contraction:0.5")
        q = float(args[0])
        return build_contraction_ifs(q, [float(a) for a in args[1:]] or None)
    if name == "rotation":
        if not args:
            raise ValueError("rotation needs at least one angle")
        return build_rotation_ifs([float(a) for a in args])
    if name == "identity":
        return build_identity_ifs(int(args[0]) if args else 2)
    if name == "cat_bumped":
        return build_bumped_cat_ifs(float(args[0]) if args else 1e-3)
    if args:
        raise ValueError(f"system {name!r} takes no parameters")
    return CATALOG[name].builder()
