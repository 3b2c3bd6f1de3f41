"""Evaluable smooth maps with optional inverses and Jacobians.

A SmoothMap bundles a raw forward formula with the space it acts on.  The
forward/inverse/Jacobian callables all take arrays of shape ``(..., d)`` and
are vectorized over leading axes; outputs of ``__call__`` and ``invert`` are
normalized into the fundamental domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .space import Space, _as_points

#: every Newton inverse (SmoothMap.invert, the bump inverse) stops a point
#: when its step moves it by at most INVERSE_TOL; points still moving after
#: INVERSE_MAX_ITER steps raise
INVERSE_TOL = 1e-13
INVERSE_MAX_ITER = 60


class InversionError(RuntimeError):
    """An iterative inversion left points moving; carries its last iterate."""

    def __init__(self, msg, best=None, residual=None):
        super().__init__(msg)
        self.best = best
        self.residual = residual


@dataclass(frozen=True)
class SmoothMap:
    label: str
    space: Space
    fwd: Callable[[np.ndarray], np.ndarray]
    inv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # (A, b) when fwd is x @ A.T + b (set by affine_map), for stepping chains
    # on floats and for the closed-form shadow; an init field, so a
    # dataclasses.replace copy keeps it, and a copy whose fwd computes another
    # formula must pass affine=None
    affine: Optional[tuple[np.ndarray, np.ndarray]] = field(default=None, compare=False)
    # fwd on one point: a list of d Python floats to a list with the bits of
    # fwd on a one-point array, for stepping chains on floats; an init field
    # like affine, so a copy whose fwd computes another formula must pass
    # point=None
    point: Optional[Callable[[list], list]] = field(default=None, compare=False)
    # deterministic estimates computed from the map, keyed by their arguments
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, x) -> np.ndarray:
        x = _as_points(self.space, x)
        return self.space.normalize(np.asarray(self.fwd(x), dtype=float))

    def invert(self, p) -> np.ndarray:
        """Point q with f(q) = p, via the closed form or Newton's method.

        Newton starts from q = normalize(p) and steps each point until its own
        step has dist(q_next, q) <= INVERSE_TOL (never for a NaN step).  After
        INVERSE_MAX_ITER steps, InversionError carries the iterate as ``best``
        and the largest dist(f(q), p) among the points still moving as
        ``residual``.
        """
        p = _as_points(self.space, p)
        if self.inv is not None:
            return self.space.normalize(np.asarray(self.inv(p), dtype=float))
        if self.jac is None:
            raise InversionError(f"map {self.label!r} has no inverse and no Jacobian")
        space = self.space
        flat = p.reshape(-1, space.dim)
        q = space.normalize(flat.copy())
        active = np.arange(flat.shape[0])
        for _ in range(INVERSE_MAX_ITER):
            qa = q[active]
            r = space.displacement(self(qa), flat[active])[..., None]
            q_next = space.normalize(qa + np.linalg.solve(self.jacobian(qa), r)[..., 0])
            moving = ~(space.dist(q_next, qa) <= INVERSE_TOL)
            q[active] = q_next
            active = active[moving]
            if active.size == 0:
                return q.reshape(p.shape)
        raise InversionError(
            f"Newton inversion of {self.label!r}: {active.size} points still moving "
            f"after {INVERSE_MAX_ITER} steps", best=q.reshape(p.shape),
            residual=float(np.max(space.dist(self(q[active]), flat[active]))))

    def jacobian(self, x) -> np.ndarray:
        if self.jac is None:
            raise ValueError(f"map {self.label!r} carries no Jacobian")
        x = _as_points(self.space, x)
        return np.asarray(self.jac(x), dtype=float)

    @property
    def invertible(self) -> bool:
        return self.inv is not None or self.jac is not None


def fd_jacobian(m: SmoothMap, x) -> np.ndarray:
    """Central-difference Jacobian (step 1e-6), wrap-safe via shortest
    displacements."""
    h = 1e-6
    x = _as_points(m.space, x)
    d = m.space.dim
    cols = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        df = m.space.displacement(m(x - e), m(x + e)) / (2.0 * h)
        cols.append(df)
    return np.stack(cols, axis=-1)


def compose(outer: SmoothMap, inner: SmoothMap, label: str | None = None) -> SmoothMap:
    """The composition outer о inner, with chain-rule Jacobian and composed inverse."""
    if outer.space != inner.space:
        raise ValueError("composition requires a common space")
    space = inner.space

    def fwd(x):
        return outer.fwd(inner(x))

    inv = None
    if outer.invertible and inner.invertible:
        def inv(p):  # noqa: E731 - closure, not lambda, for picklability
            return inner.invert(outer.invert(p))

    jac = None
    if outer.jac is not None and inner.jac is not None:
        def jac(x):
            return outer.jacobian(inner(x)) @ inner.jacobian(x)

    return SmoothMap(
        label=label or f"{outer.label}o{inner.label}",
        space=space,
        fwd=fwd,
        inv=inv,
        jac=jac,
    )


def identity_map(space: Space) -> SmoothMap:
    eye = np.eye(space.dim)
    return SmoothMap(
        label="id",
        space=space,
        fwd=lambda x: x,
        inv=lambda p: p,
        jac=lambda x: np.broadcast_to(eye, x.shape + (space.dim,)),
    )


def affine_map(space: Space, A, b, label: str = "affine") -> SmoothMap:
    """x -> A x + b.  On the torus A must be an integer matrix to be well defined."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.shape != (space.dim, space.dim) or b.shape != (space.dim,):
        raise ValueError("affine parameters do not match the space dimension")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError(f"affine parameters of {label!r} must be finite")
    if space.periodic and not np.array_equal(A, np.round(A)):
        raise ValueError(
            f"matrix of {label!r} is not integral; the map does not descend to the torus"
        )
    det = np.linalg.det(A)
    inv = None
    if abs(det) > 1e-14:
        Ainv = np.linalg.inv(A)
        inv = lambda p: (p - b) @ Ainv.T
    return SmoothMap(
        label=label,
        space=space,
        fwd=lambda x: x @ A.T + b,
        inv=inv,
        jac=lambda x: np.broadcast_to(A, x.shape + (space.dim,)),
        affine=(A, b),
    )
