"""Phase spaces and their metric geometry.

Two kinds of space are supported, both with unit fundamental domain:

* the flat torus T^d = R^d / Z^d (``periodic=True``), with coordinates
  normalized to [0, 1) and the quotient metric
  ``sqrt(sum_i min(|dx_i|, 1-|dx_i|)^2)``;
* the unit cube in R^d (``periodic=False``), plain Euclidean metric, no
  wraparound.  Contracting affine families live here: a genuine metric
  contraction like x/2 does not descend to the circle.

Points are plain float arrays of shape ``(..., d)``; the metric functions
here broadcast over leading axes, as do map evaluation and the orbit maps.
Chain-level functions (``gen_pseudo_orbit``, ``ChainRecord``,
``link_residuals``, the ``shadow_*`` solvers) take one (m+1, d) chain.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


class DimensionError(ValueError):
    pass


class AntipodalError(ValueError):
    """Shortest-path displacement is ambiguous (a coordinate gap of exactly 1/2)."""


def _check_real(name: str, value, least=None):
    """Return value if it is finite and > 0, or finite and >= least when
    least is given; otherwise raise ValueError naming the parameter.

    The one check of the package's radius, tolerance and count arguments: NaN
    fails the comparison, and an infinite eps, delta or Delta would make a
    shadowing or stability statement hold for free.
    """
    if not (value > 0 if least is None else value >= least):
        bound = "positive" if least is None else f">= {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    if not value < np.inf:
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _check_integer(name: str, value) -> int:
    """Return value as an int if it is an integer (not a bool); otherwise
    raise ValueError naming the parameter."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def _check_count(name: str, value, least: int) -> int:
    """Return value as an int if it is an integer (not a bool) >= least;
    otherwise raise ValueError naming the parameter."""
    return _check_real(name, _check_integer(name, value), least)


def _finite_points(name: str, x) -> np.ndarray:
    """x as a float array of points (..., d) if every coordinate is finite;
    otherwise raise ValueError naming the argument, the index of its first
    non-finite point and that point's coordinates."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        finite = np.isfinite(x).all(axis=-1)
        i = tuple(int(j) for j in np.unravel_index(np.argmin(finite), finite.shape))
        at = "" if not i else f" point {i[0] if len(i) == 1 else i} ="
        raise ValueError(f"{name} must be finite, got{at} {x[i].tolist()}")
    return x


def _as_points(space: "Space", x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (space.dim,):
        raise DimensionError(
            f"expected points of dimension {space.dim}, got shape {x.shape}"
        )
    return x


def _mod1(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x mod 1 in [0, 1): x - floor(x), except that a result of 1.0 (the
    rounded sum of a tiny negative x and 1) gives 0.0, the same torus point.
    Written into ``out`` when given (``out=x`` reduces x in place)."""
    r = np.subtract(x, np.floor(x), out=out)
    r[r == 1.0] = 0.0
    return r


def _norms(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row norms over the last axis, bit-identical to np.sqrt(np.sum(v * v, axis=-1)).

    numpy adds fewer than 8 terms in order, so for d < 8 the squared columns
    are added one by one, without the (..., d) product array; from 8 terms on
    numpy sums pairwise, so np.sum keeps its order there.  Written into
    ``out`` (shape ``v.shape[:-1]``) when given.
    """
    d = v.shape[-1]
    if d >= 8:
        return np.sqrt(np.sum(v * v, axis=-1), out=out)
    s = np.multiply(v[..., 0], v[..., 0], out=out)
    for j in range(1, d):
        s += v[..., j] * v[..., j]
    return np.sqrt(s, out=out)


@dataclass(frozen=True)
class Space:
    """A d-dimensional torus (default) or unit cube."""

    dim: int
    periodic: bool = True

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_count("dim", self.dim, 1))

    def normalize(self, x) -> np.ndarray:
        """Map coordinates into the fundamental domain ([0, 1) on the torus)."""
        x = _as_points(self, x)
        if not self.periodic:
            return x
        return _mod1(x)

    def displacement(self, p, q) -> np.ndarray:
        """Vector v with p + v = q, shortest representative on the torus.

        Components lie in (-1/2, 1/2] for periodic spaces; exact half-gaps
        resolve to +1/2.  For the cube this is just q - p.
        """
        p = _as_points(self, p)
        q = _as_points(self, q)
        r = q - p
        if self.periodic:
            # r lies in [0, 1] after the floor and r - 0.0 == r, so subtracting
            # the mask in place equals np.where(r > 0.5, r - 1, r) bit for bit
            r -= np.floor(r)
            r -= r > 0.5
        return r

    def dist(self, p, q) -> np.ndarray:
        """Metric distance between point arrays, broadcasting over leading axes.

        The Euclidean norm of ``displacement(p, q)`` (the shortest
        representative on the torus), taken by ``_norms``: same bits as the
        square root of numpy's sum of squares, with no (..., d) temporaries.
        """
        return _norms(self.displacement(p, q))

    def geodesic_displacement(self, p, q) -> np.ndarray:
        """Displacement along the unique shortest path from p to q.

        Requires dist(p, q) < 1/2 on the torus so the path is unique; raises
        AntipodalError if any coordinate gap is exactly 1/2.
        """
        v = self.displacement(p, q)
        if self.periodic:
            if np.any(np.abs(v) == 0.5):
                raise AntipodalError(
                    "coordinate gap of exactly 0.5; perturb the inputs"
                )
            if np.any(_norms(v) >= 0.5):
                raise AntipodalError("points at distance >= 0.5 have no unique shortest path")
        return v

    def diameter(self) -> float:
        d = self.dim
        return 0.5 * np.sqrt(d) if self.periodic else np.sqrt(d)

    def uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points drawn uniformly from the fundamental domain."""
        return rng.random((n, self.dim))


def ball_sample(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """Uniform samples from the Euclidean ball of the given radius."""
    v = rng.standard_normal((n, dim))
    return _ball_points(v, rng.random((n, 1)), radius)


def _ball_points(v: np.ndarray, u: np.ndarray, radius: float) -> np.ndarray:
    """Turn standard normals v (..., dim) and uniforms u (..., 1) in [0, 1)
    into uniform points of the ball of the given radius, in place: v becomes
    the points, scaled to the radius radius * u ** (1/dim), and u that radius.
    """
    norms = _norms(v)[..., None]
    norms[norms == 0.0] = 1.0
    u **= 1.0 / v.shape[-1]
    u *= radius
    v /= norms
    v *= u
    return v


def lattice_samples(n: int, dim: int) -> np.ndarray:
    """Rank-1 lattice point set: low-discrepancy samples with small covering radius.

    Points are (i/n, i*g/n, i*g^2/n, ...) mod 1.  For dim 2 and n = 200 the
    generator 43 covers the torus to radius ~0.044 (near the hexagonal
    optimum); otherwise g is a golden-ratio-like integer coprime to n.
    """
    n, dim = _check_count("n", n, 1), _check_count("dim", dim, 1)
    generator = 43 if (dim, n) == (2, 200) else max(1, int(round(n * 0.6180339887)))
    while np.gcd(generator, n) != 1:
        generator += 1
    i = np.arange(n)
    cols = [i / n]
    g = 1
    for _ in range(dim - 1):
        g = (g * generator) % n
        cols.append((i * g % n) / n)
    return np.stack(cols, axis=-1)


_DEFAULT_RESOLUTION = {1: 4096, 2: 256, 3: 64, 4: 24}


def default_resolution(dim: int) -> int:
    if dim in _DEFAULT_RESOLUTION:
        return _DEFAULT_RESOLUTION[dim]
    return max(2, int(round(3.3e5 ** (1.0 / dim))))


def check_resolution(dim: int) -> int:
    """Resolution of the grids that check a construction: default_resolution capped at 64."""
    return min(64, default_resolution(dim))


@dataclass
class MetricGrid:
    """A (1/resolution)-net of the space.

    Every point of the space lies within sqrt(d)/(2*resolution) of a grid
    point: the torus grid is the lattice {i/res}, the cube grid the cell
    centers {(i+1/2)/res}.
    """

    space: Space
    resolution: int
    _points: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.resolution = _check_count("resolution", self.resolution, 1)

    @property
    def points(self) -> np.ndarray:
        if self._points is None:
            d = self.space.dim
            axis = np.arange(self.resolution, dtype=float) / self.resolution
            if not self.space.periodic:
                axis = axis + 0.5 / self.resolution
            pts = np.empty((self.resolution,) * d + (d,))
            for j in range(d):
                pts[..., j] = axis.reshape((-1,) + (1,) * (d - 1 - j))
            self._points = pts.reshape(-1, d)
        return self._points

    def __len__(self) -> int:
        return self.resolution ** self.space.dim


def grid_for(space: Space, resolution: int | None = None) -> MetricGrid:
    return MetricGrid(space, default_resolution(space.dim) if resolution is None
                      else resolution)
