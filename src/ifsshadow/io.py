"""File formats: chain CSV, definition JSON, atomic result emission.

Chains travel as CSV with header ``k,lambda,x0,x1,...`` (the symbol column
holds -1 past the last link).  Scalar results and reports are JSON with
sorted keys so identical runs emit byte-identical files; all writes go
through a temp file plus rename.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .core import ChainRecord, IFS, SymbolSequence, make_ifs
from .maps import affine_map
from .space import Space
from . import systems


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    atomic_write_text(path, dump_json(obj))


def chain_to_csv_text(chain: ChainRecord) -> str:
    d = chain.points.shape[1]
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["k", "lambda"] + [f"x{i}" for i in range(d)])
    lams = chain.sigma.symbols(0, chain.n_links).tolist() + [-1]
    for k, lam in enumerate(lams):
        w.writerow([k, lam] + [repr(float(c)) for c in chain.points[k]])
    return buf.getvalue()


def write_chain(path, chain: ChainRecord) -> None:
    atomic_write_text(path, chain_to_csv_text(chain))


def read_chain(path, delta: float = 0.0, kind: str = "delta-chain") -> ChainRecord:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if len(rows) < 2:
        raise ValueError(f"chain file {str(path)!r} has no points")
    header = rows[0]
    d = len(header) - 2
    pts = np.array([[float(c) for c in row[2: 2 + d]] for row in rows[1:]])
    syms = [int(row[1]) for row in rows[1:]]
    window = tuple(s for s in syms[:-1]) if len(syms) > 1 else (max(syms[0], 0),)
    sigma = SymbolSequence(window=window,
                           extension=f"constant:{window[-1]}")
    return ChainRecord(points=pts, sigma=sigma, delta=delta, kind=kind)


def read_sigma(path) -> SymbolSequence:
    with open(path) as f:
        return SymbolSequence.from_dict(json.load(f))


def parse_sigma(spec: str) -> SymbolSequence:
    """Inline schedule specs: ``constant:J``, ``periodic:a,b,...``,
    ``random:n_symbols,length,seed`` or ``@file.json``."""
    if spec.startswith("@"):
        return read_sigma(spec[1:])
    kind, _, params = spec.partition(":")
    if kind == "constant":
        return SymbolSequence.constant(int(params))
    if kind == "periodic":
        return SymbolSequence.periodic([int(s) for s in params.split(",")])
    if kind == "random":
        n_symbols, length, seed = (int(s) for s in params.split(","))
        return SymbolSequence.random(n_symbols, length, seed)
    raise ValueError(f"unknown sigma spec {spec!r}")


MAP_KINDS = ("affine", "cat", "torus_F1", "torus_F2", "rotation", "custom_poly")


def _poly_map(space: Space, terms, label: str):
    """Polynomial map given per-output monomial terms {coef, powers}."""
    from .maps import SmoothMap

    terms = [[(float(t["coef"]), np.asarray(t["powers"], dtype=int))
              for t in out_terms] for out_terms in terms]
    if len(terms) != space.dim:
        raise ValueError("custom_poly needs one term list per output coordinate")

    def fwd(x):
        outs = []
        for out_terms in terms:
            acc = np.zeros(x.shape[:-1])
            for coef, powers in out_terms:
                acc = acc + coef * np.prod(x ** powers, axis=-1)
            outs.append(acc)
        return np.stack(outs, axis=-1)

    def jac(x):
        J = np.zeros(x.shape[:-1] + (space.dim, space.dim))
        for a, out_terms in enumerate(terms):
            for coef, powers in out_terms:
                for b in range(space.dim):
                    if powers[b] == 0:
                        continue
                    p = powers.copy()
                    p[b] -= 1
                    J[..., a, b] += coef * powers[b] * np.prod(x ** p, axis=-1)
        return J

    return SmoothMap(label=label, space=space, fwd=fwd, inv=None, jac=jac)


def ifs_from_dict(spec: dict) -> IFS:
    """Build an IFS from the definition-JSON schema:
    {"space": {"dim": d, "periodic": bool?}, "maps": [{"kind": ..., "params": ...}]}.
    """
    sp = spec["space"]
    space = Space(int(sp["dim"]), bool(sp.get("periodic", True)))
    maps = []
    for i, mspec in enumerate(spec["maps"]):
        kind = mspec["kind"]
        params = mspec.get("params", {})
        label = mspec.get("label", f"{kind}_{i}")
        if kind == "affine":
            maps.append(affine_map(space, params["matrix"], params["offset"], label))
        elif kind == "cat":
            maps.append(systems.build_cat_ifs().maps[0])
        elif kind == "torus_F1":
            maps.append(systems.build_torus_f1().maps[0])
        elif kind == "torus_F2":
            maps.append(systems.build_torus_f2().maps[0])
        elif kind == "rotation":
            maps.append(affine_map(space, np.eye(space.dim), params["angles"], label))
        elif kind == "custom_poly":
            maps.append(_poly_map(space, params["terms"], label))
        else:
            raise ValueError(f"unknown map kind {kind!r}; known: {MAP_KINDS}")
    return make_ifs(maps)


def read_ifs(path) -> IFS:
    with open(path) as f:
        return ifs_from_dict(json.load(f))


def load_system(spec: str) -> IFS:
    """Catalog spec string or ``@file.json``."""
    if spec.startswith("@"):
        return read_ifs(spec[1:])
    return systems.build_system(spec)
