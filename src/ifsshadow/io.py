"""File formats: chain CSV, definition JSON, atomic result emission.

Chains travel as CSV: a ``# {"delta": ..., "sigma": ...}`` line, then rows
``k,x0,x1,...``.  Scalar results and reports are JSON with sorted keys so
identical runs emit byte-identical files; all writes go through a temp file
plus rename.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .core import ChainRecord, IFS, SymbolSequence, make_ifs
from .maps import SmoothMap, affine_map
from .space import Space, _finite_points
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
    """Strict (RFC 8259) JSON: ValueError for a NaN or an infinity."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    atomic_write_text(path, dump_json(obj))


def csv_text(header, rows) -> str:
    """CSV, "\n" line ends; integers (bools included) as str(c), other cells
    as repr(float(c)), read back exactly.

    No field needs quoting (header names are plain identifiers, numbers
    never hold a comma or quote), so joining the fields gives the bytes
    ``csv.writer(lineterminator="\n")`` writes.
    """
    lines = [",".join(header)]
    lines += [",".join([str(c) if isinstance(c, int) else repr(float(c)) for c in r])
              for r in rows]
    return "\n".join(lines) + "\n"


def chain_to_csv_text(chain: ChainRecord) -> str:
    """The chain file; ValueError naming the first point that is not finite."""
    _finite_points("chain", chain.points)
    record = json.dumps({"delta": chain.delta, "sigma": chain.sigma.to_dict()}, sort_keys=True)
    return f"# {record}\n" + csv_text(["k"] + [f"x{i}" for i in range(chain.points.shape[1])],
                                      ([k, *x] for k, x in enumerate(chain.points.tolist())))


def write_chain(path, chain: ChainRecord) -> None:
    atomic_write_text(path, chain_to_csv_text(chain))


def read_chain(path) -> ChainRecord:
    with open(path, newline="") as f:
        first = f.readline()
        if not first.startswith("# "):
            raise ValueError(f"chain file {str(path)!r} has no '#' line of delta and sigma")
        record = json.loads(first[2:])
        if not isinstance(record, dict):
            raise ValueError(f"chain file {str(path)!r}: the '#' record must be an "
                             f"object of delta and sigma, got {record!r}")
        reader = csv.reader(f)
        rows = [(reader.line_num + 1, row) for row in reader]
    if len(rows) < 2:
        raise ValueError(f"chain file {str(path)!r} has no points")
    d = len(rows[0][1]) - 1
    for line, row in rows[1:]:
        if len(row) < d + 1:
            raise ValueError(f"chain file {str(path)!r} line {line}: expected "
                             f"{d + 1} fields, got {len(row)}")
    pts = np.array([[float(c) for c in row[1: 1 + d]] for _, row in rows[1:]])
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        line, row = rows[1 + int(np.argmin(finite))]
        raise ValueError(f"chain file {str(path)!r} line {line}: non-finite "
                         f"coordinates {row[1: 1 + d]}")
    delta = record.get("delta")
    if isinstance(delta, bool) or not isinstance(delta, (int, float)):
        raise ValueError(f"chain file {str(path)!r}: 'delta' must be a number, got {delta!r}")
    return ChainRecord(pts, SymbolSequence.from_dict(record.get("sigma")), float(delta))


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
    {"space": {"dim": d, "periodic": bool?},
     "maps": [{"kind": ..., "params": ..., "label": ...?}]}.
    Without a label, a catalog kind keeps its catalog name and any other kind
    is named f"{kind}_{i}".
    """
    sp = spec["space"]
    space = Space(sp["dim"], bool(sp.get("periodic", True)))
    maps = []
    for i, mspec in enumerate(spec["maps"]):
        kind = mspec["kind"]
        params = mspec.get("params", {})
        label = mspec.get("label", f"{kind}_{i}")
        if kind == "affine":
            maps.append(affine_map(space, params["matrix"], params["offset"], label))
        elif kind in ("cat", "torus_F1", "torus_F2"):
            f = systems.build_system(kind).maps[0]
            if f.space != space:
                raise ValueError(f"map kind {kind!r} acts on {f.space}, not {space}")
            maps.append(replace(f, label=label) if "label" in mspec else f)
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
