"""Command-line surface.

One command per invocation; all randomness flows from --seed, result JSON is
written with sorted keys and no timestamps (reruns with an identical config
are byte-identical; a .meta.json sidecar carries the wall-clock stamp).

Exit codes: 0 success, 1 contract violation at runtime (solver failure,
failed verification, infeasible construction), 2 configuration error.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys

import numpy as np

from . import io as ifsio
from .core import (dist_D0, dist_D1, gen_pseudo_orbit, rho0, rho1,
                   validate_chain)
from .expansive import estimate_expansive_const, estimate_N_of_mu, separation_time
from .maps import InversionError, identity_map
from .perturb import (CoverageError, SupportError, build_semiconj,
                      check_ball_cover, move_points_diffeo, perturbed_ifs,
                      semiconj_residual)
from .shadowing import (NotContractingError, NotHyperbolicError,
                        ShadowingConvergenceError, shadow_auto,
                        shadow_contraction, shadow_linear_hyperbolic,
                        shadow_newton, verify_shadowing)
from .space import grid_for, lattice_samples
from .systems import CATALOG

CONTRACT_ERRORS = (ShadowingConvergenceError, NotContractingError,
                   NotHyperbolicError, SupportError, CoverageError,
                   InversionError, RuntimeError)


def _default_threads() -> int:
    env = os.environ.get("IFSSHADOW_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"IFSSHADOW_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _emit(args, result: dict, files: dict | None = None) -> None:
    """Write the primary JSON (plus auxiliary files) and echo it to stdout."""
    text = ifsio.dump_json(result)
    sys.stdout.write(text)
    if args.out:
        ifsio.atomic_write_text(f"{args.out}.json", text)
        ifsio.write_json(f"{args.out}.meta.json", {
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        })
        for suffix, content in (files or {}).items():
            ifsio.atomic_write_text(f"{args.out}{suffix}", content)


def _parse_point(text: str) -> np.ndarray:
    return np.array([float(c) for c in text.split(",")])


def _x0(args, F):
    if args.x0:
        return _parse_point(args.x0)
    return np.random.default_rng(args.seed).random(F.space.dim)


def _config(args, skip=("out", "func", "threads")) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def cmd_generate(args) -> int:
    F = ifsio.load_system(args.system)
    sigma = ifsio.parse_sigma(args.sigma)
    chain = gen_pseudo_orbit(F, sigma, _x0(args, F), args.delta, args.len,
                             noise=args.noise, seed=args.seed)
    v = validate_chain(F, chain)
    result = {
        "command": "generate",
        "config": _config(args),
        "delta_recorded": chain.delta,
        "measured_residual": v.max_residual,
        "n_points": len(chain),
    }
    _emit(args, result, {"_chain.csv": ifsio.chain_to_csv_text(chain)})
    return 0


_SOLVERS = {
    "auto": shadow_auto,
    "contraction": lambda F, c: shadow_contraction(F, c),
    "hyperbolic": lambda F, c: shadow_linear_hyperbolic(F.maps[0], c),
    "newton": lambda F, c: shadow_newton(F, c),
}


def cmd_shadow(args) -> int:
    F = ifsio.load_system(args.system)
    sigma = (ifsio.parse_sigma(args.sigma) if args.sigma
             else ifsio.parse_sigma(f"random:{len(F)},{args.len},{args.seed}"))
    chain = gen_pseudo_orbit(F, sigma, _x0(args, F), args.delta, args.len,
                             noise=args.noise, seed=args.seed)
    r = _SOLVERS[args.solver](F, chain)
    result = {
        "command": "shadow",
        "config": _config(args),
        "solver": r.solver,
        "sup_dist": r.sup_dist,
        "residual": r.residual,
        "iterations": r.iterations,
    }
    _emit(args, result, {
        "_chain.csv": ifsio.chain_to_csv_text(chain),
        "_shadow.csv": ifsio.chain_to_csv_text(r.shadow),
    })
    return 0


def cmd_verify(args) -> int:
    F = ifsio.load_system(args.system)
    xi = ifsio.read_chain(args.chain)
    y = ifsio.read_chain(args.shadow)
    v = verify_shadowing(F, xi, y, args.eps, args.tol)
    result = {
        "command": "verify",
        "config": _config(args),
        "ok": v.ok,
        "is_exact": v.is_exact,
        "exact_residual": v.exact_residual,
        "max_point_dist": v.max_point_dist,
        "worst_index": v.worst_index,
    }
    _emit(args, result)
    return 0 if v.ok else 1


def cmd_expansive(args) -> int:
    F = ifsio.load_system(args.system)
    sigma = ifsio.parse_sigma(args.sigma)
    deltas = [float(s) for s in args.deltas.split(",")]
    rep = estimate_expansive_const(
        F, sigma, grid_for(F.space, args.grid), pair_tolerance=args.pair_tol,
        n_cap=args.ncap, delta_grid=deltas, n_pairs=args.pairs, seed=args.seed)
    result = {"command": "expansive", "config": _config(args), **rep.to_dict()}
    _emit(args, result)
    return 0


def cmd_septime(args) -> int:
    F = ifsio.load_system(args.system)
    sigma = ifsio.parse_sigma(args.sigma)
    t = separation_time(F, sigma, _parse_point(args.x), _parse_point(args.y),
                        args.eta, args.ncap)
    mu_n = None
    if args.mu is not None:
        mu_n = estimate_N_of_mu(F, sigma, args.eta, args.mu,
                                grid_for(F.space, args.grid),
                                n_cap=args.ncap, seed=args.seed)
    result = {
        "command": "septime",
        "config": _config(args),
        "separation_time": t,
        "N_of_mu": mu_n,
    }
    _emit(args, result)
    return 0


def cmd_perturb(args) -> int:
    F = ifsio.load_system(args.system)
    sigma = (ifsio.parse_sigma(args.sigma) if args.sigma
             else ifsio.parse_sigma(f"random:{len(F)},{args.len},{args.seed}"))
    chain = gen_pseudo_orbit(F, sigma, _x0(args, F), args.delta, args.len,
                             seed=args.seed)
    res = perturbed_ifs(F, chain, m=args.m, Delta=args.Delta,
                        grid_resolution=args.grid or 64, seed=args.seed)
    result = {
        "command": "perturb",
        "config": _config(args),
        "matched_D0": res.matched_d0,
        "delta_max": res.delta_max,
        "exact_residual": res.exact_residual,
        "max_point_dist": res.max_point_dist,
        "n_maps": len(res.gs),
        "grid_resolution": res.grid_resolution,
    }
    _emit(args, result, {
        "_chain.csv": ifsio.chain_to_csv_text(chain),
        "_perturbed_chain.csv": ifsio.chain_to_csv_text(res.chain),
    })
    return 0


def _parse_pairs(text: str):
    pairs = []
    for item in text.split(";"):
        p, _, q = item.partition(":")
        pairs.append((_parse_point(p), _parse_point(q)))
    return pairs


def cmd_movepoints(args) -> int:
    pairs = _parse_pairs(args.pairs)
    f = move_points_diffeo(pairs, args.delta, support_radius=args.support)
    space = f.space
    grid = grid_for(space, args.grid)
    interp = max(float(space.dist(f(p), q)) for p, q in
                 ((np.asarray(p), np.asarray(q)) for p, q in pairs))
    rng = np.random.default_rng(args.seed)
    X = space.uniform(rng, 4096)
    roundtrip = float(np.max(space.dist(f.invert(f(X)), X)))
    r0 = rho0(f, identity_map(space), grid)
    result = {
        "command": "movepoints",
        "config": _config(args),
        "rho0_to_identity": r0,
        "interpolation_error": interp,
        "roundtrip_error": roundtrip,
        "support_radius": f.support_radius,
        "grid_resolution": grid.resolution,
    }
    _emit(args, result)
    return 0


def cmd_semiconj(args) -> int:
    F = ifsio.load_system(args.f)
    G = ifsio.load_system(args.g)
    sigma = ifsio.parse_sigma(args.sigma)
    samples = lattice_samples(args.samples, F.space.dim)
    sc = build_semiconj(F, G, sigma, eps=args.eps, samples=samples, K=args.K)
    conj = semiconj_residual(F, G, sigma, sc, K=args.K)
    rows = ["i," + ",".join(f"x{j}" for j in range(F.space.dim)) + ","
            + ",".join(f"hx{j}" for j in range(F.space.dim)) + ",max_residual"]
    for i in range(sc.samples.shape[0]):
        rows.append(",".join(
            [str(i)]
            + [repr(float(c)) for c in sc.samples[i]]
            + [repr(float(c)) for c in sc.images[i]]
            + [repr(float(np.max(sc.residuals[i])))]
        ))
    result = {
        "command": "semiconj",
        "config": _config(args),
        "max_residual": sc.max_residual,
        "max_image_dist": sc.max_image_dist(F.space),
        "conjugation_residual": conj,
        "n_flagged": len(sc.flagged),
        "max_chain_delta": float(np.max(sc.chain_delta)),
    }
    _emit(args, result, {"_table.csv": "\n".join(rows) + "\n"})
    return 0


def cmd_cover(args) -> int:
    F = ifsio.load_system(args.system)
    if not 0 <= args.map_index < len(F):
        raise ValueError(f"--map-index {args.map_index} outside [0, {len(F)})")
    Fi = F.maps[args.map_index]
    rep = check_ball_cover(Fi, args.eps, args.delta, args.centers, args.probes,
                           seed=args.seed, threads=args.threads)
    d = Fi.space.dim
    rows = ([",".join([f"X{j}" for j in range(d)] + [f"Z{j}" for j in range(d)]
                      + ["preimage_dist", "epsilon"])]
            + [",".join([repr(float(c)) for c in x] + [repr(float(c)) for c in z]
                        + [repr(dd), repr(args.eps)])
               for x, z, dd in rep.violations])
    result = {"command": "cover", "config": _config(args), **rep.to_dict()}
    del result["violations"]
    result["recorded_violations"] = len(rep.violations)
    _emit(args, result, {"_violations.csv": "\n".join(rows) + "\n"})
    return 0


def cmd_metrics(args) -> int:
    F = ifsio.load_system(args.f)
    G = ifsio.load_system(args.g)
    grid = grid_for(F.space, args.grid)
    if args.metric in ("rho0", "rho1"):
        fn = rho0 if args.metric == "rho0" else rho1
        value = fn(F.maps[0], G.maps[0], grid)
    else:
        fn = dist_D0 if args.metric == "D0" else dist_D1
        value = fn(F, G, grid, mode=args.mode)
    result = {
        "command": "metrics",
        "config": _config(args),
        "metric": args.metric,
        "mode": args.mode,
        "grid_resolution": grid.resolution,
        "value": value,
    }
    _emit(args, result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ifsshadow",
        description="Shadowing, expansiveness and stability experiments for IFSs.",
        epilog="Systems: " + "; ".join(f"{e.name} - {e.doc}" for e in CATALOG.values()),
    )
    p.add_argument("--threads", type=int, default=_default_threads(),
                   help="worker threads for the cover command "
                        "(default: IFSSHADOW_THREADS or cores)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out=True):
        sp.add_argument("--seed", type=int, default=0)
        if out:
            sp.add_argument("--out", help="output path prefix")

    sp = sub.add_parser("generate", help="emit a seeded pseudo-orbit")
    sp.add_argument("--system", required=True)
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--x0")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--len", type=int, required=True)
    sp.add_argument("--noise", default="uniform-ball")
    common(sp)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("shadow", help="generate a pseudo-orbit and shadow it")
    sp.add_argument("--system", required=True)
    sp.add_argument("--sigma")
    sp.add_argument("--x0")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--len", type=int, required=True)
    sp.add_argument("--noise", default="uniform-ball")
    sp.add_argument("--solver", choices=sorted(_SOLVERS), default="auto")
    common(sp)
    sp.set_defaults(func=cmd_shadow)

    sp = sub.add_parser("verify", help="verify a shadowing claim from chain files")
    sp.add_argument("--system", required=True)
    sp.add_argument("--chain", required=True)
    sp.add_argument("--shadow", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("expansive", help="estimate an expansiveness constant")
    sp.add_argument("--system", required=True)
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--grid", type=int)
    sp.add_argument("--pair-tol", type=float, default=1e-3)
    sp.add_argument("--ncap", type=int, default=30)
    sp.add_argument("--deltas", default="0.4,0.3,0.25,0.2,0.15,0.1,0.05,0.02,0.01")
    sp.add_argument("--pairs", type=int, default=512)
    common(sp)
    sp.set_defaults(func=cmd_expansive)

    sp = sub.add_parser("septime", help="separation time of a point pair")
    sp.add_argument("--system", required=True)
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--mu", type=float, help="also estimate N(mu)")
    sp.add_argument("--ncap", type=int, default=30)
    sp.add_argument("--grid", type=int)
    common(sp)
    sp.set_defaults(func=cmd_septime)

    sp = sub.add_parser("perturb", help="perturbed family through adjusted points")
    sp.add_argument("--system", required=True)
    sp.add_argument("--sigma")
    sp.add_argument("--x0")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--len", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--Delta", type=float, required=True)
    sp.add_argument("--grid", type=int)
    common(sp)
    sp.set_defaults(func=cmd_perturb)

    sp = sub.add_parser("movepoints", help="point-moving bump diffeomorphism")
    sp.add_argument("--pairs", required=True,
                    help="p1:q1;p2:q2 with comma-separated coordinates")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--support", type=float)
    sp.add_argument("--grid", type=int, default=256)
    common(sp)
    sp.set_defaults(func=cmd_movepoints)

    sp = sub.add_parser("semiconj", help="sampled semiconjugacy from shadowing")
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--samples", type=int, default=200)
    common(sp)
    sp.set_defaults(func=cmd_semiconj)

    sp = sub.add_parser("cover", help="ball-cover inclusion probe")
    sp.add_argument("--system", required=True)
    sp.add_argument("--map-index", type=int, default=0)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--centers", type=int, required=True)
    sp.add_argument("--probes", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_cover)

    sp = sub.add_parser("metrics", help="map and family distances")
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--metric", choices=("rho0", "rho1", "D0", "D1"), required=True)
    sp.add_argument("--mode", choices=("matched", "all-pairs"), default="matched")
    sp.add_argument("--grid", type=int)
    common(sp)
    sp.set_defaults(func=cmd_metrics)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    except CONTRACT_ERRORS as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
