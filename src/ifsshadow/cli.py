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
import functools
import os
import sys

import numpy as np

from . import io as ifsio
from .core import (EXACT_CHAIN_TOL, SymbolSequence, dist_D0, dist_D1,
                   gen_pseudo_orbit, rho0, validate_chain)
from .expansive import (DELTA_GRID, N_CAP, N_PAIRS, PAIR_TOLERANCE,
                        estimate_expansive_const, estimate_N_of_mu, separation_time)
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


def _emit(args, result: dict, files: dict | None = None) -> None:
    """Write the primary JSON (plus auxiliary files) and echo it to stdout.

    The JSON is `result` plus the command name and its config echo.
    """
    text = ifsio.dump_json({"command": args.command, "config": _config(args),
                            **result})
    sys.stdout.write(text)
    if args.out:
        ifsio.atomic_write_text(f"{args.out}.json", text)
        ifsio.write_json(f"{args.out}.meta.json", {
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        })
        for suffix, content in (files or {}).items():
            ifsio.atomic_write_text(f"{args.out}{suffix}", content)


def _parse_point(text: str) -> np.ndarray:
    """The point of comma-separated coordinates, each finite."""
    p = np.array([float(c) for c in text.split(",")])
    if not np.all(np.isfinite(p)):
        raise ValueError(f"point {text!r} has a non-finite coordinate")
    return p


def _chain(args, noise: str):
    """The system and the seeded pseudo-orbit named by the chain options; with
    no --sigma the schedule is random over the family, seeded by --seed."""
    F = ifsio.load_system(args.system)
    sigma = (ifsio.parse_sigma(args.sigma) if args.sigma
             else SymbolSequence.random(len(F), args.len, args.seed))
    x0 = (_parse_point(args.x0) if args.x0
          else np.random.default_rng(args.seed).random(F.space.dim))
    return F, gen_pseudo_orbit(F, sigma, x0, args.delta, args.len, noise=noise,
                               seed=args.seed)


_NOT_CONFIG = ("out", "func", "threads")     # options left out of the config echo


def _config(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k not in _NOT_CONFIG and v is not None}


def cmd_generate(args) -> int:
    F, chain = _chain(args, args.noise)
    v = validate_chain(F, chain)
    result = {
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
    F, chain = _chain(args, args.noise)
    r = _SOLVERS[args.solver](F, chain)
    result = {
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
    _emit(args, rep.to_dict())
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
        "separation_time": t,
        "N_of_mu": mu_n,
    }
    _emit(args, result)
    return 0


def cmd_perturb(args) -> int:
    F, chain = _chain(args, "uniform-ball")
    res = perturbed_ifs(F, chain, m=args.m, Delta=args.Delta,
                        grid_resolution=args.grid, seed=args.seed)
    result = {
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
    interp = max(float(space.dist(f(p), q)) for p, q in pairs)
    rng = np.random.default_rng(args.seed)
    X = space.uniform(rng, 4096)
    roundtrip = float(np.max(space.dist(f.invert(f(X)), X)))
    r0 = rho0(f, identity_map(space), grid)
    result = {
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
    d = F.space.dim
    table = ifsio.csv_text(
        ["i"] + [f"x{j}" for j in range(d)] + [f"hx{j}" for j in range(d)]
        + ["max_residual"],
        ([i, *x, *hx, r] for i, (x, hx, r) in enumerate(
            zip(sc.samples, sc.images, np.max(sc.residuals, axis=1)))))
    result = {
        "max_residual": sc.max_residual,
        "max_image_dist": sc.max_image_dist(F.space),
        "conjugation_residual": conj,
        "n_flagged": len(sc.flagged),
        "max_chain_delta": float(np.max(sc.chain_delta)),
    }
    _emit(args, result, {"_table.csv": table})
    return 0


def cmd_cover(args) -> int:
    F = ifsio.load_system(args.system)
    if not 0 <= args.map_index < len(F):
        raise ValueError(f"--map-index {args.map_index} outside [0, {len(F)})")
    Fi = F.maps[args.map_index]
    rep = check_ball_cover(Fi, args.eps, args.delta, args.centers, args.probes,
                           seed=args.seed, threads=args.threads)
    d = Fi.space.dim
    table = ifsio.csv_text(
        [f"X{j}" for j in range(d)] + [f"Z{j}" for j in range(d)]
        + ["preimage_dist", "epsilon"],
        ([*x, *z, dd, args.eps] for x, z, dd in rep.violations))
    result = rep.to_dict()
    del result["violations"]
    result["recorded_violations"] = len(rep.violations)
    _emit(args, result, {"_violations.csv": table})
    return 0


def cmd_metrics(args) -> int:
    F = ifsio.load_system(args.f)
    G = ifsio.load_system(args.g)
    grid = grid_for(F.space, args.grid)
    if args.metric in ("rho0", "rho1") and max(len(F), len(G)) > 1:
        raise ValueError(f"{args.metric} compares two maps, not families of "
                         f"{len(F)} and {len(G)} maps; use D0 or D1")
    fn = dist_D0 if args.metric in ("rho0", "D0") else dist_D1
    value = fn(F, G, grid, mode=args.mode)
    result = {
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
    p.add_argument("--threads", type=int,
                   help="worker threads for the cover command, >= 1 "
                        "(default: cores)")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, doc, func, seed=True):
        """The subparser of one command, with --out and, for the commands
        that draw random numbers, --seed."""
        sp = sub.add_parser(name, help=doc)
        sp.set_defaults(func=func)
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", help="output path prefix")
        return sp

    def chain_options(sp, sigma_required=False, noise=True):
        sp.add_argument("--system", required=True)
        sp.add_argument("--sigma", required=sigma_required)
        sp.add_argument("--x0")
        sp.add_argument("--delta", type=float, required=True)
        sp.add_argument("--len", type=int, required=True)
        if noise:
            sp.add_argument("--noise", default="uniform-ball")

    sp = command("generate", "emit a seeded pseudo-orbit", cmd_generate)
    chain_options(sp, sigma_required=True)

    sp = command("shadow", "generate a pseudo-orbit and shadow it", cmd_shadow)
    chain_options(sp)
    sp.add_argument("--solver", choices=sorted(_SOLVERS), default="auto")

    sp = command("verify", "verify a shadowing claim from chain files", cmd_verify,
                 seed=False)
    sp.add_argument("--system", required=True)
    sp.add_argument("--chain", required=True)
    sp.add_argument("--shadow", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--tol", type=float, default=EXACT_CHAIN_TOL)

    sp = command("expansive", "estimate an expansiveness constant", cmd_expansive)
    sp.add_argument("--system", required=True)
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--grid", type=int)
    sp.add_argument("--pair-tol", type=float, default=PAIR_TOLERANCE)
    sp.add_argument("--ncap", type=int, default=N_CAP)
    sp.add_argument("--deltas", default=",".join(map(str, DELTA_GRID)))
    sp.add_argument("--pairs", type=int, default=N_PAIRS)

    sp = command("septime", "separation time of a point pair", cmd_septime)
    sp.add_argument("--system", required=True)
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--mu", type=float, help="also estimate N(mu)")
    sp.add_argument("--ncap", type=int, default=N_CAP)
    sp.add_argument("--grid", type=int)

    sp = command("perturb", "perturbed family through adjusted points", cmd_perturb)
    chain_options(sp, noise=False)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--Delta", type=float, required=True)
    sp.add_argument("--grid", type=int)

    sp = command("movepoints", "point-moving bump diffeomorphism", cmd_movepoints)
    sp.add_argument("--pairs", required=True,
                    help="p1:q1;p2:q2 with comma-separated coordinates")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--support", type=float)
    sp.add_argument("--grid", type=int)

    sp = command("semiconj", "sampled semiconjugacy from shadowing", cmd_semiconj,
                 seed=False)
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--samples", type=int, default=200)

    sp = command("cover", "ball-cover inclusion probe", cmd_cover)
    sp.add_argument("--system", required=True)
    sp.add_argument("--map-index", type=int, default=0)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--centers", type=int, required=True)
    sp.add_argument("--probes", type=int, required=True)

    sp = command("metrics", "map and family distances", cmd_metrics, seed=False)
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--metric", choices=("rho0", "rho1", "D0", "D1"), required=True)
    sp.add_argument("--mode", choices=("matched", "all-pairs"), default="matched")
    sp.add_argument("--grid", type=int)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call (parsing leaves the
    parser unchanged, so one serves every call in a process)."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.threads is None:
            args.threads = os.cpu_count() or 1
        if args.threads < 1:
            raise ValueError(f"threads must be >= 1, got {args.threads}")
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
