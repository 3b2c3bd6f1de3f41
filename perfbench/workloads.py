"""The four benchmark workloads.

Each workload is one closed-loop client: it runs its task kinds in a fixed
cycle and starts a task only when the previous one has finished.  A task
calls the public library (or the CLI) on inputs drawn from its own seeded
generator and returns a check, which the runner calls untimed; a check
raises ``CheckFailed`` when an output breaks the bound of the acceptance
criterion the task mirrors.  Each check recomputes its quantity from the
returned points where that is cheap, instead of trusting the library's own
summary fields.

Set-up builds the catalog systems (with their build-time self-checks),
grids and sample tables the tasks share.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(AssertionError):
    """An output broke the bound its task checks."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def torus_dist(a, b) -> np.ndarray:
    v = np.abs(np.asarray(b, float) - np.asarray(a, float)) % 1.0
    v = np.minimum(v, 1.0 - v)
    return np.sqrt(np.sum(v * v, axis=-1))


def chain_residual(F, points, symbols) -> float:
    """max_k dist(x_{k+1}, f_{s(k)}(x_k)), from the maps' forward formulas."""
    points = np.asarray(points, float)
    symbols = np.asarray(symbols)
    images = np.empty_like(points[:-1])
    for s in np.unique(symbols):
        idx = symbols == s
        images[idx] = F.maps[int(s)].fwd(points[:-1][idx])
    if F.space.periodic:
        return float(np.max(torus_dist(images, points[1:])))
    return float(np.max(np.linalg.norm(images - points[1:], axis=-1)))


def schedule(lib, rng, n_symbols: int, length: int):
    """Random periodic symbol schedule drawn by the benchmark."""
    window = rng.integers(0, n_symbols, size=length)
    return lib.SymbolSequence(window=tuple(window.tolist())), window


def noise_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


@dataclass
class Context:
    """What a task sees: the library, its sizes and the set-up state."""

    lib: object
    size: dict
    threads: int
    scratch: Path
    state: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Context, np.random.Generator], dict]
    cycle: tuple[tuple[str, Callable], ...]
    full: dict
    tiny: dict


# ---------------------------------------------------------------------------
# shadow: per-step stepping, no linear solve
# ---------------------------------------------------------------------------

CONTRACTION_Q, CONTRACTION_DELTA = 0.5, 0.01
CAT_DELTA, CAT_SUP_BOUND = 1e-3, 2.3e-3


def shadow_setup(ctx, rng):
    lib = ctx.lib
    return {"F": lib.build_system(f"contraction:{CONTRACTION_Q}"),
            "C": lib.build_system("cat")}


def task_contraction(ctx, rng):
    lib, F, n = ctx.lib, ctx.state["F"], ctx.size["links"]
    sigma, symbols = schedule(lib, rng, 2, n)
    chain = lib.gen_pseudo_orbit(F, sigma, rng.random(1), CONTRACTION_DELTA, n,
                                 seed=noise_seed(rng))
    r = lib.shadow_contraction(F, chain)

    def check():
        x, y = chain.points, r.shadow.points
        require(x.shape == y.shape == (n + 1, 1), f"shapes {x.shape}, {y.shape}")
        require(chain_residual(F, x, symbols) <= CONTRACTION_DELTA * (1 + 1e-9),
                "input is not a delta-chain")
        res = chain_residual(F, y, symbols)
        require(res <= 1e-9, f"shadow residual {res:.3e} > 1e-9")
        sup = float(np.max(np.abs(x - y)))
        bound = CONTRACTION_DELTA / (1 - CONTRACTION_Q)
        require(sup <= bound + 1e-12, f"sup_dist {sup:.4e} > delta/(1-q) = {bound}")
    return check


def task_cat(ctx, rng):
    lib, C, n = ctx.lib, ctx.state["C"], ctx.size["links"]
    chain = lib.gen_pseudo_orbit(C, lib.SymbolSequence.constant(0), rng.random(2),
                                 CAT_DELTA, n, seed=noise_seed(rng))
    r = lib.shadow_linear_hyperbolic(C.maps[0], chain)

    def check():
        x, y, zeros = chain.points, r.shadow.points, np.zeros(n, int)
        require(x.shape == y.shape == (n + 1, 2), f"shapes {x.shape}, {y.shape}")
        require(chain_residual(C, x, zeros) <= CAT_DELTA * (1 + 1e-9),
                "input is not a delta-chain")
        res = chain_residual(C, y, zeros)
        require(res <= 1e-9, f"shadow residual {res:.3e} > 1e-9")
        sup = float(np.max(torus_dist(x, y)))
        require(sup <= CAT_SUP_BOUND, f"sup_dist {sup:.4e} > {CAT_SUP_BOUND}")
    return check


# ---------------------------------------------------------------------------
# newton: Gauss-Newton block solves
# ---------------------------------------------------------------------------

TORUS_DELTA = 1e-4


def newton_setup(ctx, rng):
    lib = ctx.lib
    C = lib.build_system("cat")
    # criterion 6: epsilon is half the sampled expansiveness constant of cat
    est = lib.estimate_expansive_const(C, lib.SymbolSequence.constant(0),
                                       lib.MetricGrid(C.space, 64),
                                       pair_tolerance=1e-2, n_cap=30, seed=2)
    require(est.candidate_delta is not None, "cat shows no expansiveness constant")
    return {"T": lib.build_system("torus_example"), "C": C,
            "eps": est.candidate_delta / 2.0}


def task_torus_newton(ctx, rng):
    lib, T, n = ctx.lib, ctx.state["T"], ctx.size["links"]
    sigma, symbols = schedule(lib, rng, 2, n)
    chain = lib.gen_pseudo_orbit(T, sigma, rng.random(4), TORUS_DELTA, n,
                                 seed=noise_seed(rng))
    r = lib.shadow_newton(T, chain)

    def check():
        y = r.shadow.points
        require(y.shape == (n + 1, 4), f"shape {y.shape}")
        res = chain_residual(T, y, symbols)
        require(res <= 1e-9, f"Newton residual {res:.3e} > 1e-9")
    return check


def task_uniqueness(ctx, rng):
    lib, C = ctx.lib, ctx.state["C"]
    n, trials = ctx.size["uniq_links"], ctx.size["trials"]
    sig0 = lib.SymbolSequence.constant(0)
    chain = lib.gen_pseudo_orbit(C, sig0, rng.random(2), CAT_DELTA, n,
                                 seed=noise_seed(rng))
    v = lib.check_uniqueness(C, sig0, chain, ctx.state["eps"], trials=trials,
                             seed=noise_seed(rng))
    rn = lib.shadow_newton(C, chain)
    rh = lib.shadow_linear_hyperbolic(C.maps[0], chain)

    def check():
        require(v.status == "unique" and v.n_candidates == trials,
                f"uniqueness {v.status} with {v.n_candidates}/{trials} candidates")
        yh = rh.shadow.points
        res = chain_residual(C, yh, np.zeros(n, int))
        require(res <= 1e-9, f"closed-form residual {res:.3e} > 1e-9")
        gap = float(np.max(torus_dist(rn.shadow.points, yh)))
        require(gap <= 1e-8, f"Newton vs closed form differ by {gap:.3e} > 1e-8")
    return check


# ---------------------------------------------------------------------------
# stability: wide batches through the map and stepping layers
# ---------------------------------------------------------------------------

MOVE_DELTA = 0.02
PERTURB_DELTA = 0.05
SEMICONJ_EPS = 0.05
COVER_EPS = COVER_DELTA = 0.05


def stability_setup(ctx, rng):
    lib, size = ctx.lib, ctx.size
    sp = lib.Space(2)
    grid = lib.MetricGrid(sp, size["grid"])
    C = lib.build_system("cat")
    grid64 = lib.MetricGrid(C.space, 64)
    T = lib.build_system("torus_example")
    tgrid = lib.MetricGrid(T.space, size["torus_grid"])
    for g in (grid, grid64, tgrid):
        g.points  # build each net once; the tasks share them
    return {
        "id": lib.identity_map(sp), "grid": grid,
        "roundtrip": rng.random((size["roundtrip"], 2)),
        "C": C, "G": lib.build_system("cat_bumped:1e-3"), "grid64": grid64,
        "lattice": lib.lattice_samples(size["samples"], 2),
        "T": T, "tgrid": tgrid, "F1": lib.build_system("torus_F1").maps[0],
    }


def task_move_points(ctx, rng):
    lib, st = ctx.lib, ctx.state
    centers = []
    while len(centers) < 5:      # criterion 3: five sources 0.2 apart
        c = rng.random(2)
        if all(torus_dist(c, p) >= 0.2 for p in centers):
            centers.append(c)
    P = np.array(centers)
    angle = 2 * np.pi * rng.random(5)
    radius = 0.019 * np.sqrt(rng.random(5))
    Q = (P + radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], -1)) % 1.0
    f = lib.move_points_diffeo(list(zip(P, Q)), MOVE_DELTA)
    moved = f(P)
    r0 = lib.rho0(f, st["id"], st["grid"])
    X = st["roundtrip"]
    back = f.invert(f(X))

    def check():
        interp = float(np.max(torus_dist(moved, Q)))
        require(interp <= 1e-12, f"interpolation error {interp:.3e} > 1e-12")
        require(r0 < 2 * MOVE_DELTA, f"rho0(f, id) = {r0:.4e} >= 2 delta")
        rt = float(np.max(torus_dist(back, X)))
        require(rt <= 1e-10, f"inverse round trip {rt:.3e} > 1e-10")
    return check


def task_perturbed_ifs(ctx, rng):
    lib, C, m = ctx.lib, ctx.state["C"], 10
    chain = lib.gen_pseudo_orbit(C, lib.SymbolSequence.constant(0), rng.random(2),
                                 CAT_DELTA, 30, seed=noise_seed(rng))
    res = lib.perturbed_ifs(C, chain, m=m, Delta=PERTURB_DELTA, seed=noise_seed(rng))

    def check():
        require(res.exact_residual <= 1e-9, f"exact_residual {res.exact_residual:.3e}")
        require(res.matched_d0 < PERTURB_DELTA, f"matched D0 {res.matched_d0:.4e}")
        y = res.chain.points
        symbols = [res.chain.sigma.lookup(k) for k in range(len(y) - 1)]
        resid = chain_residual(res.gs, y, symbols)
        require(resid <= 1e-9, f"perturbed chain residual {resid:.3e} > 1e-9")
        moved = float(np.max(torus_dist(chain.points[:m + 1], y[:m + 1])))
        require(moved < PERTURB_DELTA, f"adjusted points moved {moved:.4e}")
    return check


def task_semiconj(ctx, rng):
    lib, st, K = ctx.lib, ctx.state, ctx.size["K"]
    C, G, sig0 = st["C"], st["G"], lib.SymbolSequence.constant(0)
    samples = (st["lattice"] + rng.random(2)) % 1.0   # a shifted lattice
    d0 = lib.dist_D0(C, G, st["grid64"], mode="matched")
    sc = lib.build_semiconj(C, G, sig0, eps=SEMICONJ_EPS, samples=samples, K=K)
    conj = lib.semiconj_residual(C, G, sig0, sc, K=K)

    def check():
        require(0.0 < d0 <= 1e-3, f"matched D0 {d0:.4e} outside (0, 1e-3]")
        require(not sc.flagged, f"{len(sc.flagged)} samples flagged")
        far = float(np.max(torus_dist(sc.samples, sc.images)))
        require(far < SEMICONJ_EPS, f"max dist(x, h(x)) {far:.4e} >= eps")
        worst = float(np.nanmax(sc.residuals))
        require(worst < SEMICONJ_EPS, f"shadowing residual {worst:.4e} >= eps")
        require(conj < 2 * SEMICONJ_EPS, f"conjugation residual {conj:.4e} >= 2 eps")
    return check


def orbit_separation(F, sigma, X, Y, n_cap: int) -> np.ndarray:
    """max over |n| <= n_cap of dist(O(n)x, O(n)y), per pair, stepping each
    map's forward formula or closed-form inverse and reducing mod 1 as the
    library does, so the orbits match it bit for bit."""
    def step(f, P):
        P = np.asarray(f(P), float)
        return P - np.floor(P)

    best = torus_dist(X, Y)
    fx, fy, bx, by = X, Y, X, Y
    for n in range(1, n_cap + 1):
        fwd, inv = F.maps[sigma.lookup(n - 1)].fwd, F.maps[sigma.lookup(-n)].inv
        fx, fy, bx, by = step(fwd, fx), step(fwd, fy), step(inv, bx), step(inv, by)
        best = np.maximum(best, np.maximum(torus_dist(fx, fy), torus_dist(bx, by)))
    return best


def task_expansive(ctx, rng):
    lib, T = ctx.lib, ctx.state["T"]
    sigma, _ = schedule(lib, rng, 2, int(rng.integers(2, 8)))
    rep = lib.estimate_expansive_const(T, sigma, ctx.state["tgrid"],
                                       seed=noise_seed(rng))

    # torus_example is not expansive everywhere: F1 and F2 both fix the
    # origin with fibre matrix [[1, 1], [0, 1]], so a sampled pair there can
    # legitimately give "violated".  The check is the report's consistency,
    # and every recorded violation re-stepped independently.
    def check():
        deltas = [v.delta for v in rep.verdicts]
        counts = [v.n_violations for v in rep.verdicts]
        require(deltas == sorted(deltas, reverse=True)
                and counts == sorted(counts, reverse=True),
                f"violation counts {counts} not monotone in Delta {deltas}")
        clean = [v.delta for v in rep.verdicts if not v.violated]
        require(rep.candidate_delta == (clean[0] if clean else None)
                and rep.verdict == ("expansive-at-Delta" if clean else "violated"),
                f"verdict {rep.verdict} with candidate {rep.candidate_delta}")
        if rep.violating_pairs:
            X, Y, S = (np.array(c) for c in zip(*rep.violating_pairs))
            sep = orbit_separation(T, sigma, X, Y, rep.n_cap)
            require(np.all(np.abs(sep - S) <= 1e-12) and np.all(S <= deltas[0]),
                    "recorded violations do not reproduce")
    return check


def task_ball_cover(ctx, rng):
    lib, F1, size = ctx.lib, ctx.state["F1"], ctx.size
    n = size["centers"]
    centers = rng.random((n, 4))
    rep = lib.check_ball_cover(F1, COVER_EPS, COVER_DELTA, n, size["probes"],
                               seed=noise_seed(rng), centers=centers,
                               threads=ctx.threads)
    k = size["oracle_centers"]
    oracle = lib.check_ball_cover(F1, COVER_EPS, COVER_DELTA, k,
                                  size["oracle_probes"], seed=noise_seed(rng),
                                  centers=centers[:k])

    def check():
        flags = rep.center_flags
        require(np.array_equal(flags[:k], oracle.center_flags),
                "sampled verdict disagrees with the dense oracle")
        require(rep.passed == (not flags.any()), "passed disagrees with the flags")
        require(rep.n_violations >= int(flags.sum()), "fewer violations than flags")
        for x, z, dd in rep.violations:
            pre = float(torus_dist(F1.invert(z), x))
            require(pre >= COVER_EPS and abs(pre - dd) <= 1e-12,
                    f"recorded violation is not one (preimage distance {pre:.4e})")
            require(float(torus_dist(z, F1(x))) <= COVER_EPS + COVER_DELTA + 1e-12,
                    "probe outside the ball around F(X)")
    return check


# ---------------------------------------------------------------------------
# cli: the ten commands in-process, fixed per-call costs
# ---------------------------------------------------------------------------

CLI_SYSTEMS = ("cat", "contraction:0.5", "torus_F1", "torus_F2", "cat_bumped:1e-3")


def cli_argv(name: str, seed: int, out: Path) -> list[str]:
    """Acceptance criterion 9 configs, with the benchmark's seeds."""
    s = str(seed)
    return {
        "generate": ["generate", "--system", "cat", "--sigma", "constant:0",
                     "--delta", "0.001", "--len", "200", "--seed", s],
        "shadow": ["shadow", "--system", "contraction:0.5", "--delta", "0.01",
                   "--len", "1000", "--seed", s],
        "verify": ["verify", "--system", "contraction:0.5",
                   "--chain", str(out / "shadow_chain.csv"),
                   "--shadow", str(out / "shadow_shadow.csv"), "--eps", "0.02"],
        "metrics": ["metrics", "--f", "torus_F1", "--g", "torus_F2",
                    "--metric", "rho1", "--grid", "8"],
        "cover": ["cover", "--system", "torus_F1", "--eps", "0.05",
                  "--delta", "0.05", "--centers", "100", "--probes", "100",
                  "--seed", s],
        "expansive": ["expansive", "--system", "cat", "--sigma", "constant:0",
                      "--grid", "64", "--pair-tol", "0.01", "--seed", s],
        "septime": ["septime", "--system", "cat", "--sigma", "constant:0",
                    "--x", "0.2,0.7", "--y", "0.2009,0.7005", "--eta", "0.1",
                    "--mu", "0.001", "--grid", "64", "--seed", s],
        "perturb": ["perturb", "--system", "cat", "--sigma", "constant:0",
                    "--x0", "0.37,0.52", "--delta", "0.001", "--len", "30",
                    "--m", "10", "--Delta", "0.05", "--seed", s],
        "movepoints": ["movepoints", "--pairs", "0.3,0.3:0.31,0.3",
                       "--delta", "0.02", "--grid", "128", "--seed", s],
        "semiconj": ["semiconj", "--f", "cat", "--g", "cat_bumped:1e-3",
                     "--sigma", "constant:0", "--eps", "0.05", "--K", "5",
                     "--samples", "200"],
    }[name]


def _first_run_check(name: str, r: dict) -> None:
    """The bounds a command's first output must meet (later runs must
    reproduce it byte for byte)."""
    if name == "generate":
        require(r["measured_residual"] <= 0.001 and r["n_points"] == 201,
                f"generate: {r}")
    elif name == "shadow":
        require(r["residual"] <= 1e-9 and r["sup_dist"] <= 0.02 + 1e-12,
                f"shadow: residual {r['residual']}, sup_dist {r['sup_dist']}")
    elif name == "verify":
        require(r["ok"] is True, f"verify: {r}")
    elif name == "metrics":
        require(np.isfinite(r["value"]) and r["value"] > 0, f"metrics: {r['value']}")
    elif name == "cover":
        require(r["n_centers"] == 100 and r["n_probes"] == 100, f"cover: {r}")
    elif name == "expansive":
        require(r["verdict"] == "expansive-at-Delta", f"expansive: {r['verdict']}")
    elif name == "septime":
        # criterion 5: separation after 5 steps, N(mu) = 6 +- 1
        require(r["separation_time"] == 5 and r["N_of_mu"] is not None
                and abs(r["N_of_mu"] - 6) <= 1, f"septime: {r}")
    elif name == "perturb":
        require(r["exact_residual"] <= 1e-9 and r["matched_D0"] < 0.05
                and r["max_point_dist"] < 0.05, f"perturb: {r}")
    elif name == "movepoints":
        require(r["interpolation_error"] <= 1e-12 and r["roundtrip_error"] <= 1e-10
                and r["rho0_to_identity"] < 0.04, f"movepoints: {r}")
    elif name == "semiconj":
        require(r["n_flagged"] == 0 and r["max_residual"] < 0.05
                and r["conjugation_residual"] < 0.1, f"semiconj: {r}")


def cli_setup(ctx, rng):
    lib = ctx.lib
    lib.cli.build_parser()
    for spec in CLI_SYSTEMS:
        lib.io.load_system(spec)
    # one seed per command for the whole run, so reruns must be identical
    names = [name for name, _ in CLI.cycle]
    return {"seeds": {n: int(rng.integers(1, 10**6)) for n in names},
            "first": {}}


def cli_task(name: str):
    def task(ctx, rng):
        lib, out = ctx.lib, ctx.scratch
        argv = (["--threads", str(ctx.threads)]
                + cli_argv(name, ctx.state["seeds"][name], out)
                + ["--out", str(out / name)])
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = lib.cli.main(argv)

        def check():
            require(code == 0, f"{name} exited with {code}: {sink.getvalue()[-300:]}")
            data = (out / f"{name}.json").read_bytes()
            first = ctx.state["first"]
            if name not in first:
                _first_run_check(name, json.loads(data))
                first[name] = data
            else:
                require(data == first[name], f"{name} output differs from its first run")
        return check

    task.__name__ = f"cli_{name}"
    return task


# Cycle mixes.  Where two kinds' latencies are far apart, the mix keeps the
# 50th and 90th percentiles inside one kind's latencies rather than on the
# boundary between two, where they would jump from run to run.

# shadow runs the contraction twice per cat chain: the two kinds take about
# the same time on a quiet host but drift apart on a loaded one, and in equal
# numbers the 50th percentile would then sit on the boundary between them
SHADOW = Workload(
    "shadow", shadow_setup,
    (("contraction", task_contraction), ("contraction", task_contraction),
     ("cat", task_cat)),
    full=dict(links=2000, trace_cycles=200),
    tiny=dict(links=40, trace_cycles=1),
)

NEWTON = Workload(
    "newton", newton_setup,
    (("torus_newton", task_torus_newton), ("torus_newton", task_torus_newton),
     ("uniqueness", task_uniqueness)),
    full=dict(links=1000, uniq_links=300, trials=20, trace_cycles=15),
    tiny=dict(links=40, uniq_links=300, trials=4, trace_cycles=1),
)

STABILITY = Workload(
    "stability", stability_setup,
    (("move_points", task_move_points), ("perturbed_ifs", task_perturbed_ifs),
     ("semiconj", task_semiconj), ("expansive", task_expansive),
     ("ball_cover", task_ball_cover)),
    full=dict(grid=256, roundtrip=2000, samples=400, K=20, torus_grid=24,
              centers=200, probes=1000, oracle_centers=4, oracle_probes=20000,
              trace_cycles=6),
    tiny=dict(grid=32, roundtrip=100, samples=200, K=3, torus_grid=6,
              centers=8, probes=50, oracle_centers=2, oracle_probes=500,
              trace_cycles=1),
)

CLI_COMMANDS = ("generate", "shadow", "verify", "metrics", "cover", "expansive",
                "septime", "perturb", "movepoints", "semiconj")

# semiconj, much the slowest command, runs twice per cycle: as one task in
# ten it would put the 90th percentile on the edge of its latencies
CLI = Workload(
    "cli", cli_setup,
    tuple((n, cli_task(n)) for n in CLI_COMMANDS + ("semiconj",)),
    full=dict(trace_cycles=15),
    tiny=dict(trace_cycles=1),
)

WORKLOADS = {w.name: w for w in (SHADOW, NEWTON, STABILITY, CLI)}
