"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import time

import numpy as np

from ifsshadow import (MetricGrid, Space, SymbolSequence, build_semiconj,
                       check_ball_cover, check_uniqueness, dist_D0,
                       estimate_N_of_mu, estimate_expansive_const,
                       gen_pseudo_orbit, identity_map, lattice_samples,
                       move_points_diffeo, perturbed_ifs, rho0,
                       semiconj_residual, separation_time, shadow_contraction,
                       shadow_linear_hyperbolic, shadow_newton, validate_chain)
from ifsshadow.cli import main as cli_main
from ifsshadow.space import ball_sample
from ifsshadow.systems import (build_bumped_cat_ifs, build_cat_ifs,
                               build_contraction_ifs, build_identity_ifs,
                               build_rotation_ifs, build_torus_f1)

SIG0 = SymbolSequence.constant(0)


def report(num, name, ok, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {verdict}: {name} "
          f"[{elapsed:.2f}s / budget {budget:g}s]")
    return ok


def test_criterion_1_contraction_shadowing_bound():
    F = build_contraction_ifs(0.5, [0.0, 0.5])
    bound = 0.01 / (1 - 0.5)
    t0 = time.perf_counter()
    worst_sup, worst_res = 0.0, 0.0
    for seed in range(100):
        sigma = SymbolSequence.random(2, 1000, seed=1000 + seed)
        x0 = np.random.default_rng(seed).random(1)
        chain = gen_pseudo_orbit(F, sigma, x0, 0.01, 1000, seed=seed)
        r = shadow_contraction(F, chain)
        worst_sup = max(worst_sup, r.sup_dist)
        worst_res = max(worst_res, r.residual)
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-9 and worst_sup <= bound + 1e-12 and elapsed <= 1.0
    assert report(1, "contraction shadowing bound", ok, elapsed, 1.0)
    assert worst_res <= 1e-9
    assert worst_sup <= bound + 1e-12
    assert elapsed <= 1.0


def test_criterion_2_hyperbolic_bound_and_solver_equivalence():
    C = build_cat_ifs()
    lam_s, lam_u = sorted(np.roots([1.0, -3.0, 1.0]))
    bound = 1e-3 * (1 / (1 - lam_s) + 1 / (lam_u - 1))
    assert bound <= 2.3e-3
    t0 = time.perf_counter()
    worst_sup, worst_gap = 0.0, 0.0
    for seed in range(20):
        x0 = np.random.default_rng(100 + seed).random(2)
        chain = gen_pseudo_orbit(C, SIG0, x0, 1e-3, 500, seed=seed)
        rh = shadow_linear_hyperbolic(C.maps[0], chain)
        rn = shadow_newton(C, chain)
        worst_sup = max(worst_sup, rh.sup_dist)
        worst_gap = max(worst_gap, float(np.max(
            C.space.dist(rh.shadow.points, rn.shadow.points))))
    elapsed = time.perf_counter() - t0
    ok = worst_sup <= 2.3e-3 and worst_gap <= 1e-8 and elapsed <= 5.0
    assert report(2, "hyperbolic shadowing + solver equivalence", ok, elapsed, 5.0)
    assert worst_sup <= 2.3e-3
    assert worst_gap <= 1e-8
    assert elapsed <= 5.0


def test_criterion_3_point_moving_diffeomorphisms():
    sp = Space(2)
    idm = identity_map(sp)
    grid = MetricGrid(sp, 256)
    grid.points  # build the net once; instances share it
    delta = 0.02
    rng_rt = np.random.default_rng(999)
    X = sp.uniform(rng_rt, 2000)
    t0 = time.perf_counter()
    worst_interp, worst_rho0, worst_rt = 0.0, 0.0, 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        centers = []
        while len(centers) < 5:
            c = rng.random(2)
            if all(sp.dist(c, p) >= 0.2 for p in centers):
                centers.append(c)
        disp = ball_sample(rng, 5, 2, 0.019)
        pairs = [(centers[i], sp.normalize(centers[i] + disp[i]))
                 for i in range(5)]
        f = move_points_diffeo(pairs, delta)
        worst_interp = max(worst_interp,
                           max(float(sp.dist(f(p), q)) for p, q in pairs))
        worst_rho0 = max(worst_rho0, rho0(f, idm, grid))
        worst_rt = max(worst_rt, float(np.max(sp.dist(f.invert(f(X)), X))))
    elapsed = time.perf_counter() - t0
    ok = (worst_interp <= 1e-12 and worst_rho0 < 2 * delta
          and worst_rt <= 1e-10 and elapsed <= 10.0)
    assert report(3, "point-moving diffeomorphism construction", ok, elapsed, 10.0)
    assert worst_interp <= 1e-12
    assert worst_rho0 < 2 * delta
    assert worst_rt <= 1e-10
    assert elapsed <= 10.0


def test_criterion_4_perturbed_family_construction():
    C = build_cat_ifs()
    t0 = time.perf_counter()
    for seed in range(20):
        x0 = np.random.default_rng(200 + seed).random(2)
        chain = gen_pseudo_orbit(C, SIG0, x0, 1e-3, 30, seed=seed)
        res = perturbed_ifs(C, chain, m=10, Delta=0.05, seed=seed)
        assert res.exact_residual <= 1e-9
        assert res.matched_d0 < 0.05
        assert res.max_point_dist < 0.05
        assert validate_chain(res.gs, res.chain).is_exact_chain
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 10.0
    assert report(4, "perturbed-family construction", ok, elapsed, 10.0)
    assert elapsed <= 10.0


def test_criterion_5_expansiveness_estimation():
    C = build_cat_ifs()
    lam_u = (3 + np.sqrt(5)) / 2
    v_u = np.array([1.0, lam_u - 2])
    v_u /= np.linalg.norm(v_u)
    t0 = time.perf_counter()
    times = []
    for seed in range(10):
        x = np.random.default_rng(seed).random(2)
        y = C.space.normalize(x + 1e-3 * v_u)
        times.append(separation_time(C, SIG0, x, y, eta=0.1, n_cap=30))
    grid = MetricGrid(C.space, 64)
    N = estimate_N_of_mu(C, SIG0, eta=0.1, mu=1e-3, grid=grid, n_cap=30, seed=1)
    I = build_identity_ifs(2)
    rep_i = estimate_expansive_const(I, SIG0, MetricGrid(I.space, 64),
                                     pair_tolerance=1e-3, n_cap=10, seed=2)
    R = build_rotation_ifs([0.1])
    rep_r = estimate_expansive_const(R, SIG0, MetricGrid(R.space, 256),
                                     pair_tolerance=1e-3, n_cap=10, seed=2)
    elapsed = time.perf_counter() - t0
    sep_ok = all(t == 5 for t in times)
    n_ok = N is not None and abs(N - 6) <= 1
    controls_ok = (
        all(v.violated for v in rep_i.verdicts if v.delta >= 1e-3)
        and all(v.violated for v in rep_r.verdicts if v.delta >= 1e-3)
    )
    ok = sep_ok and n_ok and controls_ok and elapsed <= 10.0
    assert report(5, "expansiveness estimation", ok, elapsed, 10.0)
    assert sep_ok and n_ok and controls_ok
    assert elapsed <= 10.0


def test_criterion_6_shadowing_uniqueness():
    C = build_cat_ifs()
    grid = MetricGrid(C.space, 64)
    est = estimate_expansive_const(C, SIG0, grid, pair_tolerance=1e-2,
                                   n_cap=30, seed=2)
    eps = est.candidate_delta / 2.0
    delta = 1e-3
    assert delta < eps / 10          # delta well below epsilon
    t0 = time.perf_counter()
    spreads = []
    for seed in range(10):
        x0 = np.random.default_rng(50 + seed).random(2)
        chain = gen_pseudo_orbit(C, SIG0, x0, delta, 300, seed=seed)
        v = check_uniqueness(C, SIG0, chain, eps, trials=20, seed=seed)
        assert v.status == "unique" and v.n_candidates == 20
        spreads.append(v.core_spread)
    I = build_identity_ifs(2)
    const_pts = np.tile([0.4, 0.6], (101, 1))
    from ifsshadow import ChainRecord
    const = ChainRecord(const_pts, SIG0, 0.0)
    vi = check_uniqueness(I, SIG0, const, eps=0.1, trials=20, seed=1)
    elapsed = time.perf_counter() - t0
    ok = (max(spreads) <= 1e-8 and vi.status == "not-unique"
          and elapsed <= 5.0)
    assert report(6, "shadowing uniqueness", ok, elapsed, 5.0)
    assert max(spreads) <= 1e-8
    assert vi.status == "not-unique"
    assert elapsed <= 5.0


def test_criterion_7_semiconjugacy():
    C = build_cat_ifs()
    G = build_bumped_cat_ifs(1e-3)
    eps, K = 0.05, 20
    t0 = time.perf_counter()
    d0 = dist_D0(C, G, MetricGrid(C.space, 64), mode="matched")
    samples = lattice_samples(200, 2)
    sc = build_semiconj(C, G, SIG0, eps=eps, samples=samples, K=K)
    conj = semiconj_residual(C, G, SIG0, sc, K=K)
    elapsed = time.perf_counter() - t0
    per_sample_dist = C.space.dist(sc.samples, sc.images)
    ok = (0.0 < d0 <= 1e-3 and not sc.flagged
          and float(np.max(per_sample_dist)) < eps
          and sc.max_residual < eps
          and conj < 2 * eps and elapsed <= 30.0)
    assert report(7, "semiconjugacy from shadowing", ok, elapsed, 30.0)
    assert 0.0 < d0 <= 1e-3
    assert not sc.flagged
    assert float(np.max(per_sample_dist)) < eps
    assert conj < 2 * eps
    assert elapsed <= 30.0


def test_criterion_8_ball_cover_oracle_agreement(tmp_path):
    F1 = build_torus_f1().maps[0]
    eps = delta = 0.05
    seed = 7
    t0 = time.perf_counter()
    centers = Space(4).uniform(np.random.default_rng(seed), 1000)
    main = check_ball_cover(F1, eps, delta, 1000, 1000, seed=seed,
                            centers=centers)
    oracle = check_ball_cover(F1, eps, delta, 10, 100000, seed=117,
                              centers=centers[:10])
    elapsed = time.perf_counter() - t0
    agreement = bool(np.array_equal(main.center_flags[:10], oracle.center_flags))
    # emit the violation report with its reproducing seed
    out = tmp_path / "cover_violations.json"
    out.write_text(json.dumps(main.to_dict(), sort_keys=True))
    ok = agreement and elapsed <= 60.0
    assert report(8, "ball-cover verdict vs dense oracle "
                     f"(verdict: {'pass' if main.passed else 'violations found'})",
                  ok, elapsed, 60.0)
    assert agreement
    assert elapsed <= 60.0


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    commands = {
        "generate": ["generate", "--system", "cat", "--sigma", "constant:0",
                     "--delta", "0.001", "--len", "200", "--seed", "5"],
        "shadow": ["shadow", "--system", "contraction:0.5", "--delta", "0.01",
                   "--len", "1000", "--seed", "42"],
        "metrics": ["metrics", "--f", "torus_F1", "--g", "torus_F2",
                    "--metric", "rho1", "--grid", "8"],
        "cover": ["cover", "--system", "torus_F1", "--eps", "0.05",
                  "--delta", "0.05", "--centers", "100", "--probes", "100",
                  "--seed", "7"],
        "expansive": ["expansive", "--system", "cat", "--sigma", "constant:0",
                      "--grid", "64", "--pair-tol", "0.01"],
        "septime": ["septime", "--system", "cat", "--sigma", "constant:0",
                    "--x", "0.2,0.7", "--y", "0.2009,0.7005", "--eta", "0.1",
                    "--mu", "0.001", "--grid", "64"],
        "perturb": ["perturb", "--system", "cat", "--sigma", "constant:0",
                    "--x0", "0.37,0.52", "--delta", "0.001", "--len", "30",
                    "--m", "10", "--Delta", "0.05", "--seed", "17"],
        "movepoints": ["movepoints", "--pairs", "0.3,0.3:0.31,0.3",
                       "--delta", "0.02", "--grid", "128"],
        "semiconj": ["semiconj", "--f", "cat", "--g", "cat_bumped:1e-3",
                     "--sigma", "constant:0", "--eps", "0.05", "--K", "5",
                     "--samples", "200"],
    }
    ok = True
    for name, argv in commands.items():
        outs = []
        for run in ("x", "y"):
            prefix = tmp_path / f"{name}_{run}"
            code = cli_main(argv + ["--out", str(prefix)])
            assert code == 0
            outs.append((tmp_path / f"{name}_{run}.json").read_bytes())
        ok = ok and outs[0] == outs[1]
        assert outs[0] == outs[1], f"{name} reruns differ"
    elapsed = time.perf_counter() - t0
    assert report(9, "byte-identical reruns", ok, elapsed, 60.0)
