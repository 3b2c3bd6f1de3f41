import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ifsshadow
from ifsshadow import (ChainRecord, MetricGrid, SymbolSequence, build_system, cli,
                       dist_D0, dist_D1, gen_pseudo_orbit, rho1)
from ifsshadow import io as ifsio
from ifsshadow.cli import main
from ifsshadow.systems import build_cat_ifs

CAT = build_cat_ifs()
SIG0 = SymbolSequence.constant(0)


# --- file formats -----------------------------------------------------------

def test_chain_csv_roundtrip(tmp_path):
    chain = gen_pseudo_orbit(CAT, SymbolSequence.periodic([0]), [0.2, 0.7],
                             1e-3, 25, seed=1)
    path = tmp_path / "chain.csv"
    ifsio.write_chain(path, chain)
    text = path.read_text().splitlines()
    assert text[0] == '# {"delta": 0.001, "sigma": {"extension": "periodic", "window": [0]}}'
    assert text[1] == "k,x0,x1"
    assert text[-1].startswith("25,")
    back = ifsio.read_chain(path)
    assert np.array_equal(back.points, chain.points)
    assert back.sigma == chain.sigma and back.delta == chain.delta


def test_torus_example_chain_keeps_its_schedule_and_slack(tmp_path):
    # the schedule used to read back as the 10-link window, then symbol 0
    # forever, and the slack as 0.0
    assert run_cli("generate", "--system", "torus_example", "--sigma", "periodic:0,1,1",
                   "--delta", "0.0001", "--len", "10", "--seed", "4",
                   "--out", str(tmp_path / "g")) == 0
    back = ifsio.read_chain(tmp_path / "g_chain.csv")
    assert back.sigma == SymbolSequence.periodic([0, 1, 1]) and back.delta == 1e-4
    assert back.sigma.symbols(0, 21).tolist() == [0, 1, 1] * 7


WINDOWS = st.lists(st.integers(0, 5), min_size=1, max_size=8)
SCHEDULES = st.one_of(
    st.builds(lambda w, c: SymbolSequence(tuple(w), f"constant:{c}"), WINDOWS,
              st.integers(0, 5)),
    st.builds(SymbolSequence.periodic, WINDOWS),
    st.builds(SymbolSequence.random, st.integers(1, 6), st.integers(1, 40),
              st.integers(0, 2**32 - 1)))


@settings(deadline=None)
@given(sigma=SCHEDULES, k_min=st.integers(-20, 20),
       delta=st.one_of(st.floats(0, 1e300), st.sampled_from([-0.0, 5e-324, 1e-4])),
       points=hnp.arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 4)),
                         elements=st.floats(allow_nan=False)))
def test_chain_csv_roundtrip_is_lossless(sigma, k_min, delta, points, tmp_path_factory):
    chain = ChainRecord(points, sigma.shift(-k_min), delta)
    path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
    if not np.isfinite(points).all():      # no chain file holds an infinite coordinate
        k = int(np.argmin(np.isfinite(points).all(axis=1)))
        with pytest.raises(ValueError, match=f"chain point k = {k} is not finite"):
            ifsio.write_chain(path, chain)
        return
    ifsio.write_chain(path, chain)
    back = ifsio.read_chain(path)
    assert np.array_equal(back.points.view(np.uint64), points.view(np.uint64))
    assert back.sigma == chain.sigma
    m = chain.n_links
    assert np.array_equal(back.sigma.symbols(0, 2 * m + 1), chain.sigma.symbols(0, 2 * m + 1))
    assert np.array_equal(np.float64(back.delta).view(np.uint64),
                          np.float64(delta).view(np.uint64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_chain_refuses_a_non_finite_chain(bad, tmp_path):
    # ChainRecord holds such points (a library chain may leave the floats),
    # but a chain file never does, so read_chain reads every file write_chain wrote
    points = np.full((4, 2), 0.25)
    points[2, 1] = bad
    path = tmp_path / "chain.csv"
    with pytest.raises(ValueError, match="chain point k = 2 is not finite"):
        ifsio.write_chain(path, ChainRecord(points, SIG0, 1e-3))
    assert not list(tmp_path.iterdir())


def csv_writer_oracle(header, rows) -> str:
    """The table as csv.writer writes it, integers as str and every other
    cell as repr(float(c))."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([c if isinstance(c, int) else repr(float(c)) for c in r] for r in rows)
    return buf.getvalue()


HEADER_NAMES = ("k", "lambda", "i", "x0", "x1", "hx0", "max_residual", "X0", "Z0",
                "preimage_dist", "epsilon")
EDGE_FLOATS = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308, 1e300,
               -1e-300, 1e-300)
CELLS = st.one_of(
    st.integers(), st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64))


@settings(deadline=None)
@given(header=st.lists(st.sampled_from(HEADER_NAMES), max_size=6),
       rows=st.lists(st.lists(CELLS, max_size=6), max_size=8))
@example(header=["k", "lambda", "x0"],
         rows=[[0, True, False], [-7, 2**70, np.float64(-0.0)], list(EDGE_FLOATS), []])
def test_csv_text_matches_csv_writer(header, rows):
    assert ifsio.csv_text(header, rows) == csv_writer_oracle(header, rows)


def test_sigma_file_and_inline_specs(tmp_path):
    s = SymbolSequence.periodic([0, 1, 1])
    p = tmp_path / "sigma.json"
    ifsio.write_json(p, s.to_dict())
    assert ifsio.read_sigma(p) == s
    assert ifsio.parse_sigma(f"@{p}") == s
    assert ifsio.parse_sigma("constant:2").lookup(100) == 2
    assert ifsio.parse_sigma("periodic:0,1").lookup(3) == 1
    r = ifsio.parse_sigma("random:2,10,5")
    assert r == SymbolSequence.random(2, 10, 5)
    with pytest.raises(ValueError):
        ifsio.parse_sigma("markov:0.5")


def test_ifs_definition_json(tmp_path):
    spec = {
        "space": {"dim": 2},
        "maps": [
            {"kind": "cat"},
            {"kind": "rotation", "params": {"angles": [0.1, 0.2]}},
            {"kind": "affine", "params": {"matrix": [[1, 0], [0, 1]],
                                          "offset": [0.25, 0.0]}},
        ],
    }
    p = tmp_path / "ifs.json"
    ifsio.write_json(p, spec)
    F = ifsio.read_ifs(p)
    assert len(F) == 3 and F.space.dim == 2
    assert F.maps[0](np.array([0.25, 0.5])) == pytest.approx([0.0, 0.75])
    assert F.maps[1](np.zeros(2)) == pytest.approx([0.1, 0.2])


def test_custom_poly_map():
    spec = {
        "space": {"dim": 2, "periodic": False},
        "maps": [{
            "kind": "custom_poly",
            "params": {"terms": [
                [{"coef": 0.5, "powers": [1, 0]},
                 {"coef": 0.1, "powers": [0, 2]}],
                [{"coef": 0.5, "powers": [0, 1]}],
            ]},
        }],
    }
    F = ifsio.ifs_from_dict(spec)
    x = np.array([0.4, 0.6])
    assert F.maps[0](x) == pytest.approx([0.5 * 0.4 + 0.1 * 0.36, 0.3])
    from ifsshadow import fd_jacobian
    X = np.random.default_rng(0).random((50, 2))
    assert np.max(np.abs(F.maps[0].jacobian(X) - fd_jacobian(F.maps[0], X))) < 1e-4


def test_catalog_kind_keeps_a_given_label():
    spec = {"space": {"dim": 2}, "maps": [{"kind": "cat", "label": "mycat"},
                                          {"kind": "cat"}]}
    F = ifsio.ifs_from_dict(spec)
    assert [f.label for f in F.maps] == ["mycat", "cat"]
    x = np.array([[0.25, 0.5], [0.7, 0.1]])
    assert np.array_equal(F.maps[0](x), CAT.maps[0](x))
    assert np.array_equal(F.maps[0].invert(x), CAT.maps[0].invert(x))
    assert F.maps[0].affine is not None


def test_unknown_map_kind():
    with pytest.raises(ValueError, match="kind"):
        ifsio.ifs_from_dict({"space": {"dim": 1}, "maps": [{"kind": "henon"}]})


def test_custom_poly_needs_one_term_list_per_coordinate():
    terms = [[{"coef": 0.5, "powers": [1, 0]}]]
    with pytest.raises(ValueError, match="one term list per output coordinate"):
        ifsio.ifs_from_dict({"space": {"dim": 2, "periodic": False},
                             "maps": [{"kind": "custom_poly",
                                       "params": {"terms": terms}}]})


@pytest.mark.parametrize("space, kind", [
    ({"dim": 3}, "cat"), ({"dim": 2, "periodic": False}, "cat"),
    ({"dim": 2}, "torus_F1")])
def test_catalog_kind_on_another_space_is_rejected(space, kind):
    with pytest.raises(ValueError, match=f"map kind '{kind}' acts on Space"):
        ifsio.ifs_from_dict({"space": space, "maps": [{"kind": kind}]})


def test_load_system_from_file(tmp_path):
    p = tmp_path / "sys.json"
    ifsio.write_json(p, {"space": {"dim": 2}, "maps": [{"kind": "cat"}]})
    F = ifsio.load_system(f"@{p}")
    assert len(F) == 1


# --- CLI ----------------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_cli_shadow_contract_example(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli("shadow", "--system", "contraction:0.5", "--delta", "0.01",
                   "--len", "1000", "--seed", "42", "--out", str(out))
    assert code == 0
    result = json.loads((tmp_path / "run.json").read_text())
    assert result["solver"] == "contraction"
    assert result["sup_dist"] <= 0.02
    assert (tmp_path / "run_chain.csv").exists()
    assert (tmp_path / "run_shadow.csv").exists()


def test_cli_generate_rounding_noise(tmp_path):
    gen = tmp_path / "g"
    assert run_cli("generate", "--system", "cat", "--sigma", "constant:0",
                   "--x0", "0.213,0.707", "--delta", "0", "--len", "50",
                   "--noise", "round:2", "--out", str(gen)) == 0
    rep = json.loads((tmp_path / "g.json").read_text())
    assert rep["delta_recorded"] == pytest.approx(0.005 * np.sqrt(2))
    chain = ifsio.read_chain(tmp_path / "g_chain.csv")
    scaled = chain.points * 100
    assert np.max(np.abs(scaled - np.round(scaled))) < 1e-9


def test_cli_generate_verify_flow(tmp_path):
    gen = tmp_path / "gen"
    assert run_cli("generate", "--system", "cat", "--sigma", "constant:0",
                   "--x0", "0.2,0.7", "--delta", "0.001", "--len", "100",
                   "--seed", "3", "--out", str(gen)) == 0
    shad = tmp_path / "shad"
    assert run_cli("shadow", "--system", "cat", "--sigma", "constant:0",
                   "--x0", "0.2,0.7", "--delta", "0.001", "--len", "100",
                   "--seed", "3", "--solver", "hyperbolic",
                   "--out", str(shad)) == 0
    ok = run_cli("verify", "--system", "cat",
                 "--chain", str(tmp_path / "shad_chain.csv"),
                 "--shadow", str(tmp_path / "shad_shadow.csv"),
                 "--eps", "0.0023", "--out", str(tmp_path / "v"))
    assert ok == 0
    # an over-tight epsilon is a reported violation, exit 1
    bad = run_cli("verify", "--system", "cat",
                  "--chain", str(tmp_path / "shad_chain.csv"),
                  "--shadow", str(tmp_path / "shad_shadow.csv"),
                  "--eps", "1e-9", "--out", str(tmp_path / "v2"))
    assert bad == 1


def test_cli_metrics_rho0_rotations(tmp_path):
    out = tmp_path / "m"
    assert run_cli("metrics", "--f", "rotation:0.1", "--g", "rotation:0.12",
                   "--metric", "rho0", "--grid", "512", "--out", str(out)) == 0
    result = json.loads((tmp_path / "m.json").read_text())
    assert result["value"] == pytest.approx(0.02)
    assert result["grid_resolution"] == 512


@pytest.mark.parametrize("metric, fn", [("D0", dist_D0), ("D1", dist_D1)])
@pytest.mark.parametrize("mode", ["matched", "all-pairs"])
def test_cli_family_metrics_match_the_library(metric, fn, mode, tmp_path):
    out = tmp_path / "m"
    assert run_cli("metrics", "--f", "rotation:0.1,0.3", "--g", "rotation:0.12,0.29",
                   "--metric", metric, "--mode", mode, "--grid", "64",
                   "--out", str(out)) == 0
    result = json.loads((tmp_path / "m.json").read_text())
    F, G = build_system("rotation:0.1,0.3"), build_system("rotation:0.12,0.29")
    assert result["value"] == fn(F, G, MetricGrid(F.space, 64), mode=mode)
    assert result["mode"] == mode


def test_cli_rho1_on_single_maps_is_the_map_distance(tmp_path):
    out = tmp_path / "m"
    assert run_cli("metrics", "--f", "torus_F1", "--g", "torus_F2", "--metric", "rho1",
                   "--grid", "8", "--out", str(out)) == 0
    F, G = build_system("torus_F1"), build_system("torus_F2")
    value = json.loads((tmp_path / "m.json").read_text())["value"]
    assert value == rho1(F.maps[0], G.maps[0], MetricGrid(F.space, 8))


@pytest.mark.parametrize("argv", [
    ("--f", "torus_example", "--g", "torus_F1", "--metric", "rho0"),
    ("--f", "torus_example", "--g", "torus_example", "--metric", "rho0",
     "--mode", "all-pairs"),
    ("--f", "torus_F1", "--g", "torus_example", "--metric", "rho1"),
])
def test_cli_map_metrics_on_families_are_config_errors(argv, capsys):
    # rho0/rho1 used to compare map 0 of each family and ignore --mode
    assert run_cli("metrics", *argv, "--grid", "4") == 2
    assert "use D0 or D1" in capsys.readouterr().err


def test_cli_contraction_offsets_outside_the_interval_are_config_errors(capsys):
    assert run_cli("shadow", "--system", "contraction:0.5,0,0.6", "--delta", "0.01",
                   "--len", "10") == 2
    assert "offsets [0.0, 0.6] must lie in [0, 0.5]" in capsys.readouterr().err


def test_cli_septime(tmp_path):
    out = tmp_path / "s"
    assert run_cli("septime", "--system", "cat", "--sigma", "constant:0",
                   "--x", "0.2,0.7", "--y", "0.2008507,0.7005257",
                   "--eta", "0.1", "--out", str(out)) == 0
    assert json.loads((tmp_path / "s.json").read_text())["separation_time"] == 5


def test_cli_expansive_and_perturb_and_movepoints(tmp_path):
    assert run_cli("expansive", "--system", "identity:2", "--sigma",
                   "constant:0", "--grid", "32", "--ncap", "5",
                   "--out", str(tmp_path / "e")) == 0
    rep = json.loads((tmp_path / "e.json").read_text())
    assert rep["verdict"] == "violated"

    assert run_cli("perturb", "--system", "cat", "--sigma", "constant:0",
                   "--x0", "0.37,0.52", "--delta", "0.001", "--len", "30",
                   "--m", "10", "--Delta", "0.05", "--seed", "17",
                   "--out", str(tmp_path / "p")) == 0
    rep = json.loads((tmp_path / "p.json").read_text())
    assert rep["matched_D0"] < 0.05 and rep["exact_residual"] <= 1e-9

    assert run_cli("movepoints", "--pairs", "0.3,0.3:0.31,0.3",
                   "--delta", "0.02", "--grid", "128",
                   "--out", str(tmp_path / "mp")) == 0
    rep = json.loads((tmp_path / "mp.json").read_text())
    assert rep["interpolation_error"] <= 1e-12
    assert rep["rho0_to_identity"] < 0.04


def test_cli_semiconj_and_cover(tmp_path):
    assert run_cli("semiconj", "--f", "cat", "--g", "cat_bumped:1e-3",
                   "--sigma", "constant:0", "--eps", "0.05", "--K", "10",
                   "--samples", "200", "--out", str(tmp_path / "sc")) == 0
    rep = json.loads((tmp_path / "sc.json").read_text())
    assert rep["max_image_dist"] < 0.05
    assert rep["conjugation_residual"] < 0.1
    table = (tmp_path / "sc_table.csv").read_text().splitlines()
    assert table[0] == "i,x0,x1,hx0,hx1,max_residual"
    assert len(table) == 201

    assert run_cli("cover", "--system", "torus_F1", "--eps", "0.05",
                   "--delta", "0.05", "--centers", "50", "--probes", "100",
                   "--seed", "7", "--out", str(tmp_path / "c")) == 0
    rep = json.loads((tmp_path / "c.json").read_text())
    assert rep["seed"] == 7
    assert (tmp_path / "c_violations.csv").read_text().splitlines()[0].startswith("X0")


@pytest.mark.parametrize("argv", [
    ("--f", "contraction:0.5,0,0.5", "--g", "contraction:0.5,0.002,0.498",
     "--sigma", "periodic:0,1", "--eps", "0.05", "--K", "20", "--samples", "100"),
    # 1100 backward steps of x -> x/2 used to overflow
    ("--f", "contraction:0.5", "--g", "contraction:0.5", "--sigma", "constant:0",
     "--eps", "0.5", "--K", "1100", "--samples", "20")])
def test_cli_semiconj_on_contractions_uses_one_sided_windows(argv, tmp_path, capsys):
    # the first used to exit 1: "nearest-sample distance 697651.9000 exceeds 0.0500"
    assert run_cli("semiconj", *argv, "--out", str(tmp_path / "sc")) == 0
    rep = json.loads((tmp_path / "sc.json").read_text())
    eps = rep["config"]["eps"]
    assert rep["n_flagged"] == 0 and rep["max_image_dist"] < eps
    assert rep["conjugation_residual"] < 2 * eps


@pytest.mark.parametrize("argv", [
    ("metrics", "--f", "contraction:0.5,0.5", "--g", "rotation:0.1", "--metric", "D0",
     "--grid", "16"),
    ("metrics", "--f", "contraction:0.5,0.25", "--g", "rotation:0.1", "--metric", "rho1",
     "--grid", "16"),
    ("semiconj", "--f", "contraction:0.5", "--g", "rotation:0.1", "--sigma",
     "constant:0", "--eps", "0.5", "--K", "3", "--samples", "20")])
def test_cli_pair_on_two_spaces_is_config_error(argv, tmp_path, capsys):
    # a circle map measured with the interval's metric: these used to exit 0
    assert run_cli(*argv, "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert "must share one space" in err
    assert not list(tmp_path.iterdir())


def test_cli_verify_chain_without_record_line_is_config_error(tmp_path, capsys):
    # the chain file of earlier versions: no '#' line, a lambda column
    old = tmp_path / "old.csv"
    old.write_text("k,lambda,x0,x1\n0,0,0.1,0.2\n1,-1,0.3,0.4\n")
    assert run_cli("verify", "--system", "cat", "--chain", str(old),
                   "--shadow", str(old), "--eps", "0.01") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert "old.csv' has no '#' line of delta and sigma" in err


@pytest.mark.parametrize("record, message", [
    ("[1]", "the '#' record must be an object of delta and sigma, got [1]"),
    ('{"delta": 0.0, "sigma": {"window": 3}}',
     "schedule field 'window' must be a list of integers, got 3"),
    ('{"delta": 0.0, "sigma": 5}', "a schedule must be an object, got 5"),
    ('{"delta": [0.0], "sigma": {"window": [0]}}', "'delta' must be a number, got [0.0]"),
    ('{"sigma": {"window": [0]}}', "'delta' must be a number, got None")])
def test_cli_malformed_chain_record_is_config_error(record, message, tmp_path, capsys):
    # these used to end in a TypeError traceback (exit 1)
    bad = tmp_path / "bad.csv"
    bad.write_text(f"# {record}\nk,x0,x1\n0,0.1,0.2\n1,0.3,0.4\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        ifsio.read_chain(bad)
    assert run_cli("verify", "--system", "cat", "--chain", str(bad),
                   "--shadow", str(bad), "--eps", "0.01") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and message in err


@pytest.mark.parametrize("text, message", [
    ("5", "a schedule must be an object, got 5"),
    ('{"window": [0, 1.5]}', "field 'window' must be a list of integers"),
    ('{"window": [0], "extension": 1}', "field 'extension' must be a string"),
    ('{"window": [0], "k_min": null}', "field 'k_min' must be an integer")])
def test_cli_malformed_schedule_file_is_config_error(text, message, tmp_path, capsys):
    f = tmp_path / "f.json"
    f.write_text(text)
    assert run_cli("generate", "--system", "cat", "--sigma", f"@{f}", "--delta",
                   "0.001", "--len", "10", "--out", str(tmp_path / "g")) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and message in err
    assert not list(tmp_path.glob("g*"))


def test_cli_exit_codes(tmp_path):
    assert run_cli("shadow", "--system", "lorenz", "--delta", "0.01",
                   "--len", "10") == 2
    assert run_cli("septime", "--system", "cat", "--sigma", "bogus:1",
                   "--x", "0,0", "--y", "0.1,0", "--eta", "0.1") == 2
    # contraction solver on an expanding family: runtime contract violation
    assert run_cli("shadow", "--system", "cat", "--sigma", "constant:0",
                   "--delta", "0.001", "--len", "10", "--solver",
                   "contraction") == 1


def test_cli_negative_ncap_exits_2(capsys):
    # a negative search horizon is a config error, not "no separation found"
    # or an "expansive-at-Delta" verdict
    assert run_cli("septime", "--system", "cat", "--sigma", "constant:0",
                   "--x", "0,0", "--y", "0.1,0", "--eta", "0.1", "--ncap", "-1") == 2
    assert run_cli("expansive", "--system", "cat", "--sigma", "constant:0",
                   "--grid", "8", "--ncap", "-1") == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: n_cap must be >= 0, got -1"] * 2


@pytest.mark.parametrize("argv, message", [
    (["generate", "--system", "torus_example", "--sigma", "constant:5"],
     "symbol 5 is outside the family of 2 maps"),
    (["shadow", "--system", "cat", "--sigma", "periodic:0,1"],
     "symbol 1 is outside the family of 1 maps"),
    (["generate", "--system", "cat", "--sigma", "constant:-1"],
     "symbols must be >= 0"),
    (["shadow", "--system", "cat", "--sigma", "periodic:0,-2"],
     "symbols must be >= 0")])
def test_cli_symbol_outside_the_family_is_config_error(argv, message, capsys):
    assert run_cli(*argv, "--delta", "0.001", "--len", "10") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert message in err


@pytest.mark.parametrize("index", ["3", "-1"])
def test_cli_cover_map_index_outside_family_is_config_error(index, capsys):
    assert run_cli("cover", "--system", "cat", "--map-index", index, "--eps",
                   "0.05", "--delta", "0.05", "--centers", "4", "--probes", "4") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert f"--map-index {index}" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--centers", "0", "at least one centre, got 0"),
    ("--centers", "-3", "at least one centre, got -3"),
    ("--probes", "0", "n_probes must be >= 1, got 0"),
    ("--eps", "0", "eps must be positive, got 0.0"),
    ("--delta", "-0.05", "eps + delta must be positive")])
def test_cli_empty_ball_cover_is_config_error(flag, value, message, tmp_path, capsys):
    argv = {"--system": "cat", "--eps": "0.05", "--delta": "0.05",
            "--centers": "4", "--probes": "4"}
    argv[flag] = value
    prefix = tmp_path / "c"
    assert run_cli("cover", *[a for kv in argv.items() for a in kv],
                   "--out", str(prefix)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and message in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("text", [
    "", "k,lambda,x0,x1\n", '# {"delta": 0.0, "sigma": {"window": [0]}}\nk,x0,x1\n'])
def test_cli_verify_chain_without_points_is_config_error(text, tmp_path, capsys):
    # the first two have no '#' line either
    empty = tmp_path / "empty.csv"
    empty.write_text(text)
    assert run_cli("shadow", "--system", "cat", "--sigma", "constant:0",
                   "--delta", "0.001", "--len", "10",
                   "--out", str(tmp_path / "s")) == 0
    capsys.readouterr()
    assert run_cli("verify", "--system", "cat", "--chain", str(empty),
                   "--shadow", str(tmp_path / "s_shadow.csv"), "--eps", "0.01") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert "empty.csv" in err


@pytest.mark.parametrize("row, got", [("", 0), ("1,-1,0.3", 3), ("1,-1,0.3,inf", None)])
def test_read_chain_names_a_blank_or_short_row(row, got, tmp_path, capsys):
    # got None: a non-finite coordinate, which verify used to report as NaN;
    # line 4, after the '#' line, the header and one row of a 3-D chain
    bad = tmp_path / "gappy.csv"
    bad.write_text('# {"delta": 0.0, "sigma": {"window": [0]}}\n'
                   f"k,x0,x1,x2\n0,0,0.1,0.2\n{row}\n2,-1,0.3,0.4\n")
    problem = (f"expected 4 fields, got {got}" if got is not None
               else "non-finite coordinates ['-1', '0.3', 'inf']")
    with pytest.raises(ValueError, match=re.escape(f"gappy.csv' line 4: {problem}")):
        ifsio.read_chain(bad)
    assert run_cli("shadow", "--system", "cat", "--sigma", "constant:0",
                   "--delta", "0.001", "--len", "10",
                   "--out", str(tmp_path / "s")) == 0
    capsys.readouterr()
    assert run_cli("verify", "--system", "cat", "--chain", str(bad),
                   "--shadow", str(tmp_path / "s_shadow.csv"), "--eps", "0.01") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert "gappy.csv' line 4" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_non_finite_result_is_contract_violation(tmp_path, capsys):
    # 1100 steps of x -> 2x on the interval overflow (the RuntimeWarnings this
    # test lets through), and the chain slack reads NaN; the report used to be
    # written with "max_chain_delta": NaN and exit 0
    spec = tmp_path / "double.json"
    ifsio.write_json(spec, {"space": {"dim": 1, "periodic": False}, "maps": [
        {"kind": "affine", "params": {"matrix": [[2]], "offset": [0.0]}}]})
    out_dir = tmp_path / "out"
    assert run_cli("semiconj", "--f", f"@{spec}", "--g", f"@{spec}",
                   "--sigma", "constant:0", "--eps", "0.5", "--K", "1100",
                   "--samples", "20", "--out", str(out_dir / "sc")) == 1
    out, err = capsys.readouterr()
    assert out == "" and "contract violation: the result is not strict JSON" in err
    assert not out_dir.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_chain_leaving_the_floats_is_contract_violation(tmp_path, capsys):
    # 400 steps of x -> 10x on the interval overflow at k = 309; no chain file
    # holds that point, and the command writes nothing
    spec = tmp_path / "exp.json"
    ifsio.write_json(spec, {"space": {"dim": 1, "periodic": False}, "maps": [
        {"kind": "affine", "params": {"matrix": [[10]], "offset": [0]}}]})
    out_dir = tmp_path / "out"
    assert run_cli("generate", "--system", f"@{spec}", "--sigma", "constant:0",
                   "--delta", "0.001", "--len", "400", "--out", str(out_dir / "g")) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("contract violation: chain point k = ")
    assert not out_dir.exists()


def test_cli_hyperbolic_solver_on_two_maps_is_contract_violation(tmp_path, capsys):
    spec = tmp_path / "two.json"
    ifsio.write_json(spec, {"space": {"dim": 2}, "maps": [
        {"kind": "cat"},
        {"kind": "affine", "params": {"matrix": [[1, 1], [1, 2]],
                                      "offset": [0.0, 0.0]}}]})
    assert run_cli("shadow", "--system", f"@{spec}", "--sigma", "periodic:0,1",
                   "--delta", "0.001", "--len", "10", "--solver", "hyperbolic") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("contract violation:")
    assert "symbol 0" in err


@pytest.mark.parametrize("flag, value, name", [
    ("--samples", "0", "n >= 1"), ("--eps", "0", "eps must be positive"),
    ("--K", "-1", "K must be >= 0")])
def test_cli_semiconj_bad_inputs_are_config_errors(flag, value, name, capsys):
    argv = {"--f": "cat", "--g": "cat_bumped:1e-3", "--sigma": "constant:0",
            "--eps": "0.05", "--K": "2", "--samples": "20"}
    argv[flag] = value
    assert run_cli("semiconj", *[a for kv in argv.items() for a in kv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and name in err


@pytest.mark.parametrize("argv", [
    ("shadow", "--system", "{spec}", "--sigma", "constant:0", "--delta", "0.001",
     "--len", "10"),
    ("generate", "--system", "{spec}", "--sigma", "constant:0", "--delta", "0.001",
     "--len", "10"),
    ("expansive", "--system", "{spec}", "--sigma", "constant:0", "--grid", "8"),
    ("metrics", "--f", "{spec}", "--g", "cat", "--metric", "D0", "--grid", "4"),
])
def test_cli_near_integer_torus_matrix_is_config_error(argv, tmp_path, capsys):
    # the closed form used to solve the rounded matrix [[2, 1], [1, 1]]
    spec = tmp_path / "near.json"
    ifsio.write_json(spec, {"space": {"dim": 2}, "maps": [
        {"kind": "affine", "params": {"matrix": [[2.00001, 1], [1, 1]],
                                      "offset": [0.0, 0.0]}}]})
    assert run_cli(*[a.format(spec=f"@{spec}") for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert "not integral" in err


@pytest.mark.parametrize("argv, message", [
    (("expansive", "--deltas=-0.1,-0.2"), "Delta must be positive"),
    (("expansive", "--pair-tol", "-1"), "pair_tolerance must be >= 0"),
    (("septime", "--x", "0.2,0.7", "--y", "0.2,0.7", "--eta", "-0.1"),
     "eta must be >= 0"),
    (("septime", "--x", "0.2,0.7", "--y", "0.2009,0.7005", "--eta", "0.1",
      "--mu", "-0.1"), "mu must be positive, got -0.1"),
    (("septime", "--x", "0.2,0.7", "--y", "0.2009,0.7005", "--eta", "0.1",
      "--mu", "nan"), "mu must be positive, got nan"),
    (("expansive", "--pairs", "0"), "n_pairs must be >= 1, got 0"),
])
def test_cli_expansiveness_misconfigurations_are_config_errors(argv, message, capsys):
    # each used to exit 0 with a verdict: "expansive-at-Delta" with a negative
    # candidate, "violated" from identical pairs, or separation time 0
    command, *rest = argv
    assert run_cli(command, "--system", "cat", "--sigma", "constant:0",
                   "--grid", "8", "--ncap", "5", *rest) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and message in err


@pytest.mark.parametrize("argv, message", [
    (("generate", "--system", "cat", "--sigma", "constant:0", "--delta", "nan",
      "--len", "10"), "delta must be >= 0, got nan"),
    (("perturb", "--system", "cat", "--sigma", "constant:0", "--delta", "1e-4",
      "--len", "20", "--m", "5", "--Delta", "nan"), "Delta must be positive, got nan"),
    (("movepoints", "--pairs", "0.3,0.3:0.31,0.3", "--delta", "nan"),
     "delta must be positive, got nan"),
    (("movepoints", "--pairs", "0.3,0.3:0.31,0.3", "--delta", "0.02", "--support",
      "nan", "--grid", "16"), "support_radius must be positive, got nan"),
    (("cover", "--system", "torus_F1", "--eps", "inf", "--delta", "0.05",
      "--centers", "10", "--probes", "10", "--seed", "1"),
     "eps must be finite, got inf"),
    (("cover", "--system", "torus_F1", "--eps", "0.05", "--delta", "inf",
      "--centers", "10", "--probes", "10", "--seed", "1"),
     "the probe radius eps + delta must be finite, got inf"),
    (("generate", "--system", "cat", "--sigma", "constant:0", "--delta", "inf",
      "--len", "10"), "delta must be finite, got inf"),
    # non-finite points used to exit 0, writing NaN or "separation_time": null
    (("shadow", "--system", "cat", "--sigma", "constant:0", "--delta", "0.001",
      "--len", "10", "--x0", "nan,0.3"), "point 'nan,0.3' has a non-finite coordinate"),
    (("perturb", "--system", "cat", "--sigma", "constant:0", "--delta", "1e-4",
      "--len", "20", "--m", "5", "--Delta", "0.05", "--x0", "0.3,inf"),
     "point '0.3,inf' has a non-finite coordinate"),
    (("septime", "--system", "cat", "--sigma", "constant:0", "--x", "nan,0.7",
      "--y", "0.2009,0.7005", "--eta", "0.1"), "point 'nan,0.7' has a non-finite"),
    (("septime", "--system", "cat", "--sigma", "constant:0", "--x", "0.2,0.7",
      "--y", "0.2009,-inf", "--eta", "0.1"), "point '0.2009,-inf' has a non-finite"),
    (("movepoints", "--pairs", "nan,0.3:0.31,0.3", "--delta", "0.02", "--grid", "16"),
     "point 'nan,0.3' has a non-finite coordinate"),
    (("movepoints", "--pairs", "0.3,0.3:0.31,0.3;0.7,0.7:0.7,inf", "--delta", "0.02",
      "--grid", "16"), "point '0.7,inf' has a non-finite coordinate"),
    # infinite radii and tolerances used to exit 0, writing Infinity or null
    (("expansive", "--system", "cat", "--sigma", "constant:0", "--grid", "8",
      "--ncap", "5", "--deltas", "inf,0.1"), "Delta must be finite, got inf"),
    (("expansive", "--system", "cat", "--sigma", "constant:0", "--grid", "8",
      "--ncap", "5", "--pair-tol", "inf"), "pair_tolerance must be finite, got inf"),
    (("septime", "--system", "cat", "--sigma", "constant:0", "--x", "0.2,0.7",
      "--y", "0.2009,0.7005", "--eta", "inf"), "eta must be finite, got inf"),
    (("septime", "--system", "cat", "--sigma", "constant:0", "--x", "0.2,0.7",
      "--y", "0.2009,0.7005", "--eta", "0.1", "--mu", "inf", "--grid", "8"),
     "mu must be finite, got inf"),
    (("perturb", "--system", "cat", "--sigma", "constant:0", "--delta", "1e-4",
      "--len", "20", "--m", "5", "--Delta", "inf"), "Delta must be finite, got inf"),
    (("movepoints", "--pairs", "0.3,0.3:0.31,0.3", "--delta", "inf"),
     "delta must be finite, got inf"),
    (("movepoints", "--pairs", "0.3,0.3:0.31,0.3", "--delta", "0.02", "--support",
      "inf", "--grid", "16"), "support_radius must be finite, got inf"),
    (("semiconj", "--f", "cat", "--g", "cat", "--sigma", "constant:0", "--eps", "inf",
      "--K", "2", "--samples", "4"), "eps must be finite, got inf"),
    # a finite x0 that rounding overflows used to exit 0 with a chain of inf
    (("generate", "--system", "contraction:0.5", "--sigma", "constant:0", "--x0",
      "1e307", "--delta", "0", "--len", "3", "--noise", "round:3"),
     "x0 = [1e+307] is not finite when rounded to 3 decimals"),
])
def test_cli_nan_radii_are_config_errors(argv, message, tmp_path, capsys):
    # a NaN in the JSON report would not be valid JSON
    assert run_cli(*argv, "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and message in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag, message", [
    (("--eps", "nan"), "eps must be positive, got nan"),
    (("--tol", "nan"), "tol must be >= 0, got nan"),
    # an infinite eps or tol used to verify any chain ("ok": true)
    (("--eps", "inf"), "eps must be finite, got inf"),
    (("--tol", "inf"), "tol must be finite, got inf"),
])
def test_cli_verify_nan_eps_or_tol_is_config_error(flag, message, tmp_path, capsys):
    # not exit 1 with a "contract violation" and a NaN in the report
    assert run_cli("shadow", "--system", "contraction:0.5", "--delta", "0.01",
                   "--len", "50", "--seed", "1", "--out", str(tmp_path / "s")) == 0
    capsys.readouterr()
    assert run_cli("verify", "--system", "contraction:0.5",
                   "--chain", str(tmp_path / "s_chain.csv"),
                   "--shadow", str(tmp_path / "s_shadow.csv"), "--eps", "0.02",
                   *flag, "--out", str(tmp_path / "v")) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and message in err
    assert not list(tmp_path.glob("v*"))


def test_cli_non_finite_affine_entry_is_config_error(tmp_path, capsys):
    # JSON reads 1e999 as inf, and np.round(inf) == inf is integral
    spec = tmp_path / "inf.json"
    spec.write_text('{"space": {"dim": 2}, "maps": [{"kind": "affine", "params": '
                    '{"matrix": [[1e999, 1], [1, 1]], "offset": [0, 0]}}]}')
    assert run_cli("shadow", "--system", f"@{spec}", "--sigma", "constant:0",
                   "--delta", "0.001", "--len", "10") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert "must be finite" in err


def test_cli_zero_threads_is_config_error(capsys):
    cover = ["cover", "--system", "cat", "--eps", "0.05", "--delta", "0.05",
             "--centers", "4", "--probes", "4"]
    assert run_cli("--threads", "0", *cover) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert "threads must be >= 1, got 0" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_threads_below_one_rejected_for_every_command(capsys, threads):
    # metrics does not read --threads; the count is checked before any command
    assert run_cli("--threads", threads, "metrics", "--f", "rotation:0.1",
                   "--g", "rotation:0.12", "--metric", "rho0", "--grid", "16") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: threads must be >= 1, got {threads}\n"


def test_cli_shadow_reads_a_schedule_file(tmp_path):
    p = tmp_path / "sigma.json"
    ifsio.write_json(p, SymbolSequence.periodic([0, 1]).to_dict())
    argv = ["shadow", "--system", "contraction:0.5", "--delta", "0.01",
            "--len", "20", "--seed", "3"]
    assert run_cli(*argv, "--sigma", f"@{p}", "--out", str(tmp_path / "f")) == 0
    assert run_cli(*argv, "--sigma", "periodic:0,1", "--out", str(tmp_path / "i")) == 0
    assert (tmp_path / "f_shadow.csv").read_bytes() == \
           (tmp_path / "i_shadow.csv").read_bytes()
    assert json.loads((tmp_path / "f.json").read_text())["config"]["sigma"] == f"@{p}"


def test_cli_perturb_grid_default_follows_the_dimension(tmp_path):
    # m = 0 composes no member, so the 24^4 grid of T^4 is never filled
    assert run_cli("perturb", "--system", "torus_example", "--sigma", "periodic:0,1",
                   "--delta", "1e-6", "--len", "10", "--m", "0", "--Delta", "0.05",
                   "--out", str(tmp_path / "p")) == 0
    rep = json.loads((tmp_path / "p.json").read_text())
    assert rep["grid_resolution"] == 24 and "grid" not in rep["config"]
    assert rep["n_maps"] == 2


@pytest.mark.parametrize("pairs, resolution", [
    ("0.3,0.3:0.31,0.3", 256), ("0.3,0.3,0.3:0.31,0.3,0.3", 64)])
def test_cli_movepoints_grid_default_follows_the_dimension(pairs, resolution,
                                                          monkeypatch, tmp_path):
    # rho0 is stubbed to record its grid, so the grid is never filled (the
    # old fixed default of 256 would fill 256^3 points on T^3)
    seen = []

    def recording_rho0(f, g, grid):
        seen.append(grid.resolution)
        return 0.0

    monkeypatch.setattr(cli, "rho0", recording_rho0)
    assert run_cli("movepoints", "--pairs", pairs, "--delta", "0.02",
                   "--out", str(tmp_path / "mp")) == 0
    rep = json.loads((tmp_path / "mp.json").read_text())
    assert seen == [resolution] and rep["grid_resolution"] == resolution
    assert "grid" not in rep["config"]


@pytest.mark.parametrize("argv", [
    ("metrics", "--f", "rotation:0.1", "--g", "rotation:0.12", "--metric", "rho0"),
    ("movepoints", "--pairs", "0.3,0.3:0.31,0.3", "--delta", "0.02"),
    ("expansive", "--system", "cat", "--sigma", "constant:0"),
    ("septime", "--system", "cat", "--sigma", "constant:0", "--x", "0.2,0.7",
     "--y", "0.2009,0.7005", "--eta", "0.1", "--mu", "0.001"),
    ("perturb", "--system", "cat", "--sigma", "constant:0", "--delta", "0.0001",
     "--len", "20", "--m", "5", "--Delta", "0.05"),
])
def test_cli_grid_zero_is_config_error(argv, tmp_path, capsys):
    # --grid 0 used to run at the default resolution beside "grid": 0
    assert run_cli(*argv, "--grid", "0", "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err == "config error: resolution must be >= 1, got 0\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("verify", "--system", "contraction:0.5", "--chain", "c.csv", "--shadow", "s.csv",
     "--eps", "0.02"),
    ("metrics", "--f", "rotation:0.1", "--g", "rotation:0.12", "--metric", "rho0"),
    ("semiconj", "--f", "cat", "--g", "cat_bumped:1e-3", "--sigma", "constant:0",
     "--eps", "0.05", "--K", "2", "--samples", "20"),
])
def test_cli_commands_without_randomness_take_no_seed(argv, tmp_path, capsys):
    # these commands draw nothing, so a seed would change no result
    assert run_cli(*argv, "--seed", "1", "--out", str(tmp_path / "run")) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_seedless_commands_echo_no_seed(tmp_path):
    assert run_cli("metrics", "--f", "rotation:0.1", "--g", "rotation:0.12",
                   "--metric", "rho0", "--grid", "16", "--out", str(tmp_path / "m")) == 0
    assert "seed" not in json.loads((tmp_path / "m.json").read_text())["config"]


def test_cli_catalog_self_check_failure_is_config_error(capsys):
    # a factor of 1e-12 loses the round trip x -> q x + o -> x; the self-check
    # used to escape as an AssertionError with a traceback and exit 1
    assert run_cli("shadow", "--system", "contraction:1e-12", "--delta", "0.01",
                   "--len", "10") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: round-trip failure for 'contraction_1'")


def test_cli_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("shadow", "--system", "contraction:0.5", "--delta",
                       "0.01", "--len", "200", "--seed", "42",
                       "--out", str(out)) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a_shadow.csv").read_bytes() == \
           (tmp_path / "b_shadow.csv").read_bytes()


def test_cli_config_echo_is_lossless(tmp_path):
    out = tmp_path / "r"
    run_cli("shadow", "--system", "contraction:0.5", "--delta", "0.01",
            "--len", "50", "--seed", "9", "--out", str(out))
    cfg = json.loads((tmp_path / "r.json").read_text())["config"]
    assert cfg["system"] == "contraction:0.5"
    assert cfg["delta"] == 0.01
    assert cfg["len"] == 50
    assert cfg["seed"] == 9
    assert cfg["noise"] == "uniform-ball"     # defaults included


def cli_output(prefix: Path) -> dict:
    """The primary JSON and CSV files a run wrote under `prefix`, by suffix."""
    return {p.name[len(prefix.name):]: p.read_bytes()
            for p in prefix.parent.glob(prefix.name + "*")
            if not p.name.endswith(".meta.json")}


def fresh_env() -> dict:
    """The environment of a new interpreter that imports this ifsshadow."""
    src = str(Path(ifsshadow.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def run_fresh_processes(argvs) -> list[str]:
    """Run each argv through the CLI in a new interpreter (all at once) and
    return their stdouts."""
    env = fresh_env()
    procs = [subprocess.Popen([sys.executable, "-m", "ifsshadow.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env) for argv in argvs]
    results = [proc.communicate() for proc in procs]
    for proc, (_, err) in zip(procs, results):
        assert proc.returncode == 0, err
    return [out for out, _ in results]


def test_cli_import_leaves_scipy_signal_unloaded():
    # importing scipy.signal (and the scipy.stats it pulls in) costs a
    # one-shot call about 1 s of start-up
    probe = "import sys, ifsshadow.cli; print('scipy.signal' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=fresh_env(), check=True)
    assert run.stdout.strip() == "False"


def test_cli_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    # each call's options are its own: a later call without --x0, --solver or
    # --noise gets the defaults, not what an earlier call set
    runs = [
        ["shadow", "--system", "contraction:0.5", "--delta", "0.01", "--len", "100",
         "--seed", "5", "--x0", "0.3", "--solver", "newton"],
        ["shadow", "--system", "contraction:0.5", "--delta", "0.01", "--len", "100",
         "--seed", "5"],
        ["generate", "--system", "cat", "--sigma", "constant:0", "--delta", "0.01",
         "--len", "40", "--noise", "round:2", "--seed", "3"],
        ["perturb", "--system", "cat", "--sigma", "constant:0", "--x0", "0.37,0.52",
         "--delta", "0.001", "--len", "20", "--m", "4", "--Delta", "0.05",
         "--seed", "3"],
    ]
    outputs = []
    for i, argv in enumerate(runs):
        prefix = tmp_path / f"in{i}"
        assert run_cli(*argv, "--out", str(prefix)) == 0
        outputs.append((capsys.readouterr().out, cli_output(prefix)))
    assert outputs[0] != outputs[1]
    fresh = [tmp_path / f"fresh{i}" for i in range(len(runs))]
    stdouts = run_fresh_processes([*argv, "--out", str(prefix)]
                                  for argv, prefix in zip(runs, fresh))
    assert [(out, cli_output(prefix)) for out, prefix in zip(stdouts, fresh)] == outputs
    assert len(outputs[3][1]) == 3 and "noise" not in json.loads(outputs[3][0])["config"]


def test_cli_reads_the_thread_setting_on_every_call(monkeypatch):
    seen = []

    def recording_cover(*args, threads, **kwargs):
        seen.append(threads)
        return check_ball_cover(*args, threads=threads, **kwargs)

    check_ball_cover = cli.check_ball_cover
    monkeypatch.setattr(cli, "check_ball_cover", recording_cover)
    cover = ["cover", "--system", "cat", "--eps", "0.05", "--delta", "0.05",
             "--centers", "4", "--probes", "4"]
    # with no --threads the count is the core count, read on every call
    for cores in (3, 2, None):
        monkeypatch.setattr(os, "cpu_count", lambda n=cores: n)
        assert run_cli(*cover) == 0
    assert run_cli("--threads", "4", *cover) == 0     # the flag wins over the cores
    assert seen == [3, 2, 1, 4]
