import json

import numpy as np
import pytest

from ifsshadow import SymbolSequence, gen_pseudo_orbit
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
    assert text[0] == "k,lambda,x0,x1"
    assert text[-1].split(",")[1] == "-1"     # beyond-window marker
    back = ifsio.read_chain(path, delta=1e-3)
    assert np.array_equal(back.points, chain.points)
    assert [back.sigma.lookup(k) for k in range(25)] == \
           [chain.sigma.lookup(k) for k in range(25)]


def test_sigma_file_and_inline_specs(tmp_path):
    s = SymbolSequence.periodic([0, 1, 1])
    p = tmp_path / "sigma.json"
    ifsio.write_json(p, s.to_dict())
    assert ifsio.read_sigma(p) == s
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


def test_unknown_map_kind():
    with pytest.raises(ValueError, match="kind"):
        ifsio.ifs_from_dict({"space": {"dim": 1}, "maps": [{"kind": "henon"}]})


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


def test_cli_exit_codes(tmp_path):
    assert run_cli("shadow", "--system", "lorenz", "--delta", "0.01",
                   "--len", "10") == 2
    assert run_cli("septime", "--system", "cat", "--sigma", "bogus:1",
                   "--x", "0,0", "--y", "0.1,0", "--eta", "0.1") == 2
    # contraction solver on an expanding family: runtime contract violation
    assert run_cli("shadow", "--system", "cat", "--sigma", "constant:0",
                   "--delta", "0.001", "--len", "10", "--solver",
                   "contraction") == 1


@pytest.mark.parametrize("index", ["3", "-1"])
def test_cli_cover_map_index_outside_family_is_config_error(index, capsys):
    assert run_cli("cover", "--system", "cat", "--map-index", index, "--eps",
                   "0.05", "--delta", "0.05", "--centers", "4", "--probes", "4") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert f"--map-index {index}" in err


@pytest.mark.parametrize("text", ["", "k,lambda,x0,x1\n"])
def test_cli_verify_chain_without_points_is_config_error(text, tmp_path, capsys):
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


def test_cli_bad_thread_setting_is_config_error(monkeypatch, capsys):
    monkeypatch.setenv("IFSSHADOW_THREADS", "abc")
    assert run_cli("metrics", "--f", "rotation:0.1", "--g", "rotation:0.12",
                   "--metric", "rho0", "--grid", "16") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "IFSSHADOW_THREADS" in err


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
