"""End-to-end tests for the command line interface."""
import json
import math
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from rpcsp import (
    BackendChoice,
    CspPredicate,
    ParameterError,
    PlantingDistribution,
    XorInstance,
    solve_csp,
    value,
)
from rpcsp.cli import MANIFEST_SCHEMA, SWEEP_SCHEMA, cli_main, eval_m_rule
from rpcsp.fourier import write_planting
from rpcsp.instances import read_assignment, read_csp, read_xor, write_xor
from rpcsp.kikuchi import CERT_TOL, build_kikuchi


def _run(argv):
    return cli_main(argv)


# ---------------------------------------------------------------------- m rule

def test_eval_m_rule_expressions():
    import math
    got = eval_m_rule("30*eps^-2*n*log(n)", n=10, eps=0.5)
    assert got == math.ceil(30 * 4 * 10 * math.log(10))
    assert eval_m_rule("10*n", n=7) == 70
    assert eval_m_rule("0.001", ) == 1  # floor at one clause


def test_eval_m_rule_rejects_unsafe_input():
    with pytest.raises(ParameterError):
        eval_m_rule("__import__('os').system('true')")
    with pytest.raises(ParameterError):
        eval_m_rule("unknown_name + 3")
    with pytest.raises(ParameterError):
        eval_m_rule("(lambda: 4)()")


@pytest.mark.parametrize("expr", ["n/l", "log(l)", "exp(1000*n)", "(0-n)^0.5", "min()",
                                  "10^4400", "10^10^7"])
def test_eval_m_rule_arithmetic_failure_is_a_parameter_error(expr):
    with pytest.raises(ParameterError, match="cannot evaluate"):
        eval_m_rule(expr, n=10, l=0)


# -------------------------------------------------------------------- generate

def test_generate_xor_writes_instance_plant_and_manifest(tmp_path):
    out = str(tmp_path / "inst")
    code = _run(["generate", "xor", "--n", "20", "--k", "3", "--m", "100",
                 "--eps", "0.4", "--seed", "11", "--out", out])
    assert code == 0
    inst = read_xor(out + ".xor")
    x = read_assignment(out + ".assign")
    assert inst.n == 20 and inst.m == 100
    manifest = json.loads((tmp_path / "inst.manifest.json").read_text())
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["seed"] == 11
    # noiseless fraction from eps=0.4 is about 0.9
    assert 0.8 < value(inst, x) <= 1.0


def test_generate_is_deterministic_per_seed(tmp_path):
    a, b, c = (str(tmp_path / s) for s in "abc")
    for out in (a, b):
        _run(["generate", "xor", "--n", "15", "--k", "2", "--m", "50",
              "--eps", "0.3", "--seed", "5", "--out", out])
    _run(["generate", "xor", "--n", "15", "--k", "2", "--m", "50",
          "--eps", "0.3", "--seed", "6", "--out", c])
    xa = (tmp_path / "a.xor").read_bytes()
    assert xa == (tmp_path / "b.xor").read_bytes()
    assert xa != (tmp_path / "c.xor").read_bytes()


def test_generate_csp_uniform_plant(tmp_path):
    out = str(tmp_path / "phi")
    code = _run(["generate", "csp", "--n", "25", "--m", "200",
                 "--predicate", "sat:3", "--plant", "uniform",
                 "--seed", "3", "--out", out])
    assert code == 0
    from rpcsp.instances import read_csp
    psi = read_csp(out + ".csp")
    x = read_assignment(out + ".assign")
    assert value(psi, x) == 1.0


# ----------------------------------------------------------------------- solve

def test_solve_xor_round_trip(tmp_path):
    gen = str(tmp_path / "g")
    _run(["generate", "xor", "--n", "40", "--k", "2", "--m", "30000",
          "--eps", "0.4", "--seed", "8", "--out", gen])
    sol = str(tmp_path / "s")
    code = _run(["solve", "--in", gen + ".xor", "--backend", "sdp_basic",
                 "--seed", "8", "--planted", gen + ".assign", "--out", sol])
    assert code == 0
    report = json.loads((tmp_path / "s.report.json").read_text())
    assert report["matched_planted"] is True
    got = read_assignment(sol + ".assign")
    planted = read_assignment(gen + ".assign")
    assert np.array_equal(got, planted) or np.array_equal(got, -planted)


def test_solve_runs_each_csp_side_at_the_level_solve_csp_picks(tmp_path):
    # --ell is the full side's level; the arity-2 sides run at their default, 1.
    gen = str(tmp_path / "g")
    _run(["generate", "csp", "--n", "16", "--m", "6000", "--predicate", "xor:3",
          "--seed", "5", "--out", gen])
    code = _run(["solve", "--in", gen + ".csp", "--backend", "kikuchi_spectral",
                 "--ell", "3", "--seed", "5", "--out", str(tmp_path / "s")])
    assert code == 0
    report = json.loads((tmp_path / "s.report.json").read_text())
    api = solve_csp(read_csp(gen + ".csp"), 3, BackendChoice.kikuchi_spectral(), 5)
    levels = [t["ell"] for t in report["stats"]["tasks"]]
    assert levels == [t["ell"] for t in api.stats["tasks"]] == [None] * 6 + [1] * 6 + [3]
    assert report["stats"]["tasks"] == api.stats["tasks"]
    assert report["backend"] == asdict(BackendChoice.kikuchi_spectral())


def test_solve_csp_with_plant_fast_path(tmp_path):
    gen = str(tmp_path / "g")
    _run(["generate", "csp", "--n", "30", "--m", "40000",
          "--predicate", "sat:3", "--plant", "uniform",
          "--seed", "4", "--out", gen])
    sol = str(tmp_path / "s")
    code = _run(["solve", "--in", gen + ".csp", "--backend", "sdp_basic",
                 "--seed", "4", "--plant", gen + ".plant", "--out", sol])
    assert code == 0
    report = json.loads((tmp_path / "s.report.json").read_text())
    assert report["stats"]["value"] == 1.0
    assert report["stats"]["fast_path"] is True


@pytest.mark.parametrize("plant_k", [2, 4])
def test_solve_csp_rejects_a_planting_of_another_arity(tmp_path, capsys, monkeypatch, plant_k):
    gen = str(tmp_path / "g")
    _run(["generate", "csp", "--n", "30", "--m", "4000", "--predicate", "xor:3",
          "--seed", "1", "--out", gen])
    plant = str(tmp_path / f"k{plant_k}.plant")
    write_planting(PlantingDistribution.uniform_satisfying(CspPredicate.k_xor(plant_k)), plant)
    capsys.readouterr()

    def no_side(*args):
        raise AssertionError("a side ran before the planting was checked")

    monkeypatch.setattr("rpcsp.reduction.build_xor_side", no_side)
    code = _run(["solve", "--in", gen + ".csp", "--backend", "kikuchi_spectral",
                 "--plant", plant, "--out", str(tmp_path / "s")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"arity {plant_k}" in err and "arity 3" in err
    assert not (tmp_path / "s.report.json").exists()


# ---------------------------------------------------------------------- refute

def test_refute_prints_json_and_writes_it(tmp_path, capsys):
    gen = str(tmp_path / "g")
    _run(["generate", "xor", "--n", "20", "--k", "4", "--m", "600",
          "--eps", "0.5", "--seed", "7", "--out", gen])
    capsys.readouterr()
    out = str(tmp_path / "r")
    code = _run(["refute", "--in", gen + ".xor", "--ell", "2", "--seed", "7", "--out", out])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["delta_hat"] > 0
    assert printed["failure_prob"] == 1e-6
    assert printed["tol"] == CERT_TOL == 1e-3
    assert 1 <= printed["lanczos_steps"] <= math.comb(20, 2)
    assert printed["residual"] >= 0
    assert printed["nnz"] == build_kikuchi(read_xor(gen + ".xor"), 2).matrix.nnz
    on_disk = json.loads((tmp_path / "r.refute.json").read_text())
    assert on_disk == printed


def test_refute_builds_the_matrix_once(tmp_path, monkeypatch):
    gen, out = str(tmp_path / "g"), str(tmp_path / "r")
    _run(["generate", "xor", "--n", "14", "--k", "4", "--m", "500",
          "--eps", "0.3", "--seed", "3", "--out", gen])
    builds = []

    def counting_build(inst, ell):
        builds.append(ell)
        return build_kikuchi(inst, ell)

    monkeypatch.setattr("rpcsp.kikuchi.build_kikuchi", counting_build)
    assert _run(["refute", "--in", gen + ".xor", "--ell", "3",
                 "--seed", "3", "--out", out]) == 0
    assert builds == [3]


def test_refute_checks_the_basis_cap_before_it_builds(tmp_path, monkeypatch):
    # Random-sign 4-XOR at n = 70 and ell = 4: 916,895 vertices, a 1.75 GB basis.
    rng = np.random.default_rng(5)
    path = str(tmp_path / "big.xor")
    write_xor(XorInstance(70, 4, rng.integers(1, 71, size=(100, 4)),
                          rng.choice(np.array([-1, 1], np.int8), size=100)), path)
    def no_build(*args):
        raise AssertionError("build_kikuchi ran before the checks")

    monkeypatch.setattr("rpcsp.kikuchi.build_kikuchi", no_build)
    assert _run(["refute", "--in", path, "--ell", "4"]) == 3


# --------------------------------------------------------------------- fourier

def test_fourier_command_reports_complexity(tmp_path, capsys):
    q = PlantingDistribution.uniform_satisfying(CspPredicate.k_xor(3))
    plant = str(tmp_path / "q.plant")
    write_planting(q, plant)
    code = _run(["fourier", "--plant", plant])
    assert code == 0
    text = capsys.readouterr().out
    assert "distribution complexity r = 3" in text
    assert "witness = {1,2,3}" in text
    assert "S={1,2,3} coeff=0.125" in text


def test_fourier_command_reports_fallback(tmp_path, capsys):
    plant = str(tmp_path / "u.plant")
    write_planting(PlantingDistribution.uniform(2), plant)
    assert _run(["fourier", "--plant", plant]) == 0
    assert "witness = none" in capsys.readouterr().out


# ----------------------------------------------------------------------- sweep

def test_sweep_writes_csv_grid(tmp_path):
    out = str(tmp_path / "grid.csv")
    code = _run(["sweep", "--k", "1", "--n-list", "20,30",
                 "--eps-list", "0.3,0.5", "--m-rule", "30*eps^-2*n*log(n)",
                 "--backend", "brute", "--trials", "2",
                 "--seed", "1", "--jobs", "1", "--out", out])
    assert code == 0
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("n,")]
    rows = [ln for ln in lines if ln and not ln.startswith(("#", "n,"))]
    assert len(header) == 1
    assert len(rows) == 4  # 2 n values x 2 eps values
    first = rows[0].split(",")
    assert first[0] == "20" and first[6] == "2"  # n and trials columns


def test_sweep_parallel_matches_serial(tmp_path):
    serial = str(tmp_path / "s.csv")
    parallel = str(tmp_path / "p.csv")
    args = ["sweep", "--k", "1", "--n-list", "15", "--eps-list", "0.4",
            "--m-rule", "40*eps^-2*n*log(n)", "--backend", "brute",
            "--trials", "3", "--seed", "2"]
    assert _run(args + ["--jobs", "1", "--out", serial]) == 0
    assert _run(args + ["--jobs", "2", "--out", parallel]) == 0

    def stable(path):
        # drop comment lines and the wall-clock column
        rows = [ln for ln in open(path) if not ln.startswith("#")]
        return [",".join(ln.strip().split(",")[:-1]) for ln in rows]

    assert stable(serial) == stable(parallel)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_records_a_failed_trial_and_keeps_the_others(tmp_path, jobs):
    # At 14 Lanczos steps every n = 10 trial converges and two of three n = 30 trials do not.
    out = tmp_path / "grid.csv"
    code = _run(["sweep", "--k", "2", "--n-list", "10,30", "--eps-list", "0.2",
                 "--m-rule", "2000", "--backend", "kikuchi_spectral", "--iters", "14",
                 "--trials", "3", "--seed", "5", "--jobs", jobs, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith(f"# {SWEEP_SCHEMA} ") and SWEEP_SCHEMA == "rpcsp-sweep-v2"
    header, *rows = lines[1:]
    cells = [dict(zip(header.split(","), row.split(","))) for row in rows]
    assert [(c["n"], c["failures"], c["exact_recoveries"], c["mean_stage1_corr"])
            for c in cells] == [("10", "0", "3", "1.000000"), ("30", "2", "1", "1.000000")]


@pytest.mark.parametrize("flag, value, more", [
    pytest.param("--n-list", "a", {}, id="--n-list-a"),
    pytest.param("--eps-list", "x", {}, id="--eps-list-x"),
    pytest.param("--n-list", "12,12", {}, id="--n-list-12,12"),
    pytest.param("--eps-list", "0.5,0.50", {}, id="--eps-list-0.5,0.50"),
    # Grid values a trial would reject: over the brute cap, eps above 1/2, a
    # level the n = 4 lift cannot take, and k > n.
    pytest.param("--n-list", "12,30", {"--k": "3", "--eps-list": "0.3"}, id="brute-cap"),
    pytest.param("--eps-list", "0.3,0.7", {"--k": "3"}, id="eps-range"),
    pytest.param("--n-list", "12,4", {"--k": "4", "--ell": "3", "--m-rule": "300",
                                      "--backend": "kikuchi_spectral"}, id="level"),
    pytest.param("--n-list", "12,4", {"--k": "5"}, id="k-over-n"),
])
def test_sweep_rejects_a_bad_or_repeated_grid_value_before_any_trial(
        tmp_path, capsys, monkeypatch, flag, value, more):
    def no_trial(task):
        raise AssertionError("a trial ran before the grid was checked")

    monkeypatch.setattr("rpcsp.cli._sweep_trial", no_trial)
    args = {"--k": "2", "--n-list": "12", "--eps-list": "0.5", "--m-rule": "200",
            "--backend": "brute", "--trials": "2", **more, flag: value}
    code = _run(["sweep", *(t for kv in args.items() for t in kv),
                 "--out", str(tmp_path / "w.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_sweep_with_an_overflowing_m_rule_exits_one(tmp_path, capsys):
    code = _run(["sweep", "--k", "2", "--n-list", "12", "--eps-list", "0.5",
                 "--m-rule", "10^4400", "--backend", "brute", "--trials", "1",
                 "--out", str(tmp_path / "w.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "cannot evaluate" in err and "Traceback" not in err


@pytest.mark.parametrize("k, level", [(4, 2), (3, 3)])
def test_sweep_m_rule_and_csv_use_the_level_the_solve_runs_at(tmp_path, k, level):
    out = tmp_path / "grid.csv"
    code = _run(["sweep", "--k", str(k), "--n-list", "10", "--eps-list", "0.5",
                 "--m-rule", "100*l", "--backend", "kikuchi_spectral", "--trials", "1",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    header, row = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["m"] == str(100 * level) and cells["ell"] == str(level)


# ------------------------------------------------------------------ exit codes

def test_missing_input_file_exits_two(tmp_path):
    code = _run(["solve", "--in", str(tmp_path / "nope.xor"),
                 "--backend", "brute", "--out", str(tmp_path / "o")])
    assert code == 2


def test_malformed_file_exits_two(tmp_path):
    bad = tmp_path / "bad.xor"
    bad.write_text("xor 5 2\n")
    code = _run(["solve", "--in", str(bad), "--backend", "brute",
                 "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("name,content", [
    ("bad.xor", b"xor a 1 2\n+1 1 2\n"),
    ("bad.xor", b"\x89PNG\r\n\x1a\n\x00\x00\xff\xfe"),
    ("bad.csp", b"csp 3 1 1 2\n1 \xff\n"),
    ("rhs0.xor", b"xor 3 1 2\n0 1 2\n"),
    ("rhs2.xor", b"xor 3 1 2\n2 1 2\n"),
    ("neg3.csp", b"csp 3 1 1 2\n1 3\n"),
])
def test_corrupt_instance_exits_two_without_traceback(tmp_path, capsys, name, content):
    bad = tmp_path / name
    bad.write_bytes(content)
    code = _run(["solve", "--in", str(bad), "--backend", "brute",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_binary_planted_assignment_exits_two_without_traceback(tmp_path, capsys):
    gen = str(tmp_path / "g")
    _run(["generate", "xor", "--n", "10", "--k", "2", "--m", "20",
          "--eps", "0.5", "--seed", "1", "--out", gen])
    bad = tmp_path / "bad.assign"
    bad.write_bytes(b"\xff\xfe+\x001")
    capsys.readouterr()
    code = _run(["solve", "--in", gen + ".xor", "--backend", "brute",
                 "--planted", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fourier", "solve"])
def test_binary_plant_exits_two_without_traceback(tmp_path, capsys, command):
    bad = tmp_path / "bad.plant"
    bad.write_bytes(b"\xff\xfe\x00plant 3\n")
    argv = ["fourier", "--plant", str(bad)]
    if command == "solve":
        gen = str(tmp_path / "g")
        _run(["generate", "csp", "--n", "10", "--m", "20", "--predicate", "sat:3",
              "--plant", "uniform", "--seed", "1", "--out", gen])
        argv = ["solve", "--in", gen + ".csp", "--backend", "brute",
                "--plant", str(bad), "--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert _run(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_bad_parameter_exits_one(tmp_path):
    code = _run(["generate", "xor", "--n", "10", "--k", "2", "--m", "10",
                 "--eps", "0.9", "--out", str(tmp_path / "o")])
    assert code == 1


def test_unindexable_clause_count_exits_one_without_traceback(tmp_path, capsys):
    code = _run(["generate", "xor", "--n", "10", "--k", "2", "--m", str(10 ** 30),
                 "--eps", "0.5", "--out", str(tmp_path / "big")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.iterdir())


def test_brute_cap_above_ceiling_exits_one(tmp_path, capsys, monkeypatch):
    gen = str(tmp_path / "g")
    _run(["generate", "xor", "--n", "10", "--k", "2", "--m", "20",
          "--eps", "0.5", "--seed", "1", "--out", gen])
    capsys.readouterr()
    monkeypatch.setattr("rpcsp.approx_recovery.BRUTE_MAX_N", 9)
    code = _run(["solve", "--in", gen + ".xor", "--backend", "brute",
                 "--seed", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "n <= 9" in err


@pytest.mark.parametrize("flag, command", [
    *((f, c) for f in ("--rank", "--cap", "--constant") for c in ("solve", "sweep")),
    ("--tol", "refute"), ("--dump-matrix", "refute"),
])
def test_removed_options_exit_one(tmp_path, capsys, command, flag):
    argv = {"solve": ["solve", "--in", str(tmp_path / "g.xor"), "--backend", "brute"],
            "sweep": ["sweep", "--k", "2", "--n-list", "10", "--eps-list", "0.5",
                      "--m-rule", "200", "--trials", "1", "--backend", "brute"],
            "refute": ["refute", "--in", str(tmp_path / "g.xor"), "--ell", "1"]}[command]
    value = {"--tol": ["0.01"], "--dump-matrix": []}.get(flag, ["3"])
    assert _run(argv + [flag, *value, "--out", str(tmp_path / "o")]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("backend", ["sdp_basic", "kikuchi_spectral"])
def test_level_zero_exits_one_for_solve_and_sweep(tmp_path, capsys, backend):
    gen = str(tmp_path / "g")
    _run(["generate", "xor", "--n", "10", "--k", "2", "--m", "200",
          "--eps", "0.5", "--seed", "1", "--out", gen])
    capsys.readouterr()
    assert _run(["solve", "--in", gen + ".xor", "--backend", backend, "--ell", "0",
                 "--out", str(tmp_path / "s")]) == 1
    assert _run(["sweep", "--k", "2", "--n-list", "10", "--eps-list", "0.5",
                 "--m-rule", "200", "--ell", "0", "--backend", backend, "--trials", "1",
                 "--out", str(tmp_path / "w.csv")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("ell must be >= 1") == 2


@pytest.mark.parametrize("command", ["solve", "refute", "fourier", "generate", "sweep"])
def test_directory_path_exits_two_with_one_line(tmp_path, capsys, command):
    d = tmp_path / "d"
    d.mkdir()
    argv = {
        "solve": ["solve", "--in", str(d), "--backend", "brute", "--out", str(tmp_path / "o")],
        "refute": ["refute", "--in", str(d), "--ell", "1"],
        "fourier": ["fourier", "--plant", str(d)],
        "generate": ["generate", "xor", "--n", "10", "--k", "2", "--m", "20", "--eps", "0.5",
                     "--planted", str(d), "--out", str(tmp_path / "o")],
        "sweep": ["sweep", "--k", "1", "--n-list", "10", "--eps-list", "0.5",
                  "--m-rule", "200", "--backend", "brute", "--trials", "1", "--out", str(d)],
    }[command]
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["d"]  # no output, no stray d.tmp


def test_unknown_flag_exits_one():
    assert _run(["generate", "xor", "--frobnicate"]) == 1


def test_resource_limit_exits_three(tmp_path):
    gen = str(tmp_path / "g")
    _run(["generate", "xor", "--n", "40", "--k", "4", "--m", "200",
          "--eps", "0.5", "--seed", "1", "--out", gen])
    code = _run(["solve", "--in", gen + ".xor", "--backend", "brute",
                 "--seed", "1", "--out", str(tmp_path / "o")])
    assert code == 1  # n = 40 over the brute cap: unsupported configuration is a usage error
    code = _run(["refute", "--in", gen + ".xor", "--ell", "25",
                 "--seed", "1", "--out", str(tmp_path / "o")])
    assert code == 3  # vertex table over the cap


def test_refute_over_the_entry_cap_exits_three(tmp_path):
    gen = str(tmp_path / "g")
    _run(["generate", "xor", "--n", "60", "--k", "4", "--m", "20000",
          "--eps", "0.5", "--seed", "1", "--out", gen])
    code = _run(["refute", "--in", gen + ".xor", "--ell", "4",
                 "--seed", "1", "--out", str(tmp_path / "o")])
    assert code == 3  # about 185M entries, over the entry cap


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "rpcsp", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout
