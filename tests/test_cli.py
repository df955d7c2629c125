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
    solve_csp,
    value,
)
from rpcsp.cli import MANIFEST_SCHEMA, SWEEP_SCHEMA, cli_main, eval_m_rule
from rpcsp.fourier import write_planting
from rpcsp.instances import read_assignment, read_csp, read_xor
from rpcsp.kikuchi import build_kikuchi, read_kikuchi_dump


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


@pytest.mark.parametrize("expr", ["n/l", "log(l)", "exp(1000*n)", "(0-n)^0.5", "min()"])
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


def test_seed_env_var_overrides_flag(tmp_path, monkeypatch):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    monkeypatch.setenv("RPCSP_SEED", "99")
    _run(["generate", "xor", "--n", "12", "--k", "2", "--m", "30",
          "--eps", "0.5", "--seed", "1", "--out", a])
    monkeypatch.delenv("RPCSP_SEED")
    _run(["generate", "xor", "--n", "12", "--k", "2", "--m", "30",
          "--eps", "0.5", "--seed", "99", "--out", b])
    assert (tmp_path / "a.xor").read_bytes() == (tmp_path / "b.xor").read_bytes()


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


# ---------------------------------------------------------------------- refute

def test_refute_prints_json_and_dumps_matrix(tmp_path, capsys):
    gen = str(tmp_path / "g")
    _run(["generate", "xor", "--n", "20", "--k", "4", "--m", "600",
          "--eps", "0.5", "--seed", "7", "--out", gen])
    capsys.readouterr()
    out = str(tmp_path / "r")
    code = _run(["refute", "--in", gen + ".xor", "--ell", "2",
                 "--seed", "7", "--out", out, "--dump-matrix"])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["delta_hat"] > 0
    assert printed["failure_prob"] == 1e-6
    assert 1 <= printed["lanczos_steps"] <= math.comb(20, 2)
    assert printed["residual"] >= 0
    on_disk = json.loads((tmp_path / "r.refute.json").read_text())
    assert on_disk == printed
    n, ell, mat = read_kikuchi_dump(out + ".kik")
    assert (n, ell) == (20, 2)
    assert mat.nnz == on_disk["nnz"]


def test_refute_dump_matrix_builds_once_and_dumps_what_a_fresh_build_gives(
        tmp_path, monkeypatch):
    gen, out = str(tmp_path / "g"), str(tmp_path / "r")
    _run(["generate", "xor", "--n", "14", "--k", "4", "--m", "500",
          "--eps", "0.3", "--seed", "3", "--out", gen])
    builds = []

    def counting_build(inst, ell):
        builds.append(ell)
        return build_kikuchi(inst, ell)

    monkeypatch.setattr("rpcsp.cli.build_kikuchi", counting_build)
    monkeypatch.setattr("rpcsp.kikuchi.build_kikuchi", counting_build)
    assert _run(["refute", "--in", gen + ".xor", "--ell", "3",
                 "--seed", "3", "--out", out, "--dump-matrix"]) == 0
    assert builds == [3]
    _, _, got = read_kikuchi_dump(out + ".kik")
    want = build_kikuchi(read_xor(gen + ".xor"), 3).matrix
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


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
                 "--eps-list", "0.3,0.5", "--m-rule", "C*eps^-2*n*log(n)",
                 "--constant", "30", "--backend", "brute", "--trials", "2",
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


def test_brute_cap_above_ceiling_exits_one(tmp_path, capsys):
    gen = str(tmp_path / "g")
    _run(["generate", "xor", "--n", "10", "--k", "2", "--m", "20",
          "--eps", "0.5", "--seed", "1", "--out", gen])
    capsys.readouterr()
    code = _run(["solve", "--in", gen + ".xor", "--backend", "brute",
                 "--cap", "27", "--seed", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "1..26" in err


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


def test_unknown_flag_exits_one():
    assert _run(["generate", "xor", "--frobnicate"]) == 1


def test_resource_limit_exits_three(tmp_path):
    gen = str(tmp_path / "g")
    _run(["generate", "xor", "--n", "40", "--k", "4", "--m", "200",
          "--eps", "0.5", "--seed", "1", "--out", gen])
    code = _run(["solve", "--in", gen + ".xor", "--backend", "brute",
                 "--cap", "20", "--seed", "1", "--out", str(tmp_path / "o")])
    assert code == 1  # unsupported configuration is a usage error
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
