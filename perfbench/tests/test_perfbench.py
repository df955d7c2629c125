"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
from layers import PER_LAYER, WRAPS  # noqa: E402
from rpcsp import XorInstance  # noqa: E402
from rpcsp.kikuchi import build_kikuchi  # noqa: E402
from tracer import _resolve  # noqa: E402
from workloads import UNGATED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, f"{BENCH.name}/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny_run(workload, trace, seed=3):
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    *_, info, result = done.stdout.strip().splitlines()
    return json.loads(result), json.loads(info)["info"]


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER]
    for module, path, _, _ in WRAPS:
        owner, attr = _resolve(module, path)
        assert callable(getattr(owner, attr)), (module, path)


@pytest.mark.parametrize("workload", list(WORKLOADS | UNGATED))
def test_tiny_run_reports_every_metric(workload):
    result, info = tiny_run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["attempted"] == info["ops"] >= 1
    if workload != "xor4-refute":  # its certificate is unsound on many inputs
        assert result["failed"] == 0 and result["correct"]

    traced, tinfo = tiny_run(workload, 1)
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert tinfo["max_attribution_residual_s"] <= 1e-6
    assert (ROOT / tinfo["trace_file"]).is_file()

    again, _ = tiny_run(workload, 1)
    counts = {k for k, v in traced["metrics"].items() if v["unit"] in ("count", "bytes")}
    assert {k: traced["metrics"][k] for k in counts} == {k: again["metrics"][k] for k in counts}


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "xor3-brute", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _op(name, tmp_path, i=1):
    wl = (WORKLOADS | UNGATED)[name]("tiny", 7, str(tmp_path))
    inp = wl.make_input(i)
    out = wl.op(inp)
    assert wl.check(inp, out)["ok"]
    return wl, inp, out


def test_even_arity_check_accepts_either_sign_only(tmp_path):
    wl, inp, out = _op("xor2-sdp", tmp_path)
    assert wl.check(inp, dataclasses.replace(out, output=-out.output))["ok"]
    flipped = out.output.copy()
    flipped[0] *= -1
    assert not wl.check(inp, dataclasses.replace(out, output=flipped))["ok"]


def test_odd_arity_check_rejects_the_negation(tmp_path):
    wl, inp, out = _op("xor3-brute", tmp_path)
    assert not wl.check(inp, dataclasses.replace(out, output=-out.output))["ok"]


def test_csp_check_needs_value_one_and_few_candidates(tmp_path):
    wl, inp, out = _op("csp3-parity", tmp_path)
    flipped = out.output.copy()
    flipped[0] *= -1
    assert not wl.check(inp, dataclasses.replace(out, output=flipped))["ok"]
    many = [out.output] * (2 ** (inp[0].k + 2) + 1)
    assert not wl.check(inp, dataclasses.replace(out, candidates=many))["ok"]


def test_certificate_check_rejects_a_bound_below_the_exact_norm(tmp_path):
    wl = UNGATED["xor4-refute"]("tiny", 7, str(tmp_path))
    inp = wl.make_input(1)
    out = wl.op(inp)
    inst = inp[0]
    exact, _, _ = checks.exact_certificate(inst.n, inst.scopes, inst.rhs, wl.p["ell"])
    assert wl.check(inp, dataclasses.replace(out, delta_hat=exact * 1.001))["ok"]
    assert not wl.check(inp, dataclasses.replace(out, delta_hat=exact * 0.999))["ok"]


def test_cli_check_needs_clean_exits_and_the_planted_answer(tmp_path):
    wl, inp, out = _op("cli-xor2", tmp_path)
    assert not wl.check(inp, (0, 2))["ok"]
    got = tmp_path / "got.assign"
    x = np.array(got.read_text().split(), dtype=np.int64)
    x[0] *= -1
    got.write_text(" ".join(f"{v:+d}" for v in x) + "\n")
    assert not wl.check(inp, out)["ok"]


@pytest.mark.parametrize("n,k,m,ell", [(10, 4, 200, 3), (12, 4, 300, 2), (9, 2, 50, 1),
                                       (9, 2, 50, 2), (12, 6, 100, 3), (10, 4, 50, 4)])
def test_kikuchi_oracle_matches_the_program(n, k, m, ell):
    rng = np.random.default_rng(n * 100 + k * 10 + ell)
    scopes = rng.integers(1, n + 1, size=(m, k))
    rhs = rng.choice([-1, 1], size=m)
    mat, dropped = checks.kikuchi_reference(n, scopes, rhs, ell)
    kik = build_kikuchi(XorInstance(n, k, scopes, rhs), ell)
    assert np.array_equal(mat.toarray(), kik.matrix.toarray())
    assert dropped == kik.dropped_clauses
    assert checks.kikuchi_matches(kik, n, scopes, rhs, ell)


def test_kikuchi_check_rejects_a_changed_entry(tmp_path):
    wl, inp, out = _op("xor4-kikuchi", tmp_path)
    bad = out.matrix.copy()
    bad.data[0] += 1
    assert not wl.check(inp, dataclasses.replace(out, matrix=bad))["ok"]
    assert not wl.check(inp, dataclasses.replace(out, dropped_clauses=out.dropped_clauses + 1))["ok"]
