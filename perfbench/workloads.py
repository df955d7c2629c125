"""The benchmark's workloads: how each makes its inputs, runs one op, checks it.

Inputs for op ``i`` come from ``SeedSequence([seed, i])`` alone, so a seed
fixes every instance of a run. The program sees only the generated instance
and a seed drawn for it; the planted assignment stays with the check.
"""
from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

import rpcsp.cli
import rpcsp.instances
import rpcsp.kikuchi
import rpcsp.solver
from rpcsp import BackendChoice, CspPredicate, PlantingDistribution, XorInstance

import checks


def _xor2_m(n: int, eps: float) -> int:
    return math.ceil(40 * eps**-2 * n * math.log(n))


class Workload:
    """One op kind at fixed sizes; subclasses fill in the three methods."""

    name = ""
    # Rough op time at full size; a traced run does seconds / (2 * this) pairs.
    nominal_op_s = 1.0
    sizes: dict = {}

    def __init__(self, scale: str, seed: int, workdir: str):
        self.p = self.sizes[scale]
        self.seed = seed
        self.workdir = workdir

    def _draw(self, i: int):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, i]))
        x_star = rng.choice(np.array([-1, 1], dtype=np.int8), size=self.p["n"])
        return rng, x_star, int(rng.integers(2**63))

    def make_input(self, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> dict:
        """Returns {"ok": bool, ...extra per-op values}."""
        raise NotImplementedError


class Xor2Sdp(Workload):
    name = "xor2-sdp"
    nominal_op_s = 0.45
    sizes = {"full": {"n": 300, "eps": 0.25}, "tiny": {"n": 30, "eps": 0.25}}

    def make_input(self, i):
        _, x_star, pseed = self._draw(i)
        m = _xor2_m(self.p["n"], self.p["eps"])
        inst = rpcsp.instances.sample_planted_xor(x_star, m, 2, self.p["eps"], pseed)
        return x_star, inst, pseed

    def op(self, inp):
        _, inst, pseed = inp
        return rpcsp.solver.solve_xor(inst, None, BackendChoice.sdp_basic(), pseed)

    def check(self, inp, out):
        return {"ok": checks.matches_up_to_sign(out.output, inp[0])}


class Xor4Kikuchi(Workload):
    name = "xor4-kikuchi"
    nominal_op_s = 3.0
    sizes = {"full": {"n": 24, "m": 2000, "ell": 3}, "tiny": {"n": 10, "m": 200, "ell": 3}}

    def make_input(self, i):
        rng, _, pseed = self._draw(i)
        n, m = self.p["n"], self.p["m"]
        scopes = rng.integers(1, n + 1, size=(m, 4))
        rhs = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
        return XorInstance(n, 4, scopes, rhs), pseed

    def op(self, inp):
        return rpcsp.kikuchi.build_kikuchi(inp[0], self.p["ell"])

    def check(self, inp, out):
        inst = inp[0]
        return {"ok": checks.kikuchi_matches(out, inst.n, inst.scopes, inst.rhs, self.p["ell"])}


class Xor4Refute(Xor4Kikuchi):
    """Not gated: refute_report's certificate is unsound on most of these inputs.

    The op is Xor4Kikuchi's build plus spectral_norm; the check recomputes the
    certificate from the exact norm.
    """

    name = "xor4-refute"
    nominal_op_s = 3.2

    def op(self, inp):
        inst, pseed = inp
        return rpcsp.kikuchi.refute_report(inst, self.p["ell"], seed=pseed)

    def check(self, inp, out):
        inst = inp[0]
        exact, dropped, nnz = checks.exact_certificate(inst.n, inst.scopes, inst.rhs, self.p["ell"])
        return {
            "ok": nnz == out.nnz and checks.certificate_sound(out.delta_hat, exact),
            "delta_hat": out.delta_hat,
            "norm_gap": checks.norm_gap(out.delta_hat, exact, dropped),
        }


class Csp3Parity(Workload):
    name = "csp3-parity"
    nominal_op_s = 0.6
    sizes = {"full": {"n": 40, "m": 60_000}, "tiny": {"n": 12, "m": 6_000}}
    predicate = CspPredicate.k_xor(3)

    def make_input(self, i):
        _, x_star, pseed = self._draw(i)
        q = PlantingDistribution.uniform_satisfying(self.predicate)
        psi = rpcsp.instances.sample_planted_csp(x_star, self.p["m"], self.predicate, q, pseed)
        return psi, pseed

    def op(self, inp):
        psi, pseed = inp
        return rpcsp.solver.solve_csp(psi, None, BackendChoice.kikuchi_spectral(), pseed)

    def check(self, inp, out):
        psi = inp[0]
        value = checks.csp_value(psi.scopes, psi.negations, self.predicate.table, out.output)
        return {"ok": value == 1.0 and len(out.candidates) <= 2 ** (psi.k + 2)}


class Xor3Brute(Workload):
    name = "xor3-brute"
    nominal_op_s = 1.0
    sizes = {"full": {"n": 20, "m": 200}, "tiny": {"n": 10, "m": 100}}

    def make_input(self, i):
        _, x_star, pseed = self._draw(i)
        inst = rpcsp.instances.sample_planted_xor(x_star, self.p["m"], 3, 0.5, pseed)
        return x_star, inst, pseed

    def op(self, inp):
        _, inst, pseed = inp
        return rpcsp.solver.solve_xor(inst, None, BackendChoice.brute(), pseed)

    def check(self, inp, out):
        # Odd arity fixes the sign: only x* itself is right.
        return {"ok": checks.matches(out.output, inp[0])}


class CliXor2(Xor2Sdp):
    name = "cli-xor2"
    nominal_op_s = 4.8

    def make_input(self, i):
        _, x_star, pseed = self._draw(i)
        d = self.workdir
        with open(os.path.join(d, "planted.assign"), "w") as f:
            f.write(" ".join(f"{int(v):+d}" for v in x_star) + "\n")
        common = ["--seed", str(pseed)]
        generate = ["generate", "xor", "--n", str(self.p["n"]), "--k", "2",
                    "--m", str(_xor2_m(self.p["n"], self.p["eps"])), "--eps", str(self.p["eps"]),
                    "--planted", os.path.join(d, "planted.assign"),
                    "--out", os.path.join(d, "inst"), *common]
        solve = ["solve", "--in", os.path.join(d, "inst.xor"), "--backend", "sdp_basic",
                 "--planted", os.path.join(d, "inst.assign"), "--out", os.path.join(d, "got"),
                 *common]
        return x_star, generate, solve

    def op(self, inp):
        _, generate, solve = inp
        with contextlib.redirect_stdout(io.StringIO()):
            return rpcsp.cli.cli_main(generate), rpcsp.cli.cli_main(solve)

    def check(self, inp, out):
        if out != (0, 0):
            return {"ok": False}
        with open(os.path.join(self.workdir, "got.assign")) as f:
            got = np.array([int(t) for t in f.read().split()])
        return {"ok": checks.matches_up_to_sign(got, inp[0])}


# The workloads BENCHMARK.json gates, in its order.
WORKLOADS = {w.name: w for w in (Xor4Kikuchi, Csp3Parity, Xor3Brute, CliXor2)}
# Run by name like the others, but not gated. xor2-sdp's op is the solve half
# of cli-xor2's op, so it was left out to give the gated runs more time each.
# xor4-refute's ops fail through a known program defect (refute_report's
# unsound certificate), which it measures.
UNGATED = {w.name: w for w in (Xor2Sdp, Xor4Refute)}
