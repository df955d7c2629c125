"""Command line front end.

Subcommands: generate, solve, refute, sweep, fourier. Exit codes: 0 success,
1 usage or parameter problem, 2 malformed input file or a path that cannot be
read or written, 3 solver resource or convergence failure. All file writes go
through a temp file plus rename, and a failed write leaves no temp file.
"""
from __future__ import annotations

import argparse
import ast
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import numpy as np

from .approx_recovery import BACKEND_KINDS, BackendChoice, check_brute_n, check_moment_n
from .errors import (
    ConvergenceError,
    FormatError,
    ParameterError,
    ResourceLimitError,
    UnsupportedConfigError,
)
from .fourier import distribution_complexity, fourier_table, read_planting, write_planting
from .instances import (
    CspPredicate,
    PlantingDistribution,
    _first_line,
    atomic_write_text,
    check_eps,
    corr,
    random_assignment,
    read_assignment,
    read_csp,
    read_xor,
    sample_planted_csp,
    sample_planted_xor,
    write_assignment,
    write_csp,
    write_xor,
)
from .kikuchi import CERT_TOL, refute_report
from .rng import cell_seed, check_seed
from .solver import check_lift_level, default_ell, solve_csp, solve_xor

MANIFEST_SCHEMA = "rpcsp-manifest-v1"
SWEEP_SCHEMA = "rpcsp-sweep-v2"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _write_json(path: str, payload: dict):
    atomic_write_text(path, json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _parse_predicate(text: str) -> CspPredicate:
    parts = text.split(":")
    try:
        if parts[0] == "sat" and len(parts) == 2:
            return CspPredicate.k_sat(int(parts[1]))
        if parts[0] == "xor" and len(parts) in (2, 3):
            parity = int(parts[2]) if len(parts) == 3 else 1
            return CspPredicate.k_xor(int(parts[1]), parity)
        if parts[0] == "hex" and len(parts) == 3:
            return CspPredicate.from_hex(int(parts[1]), parts[2])
    except (ValueError, FormatError) as e:
        raise ParameterError(f"bad predicate {text!r}: {e}") from e
    raise ParameterError(
        f"bad predicate {text!r}; use sat:K, xor:K[:PARITY], or hex:K:DIGITS"
    )


_M_RULE_FUNCS = {
    "log": math.log, "log2": math.log2, "sqrt": math.sqrt,
    "exp": math.exp, "ceil": math.ceil, "floor": math.floor,
    "min": min, "max": max,
}
_M_RULE_OPS = {
    ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b,
    # In float, so a tall power overflows at once instead of building a huge int.
    ast.Pow: lambda a, b: float(a) ** b, ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
}


def eval_m_rule(expr: str, **names) -> int:
    """Evaluate a clause-count rule like '2*n*log(n)*(n/l)^(k/2-1)/eps^2'."""

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in names:
                return names[node.id]
            raise ParameterError(f"unknown name {node.id!r} in m rule")
        if isinstance(node, ast.BinOp) and type(node.op) in _M_RULE_OPS:
            return _M_RULE_OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _M_RULE_FUNCS and not node.keywords):
            return _M_RULE_FUNCS[node.func.id](*(ev(a) for a in node.args))
        raise ParameterError("unsupported syntax in m rule")

    try:
        tree = ast.parse(expr.replace("^", "**"), mode="eval")
    except SyntaxError as e:
        raise ParameterError(f"cannot parse m rule {expr!r}") from e
    try:
        m = math.ceil(ev(tree))
    except (ArithmeticError, TypeError, ValueError) as e:  # n/l at l = 0, log(0), min(), 10^400
        raise ParameterError(f"cannot evaluate m rule {expr!r}: {e}") from e
    if m < 1:
        raise ParameterError(f"m rule {expr!r} evaluated to {m}")
    return m


def _backend_from_args(args) -> BackendChoice:
    return BackendChoice(args.backend, iters=args.iters)


def _read_instance(path: str):
    with open(path, "rb") as f:
        kind = _first_line(f)[0].split()[:1]
    if kind == [b"xor"]:
        return read_xor(path)
    if kind == [b"csp"]:
        return read_csp(path)
    raise FormatError(f"{path}: unrecognized instance header")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args) -> int:
    seed = check_seed(args.seed)
    if args.planted:
        x_star = read_assignment(args.planted)
        if x_star.size != args.n:
            raise ParameterError("planted assignment length does not match --n")
    else:
        x_star = random_assignment(args.n, seed)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "command": f"generate {args.kind}",
        "seed": seed,
        "n": args.n,
        "m": args.m,
    }
    if args.kind == "xor":
        inst = sample_planted_xor(x_star, args.m, args.k, args.eps, seed)
        instance_path = args.out + ".xor"
        write_xor(inst, instance_path)
        manifest.update({"k": args.k, "eps": args.eps})
    else:
        pred = _parse_predicate(args.predicate)
        if args.plant == "uniform":
            q = PlantingDistribution.uniform_satisfying(pred)
        else:
            q = read_planting(args.plant)
        inst = sample_planted_csp(x_star, args.m, pred, q, seed)
        instance_path = args.out + ".csp"
        write_csp(inst, instance_path)
        plant_path = args.out + ".plant"
        write_planting(q, plant_path)
        manifest.update({
            "k": pred.k,
            "predicate": pred.to_hex(),
            "plant": args.plant,
            "plant_file": plant_path,
        })
    assign_path = args.out + ".assign"
    write_assignment(x_star, assign_path)
    manifest["outputs"] = {"instance": instance_path, "assignment": assign_path}
    _write_json(args.out + ".manifest.json", manifest)
    print(f"wrote {instance_path} ({inst.m} clauses), {assign_path}")
    return 0


def _cmd_solve(args) -> int:
    seed = check_seed(args.seed)
    inst = _read_instance(args.infile)
    backend = _backend_from_args(args)
    planted = read_assignment(args.planted) if args.planted else None
    q = read_planting(args.plant) if args.plant else None
    t0 = time.perf_counter()
    if hasattr(inst, "predicate"):
        report = solve_csp(inst, args.ell, backend, seed, q=q, planted=planted)
    else:
        if q is not None:
            raise ParameterError("--plant only applies to CSP instances")
        report = solve_xor(inst, args.ell, backend, seed, planted=planted)
    elapsed = time.perf_counter() - t0
    assign_path = args.out + ".assign"
    write_assignment(report.output, assign_path)
    payload = {
        "command": "solve",
        "seed": seed,
        "infile": args.infile,
        "ell": args.ell,
        "backend": asdict(backend),
        "plant": args.plant,
        "planted": args.planted,
        "value": report.stats.get("value"),
        "matched_planted": report.matched_planted,
        "runtime_s": elapsed,
        "stats": report.stats,
        "output": assign_path,
    }
    _write_json(args.out + ".report.json", payload)
    print(f"value {report.stats.get('value')}  matched_planted {report.matched_planted}")
    return 0


def _cmd_refute(args) -> int:
    seed = check_seed(args.seed)
    inst = _read_instance(args.infile)
    if hasattr(inst, "predicate"):
        raise ParameterError("refute expects an XOR instance")
    rep = refute_report(inst, args.ell, seed=seed)
    payload = {"command": "refute", **asdict(rep),
               "infile": args.infile, "ell": args.ell, "tol": CERT_TOL, "seed": seed}
    print(json.dumps(_jsonable(payload), sort_keys=True))
    if args.out:
        _write_json(args.out + ".refute.json", payload)
    return 0


def _sweep_trial(task: tuple) -> dict:
    """One trial's row; a solve that runs out of steps or memory is a failed trial."""
    (n, k, eps, m, ell, backend, base_seed, trial) = task
    seed_t = cell_seed(base_seed, n, float(eps), trial)
    x_star = random_assignment(n, seed_t)
    inst = sample_planted_xor(x_star, m, k, eps, seed_t)
    row = {"n": n, "eps": eps, "m": m, "trial": trial,
           "failed": False, "exact": False, "stage1_corr": None}
    t0 = time.perf_counter()
    try:
        report = solve_xor(inst, ell, backend, seed_t, planted=x_star)
    except (ConvergenceError, ResourceLimitError):
        row["failed"] = True
    else:
        row["exact"] = bool(report.matched_planted)
        row["stage1_corr"] = abs(corr(report.stats.get("stage1_signs", report.output), x_star))
    row["runtime_s"] = time.perf_counter() - t0
    return row


def _grid(text: str, kind, flag: str, check) -> list:
    """The comma-separated values of a sweep grid flag, each once and each passing check."""
    try:
        values = [kind(t) for t in text.split(",") if t]
    except ValueError as e:
        raise ParameterError(f"{flag}: {e}") from e
    if not values:
        raise ParameterError(f"{flag} needs at least one value")
    if len(set(values)) != len(values):
        raise ParameterError(f"{flag} repeats a value: {text!r}")
    for v in values:
        try:
            check(v)
        except (ParameterError, UnsupportedConfigError) as e:
            raise ParameterError(f"{flag} {v}: {e}") from e
    return values


def _cmd_sweep(args) -> int:
    seed = check_seed(args.seed)
    ell = args.ell if args.ell is not None else default_ell(args.k)
    if args.ell is not None and args.ell < 1:
        raise ParameterError("ell must be >= 1")

    def check_n(n):
        # What the trials at n would raise; arity 1 runs no backend.
        if not 1 <= args.k <= n:
            raise ParameterError("need 1 <= k <= n")
        if args.k >= 2 and args.backend == "brute":
            check_brute_n(n)
        if args.k >= 2 and args.backend != "brute":
            check_moment_n(n)
        if args.k >= 2 and args.backend == "kikuchi_spectral":
            check_lift_level(n, args.k, ell, f"arity-{args.k} XOR")

    n_list = _grid(args.n_list, int, "--n-list", check_n)
    eps_list = _grid(args.eps_list, float, "--eps-list", check_eps)
    if args.trials < 1:
        raise ParameterError("trials must be >= 1")
    if args.jobs < 1:
        raise ParameterError("jobs must be >= 1")
    backend = _backend_from_args(args)
    tasks = []
    for n in n_list:
        for eps in eps_list:
            m = eval_m_rule(args.m_rule, n=n, k=args.k, eps=eps, l=ell)
            for trial in range(args.trials):
                tasks.append((n, args.k, eps, m, ell, backend, seed, trial))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_trial, tasks))
    else:
        results = [_sweep_trial(t) for t in tasks]

    cells: dict[tuple, list[dict]] = {}
    for r in results:
        cells.setdefault((r["n"], r["eps"]), []).append(r)
    lines = [
        f"# {SWEEP_SCHEMA} k={args.k} backend={args.backend} m_rule={args.m_rule!r} "
        f"seed={seed} iters={args.iters}",
        "n,k,eps,m,ell,backend,trials,failures,exact_recoveries,mean_stage1_corr,mean_runtime_s",
    ]
    for n in n_list:
        for eps in eps_list:
            rows = cells[(n, eps)]
            failures = sum(r["failed"] for r in rows)
            exact = sum(r["exact"] for r in rows)
            corrs = [r["stage1_corr"] for r in rows if not r["failed"]]
            mcorr = float(np.mean(corrs)) if corrs else float("nan")
            mrt = float(np.mean([r["runtime_s"] for r in rows]))
            lines.append(
                f"{n},{args.k},{eps},{rows[0]['m']},{ell},{args.backend},"
                f"{args.trials},{failures},{exact},{mcorr:.6f},{mrt:.6f}"
            )
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(n_list) * len(eps_list)} cells, {len(tasks)} trials)")
    return 0


def _cmd_fourier(args) -> int:
    q = read_planting(args.plant)
    table = fourier_table(q)
    for subset, coeff in table.items():
        label = "{" + ",".join(str(j) for j in sorted(subset)) + "}"
        print(f"S={label} coeff={coeff:.12g}")
    r, witness = distribution_complexity(q)
    print(f"distribution complexity r = {r}")
    if witness is None:
        print("witness = none")
    else:
        print("witness = {" + ",".join(str(j) for j in sorted(witness)) + "}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rpcsp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a planted instance")
    gsub = g.add_subparsers(dest="kind", required=True)
    gx = gsub.add_parser("xor")
    gx.add_argument("--n", type=int, required=True)
    gx.add_argument("--k", type=int, required=True)
    gx.add_argument("--m", type=int, required=True)
    gx.add_argument("--eps", type=float, required=True)
    gx.add_argument("--seed", type=int, default=0)
    gx.add_argument("--planted", help="use this assignment file instead of a random x*")
    gx.add_argument("--out", required=True)
    gc = gsub.add_parser("csp")
    gc.add_argument("--n", type=int, required=True)
    gc.add_argument("--m", type=int, required=True)
    gc.add_argument("--predicate", required=True, help="sat:K, xor:K[:PARITY], or hex:K:DIGITS")
    gc.add_argument("--plant", default="uniform",
                    help="planting file, or 'uniform' for uniform over satisfying patterns")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--planted")
    gc.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="recover an assignment")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--backend", choices=BACKEND_KINDS, required=True)
    s.add_argument("--ell", type=int)
    s.add_argument("--iters", type=int, default=200)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--planted", help="planted assignment for the matched flag")
    s.add_argument("--plant", help="planting file enabling the CSP fast path")
    s.add_argument("--out", required=True)

    r = sub.add_parser("refute", help="spectral refutation certificate")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--ell", type=int, required=True)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out")

    w = sub.add_parser("sweep", help="recovery grid over n and eps")
    w.add_argument("--k", type=int, required=True)
    w.add_argument("--n-list", required=True)
    w.add_argument("--eps-list", required=True)
    w.add_argument("--m-rule", required=True,
                   help="expression in n, k, eps, l, e.g. '40*n*log(n)/eps^2'")
    w.add_argument("--ell", type=int, help="Kikuchi level and the l of --m-rule; "
                   "default k/2 for even k and k for odd k, as in solve_xor")
    w.add_argument("--backend", choices=BACKEND_KINDS, required=True)
    w.add_argument("--iters", type=int, default=200)
    w.add_argument("--trials", type=int, default=10)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--jobs", type=int, default=1)
    w.add_argument("--out", required=True)

    f = sub.add_parser("fourier", help="coefficient table of a planting file")
    f.add_argument("--plant", required=True)

    return p


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "refute": _cmd_refute,
    "sweep": _cmd_sweep,
    "fourier": _cmd_fourier,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (ParameterError, UnsupportedConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FormatError as e:
        print(f"malformed input: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"file error: {e}", file=sys.stderr)
        return 2
    except ResourceLimitError as e:
        print(f"resource limit in {args.command}: {e}", file=sys.stderr)
        return 3
    except ConvergenceError as e:
        print(f"convergence failure in {args.command}: {e} "
              f"(best estimate {e.best_estimate})", file=sys.stderr)
        return 3


def main():
    sys.exit(cli_main())
