"""Command-line front end.

Subcommands: gen (write instances to disk), solve (one matrix, one solver,
JSON report), bench (timed single-solver run on a generated instance),
and compare (solver-vs-solver table).

Exit codes: 0 success, 1 usage or runtime error, 2 solver non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict
from typing import List, Optional

import numpy as np

from .bench import SOLVERS, default_rank, run_compare, run_solver
from .core import MatrixHandle
from .errors import MspError
from .instances import InstanceSpec, gen_instance, hidden_rotation_solution
from .io import read_matrix, read_vector, write_mtx, write_vector

_GEN_KINDS = ("k-large-psd", "k-large-general", "hidden-rotation",
              "block-lowerbound", "rbf-kernel")


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 (2 is reserved for non-convergence)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_global_flags(parser, suppress: bool) -> None:
    # The same flags are legal before or after the subcommand; the subparser
    # copies default to SUPPRESS so they only override when actually given.
    def dflt(v):
        return argparse.SUPPRESS if suppress else v

    parser.add_argument("--seed", type=int, default=dflt(0), help="base RNG seed")
    parser.add_argument("--threads", type=int, default=dflt(None),
                        help="cap BLAS/LAPACK threads (needs threadpoolctl)")
    parser.add_argument("--json-out", metavar="PATH", default=dflt(None),
                        help="also write the JSON report to PATH")


def _build_parser() -> _Parser:
    p = _Parser(prog="mspsolve", description=__doc__.splitlines()[0])
    _add_global_flags(p, suppress=False)
    common = _Parser(add_help=False)
    _add_global_flags(common, suppress=True)

    sub = p.add_subparsers(dest="command", parser_class=_Parser)

    g = sub.add_parser("gen", parents=[common], help="generate an instance and write it to disk")
    g.add_argument("--kind", required=True, choices=_GEN_KINDS)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, default=None)
    g.add_argument("--k", type=int, default=8)
    g.add_argument("--ratio", type=float, default=1e4)
    g.add_argument("--out", default=None, help="output path prefix")

    def _solver_flags(sp, method_default=None):
        if method_default is not None:
            sp.add_argument("--method", choices=SOLVERS, default=method_default)
        sp.add_argument("--eps", type=float, default=1e-8)
        sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
        sp.add_argument("--l", type=int, default=None, help="sketch rank")
        sp.add_argument("--delta", type=float, default=0.01)

    s = sub.add_parser("solve", parents=[common], help="solve a system read from files")
    s.add_argument("--matrix", required=True)
    s.add_argument("--rhs", default=None, help="vector file (default: all ones)")
    s.add_argument("--spd", action="store_true",
                   help="treat the matrix as symmetric positive (semi)definite")
    s.add_argument("--no-solution", action="store_true",
                   help="omit the solution vector from the JSON report")
    _solver_flags(s, method_default="msp-psd")

    def _instance_flags(sp):
        sp.add_argument("--kind", default="k-large-psd", choices=_GEN_KINDS)
        sp.add_argument("--n", type=int, default=512)
        sp.add_argument("--m", type=int, default=None)
        sp.add_argument("--k", type=int, default=8)
        sp.add_argument("--ratio", type=float, default=1e4)

    b = sub.add_parser("bench", parents=[common], help="timed single-solver run on a generated instance")
    _instance_flags(b)
    _solver_flags(b, method_default="msp-psd")

    c = sub.add_parser("compare", parents=[common], help="run several solvers on one instance")
    _instance_flags(c)
    _solver_flags(c)
    c.add_argument("--solvers", default="plain-lanczos,msp-psd,dense-direct",
                   help=f"comma-separated subset of {','.join(SOLVERS)}")
    c.add_argument("--warmup-runs", type=int, default=1)
    return p


def _instance_from_args(args) -> InstanceSpec:
    return InstanceSpec(generator=args.kind, n=args.n, m=args.m, k=args.k,
                        ratio=args.ratio, seed=args.seed)


def _emit(report_json: str, json_out: Optional[str]) -> None:
    print(report_json)
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(report_json + "\n")


def _run_method(method: str, a: MatrixHandle, b: np.ndarray, args,
                spec: Optional[InstanceSpec] = None):
    n = a.cols
    l = min(args.l, max(n // 2, 2)) if args.l is not None else default_rank(n, spec)
    return run_solver(method, a, b, lam=args.lam, eps=args.eps, l=l, delta=args.delta,
                      seed=args.seed)


def _cmd_gen(args) -> int:
    spec = _instance_from_args(args)
    a, b, spectrum = gen_instance(spec)
    prefix = args.out or f"{args.kind}-n{args.n}-seed{args.seed}"
    files = {"matrix": f"{prefix}.mtx", "rhs": f"{prefix}.rhs.txt"}
    write_mtx(files["matrix"], a, comment=f"{args.kind} n={args.n} seed={args.seed}")
    write_vector(files["rhs"], b)
    if args.kind == "hidden-rotation":
        i, j = a.hidden_indices
        files["solution"] = f"{prefix}.solution.txt"
        write_vector(files["solution"], hidden_rotation_solution(args.n, i, j))
    if spectrum is not None:
        files["spectrum"] = f"{prefix}.spectrum.txt"
        write_vector(files["spectrum"], spectrum.values)
    summary = json.dumps({"generator": args.kind, "n": args.n,
                          "seed": args.seed, "files": files}, indent=2)
    _emit(summary, args.json_out)
    return 0


def _cmd_solve(args) -> int:
    a = read_matrix(args.matrix, sym="spd" if args.spd else "general")
    b = read_vector(args.rhs) if args.rhs else np.ones(a.rows)
    if args.method in ("msp-psd", "plain-lanczos") and a.sym != "spd":
        # A plain .mtx carries no definiteness promise; symmetric inputs are
        # accepted for the PSD-path methods once the handle checks symmetry.
        a = MatrixHandle(a.raw(), sym="spd")
    rep = _run_method(args.method, a, b, args)
    _emit(rep.to_json(include_solution=not args.no_solution), args.json_out)
    return 0 if rep.converged else 2


def _cmd_bench(args) -> int:
    spec = _instance_from_args(args)
    a, b, _ = gen_instance(spec)
    rep = _run_method(args.method, a, b, args, spec)
    payload = rep.to_dict(include_solution=False)
    payload["instance"] = {k: v for k, v in asdict(spec).items() if v is not None}
    _emit(json.dumps(payload, indent=2), args.json_out)
    return 0 if rep.converged else 2


def _cmd_compare(args) -> int:
    spec = _instance_from_args(args)
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    targets = {"eps": args.eps, "lam": args.lam, "delta": args.delta,
               "seed": args.seed}
    if args.l is not None:
        targets["l"] = args.l
    report = run_compare(spec, solvers, targets,
                         warmup_runs=args.warmup_runs,
                         threads=args.threads)
    print(report.table())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(report.to_json() + "\n")
    else:
        print(report.to_json())
    return 0 if report.all_converged else 2


def cli_main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    with contextlib.ExitStack() as stack:
        if args.threads is not None:
            try:
                from threadpoolctl import threadpool_limits
            except ImportError:
                print("mspsolve: warning: threadpoolctl not installed; "
                      "--threads ignored", file=sys.stderr)
            else:
                stack.enter_context(threadpool_limits(limits=args.threads))
        handler = {"gen": _cmd_gen, "solve": _cmd_solve, "bench": _cmd_bench,
                   "compare": _cmd_compare}[args.command]
        try:
            return handler(args)
        except (MspError, OSError, ValueError) as exc:
            print(f"mspsolve: error: {exc}", file=sys.stderr)
            return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
