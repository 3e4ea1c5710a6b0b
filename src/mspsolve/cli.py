"""Command-line front end.

Subcommands: gen (write instances to disk), solve (one matrix, one solver,
JSON report), bench (timed single-solver run on a generated instance),
compare (solver-vs-solver table), selftest (built-in invariant battery).

Exit codes: 0 success, 1 usage or runtime error, 2 solver non-convergence
(or selftest failure).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
from dataclasses import asdict
from typing import List, Optional

import numpy as np

from .apps import hutchinson_trace
from .bench import SOLVERS, run_compare, run_solver
from .config import DEFAULT, Tunables
from .core import MatrixHandle, SpectrumSummary, effective_dimension
from .errors import MspError
from .general import GeneralSolveConfig, solve_normal
from .instances import InstanceSpec, gen_instance, hidden_rotation_solution
from .io import read_matrix, read_vector, write_mtx, write_vector
from .psd import PsdSolveConfig, solve_psd

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
    parser.add_argument("--config", metavar="PATH", default=dflt(None),
                        help="key=value file overriding solver constants")


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

    sub.add_parser("selftest", parents=[common], help="run the built-in invariant battery")
    return p


def _instance_from_args(args) -> InstanceSpec:
    return InstanceSpec(generator=args.kind, n=args.n, m=args.m, k=args.k,
                        ratio=args.ratio, seed=args.seed)


def _emit(report_json: str, json_out: Optional[str]) -> None:
    print(report_json)
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(report_json + "\n")


def _run_method(method: str, a: MatrixHandle, b: np.ndarray, args, tun: Tunables):
    n = a.cols
    l = args.l if args.l is not None else max(int(np.ceil(np.log2(max(n, 2)))) + 1, 8)
    l = min(l, max(n // 2, 2))
    return run_solver(method, a, b, lam=args.lam, eps=args.eps, l=l, delta=args.delta,
                      seed=args.seed, tun=tun)


def _cmd_gen(args, tun: Tunables) -> int:
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


def _cmd_solve(args, tun: Tunables) -> int:
    a = read_matrix(args.matrix, sym="spd" if args.spd else "general")
    b = read_vector(args.rhs) if args.rhs else np.ones(a.rows)
    if args.method in ("msp-psd", "plain-lanczos") and a.sym != "spd":
        # A plain .mtx carries no definiteness promise; symmetric inputs are
        # accepted for the PSD-path methods once the handle checks symmetry.
        a = MatrixHandle(a.raw(), sym="spd")
    rep = _run_method(args.method, a, b, args, tun)
    _emit(rep.to_json(include_solution=not args.no_solution), args.json_out)
    return 0 if rep.converged else 2


def _cmd_bench(args, tun: Tunables) -> int:
    spec = _instance_from_args(args)
    a, b, _ = gen_instance(spec)
    rep = _run_method(args.method, a, b, args, tun)
    payload = rep.to_dict(include_solution=False)
    payload["instance"] = {k: v for k, v in asdict(spec).items() if v is not None}
    _emit(json.dumps(payload, indent=2), args.json_out)
    return 0 if rep.converged else 2


def _cmd_compare(args, tun: Tunables) -> int:
    spec = _instance_from_args(args)
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    targets = {"eps": args.eps, "lam": args.lam, "delta": args.delta,
               "seed": args.seed}
    if args.l is not None:
        targets["l"] = args.l
    report = run_compare(spec, solvers, targets,
                         warmup_runs=args.warmup_runs,
                         threads=args.threads, tun=tun)
    print(report.table())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(report.to_json() + "\n")
    else:
        print(report.to_json())
    return 0 if report.all_converged else 2


def _selftest_checks(tun: Tunables):
    """Yield (name, callable) pairs; a callable raises to fail."""

    def matvec_oracle():
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 5))
        x = rng.standard_normal(5)
        want = np.array([sum(a[i, k] * x[k] for k in range(5)) for i in range(4)])
        got = MatrixHandle(a).matvec(x)
        assert np.allclose(got, want, rtol=0, atol=1e-13), "matvec disagrees with triple loop"

    def mspm_roundtrip():
        from .io import read_mspm, write_mspm

        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 3))
        with tempfile.NamedTemporaryFile(suffix=".mspm") as fh:
            write_mspm(fh.name, a)
            back = read_mspm(fh.name)
        assert np.array_equal(back.to_dense(), a), "binary roundtrip not bitwise"

    def sketch_columns():
        from .sketch import make_sparse_embedding

        emb = make_sparse_embedding(s=40, n=200, gamma=4, seed=3)
        dense = emb.toarray()
        norms = np.linalg.norm(dense, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12), "sketch columns not unit norm"
        assert np.all((dense != 0).sum(axis=0) == 4), "column nnz != gamma"

    def nystrom_inverse():
        import scipy.linalg

        from .nystrom import build_nystrom_psd, exact_minv_reference

        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        vals = np.concatenate([100 * np.ones(5), np.linspace(1, 2, 55)])
        a = (q * vals) @ q.T
        a = 0.5 * (a + a.T)
        pre = build_nystrom_psd(a, l=12, lam=0.5, delta=0.01, seed=1, tun=tun)
        r = rng.standard_normal(60)
        # The formula must invert M = C W_j^{-1} C^T + lt*I exactly.
        c = pre.C.to_dense()
        m_dense = c @ scipy.linalg.solve(pre.w_jittered(), c.T, assume_a="pos")
        m_dense += pre.lambda_tilde * np.eye(60)
        got = exact_minv_reference(pre, r)
        err = np.linalg.norm(m_dense @ got - r) / np.linalg.norm(r)
        assert err < 1e-8, f"inversion identity off by {err:.2e}"

    def tridiag_e1():
        from .lanczos import TridiagonalMatrix, tridiag_solve_e1

        tri = TridiagonalMatrix(np.array([2.0, 2.0]), np.array([1.0]))
        got = tridiag_solve_e1(tri, 1.0)
        assert np.allclose(got, [2 / 3, -1 / 3], atol=1e-14), "T^-1 e1 wrong"

    def hidden_rotation():
        spec = InstanceSpec("hidden-rotation", n=40, seed=2, i=3, j=17)
        a, b, _ = gen_instance(spec)
        cfg = GeneralSolveConfig(l=8, lam=0.0, eps=1e-8, seed=0)
        rep = solve_normal(a, a.rmatvec(b), cfg, tun=tun)
        x_star = hidden_rotation_solution(40, 3, 17)
        err = np.linalg.norm(rep.x - x_star) / np.linalg.norm(x_star)
        assert rep.converged, f"status {rep.status}"
        assert err < 1e-6, f"solution error {err:.2e}"

    def psd_klarge():
        spec = InstanceSpec("k-large-psd", n=192, k=8, ratio=1e4, seed=4)
        a, b, _ = gen_instance(spec)
        rep = solve_psd(a, b, PsdSolveConfig(l=24, lam=0.0, eps=1e-8, seed=0), tun=tun)
        resid = np.linalg.norm(b - a.matvec(rep.x)) / np.linalg.norm(b)
        assert rep.converged, f"status {rep.status}"
        assert resid <= 1e-8, f"residual {resid:.2e}"

    def eff_dim():
        spec = SpectrumSummary(np.array([1.0, 0.1, 0.01]), "eigenvalues")
        got = effective_dimension(spec, 0.1)
        assert abs(got - 1.5) < 1e-12, f"effective dimension {got} != 1.5"

    def trace_probe():
        rng = np.random.default_rng(9)
        d = rng.uniform(1, 2, size=50)
        est, half_width = hutchinson_trace(lambda z: d * z, probes=30, seed=1, n=50)
        assert abs(est - d.sum()) <= 6 * max(half_width, 1e-12), "trace estimate off"

    yield "matvec-vs-triple-loop", matvec_oracle
    yield "mspm-binary-roundtrip", mspm_roundtrip
    yield "sketch-column-structure", sketch_columns
    yield "nystrom-inversion-identity", nystrom_inverse
    yield "tridiagonal-e1-solve", tridiag_e1
    yield "hidden-rotation-recovery", hidden_rotation
    yield "psd-outlier-solve", psd_klarge
    yield "effective-dimension-value", eff_dim
    yield "hutchinson-trace-bounds", trace_probe


def _cmd_selftest(args, tun: Tunables) -> int:
    failures = 0
    for name, check in _selftest_checks(tun):
        try:
            check()
        except Exception as exc:  # report every failure, keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    print(f"selftest: {'ok' if failures == 0 else f'{failures} failure(s)'}")
    return 0 if failures == 0 else 2


def cli_main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    tun = DEFAULT
    if args.config:
        try:
            tun = Tunables.from_file(args.config)
        except (OSError, MspError, ValueError) as exc:
            print(f"mspsolve: bad config: {exc}", file=sys.stderr)
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
                   "compare": _cmd_compare, "selftest": _cmd_selftest}[args.command]
        try:
            return handler(args, tun)
        except (MspError, OSError, ValueError) as exc:
            print(f"mspsolve: error: {exc}", file=sys.stderr)
            return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
