"""Solver comparison harness.

Runs a list of solvers on one instance and collects a table of iteration
counts, matvec counts, wall time, and residuals.  Residuals in the table are
always recomputed here from (A, b, x-tilde) — the solver's own claim is kept
alongside for cross-checking but never trusted as the result.

Wall time covers the solve call only (instance generation and IO excluded);
an untimed warmup run precedes each timed run so one-off allocation and BLAS
initialization costs don't land on the first solver in the list.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import scipy
import scipy.linalg

from .config import WARMUP_ITERS
from .core import MatrixHandle, as_vector, operator_of
from .errors import DomainError, MspError
from .general import GeneralSolveConfig, solve_normal
from .instances import InstanceSpec, gen_instance
# preconditioned_lanczos is unused here, but tracers rebind it by this name.
from .lanczos import preconditioned_lanczos  # noqa: F401
from .psd import PsdSolveConfig, solve_psd, two_phase_lanczos
from .report import SCHEMA_VERSION, SolveReport

SOLVERS = ("plain-lanczos", "msp-psd", "msp-general", "dense-direct")


def solve_plain_lanczos(
    a,
    b: np.ndarray,
    *,
    lam: float = 0.0,
    eps: float = 1e-8,
    trace=None,
) -> SolveReport:
    """Unpreconditioned Lanczos baseline for (A + lam*I) x = b, A symmetric.

    Runs on the same driver as the preconditioned solver (one run to
    energy error eps, budgeted from its own Ritz values) with M = I, so
    iteration counts and stops compare like for like.

    An ndarray A is wrapped as an "spd" handle, so its products go through
    the same dsymv that `solve_psd` runs on it, and an asymmetric or
    non-square array raises DomainError.
    """
    t0 = time.perf_counter()
    if not isinstance(a, MatrixHandle):
        a = MatrixHandle(a, sym="spd")
    if a.rows != a.cols:
        raise DomainError(f"square system required, got {a.rows}x{a.cols}")
    if lam < 0.0:
        raise DomainError(f"lam must be >= 0, got {lam}")
    b = as_vector(b, a.rows)
    n = a.rows
    a_op = operator_of(a)

    def b_op(x):
        y = a_op(x)
        return y + lam * x if lam else y

    config_echo = {"method": "plain-lanczos", "lam": lam, "eps": eps, "n": n}
    if not b.any():
        return SolveReport(
            x=np.zeros(n), status="converged", method="plain-lanczos",
            iterations={"level1": 0, "warmup": 0}, matvecs=0,
            residual_history=[], kappa_m_estimate=None,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            config_echo=config_echo, stop_reason="zero-rhs",
        )

    # M = I; the copy keeps M^{-1} r a separate array from r.
    x, ws, kappa, _ = two_phase_lanczos(b_op, b, lambda r: r.copy(), float(n), eps, trace=trace)
    return SolveReport(
        x=x,
        status=ws.status,
        method="plain-lanczos",
        iterations={"level1": ws.iterations, "warmup": min(ws.iterations, WARMUP_ITERS)},
        matvecs=ws.n_matvec,
        residual_history=[[i, r] for i, r in ws.checkpoints],
        kappa_m_estimate=kappa,  # see two_phase_lanczos; None where Ritz values give none
        wall_ms=(time.perf_counter() - t0) * 1e3,
        config_echo=config_echo,
        stop_reason=ws.stop_reason,
        workspace=ws,
    )


def _dense_direct(a: MatrixHandle, b: np.ndarray, lam: float) -> SolveReport:
    """Factor-and-solve oracle: the reference floor `compare` measures against.

    Square A solves M x = c with M = A + lam*I and c = b.  Rectangular A with
    lam > 0 solves the ridge normal equations, M = AᵀA + lam*I and c = Aᵀb,
    the system `compare` audits as "normal".  M is factored once (Cholesky
    when A is flagged spd or M is the Gram matrix, pivoted LU otherwise),
    solved, and then refined once through the same factor:
    x += M⁻¹(c - M x), with the residual formed in float64.  One step of fixed-precision refinement
    makes the solve componentwise backward stable (Skeel 1980; Higham,
    *Accuracy and Stability of Numerical Algorithms*, §12.2), so the relative
    residual lands at the float64 evaluation floor, about u‖M‖‖x‖/‖c‖,
    independent of how the BLAS splits the factorization across threads.
    Unrefined, it can land above that floor, by a margin that varies with
    the thread count.

    Rectangular A with lam == 0 is a minimum-norm least-squares solve by
    `numpy.linalg.lstsq` and is not refined.
    """
    t0 = time.perf_counter()
    dense = a.to_dense()
    if a.rows == a.cols or lam > 0.0:
        if a.rows == a.cols:
            mat, rhs, spd = dense, b, a.sym == "spd"
        else:
            mat, rhs, spd = dense.T @ dense, dense.T @ b, True
        if lam:
            mat = mat + lam * np.eye(a.cols)
        if spd:
            cho = scipy.linalg.cho_factor(mat)

            def solve(r):
                return scipy.linalg.cho_solve(cho, r)
        else:
            lu = scipy.linalg.lu_factor(mat)
            # lu_factor only warns on an exact zero pivot; raise as
            # scipy.linalg.solve did, so `compare` records a failed row.
            if np.any(np.diag(lu[0]) == 0.0):
                raise scipy.linalg.LinAlgError("Matrix is singular.")

            def solve(r):
                return scipy.linalg.lu_solve(lu, r)
        x = solve(rhs)
        x += solve(rhs - mat @ x)
    else:
        x = np.linalg.lstsq(dense, b, rcond=None)[0]
    return SolveReport(
        x=x, status="converged", method="dense-direct",
        iterations={"level1": 0}, matvecs=0, residual_history=[],
        kappa_m_estimate=None, wall_ms=(time.perf_counter() - t0) * 1e3,
        config_echo={"method": "dense-direct", "lam": lam},
        stop_reason="direct",
    )


def default_rank(n: int, spec: Optional[InstanceSpec] = None) -> int:
    """Sketch rank of `compare` and `bench` without --l: max(ceil(log2 n) + 1, 8).

    It is at least 2k on an instance with k outliers and at most max(n // 2, 2).
    """
    l = max(int(math.ceil(math.log2(max(n, 2)))) + 1, 8)
    if spec is not None and spec.generator in ("k-large-psd", "k-large-general",
                                               "block-lowerbound"):
        l = max(l, 2 * spec.k)
    return min(l, max(n // 2, 2))


def run_solver(name: str, a: MatrixHandle, b: np.ndarray, *, lam: float, eps: float, l: int,
               delta: float, seed: int) -> SolveReport:
    """Solve with the SOLVERS entry `name` at the given targets.

    msp-general solves the normal equations (A^T A + lam*I) x = A^T b; the
    others solve (A + lam*I) x = b, or least squares for dense-direct on a
    rectangular A.
    """
    if name == "plain-lanczos":
        return solve_plain_lanczos(a, b, lam=lam, eps=eps)
    if name == "msp-psd":
        cfg = PsdSolveConfig(l=l, lam=lam, eps=eps, delta=delta, seed=seed)
        return solve_psd(a, b, cfg)
    if name == "msp-general":
        cfg = GeneralSolveConfig(l=l, lam=lam, eps=eps, delta=delta, seed=seed)
        return solve_normal(a, a.rmatvec(b), cfg)
    if name == "dense-direct":
        return _dense_direct(a, b, lam)
    raise DomainError(f"unknown solver {name!r}; pick from {SOLVERS}")


def _recompute_residual(a: MatrixHandle, b: np.ndarray, x: np.ndarray,
                        lam: float, system: str) -> float:
    if system == "normal":
        c = a.rmatvec(b)
        r = c - (a.rmatvec(a.matvec(x)) + lam * x)
        denom = float(np.linalg.norm(c))
    else:
        r = b - (a.matvec(x) + lam * x)
        denom = float(np.linalg.norm(b))
    return float(np.linalg.norm(r)) / max(denom, 1e-300)


@dataclass(eq=False)
class BenchmarkReport:
    """One instance, several solvers, independently audited results."""

    instance: Dict[str, Any]
    environment: Dict[str, Any]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    reports: Dict[str, Optional[SolveReport]] = field(default_factory=dict)

    def to_dict(self, include_solutions: bool = False) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "instance": self.instance,
            "environment": self.environment,
            "rows": self.rows,
            "reports": {
                name: (rep.to_dict(include_solutions) if rep is not None else None)
                for name, rep in self.reports.items()
            },
        }

    def to_json(self, include_solutions: bool = False, indent: int = 2) -> str:
        return json.dumps(self.to_dict(include_solutions), indent=indent)

    def table(self) -> str:
        cols = ("solver", "status", "iters", "matvecs", "wall_ms", "residual")
        lines = []
        body = []
        for row in self.rows:
            body.append((
                row["solver"],
                row["status"],
                str(row["iterations"]),
                str(row["matvecs"]),
                f"{row['wall_ms']:.1f}" if row["wall_ms"] is not None else "-",
                f"{row['residual']:.3e}" if row["residual"] is not None else "-",
            ))
        widths = [max(len(c), *(len(r[k]) for r in body)) if body else len(c)
                  for k, c in enumerate(cols)]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        lines.append(fmt.format(*cols))
        lines.append("  ".join("-" * w for w in widths))
        for r in body:
            lines.append(fmt.format(*r))
        return "\n".join(lines)

    @property
    def all_converged(self) -> bool:
        return all(row["status"] == "converged" for row in self.rows)


def _environment_echo(threads: Optional[int]) -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "threads": threads if threads is not None else "default",
    }


def run_compare(
    instance,
    solvers: List[str],
    targets: Optional[Dict[str, Any]] = None,
    *,
    warmup_runs: int = 1,
    threads: Optional[int] = None,
) -> BenchmarkReport:
    """Run each named solver on the instance and tabulate audited results.

    `instance` is an InstanceSpec or a prebuilt (A, b) pair.  `targets` may
    carry eps, lam, l, delta, seed (missing keys take defaults).  An empty,
    repeating or unknown solver list, or a negative warmup_runs, raises
    DomainError before any solver runs.  A solver raising is recorded as a
    failed row and the run continues.
    """
    if not solvers:
        raise DomainError(f"no solvers given; pick from {SOLVERS}")
    unknown = [name for name in solvers if name not in SOLVERS]
    if unknown:
        raise DomainError(f"unknown solver {unknown[0]!r}; pick from {SOLVERS}")
    if len(set(solvers)) != len(solvers):
        raise DomainError(f"solver list repeats a name: {solvers}")
    if warmup_runs < 0:
        raise DomainError(f"warmup_runs must be >= 0, got {warmup_runs}")
    targets = dict(targets or {})
    eps = float(targets.get("eps", 1e-8))
    lam = float(targets.get("lam", 0.0))
    delta = float(targets.get("delta", 0.01))
    seed = int(targets.get("seed", 0))

    if isinstance(instance, InstanceSpec):
        a, b, _spectrum = gen_instance(instance)
        instance_echo = {k: v for k, v in asdict(instance).items() if v is not None}
    else:
        a, b = instance[0], instance[1]
        a = a if isinstance(a, MatrixHandle) else MatrixHandle(a)
        instance_echo = {"generator": "prebuilt", "n": a.cols, "m": a.rows}
    b = as_vector(b, a.rows)

    spec = instance if isinstance(instance, InstanceSpec) else None
    l = int(targets.get("l", default_rank(a.cols, spec)))

    report = BenchmarkReport(
        instance=instance_echo,
        environment=_environment_echo(threads),
    )
    report.instance.update({"eps": eps, "lam": lam, "l": l, "delta": delta})

    for name in solvers:
        # msp-general solves A^T A x = A^T b (+lam) and is audited against that
        # system; everything else is audited against (A + lam I) x = b, except
        # dense-direct on a rectangular instance (a least-squares solve).
        audit_system = "normal" if name == "msp-general" else (
            "normal" if (a.rows != a.cols and name == "dense-direct") else "primal"
        )
        row: Dict[str, Any] = {
            "solver": name, "status": "error", "stop_reason": "",
            "iterations": 0, "matvecs": 0, "wall_ms": None,
            "residual": None, "claimed_residual": None, "system": audit_system,
            "note": "",
        }
        rep: Optional[SolveReport] = None
        try:
            def run() -> SolveReport:
                if name in ("plain-lanczos", "msp-psd") and a.sym != "spd":
                    raise DomainError(f"{name} needs a symmetric PSD operator")
                return run_solver(name, a, b, lam=lam, eps=eps, l=l, delta=delta, seed=seed)

            for _ in range(warmup_runs):
                run()
            rep = run()
        except (MspError, np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
            row["note"] = f"{type(exc).__name__}: {exc}"
            report.rows.append(row)
            report.reports[name] = None
            continue

        resid = _recompute_residual(a, b, rep.x, lam, audit_system)
        claimed = rep.residual_history[-1][1] if rep.residual_history else None
        row.update(
            status=rep.status,
            stop_reason=rep.stop_reason,
            iterations=int(rep.iterations.get("level1", 0)),
            matvecs=int(rep.matvecs),
            wall_ms=rep.wall_ms,
            residual=resid,
            claimed_residual=claimed,
            system=audit_system,
        )
        if name == "msp-general" and a.rows == a.cols:
            row["residual_primal"] = _recompute_residual(a, b, rep.x, lam, "primal")
        report.rows.append(row)
        report.reports[name] = rep

    return report
