"""Seeded workloads, the independent audit, and the closed measurement loop.

Each workload is one instance from ``gen_instance`` plus a stream of seeded
right-hand sides.  The instance comes from its own seed, fixed by default:
on these generators the iteration counts jump between instance seeds (level-1
Lanczos stops at 30 or 40 iterations on about half the seeds each), which
would swamp the effect of any code change.  The run seed draws the right-hand
sides.  The harness generates the inputs, hands the program only (A, b), and
checks every solution against its own reference: a SciPy Cholesky solve of
the dense system it generated, computed outside the timed calls.  A solution
passes when its relative error in the energy norm of the system,
||x - x*||_B / ||x*||_B, is at most the workload's eps.

The loop is closed: one caller, each call issued after the previous one
returns.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np
import scipy.linalg

import mspsolve.apps
import mspsolve.bench
import mspsolve.general
import mspsolve.nystrom
import mspsolve.psd
from mspsolve import (GeneralSolveConfig, InstanceSpec, KernelSpec, MatrixHandle,
                      MspError, PsdSolveConfig, gen_instance)

from spans import Tracer, layer_metrics

# Untraced runs repeat each cheap call until its repetitions add up to
# MIN_REPEAT_S (at least `min` and at most `max` calls), so a call of a few
# milliseconds still gets a median over enough samples.  setup_s and
# baseline_s are those medians.
SETUP_REPS = dict(min=5, max=50)
BASELINE_REPS = dict(min=1, max=20)
MIN_REPEAT_S = 0.25
# Instance seed unless --instance-seed says otherwise.
INSTANCE_SEED = 1

# Instance sizes.  "tiny" keeps every layer of each workload running and is
# what the self-tests use.
SIZES = {
    "psd-outliers": {"full": dict(n=3072, k=32, l=64), "tiny": dict(n=256, k=8, l=16)},
    "normal-ridge": {"full": dict(m=4000, n=512, k=8, l=16),
                     "tiny": dict(m=400, n=64, k=4, l=8)},
    "krr-smooth": {"full": dict(n=1500), "tiny": dict(n=200)},
}


@dataclass
class Problem:
    """One seeded instance: the timed calls and the reference that audits them."""

    setup: Callable[[], Any]                 # the one-time call; returns state
    solve: Callable[[Any, np.ndarray], Any]  # (state, rhs) -> SolveReport
    baseline: Callable[[np.ndarray], Any]    # rhs -> SolveReport of plain Lanczos
    rhs: Callable[[int], np.ndarray]         # i-th right-hand side of the solve
    reference: Callable[[np.ndarray], np.ndarray]
    energy: Callable[[np.ndarray], float]    # v -> ||v||_B
    eps: float
    check_setup: Callable[[Any], None] = lambda state: None


def _rhs_stream(seed: int, dim: int) -> Callable[[int], np.ndarray]:
    return lambda i: np.random.default_rng([seed, 7, i]).standard_normal(dim)


def _cholesky_reference(b_dense: np.ndarray):
    factor = scipy.linalg.cho_factor(b_dense, lower=True)
    return lambda rhs: scipy.linalg.cho_solve(factor, rhs)


def _energy(b_dense: np.ndarray) -> Callable[[np.ndarray], float]:
    return lambda v: math.sqrt(max(float(v @ (b_dense @ v)), 0.0))


def psd_outliers(seed: int, size: str = "full", instance_seed: int = INSTANCE_SEED) -> Problem:
    p = SIZES["psd-outliers"][size]
    a, _, _ = gen_instance(InstanceSpec("k-large-psd", n=p["n"], k=p["k"], ratio=1e4,
                                        seed=instance_seed))
    cfg = PsdSolveConfig(l=p["l"], lam=0.0, eps=1e-8)
    dense = a.to_dense() + cfg.lam * np.eye(p["n"])
    return Problem(
        setup=lambda: mspsolve.nystrom.build_nystrom_psd(a, cfg.l, cfg.lam, cfg.delta,
                                                          cfg.seed),
        solve=lambda pre, b: mspsolve.psd.solve_psd(a, b, cfg, pre=pre),
        baseline=lambda b: mspsolve.bench.solve_plain_lanczos(a, b, lam=cfg.lam,
                                                              eps=cfg.eps),
        rhs=_rhs_stream(seed, p["n"]),
        reference=_cholesky_reference(dense),
        energy=_energy(dense),
        eps=cfg.eps,
    )


def normal_ridge(seed: int, size: str = "full", instance_seed: int = INSTANCE_SEED) -> Problem:
    p = SIZES["normal-ridge"][size]
    a, _, _ = gen_instance(InstanceSpec("k-large-general", n=p["n"], m=p["m"], k=p["k"],
                                        ratio=1e2, seed=instance_seed))
    cfg = GeneralSolveConfig(l=p["l"], lam=1.0, eps=1e-8)
    dense = a.to_dense()
    gram = dense.T @ dense
    gram = 0.5 * (gram + gram.T)
    # Plain Lanczos gets the Gram matrix formed by the harness: the cheapest
    # unpreconditioned route to the same normal equations.
    gram_handle = MatrixHandle(gram, sym="spd")
    system = gram + cfg.lam * np.eye(p["n"])
    b_stream = _rhs_stream(seed, p["m"])
    return Problem(
        setup=lambda: mspsolve.general.build_general(a, cfg),
        solve=lambda state, c: mspsolve.general.solve_normal(a, c, cfg, state=state),
        baseline=lambda c: mspsolve.bench.solve_plain_lanczos(gram_handle, c, lam=cfg.lam,
                                                              eps=cfg.eps),
        rhs=lambda i: dense.T @ b_stream(i),
        reference=_cholesky_reference(system),
        energy=_energy(system),
        eps=cfg.eps,
    )


def krr_smooth(seed: int, size: str = "full", instance_seed: int = INSTANCE_SEED) -> Problem:
    n = SIZES["krr-smooth"][size]["n"]
    lam, eps, bandwidth = 1e-2, 1e-6, 1.0
    handle, _, _ = gen_instance(InstanceSpec("rbf-kernel", n=n, bandwidth=bandwidth,
                                             seed=instance_seed))
    pts = handle.points
    sq = np.sum(pts**2, axis=1)
    dist = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T), 0.0)
    k_ref = np.exp(-dist / (2.0 * bandwidth**2))
    system = k_ref + lam * np.eye(n)
    spec = KernelSpec("rbf", pts, bandwidth=bandwidth)

    def check_setup(k):
        err = float(np.max(np.abs(k.to_dense() - k_ref)))
        if err > 1e-8:
            raise AssertionError(f"kernel_matrix differs from the reference by {err:.3e}")

    return Problem(
        setup=lambda: mspsolve.apps.kernel_matrix(spec),
        solve=lambda k, y: mspsolve.apps.solve_krr(k, y, lam, eps),
        baseline=lambda y: mspsolve.bench.solve_plain_lanczos(handle, y, lam=lam, eps=eps),
        rhs=_rhs_stream(seed, n),
        reference=_cholesky_reference(system),
        energy=_energy(system),
        eps=eps,
        check_setup=check_setup,
    )


WORKLOADS = {
    "psd-outliers": psd_outliers,
    "normal-ridge": normal_ridge,
    "krr-smooth": krr_smooth,
}


def audit(problem: Problem, rhs: np.ndarray, x: Optional[np.ndarray]) -> float:
    """Relative energy-norm error of x against the harness's own reference."""
    if x is None or not np.all(np.isfinite(x)):
        return math.inf
    x_ref = problem.reference(rhs)
    return problem.energy(x - x_ref) / problem.energy(x_ref)


@dataclass
class Outcome:
    seconds: float
    error: float
    status: str  # the program's claim, or "raised: <exception>"
    iterations: Optional[dict] = None

    def passed(self, eps: float) -> bool:
        return self.error <= eps


def _timed(fn, *args):
    """(result, seconds) of one call, then an untimed garbage collection.

    The program keeps caught exceptions in locals (the jitter ladders), so
    frames holding large arrays linger in reference cycles until the cyclic
    collector happens to run.  Collecting after every call makes peak_rss_mb
    the peak of one call rather than a function of the collector's timing.
    """
    t0 = time.perf_counter()
    try:
        return fn(*args), time.perf_counter() - t0
    finally:
        gc.collect()


def _attempt(problem: Problem, rhs, perturb, fn, *args) -> Outcome:
    """Time fn(*args, rhs) and audit its solution; a raise counts as failed."""
    t0 = time.perf_counter()
    try:
        rep, seconds = _timed(fn, *args, rhs)
    except (MspError, np.linalg.LinAlgError) as exc:
        return Outcome(time.perf_counter() - t0, math.inf,
                       f"raised: {type(exc).__name__}: {exc}")
    x = rep.x if perturb is None else perturb(rep.x)
    return Outcome(seconds, audit(problem, rhs, x), rep.status, dict(rep.iterations))


def run(problem: Problem, seconds: float, trace: bool,
        perturb: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> Dict[str, Any]:
    """Set up, then solve right-hand sides until the next one would overrun.

    Untraced: repeated setup calls (SETUP_REPS), then per right-hand side one
    solve and repeated baseline calls (BASELINE_REPS).  Traced: one traced
    setup, then per right-hand side a traced solve, the same solve untraced,
    and one traced baseline call; the paired solves give the tracing
    overhead.  `perturb` lets the self-tests
    corrupt solutions before the audit.
    """
    tracer = Tracer() if trace else None
    t_start = time.perf_counter()

    def call(kind, fn, *args):
        if tracer is None:
            return fn(*args)
        with tracer.installed(kind):
            return fn(*args)

    def repeats(done: List[float], reps: dict) -> bool:
        """Whether an untraced run should call once more."""
        if trace:
            return not done
        return len(done) < reps["min"] or (sum(done) < MIN_REPEAT_S
                                           and len(done) < reps["max"])

    setup_times: List[float] = []
    state = None
    while repeats(setup_times, SETUP_REPS):
        state, dt = _timed(call, "setup", problem.setup)
        setup_times.append(dt)
    problem.check_setup(state)

    solves: List[Outcome] = []
    traced: List[Outcome] = []
    baselines: List[Outcome] = []
    i = 0
    while True:
        step0 = time.perf_counter()
        rhs = problem.rhs(i)
        # Traced first: solve_normal caches its norm estimate in the state on
        # the first call, and the trace should see that call.
        if trace:
            traced.append(_attempt(problem, rhs, perturb, call, "solve", problem.solve, state))
        solves.append(_attempt(problem, rhs, perturb, problem.solve, state))
        these: List[float] = []
        while repeats(these, BASELINE_REPS):
            baselines.append(_attempt(problem, rhs, None, call, "baseline", problem.baseline))
            these.append(baselines[-1].seconds)
        i += 1
        now = time.perf_counter()
        if now + (now - step0) - t_start > seconds:
            break

    eps = problem.eps
    ok = [o for o in solves + traced if o.passed(eps)]
    attempted = len(solves) + len(traced)
    false_status = sum((o.status == "converged") != o.passed(eps) for o in solves + traced)
    result = {
        "attempted": attempted,
        "failed": attempted - len(ok),
        "baseline_failed": sum(not o.passed(eps) for o in baselines),
        # Plain Lanczos may stop at its budget short of eps; that is a true
        # report.  A baseline output is wrong only when it raised or claimed
        # convergence it did not reach.
        "baseline_wrong": sum(o.status.startswith("raised")
                              or (o.status == "converged" and not o.passed(eps))
                              for o in baselines),
        "false_status": false_status,
        "setup_times": setup_times,
        "solve_times": [o.seconds for o in solves],
        "baseline_times": [o.seconds for o in baselines],
        "solve_iterations": [o.iterations for o in solves],
        "baseline_iterations": [o.iterations for o in baselines],
        "statuses": sorted({o.status for o in solves + traced + baselines}),
        "max_error": max(o.error for o in solves + traced),
        "max_baseline_error": max(o.error for o in baselines),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    setup_s = statistics.median(setup_times)
    solved = sum(o.passed(eps) for o in solves)
    result["end_to_end"] = {
        "setup_s": setup_s,
        "solve_s": statistics.median(result["solve_times"]),
        "rhs_per_s": solved / (setup_s + sum(result["solve_times"])),
        "baseline_s": statistics.median(result["baseline_times"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_frac": result["failed"] / attempted,
        "false_status_frac": false_status / attempted,
    }
    if tracer is not None:
        layers = layer_metrics(tracer.spans)
        traced_s = statistics.median(o.seconds for o in traced)
        layers["trace.solve_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - result["end_to_end"]["solve_s"]
        result["layers"] = layers
        result["spans"] = tracer.spans
    return result
