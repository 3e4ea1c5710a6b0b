"""Three-level solver for (A^T A + lam*I) x = c with general rectangular A.

The Nystrom preconditioner for the Gram matrix A^T A is defined by the
blocks C = A^T A_tilde (n x s) and W = A_tilde^T A_tilde, with
A_tilde = A S^T (m x s).  The build forms both once, so levels 2 and 3 make
no product with A.  The level hierarchy:

  level 1  Lanczos on A^T A + lam*I, preconditioned by M via the inversion
           formula (SolveM1);
  level 2  Lanczos on C^T C + lt*W_j with C stored, preconditioned by
           M2 = W_j^2 + lt*W_j applied through SolveM2;
  level 3  SolveM2 = two Lanczos solves, W_j u = r and (W_j + lt*I) v = r,
           each preconditioned by a prefactored sketch Gram (A_hat^T A_hat
           with the matching shifts), combined as z = (u - v)/lt.

The jitter chosen for W is used consistently in all of the above, so every
inversion identity holds exactly for the operators actually applied.
Setting lam = 0 solves a general square system A x = b through the normal
equations c = A^T b; lambda0 > 0 keeps everything invertible even then.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .config import DEFAULT, Tunables, sketch_nnz_per_column, sketch_rows
from .core import MatrixHandle, as_vector, power_method_norm
from .errors import DomainError, InconsistentEstimate
from .lanczos import preconditioned_lanczos
from .nystrom import (_SEED_EST, _SEED_OSE, _SEED_PROBE, apply_minv_via_formula, cho_apply,
                      jittered_cholesky)
from .psd import PsdSolveConfig, clamp_rank, energy_certificate, solve_psd, two_phase_lanczos
from .report import SolveReport
from .sketch import make_ose, make_sparse_embedding, sketch_apply_right


class GeneralSolveConfig(PsdSolveConfig):
    """Knobs for one normal-equations solve (see PsdSolveConfig)."""


@dataclass(eq=False)
class GeneralMspState:
    """Prebuilt sketches and factors for one (A, lam) pair.

    C = A^T A_tilde is named as in NystromPreconditioner, so the inversion
    formula applies to either.
    """

    a: MatrixHandle
    a_tilde: MatrixHandle
    C: MatrixHandle
    a_hat: MatrixHandle
    m3a_factor: tuple
    m3b_factor: tuple
    w_chol: tuple
    lambda_tilde: float
    lambda0: float
    lam: float
    jitter: float
    embedding: object
    l: int
    gamma: int
    seed: int
    phi_rows: int
    w_j: np.ndarray = field(repr=False, default=None)
    pm_gram: Optional[float] = None  # cached ||A^T A|| estimate

    @property
    def m(self) -> int:
        return self.a.rows

    @property
    def n(self) -> int:
        return self.a.cols

    @property
    def s(self) -> int:
        return self.a_tilde.cols

    def diagnostics(self) -> dict:
        return {
            "s": self.s,
            "gamma": self.gamma,
            "l": self.l,
            "phi_rows": self.phi_rows,
            "lambda0": self.lambda0,
            "lambda_tilde": self.lambda_tilde,
            "jitter": self.jitter,
        }


def _frobenius_sq(a: MatrixHandle) -> float:
    raw = a.raw()
    if sp.issparse(raw):
        return float(np.sum(raw.data**2))
    return float(np.sum(raw**2))


def build_general(a, cfg: GeneralSolveConfig, *, tun: Tunables = DEFAULT) -> GeneralMspState:
    """Sketch A, form C and W, estimate lambda0, prefactor level 3.

    A_tilde = A S^T, C = A^T A_tilde and W = A_tilde^T A_tilde are block
    products made once here.  C costs 2*m*n*s flops; with it stored, a
    level-2 step costs 2*n*s + s^2 flops and no product with A.

    lambda0 targets (2/l) * sum_{i>l} sigma_i^2(A) = (2/l) * tr(A^T A - Nys_l),
    probed through a dedicated l-row sketch A_l = A S_l^T.  Each Rademacher
    probe contributes the coupled difference ||A z||^2 - ||L^{-1} A_l^T (A z)||^2
    (L the Cholesky factor of the jittered A_l^T A_l): both quadratic forms
    share the same z, so the per-probe variance scales with the tail energy
    itself rather than with ||A^T A||_F^2, which would drown the tail whenever
    the spectrum has large outliers.  The exact ||A||_F^2 anchors the floor
    and the sanity check.
    """
    if not isinstance(a, MatrixHandle):
        a = MatrixHandle(np.asarray(a, dtype=np.float64))
    m, n = a.rows, a.cols
    l_eff, _ = clamp_rank(cfg.l, n)

    s = sketch_rows(l_eff, n, cfg.delta, tun)
    gamma = min(sketch_nnz_per_column(l_eff, cfg.delta, tun), s)
    emb = make_sparse_embedding(s, n, gamma, cfg.seed)
    a_tilde = sketch_apply_right(a, emb)  # m x s dense
    at = a_tilde.to_dense()
    c_block = a.raw().T @ at
    w = at.T @ at
    w = 0.5 * (w + w.T)
    frob_sq = _frobenius_sq(a)
    if frob_sq == 0.0:
        raise DomainError("matrix is identically zero")

    phi = make_ose(m, s, cfg.delta, tun.ose_epsilon, cfg.seed + _SEED_OSE, tun=tun)
    a_hat = phi.apply(at)
    gram_hat = a_hat.T @ a_hat
    gram_hat = 0.5 * (gram_hat + gram_hat.T)

    # Tail-energy probe from a separate l-row sketch.  The main embedding has
    # s = O(l log l) rows and can reach s >= n on small problems, where its
    # Nystrom approximation is exact and the rank-s tail is ~0 even though
    # the rank-l tail (the quantity lambda0 must cover) is not.
    emb_l = make_sparse_embedding(l_eff, n, min(gamma, l_eff), cfg.seed + _SEED_EST)
    at_l = sketch_apply_right(a, emb_l).to_dense()
    w_l = at_l.T @ at_l
    w_l = 0.5 * (w_l + w_l.T)
    l_chol = jittered_cholesky(w_l, tun, "probe Gram")[0]
    probe_rng = np.random.default_rng([cfg.seed & ((1 << 63) - 1), _SEED_PROBE])
    tail_terms = np.empty(tun.lambda0_probes)
    for p in range(tun.lambda0_probes):
        z = 2.0 * probe_rng.integers(0, 2, size=n) - 1.0
        az = a.matvec(z)
        atz = at_l.T @ az
        lz = scipy.linalg.solve_triangular(
            l_chol[0], atz, lower=True, check_finite=False
        )
        tail_terms[p] = float(az @ az) - float(lz @ lz)
    est = float(np.mean(tail_terms))
    if est < -0.1 * frob_sq:
        raise InconsistentEstimate(
            f"tail-energy estimate {est:.6e} negative beyond tolerance "
            f"(||A||_F^2 = {frob_sq:.6e})"
        )
    lambda0 = (2.0 / l_eff) * max(est, 1e-12 * frob_sq)
    lambda_tilde = cfg.lam + lambda0

    def factor_m3(w_j, jitter):
        m3a = gram_hat.copy()
        m3a[np.diag_indices_from(m3a)] += jitter
        m3a_factor = scipy.linalg.cho_factor(m3a, lower=True, check_finite=False)
        m3b = m3a.copy()
        m3b[np.diag_indices_from(m3b)] += lambda_tilde
        m3b_factor = scipy.linalg.cho_factor(m3b, lower=True, check_finite=False)
        return m3a_factor, m3b_factor

    w_chol, w_j, jitter, (m3a_factor, m3b_factor) = jittered_cholesky(
        w, tun, "sketched Gram", then=factor_m3
    )
    return GeneralMspState(
        a=a,
        a_tilde=a_tilde,
        C=MatrixHandle(c_block),
        a_hat=MatrixHandle(np.asarray(a_hat)),
        m3a_factor=m3a_factor,
        m3b_factor=m3b_factor,
        w_chol=w_chol,
        lambda_tilde=lambda_tilde,
        lambda0=lambda0,
        lam=cfg.lam,
        jitter=jitter,
        embedding=emb,
        l=l_eff,
        gamma=gamma,
        seed=cfg.seed,
        phi_rows=phi.phi,
        w_j=w_j,
    )


def solve_m2(
    state: GeneralMspState,
    r: np.ndarray,
    budgets: dict,
    counters: Optional[dict] = None,
    tun: Tunables = DEFAULT,
) -> np.ndarray:
    """Apply M2^{-1} = (W_j^2 + lt*W_j)^{-1} = (W_j^{-1} - (W_j+lt*I)^{-1})/lt.

    Each of the two resolvents is a level-3 Lanczos solve preconditioned by
    the corresponding prefactored sketch Gram factor.
    """
    r = as_vector(r, state.s)
    if float(np.linalg.norm(r)) == 0.0:
        return np.zeros(state.s)
    lt = state.lambda_tilde
    w_j = state.w_j
    t3 = budgets["t3"]
    eps2 = budgets["eps2"]

    def w_op(y):
        return w_j @ y

    def w_shift_op(y):
        return w_j @ y + lt * y

    u, ws_a = preconditioned_lanczos(
        w_op, r, cho_apply(state.m3a_factor), t_max=t3, residual_target=eps2,
        check_every=tun.check_every, tun=tun,
    )
    v, ws_b = preconditioned_lanczos(
        w_shift_op, r, cho_apply(state.m3b_factor), t_max=t3, residual_target=eps2,
        check_every=tun.check_every, tun=tun,
    )
    if counters is not None:
        counters["level3a_total"] = counters.get("level3a_total", 0) + ws_a.iterations
        counters["level3b_total"] = counters.get("level3b_total", 0) + ws_b.iterations
    return (u - v) / lt


def solve_m1_general(
    state: GeneralMspState,
    r: np.ndarray,
    budgets: dict,
    counters: Optional[dict] = None,
    tun: Tunables = DEFAULT,
) -> np.ndarray:
    """Approximate M^{-1} r through the inversion formula on the stored C.

    Level-2 system: (C^T C + lt*W_j) y = C^T r, Lanczos on the operator
    y -> C^T(C y) + lt*(W_j y) preconditioned by SolveM2; then
    w = (r - C y) / lt.  No product with A is made.
    """
    c = state.C.to_dense()
    lt = state.lambda_tilde
    w_j = state.w_j

    def g_op(y):
        return c.T @ (c @ y) + lt * (w_j @ y)

    def m2_solve(rr):
        return solve_m2(state, rr, budgets, counters, tun)

    def inner(rhs, tol):
        if float(np.linalg.norm(rhs)) == 0.0:
            return np.zeros(state.s)
        y, ws = preconditioned_lanczos(
            g_op, rhs, m2_solve,
            t_max=budgets["t2"], residual_target=tol,
            check_every=tun.check_every, tun=tun,
        )
        if counters is not None:
            counters["level2_total"] = counters.get("level2_total", 0) + ws.iterations
            counters["level2_runs"] = counters.get("level2_runs", 0) + 1
            if ws.status == "budget-exhausted":
                counters["level2_exhausted"] = counters.get("level2_exhausted", 0) + 1
        return y

    return apply_minv_via_formula(state, r, inner, budgets["eps1"])


def solve_normal(
    a,
    c: np.ndarray,
    cfg: GeneralSolveConfig,
    *,
    state: Optional[GeneralMspState] = None,
    tun: Tunables = DEFAULT,
    trace: Optional[Callable[[dict], None]] = None,
) -> SolveReport:
    """Solve (A^T A + lam*I) x = c to relative energy-norm error eps.

    Pass a prebuilt `state` to amortize the sketch factorizations over many
    right-hand sides (the least-squares driver does).  For a square general
    system A x = b, call with c = A^T b and lam = 0.

    The report's `matvecs` counts vector products with A or A^T: two per
    level-1 step, two per power-method step and one per lambda0 probe.  It
    does not count the block products A_tilde = A S^T and C = A^T A_tilde
    made at build time.
    """
    t_start = time.perf_counter()
    if not isinstance(a, MatrixHandle):
        a = MatrixHandle(np.asarray(a, dtype=np.float64))
    c = as_vector(c, a.cols)
    n = a.cols

    if float(np.linalg.norm(c)) == 0.0:
        return SolveReport(
            x=np.zeros(n), status="converged", method="msp-general",
            iterations={"level1": 0, "warmup": 0, "level2_total": 0,
                        "level3a_total": 0, "level3b_total": 0},
            matvecs=0, residual_history=[], kappa_m_estimate=None,
            wall_ms=(time.perf_counter() - t_start) * 1e3,
            config_echo=vars(cfg).copy(), stop_reason="zero-rhs",
        )

    if state is None:
        state = build_general(a, cfg, tun=tun)
    lt = state.lambda_tilde
    lam = cfg.lam
    counters: dict = {
        "level2_total": 0, "level2_runs": 0,
        "level3a_total": 0, "level3b_total": 0,
        "level2_exhausted": 0,
    }

    def b_op(x):
        gx = a.rmatvec(a.matvec(x))
        return gx + lam * x if lam != 0.0 else gx

    if state.pm_gram is None:
        def gram_op(x):
            return a.rmatvec(a.matvec(x))

        state.pm_gram = power_method_norm(gram_op, n, iters=tun.power_iters,
                                          seed=cfg.seed + 3)
    pm = state.pm_gram
    kappa_gram = (pm + lt) / lt

    def solve_m_for(kappa):
        eps0 = max(tun.eps_floor, cfg.eps / (kappa * n))
        eps1 = max(tun.eps_floor, eps0 / kappa_gram**1.5)
        eps2 = max(tun.eps_floor, eps0 / (4.0 * kappa_gram * cfg.l))
        budgets = {
            "t2": int(math.ceil(tun.inner_budget_factor
                                * math.log(max(kappa_gram / eps1, math.e)))),
            "t3": int(math.ceil(tun.inner_budget_factor
                                * math.log(max(9.0 * cfg.l / eps2, math.e)))),
            "eps1": eps1, "eps2": eps2, "eps0": eps0,
        }

        def solve_m(r):
            return solve_m1_general(state, r, budgets, counters, tun)

        return solve_m, budgets

    x, warm, main, kappa_m, budget_diag = two_phase_lanczos(
        b_op, c, solve_m_for, kappa_gram,
        cfg.eps / math.sqrt(max(kappa_gram**2, 4.0)),
        energy_certificate(cfg.eps, lt, 1.5 * pm + lam, tun),
        cfg.eps, t_max_override=cfg.t_max_override, trace=trace, tun=tun,
    )
    last = main or warm
    diagnostics = {
        "l_effective": state.l,
        "l_clamped": state.l != cfg.l,
        "kappa_gram_estimate": kappa_gram,
        "warmup_status": warm.status,
        "warmup_history": [[i, r] for i, r in warm.checkpoints],
        "preconditioner": state.diagnostics(),
        **budget_diag,
    }
    if counters["level2_exhausted"]:
        diagnostics["inner_budget_exhausted"] = counters["level2_exhausted"]

    return SolveReport(
        x=x,
        status=last.status,
        method="msp-general",
        iterations={
            "level1": last.iterations,
            "warmup": warm.iterations,
            "level2_total": counters["level2_total"],
            "level3a_total": counters["level3a_total"],
            "level3b_total": counters["level3b_total"],
        },
        matvecs=2 * (warm.n_matvec + (main.n_matvec if main else 0) + tun.power_iters)
        + tun.lambda0_probes,
        residual_history=[[i, r] for i, r in last.checkpoints],
        kappa_m_estimate=kappa_m,
        wall_ms=(time.perf_counter() - t_start) * 1e3,
        config_echo=vars(cfg).copy(),
        stop_reason=last.stop_reason,
        diagnostics=diagnostics,
        workspace=last,
        preconditioner=state,
    )


def solve_normal_given_gram(
    g,
    c: np.ndarray,
    cfg: GeneralSolveConfig,
    *,
    tun: Tunables = DEFAULT,
) -> SolveReport:
    """Variant for callers holding A^T A itself: routes to the PSD solver.

    The Gram matrix is symmetric PSD, so the two-level path applies verbatim
    and achieves the same guarantee without access to A.
    """
    report = solve_psd(g, c, cfg, tun=tun)
    report.method = "msp-general-gram"
    return report
