"""Constants for sketch sizing and iteration budgets.

Every constant here is an engineering default behind an asymptotic sizing
rule.  A solver takes only l, lambda, delta and eps from its caller; these
are fixed module constants, not per-run settings.
"""

from __future__ import annotations

import math

# general-path sparse-embedding sizing:
# s = min(n, ceil(SKETCH_ROW_FACTOR * l * ln(max(l/delta, e)))).  There S
# must stay a subspace embedding: acceptance criterion 06 (the whitened
# pencil) passes 1/30 trials at 0.5 and 19/30 at 1.0.  The PSD path
# sizes its own sketch as a range finder (nystrom.psd_sketch_shape).
SKETCH_ROW_FACTOR = 1.5
# nonzeros per column: clamp(ceil(ln(max(l/delta, e))), GAMMA_MIN, GAMMA_MAX)
GAMMA_MIN = 2
GAMMA_MAX = 8
# subspace-embedding sizing: phi = min(n, ceil(OSE_C_PHI * (d + ln(1/delta)) / eps^2));
# sizes only the least-squares row sketch (sketch.make_ose)
OSE_C_PHI = 4.0
OSE_EPSILON = 0.5
# outer Lanczos budget multiplier: t_max = ceil(T_FACTOR * sqrt(k) * ln(k/eps))
T_FACTOR = 4.0
# longest gap between true-residual checks in a residual-target Lanczos run;
# a run also checks on each step where its recurrence says the target is met
CHECK_EVERY = 10
# level-1 step whose Ritz values estimate the preconditioned condition number
WARMUP_ITERS = 10
# Ritz inflation f: kappa = f*theta_max/theta_min; level 1's error estimate reads
# lambda_min as theta_min/f and lambda_max as f*theta_max
RITZ_INFLATION = 2.0
# Hutchinson probes for the normal-equations path's spectral-tail estimate of
# lambda0; the PSD build shifts by its smallest Nystrom eigenvalue instead
LAMBDA0_PROBES = 20
# core-matrix jitter: start at JITTER_INITIAL * tr(W)/s, escalate x10 up to JITTER_MAX
JITTER_INITIAL = 1e-12
JITTER_MAX = 1e-6
# relative residual target of every general-path inner (level-2 / level-3) run:
# double precision has nothing below this
EPS_FLOOR = 1e-14
# Lanczos breakdown tolerance scale
BREAKDOWN_RTOL = 1e-14


def sketch_rows(l: int, n: int, delta: float) -> int:
    """Row count of the general path's sparse embedding for rank parameter l.

    s = min(n, ceil(SKETCH_ROW_FACTOR * l * ln(max(l/delta, e)))): the
    paper's s = O(l log l).
    """
    grown = SKETCH_ROW_FACTOR * l * math.log(max(l / delta, math.e))
    return n if grown >= n else int(math.ceil(grown))


def sketch_nnz_per_column(l: int, delta: float) -> int:
    """Nonzeros per embedding column for rank parameter l (clamped small int)."""
    # ln(l) - ln(delta), since l/delta overflows for a subnormal delta.
    raw = math.ceil(max(math.log(l) - math.log(delta), 1.0))
    return max(GAMMA_MIN, min(GAMMA_MAX, raw))


def ose_rows(n: int, d: int, delta: float, epsilon: float) -> int:
    """Row count of the oblivious subspace embedding for subspace dimension d."""
    grown = OSE_C_PHI * (d - math.log(delta)) / (epsilon * epsilon)
    return min(n, int(math.ceil(grown)))
