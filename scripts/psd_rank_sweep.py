"""Sweep the PSD preconditioner's rank l on k-large-psd and time the single shot.

    PYTHONPATH=src python scripts/psd_rank_sweep.py

The rank cases take k-large-psd (n = 3072, k = 32, ratio 1e4) at instance
seeds 1-3, lambda = 0, eps = 1e-8, and l in {16, 24, 32, 64, 128}.  Each line
gives the sketch shape (s, gamma) of the build, its shift lambda0, the best of
three build times, the level-1 steps of each of three right-hand sides, and
the largest audited error ||x - x*||_A / ||x*||_A over eps, x* from a SciPy
Cholesky solve.  The single
shot cases take (n, k) = (3072, 32) and (6144, 64), l = 2k, instance seed 1: one
solve_psd call that builds its own preconditioner against one
solve_plain_lanczos call on the same right-hand side, best of three each.  To
time another checkout on the same cases, point PYTHONPATH at its src/ instead.
Pin the BLAS thread count (OMP_NUM_THREADS) for repeatable times.
"""

import math
import time

import numpy as np
import scipy.linalg

from mspsolve import InstanceSpec, PsdSolveConfig, gen_instance, solve_psd
from mspsolve.bench import solve_plain_lanczos
from mspsolve.nystrom import build_nystrom_psd

N, K, RATIO, LAM, EPS = 3072, 32, 1e4, 0.0, 1e-8
RANKS = [16, 24, 32, 64, 128]
INSTANCE_SEEDS = [1, 2, 3]
RHS = 3
SINGLE_SHOT = [(3072, 32), (6144, 64)]


def best_of(calls, f):
    best, out = math.inf, None
    for _ in range(calls):
        t = time.perf_counter()
        out = f()
        best = min(best, time.perf_counter() - t)
    return best, out


def rank_sweep():
    for inst in INSTANCE_SEEDS:
        a, _, _ = gen_instance(InstanceSpec("k-large-psd", n=N, k=K, ratio=RATIO, seed=inst))
        dense = a.to_dense()
        factor = scipy.linalg.cho_factor(dense, lower=True)
        rhs = [np.random.default_rng([inst, 7, i]).standard_normal(N) for i in range(RHS)]
        for l in RANKS:
            cfg = PsdSolveConfig(l=l, lam=LAM, eps=EPS)
            t_build, pre = best_of(3, lambda: build_nystrom_psd(a, l, LAM, cfg.delta, cfg.seed))
            steps, worst = [], 0.0
            for b in rhs:
                rep = solve_psd(a, b, cfg, pre=pre)
                x_star = scipy.linalg.cho_solve(factor, b)
                d = rep.x - x_star
                err = math.sqrt(d @ (dense @ d)) / math.sqrt(x_star @ (dense @ x_star))
                steps.append(rep.iterations["level1"])
                worst = max(worst, err / EPS)
            print(f"instance {inst} l={l:3d}: s={pre.s} gamma={pre.gamma} "
                  f"lambda0={pre.lambda0:.3g} build={t_build:.3f} s level1={steps} "
                  f"max err/eps={worst:.2f}", flush=True)


def single_shot():
    for n, k in SINGLE_SHOT:
        a, _, _ = gen_instance(InstanceSpec("k-large-psd", n=n, k=k, ratio=RATIO, seed=1))
        b = np.random.default_rng([1, 7, 0]).standard_normal(n)
        cfg = PsdSolveConfig(l=2 * k, lam=LAM, eps=EPS)
        t_msp, rep = best_of(3, lambda: solve_psd(a, b, cfg))
        t_plain, base = best_of(3, lambda: solve_plain_lanczos(a, b, lam=LAM, eps=EPS))
        print(f"single shot n={n} k={k} l={2 * k}: msp {t_msp:.3f} s ({rep.status}, "
              f"level1={rep.iterations['level1']}) plain-lanczos {t_plain:.3f} s "
              f"({base.status}, {base.iterations['level1']} steps)", flush=True)


if __name__ == "__main__":
    rank_sweep()
    single_shot()
