"""Time solve_least_squares on tall test matrices and check it against lstsq.

    PYTHONPATH=src python scripts/least_squares_sweep.py

A has prescribed singular values sigma * sqrt(m) and Haar singular vectors,
b is a standard normal vector.  The shape cases take sigma = geomspace(1, 1e-2)
on 4000x256, 8000x512 and 20000x256 at eps 1e-8; the kappa cases take 3000x64
with kappa(A) from 1e4 to 1e10.  Each line gives the wall time of one call, its
status and stop reason, its step count, the objective gap
(||Ax - b||^2 - min ||Ax - b||^2) / ||b||^2 against np.linalg.lstsq, and
lstsq's own time.  To time another checkout on the same cases, point
PYTHONPATH at its src/ instead.  Pin the BLAS thread count (OMP_NUM_THREADS)
for repeatable times.
"""

import math
import time

import numpy as np

from mspsolve.apps import solve_least_squares

SHAPES = [(4000, 256, 1e2, 1e-8), (8000, 512, 1e2, 1e-8), (20000, 256, 1e2, 1e-8)]
KAPPA = [(3000, 64, 1e4, 1e-8), (3000, 64, 1e6, 1e-8), (3000, 64, 1e8, 1e-6),
         (3000, 64, 1e8, 1e-10), (3000, 64, 1e10, 1e-8)]


def instance(m, n, kappa, seed=0):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (u * (np.geomspace(1.0, 1.0 / kappa, n) * math.sqrt(m))) @ v.T
    return a, rng.standard_normal(m)


def main():
    for m, n, kappa, eps in SHAPES + KAPPA:
        a, b = instance(m, n, kappa)
        t = time.perf_counter()
        x_star = np.linalg.lstsq(a, b, rcond=None)[0]
        t_lstsq = time.perf_counter() - t
        t = time.perf_counter()
        rep = solve_least_squares(a, b, eps=eps, seed=0)
        t_ls = time.perf_counter() - t
        gap = (np.linalg.norm(a @ rep.x - b) ** 2
               - np.linalg.norm(a @ x_star - b) ** 2) / np.linalg.norm(b) ** 2
        print(f"{m}x{n} kappa={kappa:.0e} eps={eps:.0e}: {t_ls:.3f} s "
              f"{rep.status}/{rep.stop_reason} outer={rep.iterations['outer']} "
              f"gap={gap:.1e} lstsq={t_lstsq:.3f} s", flush=True)


if __name__ == "__main__":
    main()
