"""Acceptance gate: every stated guarantee, checked end to end.

Each test below covers one numbered requirement and prints a single
summary line (visible in the live pytest stream). Tolerances are asserted
exactly as stated. Checks 1-4 hold the closed forms to Monte Carlo and to
the exact outage form:

* checks 1 and 2 (outage oracle, superposition scheme and half-slot
  benchmark): the distance-ranked outage is exact, since "some user's
  gain is below the threshold" does not depend on the ranking, so it gets
  only the Monte Carlo allowance. The estimate-ranked outage is one
  Gauss-Legendre integral over the user distance, converged at order 50.
* check 3 (quadrature vs exact outage): with no estimation error the
  Gauss-Legendre form at order 50 already agrees with the incomplete-gamma
  form to roundoff, well inside 1e-3 and 1e-4.
* check 4 (secrecy surrogate oracle): the two-user distance-ranked form
  integrates the closed-form fading expectation of the simulated
  surrogate over the ordered distances, so only quadrature error and
  Monte Carlo noise remain. The estimate-ranked forms (one
  order-statistic integral) and the distance-ranked benchmark share that
  property: at their default orders they agree with the simulated
  surrogate to within Monte Carlo noise, well inside the 5% and 10%
  allowances.

Everything here is reproducible bit for bit: fixed seed, fixed stream
ids, fixed batch size, deterministic reduction order.
"""

import math
import time
from pathlib import Path

import mpmath
import numpy as np
from scipy.integrate import quad

from noma_perf import analytic
from noma_perf import montecarlo as mc
from noma_perf.channel import SystemConfig, sample_batch
from noma_perf.cli import main, verify
from noma_perf.config import DEFAULT_SEED, parse_config
from noma_perf.noma_core import multicast_rate, power_split
from noma_perf.specfun import chebyshev_rule, expint_ei, lower_incomplete_gamma

SEED = DEFAULT_SEED
WORKERS = 4
OUTAGE_TRIALS = 100_000
SECRECY_TRIALS = 200_000

# R_M x SNR grid shared by the outage oracle checks
OUTAGE_GRID = [(rm, rho) for rm in (0.5, 1.2) for rho in (0, 10, 20, 30, 40)]


def cfg(K=8, rho_db=30.0, R_M=0.5, sigma2=0.01, csi="imperfect", **kw):
    return SystemConfig(K=K, D=5.0, eta=2.0, rho=10.0 ** (rho_db / 10.0),
                        R_M=R_M, sigma2_zeta=sigma2, csi_mode=csi, **kw)


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def outage_oracle_violations(scheme, stream_base):
    """Shared body of checks 1 and 2; returns (violations, n_checks, seconds)."""
    violations = []
    est_eval = analytic.outage_noma_imperfect if scheme == "noma" else analytic.outage_oma_imperfect
    sos_eval = analytic.outage_noma_sos if scheme == "noma" else analytic.outage_oma_sos
    t0 = time.perf_counter()
    for i, (rm, rho) in enumerate(OUTAGE_GRID):
        est_cfg = cfg(R_M=rm, rho_db=rho)
        sos_cfg = cfg(R_M=rm, rho_db=rho, csi="sos")
        m_est = mc.simulate(est_cfg, scheme, mc.METRIC_OUTAGE, OUTAGE_TRIALS,
                            SEED, workers=WORKERS, stream=stream_base + 2 * i)
        m_sos = mc.simulate(sos_cfg, scheme, mc.METRIC_OUTAGE, OUTAGE_TRIALS,
                            SEED, workers=WORKERS, stream=stream_base + 1 + 2 * i)
        err = abs(est_eval(est_cfg) - m_est.value)
        bound = max(3.0 * m_est.half_width_95, 1e-3)
        if err > bound:
            violations.append(f"estimate-ranked R_M={rm} {rho}dB: "
                              f"err {err:.3e} > bound {bound:.3e}")
        err = abs(sos_eval(sos_cfg) - m_sos.value)
        bound = 3.0 * m_sos.half_width_95
        if err > bound:
            violations.append(f"distance-ranked R_M={rm} {rho}dB: "
                              f"err {err:.3e} > bound {bound:.3e}")
    return violations, 2 * len(OUTAGE_GRID), time.perf_counter() - t0


def test_01_outage_oracle_superposition(capsys):
    """Closed-form multicast outage vs simulation, 1e5 trials per point.

    Estimate-ranked form: |analytic - mc| <= max(3 half-widths, 1e-3).
    Distance-ranked form: <= 3 half-widths (claimed exact, so MC-only slack).
    """
    violations, n, secs = outage_oracle_violations("noma", 100)
    report(capsys, "acceptance-1 outage-oracle", not violations,
           f"{n - len(violations)}/{n} points in bounds, {secs:.1f}s")
    assert not violations, "; ".join(violations)


def test_02_outage_oracle_half_slot(capsys):
    """Same grid and bounds for the half-slot benchmark thresholds."""
    violations, n, secs = outage_oracle_violations("oma", 200)
    report(capsys, "acceptance-2 outage-oracle-benchmark", not violations,
           f"{n - len(violations)}/{n} points in bounds, {secs:.1f}s")
    assert not violations, "; ".join(violations)


def test_03_quadrature_vs_exact_outage(capsys):
    """With no estimation error the quadrature form must approach the exact
    incomplete-gamma form: within 1e-3 at order 50, within 1e-4 at order 500."""
    violations = []
    for K in (1, 4, 8):
        for rho in (10, 30):
            exact = analytic.outage_noma_perfect(
                cfg(K=K, rho_db=rho, sigma2=0.0, csi="perfect"))
            for order, tol in ((50, 1e-3), (500, 1e-4)):
                approx = analytic.outage_noma_imperfect(
                    cfg(K=K, rho_db=rho, sigma2=0.0,
                        quad_orders=(order, 5, 10, 100, 10)))
                diff = abs(approx - exact)
                if not diff < tol:
                    violations.append(f"K={K} {rho}dB c={order}: "
                                      f"diff {diff:.3e} >= {tol:g}")
    report(capsys, "acceptance-3 quadrature-vs-exact", not violations,
           f"{12 - len(violations)}/12 comparisons in tolerance")
    assert not violations, "; ".join(violations)


def test_04_secrecy_surrogate_oracle(capsys):
    """Average secrecy throughput closed forms vs the simulated surrogate:
    within 5% relative at 20-40 dB, within 10% at 10 dB. 2e5 trials."""
    cases = [
        ("estimate-ranked", cfg(K=8), "noma", analytic.secrecy_noma_imperfect),
        ("estimate-ranked-benchmark", cfg(K=8), "oma", analytic.secrecy_oma_imperfect),
        ("distance-ranked", cfg(K=2, csi="sos"), "noma", analytic.secrecy_noma_sos_k2),
        ("distance-ranked-benchmark", cfg(K=2, csi="sos"), "oma", analytic.secrecy_oma_sos_k2),
    ]
    violations = []
    t0 = time.perf_counter()
    for i, rho in enumerate((10, 20, 30, 40)):
        bound = 0.10 if rho == 10 else 0.05
        for j, (name, base, scheme, evaluator) in enumerate(cases):
            point = cfg(K=base.K, rho_db=rho, csi=base.csi_mode)
            est = mc.simulate(point, scheme, mc.METRIC_SECRECY_SURROGATE,
                              SECRECY_TRIALS, SEED, workers=WORKERS,
                              stream=400 + 4 * i + j)
            rel = abs(evaluator(point) - est.value) / abs(est.value)
            if rel > bound:
                violations.append(f"{name} {rho}dB: rel {rel:.3f} > {bound:g}")
    report(capsys, "acceptance-4 secrecy-oracle", not violations,
           f"{16 - len(violations)}/16 points in bounds, "
           f"{time.perf_counter() - t0:.1f}s")
    assert not violations, "; ".join(violations)


def test_05_scheme_orderings(capsys):
    """Qualitative behaviour on the default sweep grids."""
    failures = []

    # superposition never loses on multicast outage (strictly smaller
    # threshold for the same channel statistics)
    points = [cfg(rho_db=r) for r in (0, 5, 10, 15, 20, 25, 30, 35, 40)]
    points += [cfg(sigma2=s) for s in (0.0, 0.005, 0.01, 0.02)]
    points += [cfg(K=k) for k in (2, 4, 6, 8)]
    for p in points:
        if not analytic.outage_noma_imperfect(p) < analytic.outage_oma_imperfect(p):
            failures.append(f"outage ordering at rho={p.rho:g} K={p.K} "
                            f"sigma2={p.sigma2_zeta:g}")
    for r in (0, 5, 10, 15, 20, 25, 30, 35, 40):
        p = cfg(rho_db=r, csi="sos")
        if not analytic.outage_noma_sos(p) < analytic.outage_oma_sos(p):
            failures.append(f"distance-ranked outage ordering at rho={p.rho:g}")

    # secrecy: superposition wins at high SNR, loses at 0 dB
    for K, csi_mode, noma_eval, oma_eval in [
        (8, "imperfect", analytic.secrecy_noma_imperfect, analytic.secrecy_oma_imperfect),
        (2, "sos", analytic.secrecy_noma_sos_k2, analytic.secrecy_oma_sos_k2),
    ]:
        hi = cfg(K=K, rho_db=40, csi=csi_mode)
        lo = cfg(K=K, rho_db=0, csi=csi_mode)
        if not noma_eval(hi) > oma_eval(hi):
            failures.append(f"{csi_mode} secrecy at 40dB not in favour")
        if not noma_eval(lo) < oma_eval(lo):
            failures.append(f"{csi_mode} secrecy at 0dB not against")

    # half-slot secrecy does not depend on the multicast rate target
    base = analytic.secrecy_oma_imperfect(cfg(R_M=0.3))
    sos_base = analytic.secrecy_oma_sos_k2(cfg(K=2, R_M=0.3, csi="sos"))
    for rm in (0.6, 0.9, 1.2):
        if analytic.secrecy_oma_imperfect(cfg(R_M=rm)) != base:
            failures.append(f"half-slot secrecy moved with R_M={rm}")
        if analytic.secrecy_oma_sos_k2(cfg(K=2, R_M=rm, csi="sos")) != sos_base:
            failures.append(f"half-slot distance-ranked secrecy moved with R_M={rm}")

    # knowing the gain estimates beats knowing only the distances
    imp = analytic.secrecy_noma_imperfect(cfg(K=2, rho_db=40))
    sos = analytic.secrecy_noma_sos_k2(cfg(K=2, rho_db=40, csi="sos"))
    if not imp > sos:
        failures.append(f"estimate-ranked {imp:.4f} not above distance-ranked {sos:.4f}")

    report(capsys, "acceptance-5 scheme-orderings", not failures,
           "outage ordering, secrecy crossover, R_M invariance, CSI value")
    assert not failures, "; ".join(failures)


def test_06_power_split_identity(capsys):
    """Across 1e4 non-outage realizations the weakest decision gain must
    recover the multicast target within 1e-9 and the split must sum to 1
    exactly in floating point."""
    point = cfg()
    rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(600,)))
    collected = 0
    worst = 0.0
    sums_exact = True
    while collected < 10_000:
        _, _, _, est_gains = sample_batch(point, rng, 4_000)
        for row in est_gains:
            weakest = float(np.min(row))
            split = power_split(weakest, point.rho, point.R_M)
            if split.outage:
                continue
            collected += 1
            worst = max(worst, abs(multicast_rate(weakest, split, point.rho) - point.R_M))
            sums_exact &= (split.theta_M + split.theta_U) == 1.0
            if collected == 10_000:
                break
    ok = worst < 1e-9 and sums_exact
    report(capsys, "acceptance-6 power-split-identity", ok,
           f"{collected} draws, max rate error {worst:.2e}, exact sums: {sums_exact}")
    assert worst < 1e-9
    assert sums_exact


def ei_series_oracle(x):
    """Ei(x) for x < 0 from the defining series, in 60-digit arithmetic."""
    with mpmath.workdps(60):
        z = mpmath.mpf(x)
        total = mpmath.euler + mpmath.log(-z)
        term = mpmath.mpf(1)
        for k in range(1, 500):
            term *= z / k
            contrib = term / k
            total += contrib
            if abs(contrib) < mpmath.mpf(10) ** -55 * max(1, abs(total)):
                break
        return float(total)


def test_07_special_functions(capsys):
    """Numerics underpinning every closed form, against independent oracles."""
    failures = []

    # lower incomplete gamma vs adaptive quadrature, 50-point grid
    worst_gamma = 0.0
    for a in (0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0):
        for b in (0.01, 0.5, 2.0, 8.0, 40.0):
            ref, err = quad(lambda t: t ** (a - 1.0) * math.exp(-t), 0.0, b,
                            epsabs=1e-13, epsrel=1e-13, limit=200)
            assert err < 1e-11
            worst_gamma = max(worst_gamma, abs(float(lower_incomplete_gamma(a, b)) - ref))
    if not worst_gamma < 1e-10:
        failures.append(f"incomplete gamma worst {worst_gamma:.2e} >= 1e-10")

    # exponential integral vs the series oracle on [-50, -1e-6]
    xs = -np.logspace(np.log10(1e-6), np.log10(50.0), 45)
    worst_ei = max(abs(float(expint_ei(x)) - ei_series_oracle(x)) for x in xs)
    if not worst_ei < 1e-12:
        failures.append(f"Ei worst {worst_ei:.2e} >= 1e-12")

    # quadrature sanity: integral of x over [0, 5] at order 50
    rel = abs(chebyshev_rule(50, 5.0).integrate(lambda x: x) - 12.5) / 12.5
    if not rel < 1e-3:
        failures.append(f"quadrature rel err {rel:.2e} >= 1e-3")

    report(capsys, "acceptance-7 special-functions", not failures,
           f"gamma worst {worst_gamma:.1e}, Ei worst {worst_ei:.1e}, "
           f"quadrature rel {rel:.1e}")
    assert not failures, "; ".join(failures)


def test_08_determinism(capsys, tmp_path):
    """Sweep CSVs and verify reports are bit-identical across repeat runs
    and across worker counts at a fixed seed."""
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text("csi = sos\nk_values = 2,3\ntrials = 5000\n")
    outs = [str(tmp_path / f"det{i}.csv") for i in range(3)]
    for out, extra in zip(outs, ([], [], ["--workers", "3"])):
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "k",
                   "--out", out] + extra)
        assert rc == 0
    blobs = [Path(p).read_bytes() for p in outs]
    sweep_ok = blobs[0] == blobs[1] == blobs[2] and len(blobs[0]) > 100

    reports = []
    for workers in (1, 1, 2):
        s = parse_config(str(cfg_path))
        s.trials, s.workers = 5000, workers
        reports.append(verify(s)[1])
    verify_ok = reports[0] == reports[1] == reports[2]

    report(capsys, "acceptance-8 determinism", sweep_ok and verify_ok,
           f"sweep bytes identical: {sweep_ok}, verify reports identical: {verify_ok}")
    assert sweep_ok
    assert verify_ok
