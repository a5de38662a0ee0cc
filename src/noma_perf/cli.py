"""Command line front end: parameter sweeps to CSV and a self-check mode.

Exit codes: 0 success, 1 verification failure, 2 invalid input or
configuration.
"""

import argparse
import csv
import sys
from dataclasses import replace

import numpy as np

from . import analytic, montecarlo
from .channel import CSI_SOS, SystemConfig, sample_batch
from .config import ConfigError, Settings, parse_config, system_config
from .specfun import gauss_legendre_rule

CSV_COLUMNS = (
    "axis_name", "axis_value", "scheme", "csi_mode", "metric",
    "analytic_value", "mc_value", "mc_halfwidth", "trials", "seed",
)

_OUTAGE_EVALUATORS = {
    ("noma", "imperfect"): analytic.outage_noma_imperfect,
    ("noma", "perfect"): analytic.outage_noma_perfect,
    ("noma", "sos"): analytic.outage_noma_sos,
    ("oma", "imperfect"): analytic.outage_oma_imperfect,
    ("oma", "perfect"): analytic.outage_oma_perfect,
    ("oma", "sos"): analytic.outage_oma_sos,
}


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _secrecy_analytic(cfg: SystemConfig, scheme: str) -> float:
    if cfg.csi_mode == CSI_SOS:
        if scheme == "noma":
            return analytic.secrecy_noma_sos(cfg)
        return analytic.secrecy_oma_sos(cfg)
    if scheme == "noma":
        return analytic.secrecy_noma_imperfect(cfg)
    return analytic.secrecy_oma_imperfect(cfg)


def _axis_points(settings: Settings, axis: str):
    """Yield (axis_name, raw_token, SystemConfig) along the chosen axis."""
    if axis == "snr":
        for tok in settings.snr_db:
            yield "snr_db", tok, system_config(settings, rho_db=float(tok))
    elif axis == "sigma2":
        for tok in settings.sigma2_values:
            yield "sigma2", tok, system_config(settings, sigma2=float(tok))
    elif axis == "k":
        for tok in settings.k_values:
            yield "k", tok, system_config(settings, k=int(tok))
    else:
        raise ConfigError(f"unknown axis '{axis}'")


def run_sweep(settings: Settings, axis: str, out_path: str) -> int:
    """Write one CSV row per (axis point, scheme, metric). Returns row count.

    Each axis point draws one Monte Carlo stream (its index) and scores
    all of its rows from that sample. Secrecy rows need K >= 2.
    """
    rows = []
    for stream, (axis_name, token, cfg) in enumerate(_axis_points(settings, axis)):
        pairs = []
        for metric in (montecarlo.METRIC_OUTAGE,
                       montecarlo.METRIC_SECRECY_SURROGATE,
                       montecarlo.METRIC_SECRECY):
            for scheme in (montecarlo.SCHEME_NOMA, montecarlo.SCHEME_OMA):
                if metric != montecarlo.METRIC_OUTAGE and cfg.K < 2:
                    print(
                        f"note: skipping {scheme}/{metric} at {axis_name}={token}: "
                        "secrecy needs K >= 2",
                        file=sys.stderr,
                    )
                    continue
                pairs.append((scheme, metric))
        estimates = montecarlo.simulate_many(
            cfg, pairs, settings.trials, settings.seed,
            workers=settings.workers, stream=stream,
        )
        secrecy_cache = {}
        for scheme, metric in pairs:
            if metric == montecarlo.METRIC_OUTAGE:
                value = _OUTAGE_EVALUATORS[(scheme, cfg.csi_mode)](cfg)
            else:
                if scheme not in secrecy_cache:
                    secrecy_cache[scheme] = _secrecy_analytic(cfg, scheme)
                value = secrecy_cache[scheme]
            est = estimates[(scheme, metric)]
            rows.append((
                axis_name, token, scheme, cfg.csi_mode, metric,
                _fmt(value), _fmt(est.value), _fmt(est.half_width_95),
                str(settings.trials), str(settings.seed),
            ))
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
    return len(rows)


def _check(lines, name, ok, detail):
    lines.append(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def verify(settings: Settings):
    """Run the self-consistency checks at the configured operating point.

    Returns (all_passed, report_text).
    """
    cfg = system_config(settings)
    lines = []
    ok = True

    # quadrature sanity on a smooth integrand with known integral; not a
    # polynomial, which Gauss-Legendre integrates exactly at low order
    rule = gauss_legendre_rule(cfg.quad_orders[0], cfg.D)
    approx = rule.integrate(lambda x: np.exp(-x))
    exact = -np.expm1(-cfg.D)
    rel = abs(approx - exact) / exact
    ok &= _check(lines, "quadrature-selftest", rel < 1e-3,
                 f"rel err {rel:.3e}, bound 1e-3")

    # doubling the outage quadrature order must not move the result
    noma_outage = _OUTAGE_EVALUATORS[("noma", cfg.csi_mode)]
    doubled = replace(cfg, quad_orders=(2 * cfg.quad_orders[0],) + cfg.quad_orders[1:])
    drift = abs(noma_outage(cfg) - noma_outage(doubled))
    ok &= _check(lines, "quadrature-convergence", drift < 1e-3,
                 f"order-doubling drift {drift:.3e}, bound 1e-3")

    # analytic outage and secrecy against one shared simulation sample
    secrecy_ok = cfg.K >= 2
    metrics = [montecarlo.METRIC_OUTAGE]
    if secrecy_ok:
        metrics.append(montecarlo.METRIC_SECRECY_SURROGATE)
    estimates = montecarlo.simulate_many(
        cfg, [(scheme, metric) for metric in metrics for scheme in ("noma", "oma")],
        settings.trials, settings.seed, workers=settings.workers, stream=0,
    )

    for scheme in ("noma", "oma"):
        a = _OUTAGE_EVALUATORS[(scheme, cfg.csi_mode)](cfg)
        est = estimates[(scheme, montecarlo.METRIC_OUTAGE)]
        bound = 3.0 * est.half_width_95 + 1e-3
        err = abs(a - est.value)
        ok &= _check(lines, f"outage-vs-mc-{scheme}", err <= bound,
                     f"|{a:.6g} - {est.value:.6g}| = {err:.3e}, bound {bound:.3e}")

    # analytic secrecy against its simulation surrogate
    if not secrecy_ok:
        lines.append("secrecy-vs-mc: SKIP (secrecy needs K >= 2)")
    else:
        rel_bound = 0.05 if settings.rho_db >= 20 else 0.10
        for scheme in ("noma", "oma"):
            a = _secrecy_analytic(cfg, scheme)
            est = estimates[(scheme, montecarlo.METRIC_SECRECY_SURROGATE)]
            rel = abs(a - est.value) / abs(est.value) if est.value != 0 else float("inf")
            ok &= _check(lines, f"secrecy-vs-mc-{scheme}", rel <= rel_bound,
                         f"analytic {a:.6g}, mc {est.value:.6g}, "
                         f"rel err {rel:.3e}, bound {rel_bound:g}")

    # the power split must hit the multicast target exactly when feasible;
    # the same arithmetic as noma_core.power_split and multicast_rate, on
    # arrays of the non-outage driving gains
    rng = np.random.default_rng(np.random.SeedSequence(settings.seed, spawn_key=(10 ** 6,)))
    eps = cfg.eps_multicast
    worst = 0.0
    theta_exact = True
    collected = 0
    for _ in range(200):
        if collected >= 10_000:
            break
        _, _, true_gains, est_gains = sample_batch(cfg, rng, 2000)
        driving = true_gains[:, -1] if cfg.csi_mode == CSI_SOS else est_gains.min(axis=1)
        driving = driving[driving >= eps / cfg.rho][:10_000 - collected]
        collected += driving.size
        theta_u = (driving - eps / cfg.rho) / (driving * (1.0 + eps))
        theta_m = 1.0 - theta_u
        rate = np.log2(1.0 + theta_m * driving / (theta_u * driving + 1.0 / cfg.rho))
        worst = float(np.max(np.abs(rate - cfg.R_M), initial=worst))
        theta_exact &= bool(np.all(theta_m + theta_u == 1.0))
    ok &= _check(lines, "power-split-identity",
                 collected > 0 and worst < 1e-9 and theta_exact,
                 f"{collected} non-outage draws, max rate error {worst:.3e}, "
                 f"theta sums exact: {theta_exact}")

    # repeated simulation with one seed must agree bit for bit
    a1 = montecarlo.simulate(cfg, "noma", montecarlo.METRIC_OUTAGE, 20_000,
                             settings.seed, workers=1)
    a2 = montecarlo.simulate(cfg, "noma", montecarlo.METRIC_OUTAGE, 20_000,
                             settings.seed, workers=2)
    same = (a1.value, a1.half_width_95) == (a2.value, a2.half_width_95)
    ok &= _check(lines, "determinism", same,
                 f"value {a1.value:.12g} vs {a2.value:.12g}")

    return ok, "\n".join(lines)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="noma-perf",
        description="Outage and secrecy throughput analysis for a mixed "
                    "multicast/unicast NOMA downlink",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="tabulate analytic vs simulated metrics")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--axis", choices=("snr", "sigma2", "k"), default="snr")
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--trials", type=int)
    sweep.add_argument("--workers", type=int)
    sweep.add_argument("--out")

    ver = sub.add_parser("verify", help="run self-consistency checks")
    ver.add_argument("--config", required=True)
    ver.add_argument("--seed", type=int)
    ver.add_argument("--trials", type=int)
    ver.add_argument("--workers", type=int)
    return parser


def _apply_overrides(settings: Settings, args) -> Settings:
    for attr in ("seed", "trials", "workers"):
        value = getattr(args, attr)
        if value is not None:
            setattr(settings, attr, value)
    if getattr(args, "out", None):
        settings.out = args.out
    return settings


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        settings = _apply_overrides(parse_config(args.config), args)
        if settings.trials < 2 or settings.seed < 0 or settings.workers < 1:
            raise ConfigError("need trials >= 2, seed >= 0, workers >= 1")
        if args.command == "sweep":
            n = run_sweep(settings, args.axis, settings.out)
            print(f"wrote {settings.out}: {n} rows")
            return 0
        ok, report = verify(settings)
        print(report)
        print("verify: OK" if ok else "verify: FAILED")
        return 0 if ok else 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
