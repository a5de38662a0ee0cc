"""Command line front end: parameter sweeps to CSV and a self-check mode.

Exit codes: 0 success, 1 verification failure, 2 invalid input or
configuration.
"""

import gc
import sys

import numpy as np

from . import analytic, montecarlo
from .config import AXES, ConfigError, Settings, parse_config, system_config
from .noma_core import multicast_rate, power_split

CSV_COLUMNS = (
    "axis_name", "axis_value", "scheme", "csi_mode", "metric",
    "analytic_value", "mc_value", "mc_halfwidth", "trials", "seed",
)

# the metrics of a sweep, in CSV order
_SWEEP_METRICS = (montecarlo.METRIC_OUTAGE, montecarlo.METRIC_SECRECY_SURROGATE,
                  montecarlo.METRIC_SECRECY)


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _axis_points(settings: Settings, axis: str):
    """[(axis_name, raw_token, SystemConfig)] along the chosen axis; every
    entry is checked before any point runs. An error the configuration
    gives without the entry (eta below its floor) names no entry."""
    axis_name, key, kind, override = AXES[axis]
    points = []
    for tok in getattr(settings, key):
        try:
            points.append((axis_name, tok, system_config(settings, **{override: kind(tok)})))
        except ConfigError as exc:
            try:
                system_config(settings)
            except ConfigError as base:
                if str(base) == str(exc):
                    raise
            raise ConfigError(f"{key} entry '{tok}': {exc}") from exc
    return points


def _point(settings: Settings, cfg, metrics, stream: int):
    """({(scheme, metric): (analytic value, MetricEstimate)}, sums) at one point.

    Rows run metric by metric, NOMA before OMA, and every estimate is scored
    from one Monte Carlo stream, whose per-batch sums (`montecarlo.run_batches`)
    are returned too. A row of `metrics` the stream does not score (secrecy
    at K < 2) is left out.
    """
    sums = montecarlo.run_batches(cfg, settings.trials, settings.seed, stream)
    estimates = montecarlo.reduce_batches(sums, settings.trials)
    values = analytic.closed_forms(cfg)
    return {(scheme, metric): (values[(scheme, metric)], estimates[(scheme, metric)])
            for metric in metrics for scheme in montecarlo.SCHEMES
            if (scheme, metric) in estimates}, sums


def run_sweep(settings: Settings, axis: str, out_path: str) -> int:
    """Write one CSV row per (axis point, scheme, metric). Returns row count.

    Each axis point draws one Monte Carlo stream (its index) and scores
    all of its rows from that sample. Secrecy rows need K >= 2. The output
    file is opened once every axis entry is checked, before any point runs.
    """
    points = _axis_points(settings, axis)
    try:
        fh = open(out_path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    with fh:
        rows = []
        for stream, (axis_name, token, cfg) in enumerate(points):
            point, _ = _point(settings, cfg, _SWEEP_METRICS, stream)
            for metric in _SWEEP_METRICS:
                for scheme in montecarlo.SCHEMES:
                    if (scheme, metric) not in point:
                        print(f"note: skipping {scheme}/{metric} at {axis_name}={token}: "
                              "secrecy needs K >= 2", file=sys.stderr)
            rows += [(axis_name, token, scheme, cfg.csi_mode, metric,
                      _fmt(value), _fmt(est.value), _fmt(est.half_width_95),
                      str(settings.trials), str(settings.seed))
                     for (scheme, metric), (value, est) in point.items()]
        # no field needs CSV quoting (a column name, a numeric axis token or
        # a %.12g float), so no run pays the csv module's 0.7 ms import
        fh.writelines(",".join(row) + "\n" for row in [CSV_COLUMNS, *rows])
    return len(rows)


def _check(lines, name, ok, detail):
    lines.append(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _check_power_split(lines, cfg):
    """The power split must hit the multicast target exactly when feasible,
    on gains from the threshold eps/rho up to 1e12 times it; eps/rho has
    power_split's bits, so the first gain tests its boundary. A function of
    its own, so its arrays are freed before verify's next Monte Carlo draw."""
    threshold = cfg.eps_multicast / cfg.rho
    gains = threshold * np.logspace(0.0, 12.0, 10_000)
    split = power_split(gains, cfg.rho, cfg.R_M)
    outages = int(np.count_nonzero(split.outage))
    worst = float(np.max(np.abs(multicast_rate(gains, split, cfg.rho) - cfg.R_M)))
    theta_exact = bool(np.all(split.theta_M + split.theta_U == 1.0))
    return _check(lines, "power-split-identity", outages == 0 and worst < 1e-9 and theta_exact,
                  f"{gains.size} gains from eps/rho to 1e12 eps/rho, {outages} in outage, "
                  f"max rate error {worst:.3e}, theta sums exact: {theta_exact}")


def verify(settings: Settings):
    """Run the self-consistency checks at the configured operating point.

    Returns (all_passed, report_text).
    """
    cfg = system_config(settings)
    lines = []
    ok = True

    # the order-c estimate survival of a sigma2 = 0 copy against its closed form
    # at t = 45 D^-eta, where the map's exponent reaches its cap: the integrand
    # is 2w e^(-45 w^eta), the hardest the map produces, whatever D is
    zero_error = cfg.replace(sigma2_zeta=0.0)
    t = analytic._EXPONENT_CUTOFF * cfg.D ** -cfg.eta
    approx = analytic._survival_est(zero_error, np.array([t]), cfg.quad_orders[0])[0]
    exact = analytic._annulus_survival(zero_error, t, 0.0)
    rel = abs(approx - exact) / exact
    ok &= _check(lines, "quadrature-selftest", rel < 1e-3,
                 f"rel err {rel:.3e}, bound 1e-3")

    # analytic outage and secrecy against one shared simulation sample
    rows, sums = _point(settings, cfg, (montecarlo.METRIC_OUTAGE,
                                        montecarlo.METRIC_SECRECY_SURROGATE), 0)

    # doubling every quadrature order must not move any checked value, in
    # absolute terms or relative to the doubled value (floored at 1e-12)
    doubled = analytic.closed_forms(
        cfg.replace(quad_orders=tuple(2 * o for o in cfg.quad_orders)))
    moves = [(abs(a - doubled[pair]), abs(doubled[pair])) for pair, (a, _) in rows.items()]
    drift = max(move for move, _ in moves)
    rel = max(move / max(value, 1e-12) for move, value in moves)
    ok &= _check(lines, "quadrature-convergence", drift < 1e-3 and rel < 1e-3,
                 f"all-order doubling drift {drift:.3e}, rel {rel:.3e}, "
                 f"over {len(rows)} values, bound 1e-3 on each")

    rel_bound = 0.05 if settings.rho_db >= 20 else 0.10
    for (scheme, metric), (a, est) in rows.items():
        if metric == montecarlo.METRIC_OUTAGE:
            bound = 3.0 * est.half_width_95 + 1e-3
            err = abs(a - est.value)
            ok &= _check(lines, f"outage-vs-mc-{scheme}", err <= bound,
                         f"|{a:.6g} - {est.value:.6g}| = {err:.3e}, bound {bound:.3e}")
        elif est.value != 0:  # analytic secrecy against its simulation surrogate
            rel = abs(a - est.value) / abs(est.value)
            ok &= _check(lines, f"secrecy-vs-mc-{scheme}", rel <= rel_bound,
                         f"analytic {a:.6g}, mc {est.value:.6g}, "
                         f"rel err {rel:.3e}, bound {rel_bound:g}")
        else:
            # no trial scored, so no relative error: by the rule of three the
            # share of scoring trials is below 3/trials at 95%. The analytic
            # value is that share times the mean rate of a scoring trial, so
            # the bound assumes that rate is at most 1 bit/s/Hz; where it is
            # far below, an analytic value several times too large passes
            bound = 3.0 / est.trials
            ok &= _check(lines, f"secrecy-vs-mc-{scheme}", abs(a) <= bound,
                         f"analytic {a:.6g}, mc 0, abs err {abs(a):.3e}, bound {bound:.3g}")
    if all(metric == montecarlo.METRIC_OUTAGE for _, metric in rows):
        lines.append("secrecy-vs-mc: SKIP (secrecy needs K >= 2)")

    ok &= _check_power_split(lines, cfg)

    # batches 0 and 1 of stream 0 must give every pair's sums bit for bit drawn
    # in turn in one workspace (the point's own draw once it holds both) and in
    # reverse order in a fresh one, so a scorer that reads scratch left by the
    # batch before fails here. One workspace is mapped at a time.
    R = montecarlo.batch_rows(cfg.K)
    forward = (sums[:2] if settings.trials >= 2 * R
               else montecarlo.run_batches(cfg, 2 * R, settings.seed))
    backward = np.empty_like(forward)
    workspace = montecarlo._workspace(cfg, R)
    for index in (1, 0):
        montecarlo._run_batch(cfg, settings.seed, 0, index, R, workspace, backward[index])
    a1, a2 = (montecarlo.reduce_batches(side, 2 * R)[("noma", montecarlo.METRIC_OUTAGE)].value
              for side in (forward, backward))
    ok &= _check(lines, "determinism", forward.tobytes() == backward.tobytes(),
                 f"value {a1:.12g} vs {a2:.12g}")

    return ok, "\n".join(lines)


_USAGE = """\
usage: noma-perf sweep --config FILE [--axis {snr,sigma2,k}] [--out FILE]
                       [--seed N] [--trials N] [--workers N]
       noma-perf verify --config FILE [--seed N] [--trials N] [--workers N]
"""
_INT_OPTIONS = ("seed", "trials", "workers")
_OPTIONS = {"sweep": ("config", *_INT_OPTIONS, "axis", "out"),
            "verify": ("config", *_INT_OPTIONS)}


def _usage_error(message):
    sys.stderr.write(f"{_USAGE}noma-perf: error: {message}\n")
    raise SystemExit(2)


def _parse_args(argv):
    """(command, {option: value}) from the words of `_USAGE`, as `--opt value`
    or `--opt=value`; --axis defaults to snr. -h or --help prints the usage
    and exits 0; any other word exits 2 with the usage, argparse's convention."""
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_USAGE + "\nsweep tabulates analytic vs Monte Carlo metrics; "
                         "verify runs self-consistency checks.\n")
        raise SystemExit(0)
    if not argv or argv[0] not in _OPTIONS:
        _usage_error("the first argument must be sweep or verify")
    command, words, opts = argv[0], list(argv[1:]), {"axis": "snr"}
    while words:
        name, eq, value = words.pop(0).partition("=")
        key = name[2:]
        if not name.startswith("--") or key not in _OPTIONS[command]:
            _usage_error(f"unrecognized argument: {name}")
        if not eq:
            if not words or words[0].startswith("--"):
                _usage_error(f"argument {name}: expected one argument")
            value = words.pop(0)
        if key in _INT_OPTIONS:
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument {name}: invalid int value: '{value}'")
        if key == "axis" and value not in AXES:
            _usage_error(f"argument --axis: invalid choice: '{value}' "
                         f"(choose from {', '.join(AXES)})")
        opts[key] = value
    if "config" not in opts:
        _usage_error("the following arguments are required: --config")
    return command, opts


def main(argv=None) -> int:
    """Run the `noma-perf` command line on `argv` (default: sys.argv[1:])
    and return its exit code.

    Every object alive on entry (numpy, this package and what they import)
    is frozen with `gc.freeze()`: the collector's full collections, the
    ones interpreter shutdown runs included, no longer scan it. An
    in-process caller that goes on running can call `gc.unfreeze()` once
    this returns, to hand those objects back to the collector.
    """
    # Everything alive now lives until the process exits anyway. Nearly
    # all of it is numpy's ~22k tracked objects, which shutdown's full
    # collections would scan again: about 20 ms a run, after this returns.
    # Freezing at import would take over a library user's collector, and
    # collecting first would cost most of the saving.
    gc.freeze()
    command, opts = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        settings = parse_config(opts["config"])
        for key in (*_INT_OPTIONS, "out"):
            if key in opts:
                setattr(settings, key, opts[key])
        try:
            montecarlo.check_run(settings.trials, settings.seed, workers=settings.workers)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if command == "sweep":
            n = run_sweep(settings, opts["axis"], settings.out)
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
