"""The noma-perf benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from a checkout of the repository. Each run starts child processes
(perfbench/child.py) that import noma_perf from the checkout's `src` and
drive it only through `noma_perf.cli.main`, one child at a time, for about
`--seconds` seconds. A child runs one piece of the workload: one SNR point
of a sweep, or one case of verify. The pieces are run in turn, round after
round. Every child's output is gated for correctness; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.

--trace 0 reports the end-to-end metrics: the workload's wall time as the
sum over its pieces of the median child and the median set-up time (both
paced by each child's own start-up, see STARTUP_REF_S), the peak resident
set, the share of operations that passed, and the largest
analytic-versus-reference z-score. --trace 1 runs untraced children and then one traced round, and
reports the per-layer metrics computed from the traced round's spans.

The run's notes, gates, digests and metrics are also written to
.perfbench/<workload>-s<seed>-t<trace>/result.json, next to the spans.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

from workloads import (ANALYTIC_TARGET, CASES, DEFAULT_SEED, HERE, HOLDOUT_SEED,
                       METRICS, REFERENCE_SEED, SCHEMES, SMOKE_SNR_DB, SMOKE_TRIALS,
                       SNR_DB, VERIFY_RHO_DB, WORKLOADS, config_text, load_reference,
                       pieces, row_key)

ROOT = HERE.parent
SRC = ROOT / "src"

HARD_LIMIT_S = 165.0      # no child runs past this point of a run
MC_GATE_Z = 5.0           # |mc - ref| / sqrt(hw^2 + hw_ref^2) allowed per row
TRACE_SLOWDOWN = 1.2      # traced child's expected wall time over an untraced one
# the layers' spans must cover the traced wall time of a sweep up to
# interpreter start-up and exit: this share of it, or this many seconds
TRACE_SUM_TOL_SHARE = 0.10
TRACE_SUM_TOL_S = 1.0
# On a shared host the machine's speed drifts, by up to half and for up to
# minutes, and slows every kind of work alike. Each child's start-up until
# numpy is imported runs no code of the program, so the time metrics are
# taken per child in units of that start-up and scaled by STARTUP_REF_S,
# about its length on a 2-core Xeon (Sapphire Rapids) sandbox in a quiet
# period: seconds at that reference speed.
STARTUP_REF_S = 0.11

CSV_COLUMNS = ["axis_name", "axis_value", "scheme", "csi_mode", "metric",
               "analytic_value", "mc_value", "mc_halfwidth", "trials", "seed"]
VERIFY_CHECKS = ("quadrature-selftest", "quadrature-convergence",
                 "outage-vs-mc-noma", "outage-vs-mc-oma",
                 "secrecy-vs-mc-noma", "secrecy-vs-mc-oma",
                 "power-split-identity", "determinism")
# analytic values as `verify` prints them, per scheme and metric
VERIFY_ANALYTIC = {
    "outage_prob": re.compile(r"^outage-vs-mc-(\w+): \w+ \(\|(\S+) - "),
    "secrecy_throughput_surrogate": re.compile(r"^secrecy-vs-mc-(\w+): \w+ \(analytic (\S+),"),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ops_ok_frac": "ratio", "analytic_max_z": "z"}
PER_LAYER_UNITS = {
    "config.parse_s": "s", "cli.self_s": "s",
    "analytic.outage.calls": "count", "analytic.outage.busy_s": "s",
    "analytic.secrecy.calls": "count", "analytic.secrecy.busy_s": "s",
    "analytic.secrecy.max_call_s": "s",
    "specfun.e1.elements": "count", "specfun.gammainc.elements": "count",
    "specfun.busy_s": "s",
    "channel.sample.calls": "count", "channel.sample.draws": "count",
    "channel.sample.bytes": "B", "channel.sample.busy_s": "s",
    "montecarlo.simulate.calls": "count", "montecarlo.trials": "count",
    "montecarlo.simulate.busy_s": "s", "montecarlo.self_s": "s",
    "montecarlo.trials_per_s": "1/s",
    "noma_core.calls": "count",
    "trace.overhead_s": "s",
}


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Gates:
    """Operations attempted and failed, plus named run-level checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = defaultdict(lambda: {"checked": 0, "failed": 0})
        self.problems = []

    def op(self, gate, ok, what):
        self.attempted += 1
        self.check(gate, ok, what)
        self.failed += not ok

    def check(self, gate, ok, what):
        self.checks[gate]["checked"] += 1
        if not ok:
            self.checks[gate]["failed"] += 1
            if len(self.problems) < 20:
                self.problems.append(f"{gate}: {what}")
        return ok

    @property
    def passed(self):
        return all(c["failed"] == 0 for c in self.checks.values())


class Run:
    """One benchmark invocation: its work directory, inputs and children."""

    def __init__(self, args):
        self.workload = WORKLOADS[args.workload]
        self.name = args.workload
        self.seed = args.seed
        self.snr_db = SMOKE_SNR_DB if args.smoke else SNR_DB
        self.trials = SMOKE_TRIALS if args.smoke else self.workload["trials"]
        tag = f"{args.workload}-s{args.seed}-t{args.trace}" + ("-smoke" if args.smoke else "")
        self.work = ROOT / ".perfbench" / tag
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.pieces = []
        for i, (label, case, snr_db) in enumerate(pieces(self.workload, self.snr_db)):
            path = self.work / f"piece{i}.cfg"
            path.write_text(config_text(case, self.trials, self.workload["workers"], snr_db))
            self.pieces.append({"label": label, "case": case, "snr_db": snr_db, "config": path})
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.env.pop("PYTHONPATH", None)
        self.start = now()
        self.children = 0

    def elapsed(self):
        return now() - self.start

    def argv(self, piece, out_csv):
        cfg = str(self.pieces[piece]["config"])
        seed = ["--seed", str(self.seed)]
        if self.workload["command"] == "sweep":
            return ["sweep", "--config", cfg, "--axis", "snr", "--out", str(out_csv)] + seed
        return ["verify", "--config", cfg] + seed

    def child(self, piece, probe=False, trace=False):
        """Run one child on one piece of the workload to completion; returns
        its record."""
        i = self.children
        self.children += 1
        base = self.work / f"child{i}"
        spec = {
            "src": str(SRC), "probe": probe, "trace": trace,
            "argv": self.argv(piece, f"{base}.csv"),
            "result": f"{base}.json", "spans": f"{base}.spans.json",
        }
        (base.with_suffix(".spec.json")).write_text(json.dumps(spec))
        limit = max(1.0, HARD_LIMIT_S - self.elapsed())
        with open(f"{base}.out", "w") as out, open(f"{base}.err", "w") as err:
            t0 = now()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(base.with_suffix(".spec.json"))],
                cwd=self.work, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                t1 = now()
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        record = {"index": i, "piece": piece, "trace": trace, "wall_s": t1 - t0,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode,
                  "base": str(base), "result": None, "startup_s": None, "setup_s": None}
        if proc.returncode == 0:
            with open(spec["result"]) as fh:
                record["result"] = json.load(fh)
            record["startup_s"] = record["result"]["startup_done"] - t0
            if record["result"]["setup_done"] is not None:
                record["setup_s"] = record["result"]["setup_done"] - t0
        return record


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _z(value, mean, half_width):
    return abs(value - mean) / half_width


def gate_sweep(run, record, reference, gates):
    """Gate a sweep child's CSV row by row; returns (digest, analytic z-scores)."""
    piece = run.pieces[record["piece"]]
    case = piece["case"]
    ref = reference[case]
    expected = [(snr, scheme, metric) for snr in piece["snr_db"]
                for metric in METRICS for scheme in SCHEMES]
    ran = record["rc"] == 0 and record["result"]["rc"] == 0
    path = record["base"] + ".csv"
    data = b""
    if ran and os.path.exists(path):
        with open(path, "rb") as fh:
            data = fh.read()
    lines = data.decode().splitlines()
    header_ok = gates.check("csv-header", bool(lines) and lines[0].split(",") == CSV_COLUMNS,
                            f"child {record['index']}: header")
    rows = defaultdict(list)
    if header_ok:
        for row in csv.DictReader(lines):
            rows[(row["axis_value"], row["scheme"], row["metric"])].append(row)
    gates.check("csv-row-count", sum(map(len, rows.values())) == len(expected),
                f"child {record['index']}: {sum(map(len, rows.values()))} rows, "
                f"expected {len(expected)}")

    zs = []
    for snr, scheme, metric in expected:
        label = f"child {record['index']} snr_db={snr} {scheme} {metric}"
        found = rows.get((snr, scheme, metric), [])
        if not gates.check("row-present", len(found) == 1, label):
            gates.op("row", False, label)
            continue
        row = found[0]
        try:
            a, mc, hw = (float(row[k]) for k in ("analytic_value", "mc_value", "mc_halfwidth"))
        except ValueError:
            a = mc = hw = math.nan
        if not gates.check("row-finite", _finite(a, mc, hw), label):
            gates.op("row", False, label)
            continue
        ok = gates.check("row-echo", row["csi_mode"] == CASES[case]["csi"]
                         and row["trials"] == str(run.trials) and row["seed"] == str(run.seed),
                         label)
        if metric == "outage_prob":
            ok &= gates.check("row-range", 0.0 <= a <= 1.0 and 0.0 <= mc <= 1.0, label)
        # a throughput whose every trial scored zero has a zero-width interval
        degenerate = metric != "outage_prob" and mc == 0.0 and hw == 0.0
        ok &= gates.check("row-halfwidth", hw > 0.0 or degenerate, label)
        ref_mean, ref_hw = ref[row_key(snr, scheme, metric)]
        spread = math.hypot(hw, ref_hw)
        ok &= gates.check("mc-gate", _z(mc, ref_mean, spread) <= MC_GATE_Z if spread > 0
                          else mc == ref_mean, f"{label}: mc {mc:.6g}, ref {ref_mean:.6g}")
        gates.op("row", ok, label)
        target_mean, target_hw = ref[row_key(snr, scheme, ANALYTIC_TARGET[metric])]
        if target_hw > 0:
            zs.append(_z(a, target_mean, target_hw))
    return hashlib.sha256(data).hexdigest(), zs


def gate_verify(run, record, reference, gates):
    """Gate a verify child's check lines; returns (digest, analytic z-scores)."""
    case = run.pieces[record["piece"]]["case"]
    ran = record["rc"] == 0 and record["result"]["rc"] == 0
    report = record["result"]["stdout"] if record["rc"] == 0 else ""
    status = {}
    for line in report.splitlines():
        name, _, rest = line.partition(": ")
        status[name] = rest.split(" ", 1)[0]
    for check in VERIFY_CHECKS:
        gates.op("verify-check", ran and status.get(check) == "PASS",
                 f"child {record['index']} {case} {check}: {status.get(check, 'missing')}")
    ref = reference[case]
    zs = []
    for metric, pattern in VERIFY_ANALYTIC.items():
        for line in report.splitlines():
            match = pattern.match(line)
            if match:
                mean, hw = ref[row_key(VERIFY_RHO_DB, match.group(1), metric)]
                if hw > 0:
                    zs.append(_z(float(match.group(2)), mean, hw))
    return hashlib.sha256(report.encode()).hexdigest(), zs


# ---------------------------------------------------------------------------
# spans to per-layer metrics
# ---------------------------------------------------------------------------

def _union_length(intervals):
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(spans):
    """Per-layer metrics from traced children's spans; also the seconds
    that top-level layer spans cover."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        sid, name, start, end, _tid, parent, _count, _nbytes = span
        by_name[name].append(span)
        children[parent].append(span)

    def busy(name):
        return sum(s[3] - s[2] for s in by_name[name])

    def self_time(name):
        return sum((s[3] - s[2]) - _union_length(
            [(max(c[2], s[2]), min(c[3], s[3])) for c in children[s[0]]])
            for s in by_name[name])

    def total(name, field):
        return sum(s[field] for s in by_name[name])

    secrecy = [s[3] - s[2] for s in by_name["analytic.secrecy"]]
    trials = total("montecarlo.simulate", 6)
    simulate_busy = busy("montecarlo.simulate")
    metrics = {
        "config.parse_s": busy("config.parse"),
        "cli.self_s": self_time("cli"),
        "analytic.outage.calls": len(by_name["analytic.outage"]),
        "analytic.outage.busy_s": busy("analytic.outage"),
        "analytic.secrecy.calls": len(secrecy),
        "analytic.secrecy.busy_s": sum(secrecy),
        "analytic.secrecy.max_call_s": max(secrecy, default=0.0),
        "specfun.e1.elements": total("specfun.e1", 6),
        "specfun.gammainc.elements": total("specfun.gammainc", 6),
        "specfun.busy_s": busy("specfun.e1") + busy("specfun.gammainc"),
        "channel.sample.calls": len(by_name["channel.sample"]),
        "channel.sample.draws": total("channel.sample", 6),
        "channel.sample.bytes": total("channel.sample", 7),
        "channel.sample.busy_s": busy("channel.sample"),
        "montecarlo.simulate.calls": len(by_name["montecarlo.simulate"]),
        "montecarlo.trials": trials,
        "montecarlo.simulate.busy_s": simulate_busy,
        "montecarlo.self_s": self_time("montecarlo.simulate"),
        "montecarlo.trials_per_s": trials / simulate_busy if simulate_busy > 0 else 0.0,
        "noma_core.calls": len(by_name["noma_core"]),
    }
    cli_ids = {s[0] for s in by_name["cli"]}
    analytic_top = sum(s[3] - s[2] for s in spans
                       if s[1].startswith("analytic.") and s[5] in cli_ids)
    accounted = (analytic_top + simulate_busy + metrics["cli.self_s"]
                 + metrics["config.parse_s"])
    return metrics, accounted


def load_spans(record):
    """A traced child's spans, their ids and parents made unique across children."""
    if record["rc"] != 0:
        return []
    with open(record["base"] + ".spans.json") as fh:
        spans = json.load(fh)
    tag = record["index"]
    return [((tag, sid), name, start, end, tid, None if parent is None else (tag, parent),
             count, nbytes)
            for sid, name, start, end, tid, parent, count, nbytes in spans]


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run_notes(seed, load_before):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "seed": seed,
            "holdout_seed": HOLDOUT_SEED, "reference_seed": REFERENCE_SEED,
            "load_before": load_before, "blas_threads": 1}


def measure(args):
    reference = load_reference()
    run = Run(args)
    load_before = os.getloadavg()
    gate = gate_sweep if run.workload["command"] == "sweep" else gate_verify
    trace = bool(args.trace)
    indices = range(len(run.pieces))

    run.child(0, probe=True)  # warm-up: byte-compile and page in, not counted

    # the pieces in turn, one child each, for at least one whole round and
    # then while the next piece (and the traced round) still fits in the run
    untraced = []
    slowest = {}
    while True:
        record = run.child(len(untraced) % len(indices))
        untraced.append(record)
        slowest[record["piece"]] = max(slowest.get(record["piece"], 0.0), record["wall_s"])
        if len(untraced) < len(indices):
            continue
        if args.smoke:
            break
        upcoming = slowest[len(untraced) % len(indices)]
        if trace:
            upcoming += TRACE_SLOWDOWN * sum(slowest.values())
        if run.elapsed() + upcoming > min(args.seconds, HARD_LIMIT_S):
            break
    traced = [run.child(p, trace=True) for p in indices] if trace else []

    gates = Gates()
    digests, zs = defaultdict(set), []
    for record in untraced + traced:
        gates.check("child-exit", record["rc"] == 0, f"child {record['index']} rc {record['rc']}")
        digest, child_zs = gate(run, record, reference, gates)
        digests[record["piece"]].add(digest)
        zs.extend(child_zs)
    gates.check("digest-stable", all(len(digests[p]) == 1 for p in indices),
                "a piece gave distinct output digests: "
                + ", ".join(f"{run.pieces[p]['label']} {len(digests[p])}" for p in indices))
    digest = hashlib.sha256("\n".join(
        f"{run.pieces[p]['label']} {d}" for p in indices for d in sorted(digests[p])
    ).encode()).hexdigest()

    ran = [c for c in untraced if c["setup_s"] is not None]

    def per_piece(value):
        """Sum over the pieces of the median of `value` over each one's children."""
        medians = [statistics.median(value(c) for c in ran if c["piece"] == p)
                   for p in indices if any(c["piece"] == p for c in ran)]
        return sum(medians) if len(medians) == len(indices) else None

    def paced(key):
        """A child's time in units of its own start-up (see STARTUP_REF_S)."""
        return lambda c: c[key] / c["startup_s"] * STARTUP_REF_S

    wall_unpaced_s = per_piece(lambda c: c["wall_s"])
    if trace:
        spans = []
        for record in traced:
            child_spans = load_spans(record)
            spans += child_spans
            if run.workload["command"] == "sweep":
                _, accounted = layer_metrics(child_spans)
                unaccounted = record["wall_s"] - accounted
                tol = max(TRACE_SUM_TOL_SHARE * record["wall_s"], TRACE_SUM_TOL_S)
                gates.check("trace-sum", 0.0 <= unaccounted <= tol,
                            f"child {record['index']}: layers leave {unaccounted:.3f} s of "
                            f"{record['wall_s']:.3f} s traced wall time unaccounted, "
                            f"tolerance {tol:.3f} s")
        metrics, _ = layer_metrics(spans)
        metrics["trace.overhead_s"] = (sum(c["wall_s"] for c in traced) - wall_unpaced_s
                                       if wall_unpaced_s is not None else None)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": per_piece(paced("wall_s")),
            "setup_s": statistics.median(map(paced("setup_s"), ran)) if ran else None,
            "peak_rss_mb": max(statistics.median(c["peak_rss_mb"] for c in untraced
                                                 if c["piece"] == p) for p in indices),
            "ops_ok_frac": 1.0 - gates.failed / gates.attempted,
            "analytic_max_z": max(zs) if zs else None,
        }
        units = END_TO_END_UNITS
        gates.check("metrics-present", all(v is not None for v in metrics.values()),
                    "a metric could not be computed")
    versions = next((c["result"] for c in untraced if c["result"]), {})
    notes = dict(run_notes(args.seed, load_before), load_after=os.getloadavg(),
                 python=versions.get("python"), numpy=versions.get("numpy"),
                 workload=run.name, smoke=args.smoke, pieces=len(run.pieces),
                 children=len(untraced), seconds=args.seconds, wall_unpaced_s=wall_unpaced_s,
                 setup_unpaced_s=statistics.median(c["setup_s"] for c in ran) if ran else None,
                 startup_s=statistics.median(c["startup_s"] for c in ran) if ran else None,
                 elapsed_s=run.elapsed())
    result = {
        "correct": gates.passed,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = dict(result, notes=notes, digest=digest,
                  piece_digests={run.pieces[p]["label"]: sorted(digests[p]) for p in indices},
                  gates=dict(gates.checks), problems=gates.problems,
                  children=[{k: c[k] for k in ("index", "piece", "trace", "wall_s",
                                               "startup_s", "setup_s", "peak_rss_mb", "rc")}
                            for c in untraced + traced])
    (run.work / "result.json").write_text(json.dumps(report, indent=1))

    print("notes: " + json.dumps(notes))
    for c in report["children"]:
        print(f"child {c['index']} ({run.pieces[c['piece']]['label']}): "
              f"wall_s={c['wall_s']:.4f} startup_s={c['startup_s']} setup_s={c['setup_s']} "
              f"peak_rss_mb={c['peak_rss_mb']:.1f} rc={c['rc']} trace={c['trace']}")
    print(f"output sha256: {digest}")
    for name, check in sorted(gates.checks.items()):
        print(f"gate {name}: {check['checked'] - check['failed']}/{check['checked']} passed")
    for problem in gates.problems:
        print(f"problem: {problem}")
    for name, entry in result["metrics"].items():
        computed = " (computed from array shapes)" if name == "channel.sample.bytes" else ""
        print(f"{name} = {entry['value']} {entry['unit']}{computed}")
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to 2 SNR points and 2e4 trials")
    args = parser.parse_args()
    if args.seed < 0 or args.seed == REFERENCE_SEED:
        parser.error(f"--seed must be >= 0 and differ from the reference seed {REFERENCE_SEED}")
    if not (SRC / "noma_perf" / "cli.py").is_file():
        print(f"error: no noma_perf sources under {SRC}", file=sys.stderr)
        return 2
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
