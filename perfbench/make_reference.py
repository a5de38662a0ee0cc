"""Generate the frozen Monte Carlo accuracy reference (reference.json).

    python3 perfbench/make_reference.py

Run from the repository root. For every case a benchmark workload uses, it
runs `noma-perf sweep --axis snr` at ten times the largest trial count any
workload uses for that case, under REFERENCE_SEED, and keeps the Monte Carlo
mean and 95% half width of every row. Sweep cases cover the whole SNR axis;
cases only `verify` uses cover the point it evaluates. The reference is
generated once: a change that claims a gain must not regenerate it.
"""

import csv
import json
import os
import subprocess
import sys

from workloads import (CASES, REFERENCE_PATH, REFERENCE_SEED, SNR_DB,
                       VERIFY_RHO_DB, WORKLOADS, config_text, row_key)

ROOT = REFERENCE_PATH.parent.parent
WORK = ROOT / ".perfbench" / "reference"
WORKERS = 2


def _plan(case):
    users = [w for w in WORKLOADS.values() if case in w["cases"]]
    trials = 10 * max(w["trials"] for w in users)
    swept = any(w["command"] == "sweep" for w in users)
    return (SNR_DB if swept else (VERIFY_RHO_DB,)), trials


def _source_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    WORK.mkdir(parents=True, exist_ok=True)
    cases = {}
    for case in CASES:
        snr_db, trials = _plan(case)
        text = config_text(case, trials, WORKERS, snr_db)
        (WORK / f"{case}.cfg").write_text(text)
        command = ["python3", "-m", "noma_perf.cli", "sweep", "--config", f"{case}.cfg",
                   "--axis", "snr", "--seed", str(REFERENCE_SEED), "--out", f"{case}.csv"]
        print(f"{case}: {trials} trials at snr_db {','.join(snr_db)}", flush=True)
        subprocess.run([sys.executable] + command[1:], cwd=WORK, env=env, check=True)
        with open(WORK / f"{case}.csv", newline="") as fh:
            rows = {row_key(r["axis_value"], r["scheme"], r["metric"]):
                    [float(r["mc_value"]), float(r["mc_halfwidth"])]
                    for r in csv.DictReader(fh)}
        cases[case] = {"command": command, "config": text, "trials": trials, "rows": rows}
    reference = {
        "generated_by": "python3 perfbench/make_reference.py",
        "source_commit": _source_commit(),
        "seed": REFERENCE_SEED,
        "cases": cases,
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
