"""Workload definitions and the frozen accuracy reference, shared by the
benchmark (run.py) and the reference generator (make_reference.py).

A case is one operating point family of the CLI's `run.cfg`; a workload
runs one or more cases through `noma-perf sweep` or `noma-perf verify`.
"""

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

DEFAULT_SEED = 1234567
# Seed of the frozen reference; the benchmark refuses it so that reference
# and measured runs never share random numbers.
REFERENCE_SEED = 181_009_745
# Seed kept out of all runs made while writing a change, so that a claimed
# gain can be re-checked on inputs its author never saw.
HOLDOUT_SEED = 7_654_321

SNR_DB = ("0", "5", "10", "15", "20", "25", "30", "35", "40")
SMOKE_SNR_DB = SNR_DB[:2]
SMOKE_TRIALS = 20_000
VERIFY_RHO_DB = "30"  # the default rho_db that `verify` evaluates at

CASES = {
    "imperfect-k8": {"csi": "imperfect", "k": 8, "sigma2": 0.01},
    "perfect-k8": {"csi": "perfect", "k": 8, "sigma2": 0},
    "sos-k2": {"csi": "sos", "k": 2, "sigma2": 0},
}

# why each workload is chosen: see BENCHMARK.json and README.md
WORKLOADS = {
    "snr-imperfect": {"command": "sweep", "cases": ["imperfect-k8"],
                      "trials": 100_000, "workers": 1},
    "sos-mc": {"command": "sweep", "cases": ["sos-k2"], "trials": 1_000_000, "workers": 1},
    "verify-csi3": {"command": "verify", "cases": ["imperfect-k8", "perfect-k8", "sos-k2"],
                    "trials": 100_000, "workers": 1},
}

METRICS = ("outage_prob", "secrecy_throughput_surrogate", "secrecy_throughput")
SCHEMES = ("noma", "oma")
# the metric whose Monte Carlo reference an analytic value approximates
ANALYTIC_TARGET = {
    "outage_prob": "outage_prob",
    "secrecy_throughput_surrogate": "secrecy_throughput_surrogate",
    "secrecy_throughput": "secrecy_throughput_surrogate",
}


def config_text(case, trials, workers, snr_db=SNR_DB):
    """The run.cfg text of one case."""
    lines = [f"{key} = {value}" for key, value in CASES[case].items()]
    lines += [f"trials = {trials}", f"workers = {workers}",
              f"snr_db = {','.join(snr_db)}"]
    return "\n".join(lines) + "\n"


def pieces(workload, snr_db=SNR_DB):
    """The workload split into the CLI runs that are timed one by one, as
    (label, case, snr points): a sweep runs one SNR point at a time, verify
    one case at a time."""
    if workload["command"] == "sweep":
        (case,) = workload["cases"]
        return [(f"snr_db={point}", case, (point,)) for point in snr_db]
    return [(case, case, snr_db) for case in workload["cases"]]


def row_key(snr_db, scheme, metric):
    return f"{snr_db}|{scheme}|{metric}"


def load_reference():
    """{case: {row_key: (mean, half_width)}} from the frozen reference."""
    data = json.loads(REFERENCE_PATH.read_text())
    return {case: {key: tuple(v) for key, v in entry["rows"].items()}
            for case, entry in data["cases"].items()}
