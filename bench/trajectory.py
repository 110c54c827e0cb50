"""Append one entry to the benchmark trajectory, ``bench/trajectory.json``.

Usage (from the repository root, after runs of ``bench/run.py``)::

    python3 bench/trajectory.py LABEL .bench_runs/*.json

Each run of ``bench/run.py`` saves its full record under ``.bench_runs/``.
This script groups the given records by workload and trace mode and stores,
for every metric, the per-seed values with their median and quartiles, so a
later change can be compared with the same seeds.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

TRAJECTORY = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "trajectory.json")


def _stats(values):
    entry = {"median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry.update(q1=q1, q3=q3)
        if entry["median"]:
            entry["spread"] = (q3 - q1) / entry["median"]
    return entry


def summarise(label, records):
    workloads = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        mode = "per_layer" if rec["trace"] else "end_to_end"
        w = workloads.setdefault(rec["workload"], {"attempted": 0, "failed": 0})
        w["attempted"] += rec["attempted"]
        w["failed"] += rec["failed"]
        w.setdefault(f"{mode}_seeds", []).append(rec["seed"])
        for name, value in rec["metrics"].items():
            w.setdefault(mode, {}).setdefault(name, []).append(value)
        if not rec["trace"]:
            for name, value in rec["quality"].items():
                if value is not None:
                    w.setdefault("quality", {}).setdefault(name, []).append(value)
            w.setdefault("digests", {})[str(rec["seed"])] = rec["digests"]
    for w in workloads.values():
        for mode in ("end_to_end", "per_layer", "quality"):
            if mode in w:
                w[mode] = {k: _stats(v) for k, v in w[mode].items()}
        w["failed_ratio"] = w["failed"] / w["attempted"] if w["attempted"] else None
    prov = records[0]["provenance"]
    return {
        "label": label,
        "git_commit": prov["git_commit"],
        "source_sha256": prov["source_sha256"],
        "machine": {k: prov[k] for k in ("nproc", "machine", "python", "numpy",
                                         "scipy", "blas")},
        "run_seconds": records[0]["seconds"],
        "workloads": workloads,
    }


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv[1:]:
        with open(path) as fh:
            records.append(json.load(fh))
    trajectory = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as fh:
            trajectory = json.load(fh)
    trajectory.append(summarise(argv[0], records))
    with open(TRAJECTORY, "w") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
