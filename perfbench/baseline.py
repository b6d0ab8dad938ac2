"""Measure a baseline: every workload on several seeds, plus determinism.

Run from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload in BENCHMARK.json it runs `run.py --trace 0` on seeds
1 to 10 and reports each end-to-end metric's median, quartiles and spread
(interquartile distance over the median) against the metric's bound.  It
then runs `--trace 1` twice on one seed and requires identical work
counters and identical record digests, also equal to the untraced run's
digest on that seed.  The result, with the revision, `nproc` and the
Python version, is the entry later performance claims compare against.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The JSON result line and the detailed report of one run."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    detail = json.loads(Path(".perfbench", f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail


def revision() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the baseline JSON here")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    ok = True
    baseline = {"revision": revision(), "nproc": os.cpu_count(),
                "python": sys.version.split()[0], "run_seconds": spec["run_seconds"],
                "seeds": list(SEEDS), "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        digests = {}
        for seed in SEEDS:
            result, detail = run(name, seed, spec["run_seconds"], 0)
            ok &= result["correct"] and set(result["metrics"]) == set(bounds)
            digests[seed] = detail["records_sha256"]
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(name, seed, result["correct"], result["attempted"], result["failed"],
                  {k: round(m["value"], 4) for k, m in result["metrics"].items()}, flush=True)
        summary = {}
        for key, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            summary[key] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bounds[key], "values": series}
            within = spread <= bounds[key]
            ok &= within
            print(f"  {key:16s} median {median:10.4f}  spread {spread:.3f}  bound "
                  f"{bounds[key]}{'' if within else '  OVER BOUND'}", flush=True)

        seed = SEEDS[0]
        traced = [run(name, seed, spec["run_seconds"], 1) for _ in range(2)]
        counters = [d["counters_per_pass"][0] for _, d in traced]
        same_counters = counters[0] == counters[1]
        same_digest = {d["records_sha256"] for _, d in traced} == {digests[seed]}
        layers_ok = all(set(r["metrics"]) == layer_names and r["correct"] for r, _ in traced)
        ok &= same_counters and same_digest and layers_ok
        print(f"  traced twice on seed {seed}: counters identical {same_counters}, "
              f"records identical {same_digest}, per-layer metrics complete {layers_ok}")
        baseline["workloads"][name] = {
            "end_to_end": summary,
            "records_sha256": digests,
            "counters": counters[0],
            "per_layer": {k: m["value"] for k, m in traced[0][0]["metrics"].items()},
        }
    if args.out:
        args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    print("baseline", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
