"""xscore benchmark: seeded CLI requests from one client in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload db-query --seed 1 --seconds 15 --trace 0

`--trace 0` times whole `python -m xscore` invocations, one at a time,
against a reference program run between them, and prints the end-to-end
metrics.  `--trace 1` runs the same argv lists through
`xscore.cli.main` in-process, alternating untraced passes with passes whose
layer boundaries are wrapped, and prints the per-layer metrics.  Every
report is checked; a request fails on a nonzero exit, on passing its
deadline, or on failing its check.  Metrics print one per line, then the
last line of standard output is the JSON result; the exit code is 1 when
the result is not correct.  A detailed report (and the spans, for a traced
run) goes to `.perfbench/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracing
import workloads

# setup_s is the median of `xscore --version` runs: a few before the
# requests, then one after every SETUP_EVERY requests, so that the samples
# span the whole run.
#
# The speed of a shared machine drifts by up to half over minutes, which
# would swamp the differences the benchmark is for.  So every timed process
# is followed by one run of REFERENCE, a fixed program that starts Python,
# imports stdlib modules and computes, as a request does.  Each time is
# divided by the mean of the reference runs just before and after it and
# reported in seconds at the speed at which the reference takes REFERENCE_S.
# The unscaled wall-clock figures go to the detailed report.
REFERENCE = (
    "import argparse, csv, dataclasses, decimal, fractions, inspect, itertools, json, tempfile\n"
    "t = {}\n"
    "for i in range(50000): t[i % 4099] = t.get(i % 4099, 0) + i\n"
    "s = sorted(str(i * 7919 % 100003) for i in range(15000))\n"
)
REFERENCE_S = 0.1
SETUP_FIRST = 3
SETUP_EVERY = 10
MIN_REQUESTS = 40  # so latency p75 has at least ten samples above it
MIN_PASSES = 2
DEADLINE_S = 60.0

@dataclass
class Outcome:
    seconds: float
    exit_code: int
    maxrss_kb: int
    timed_out: bool


def run_process(argv: list[str], env: dict, cwd: Path, stdout_path: Path) -> Outcome:
    """Run one child to completion; wall time and its own rusage via wait4."""
    stderr_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(DEADLINE_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(stderr_path.read_text(errors="replace")[-2000:])
    return Outcome(seconds, proc.returncode, usage.ru_maxrss, killed.is_set())


def records_digest(records: list) -> str:
    """SHA-256 of the canonical JSON of a report's records (timing excluded)."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Verifier:
    """Checks each request's first report in full and later ones by digest.

    After each full check the checker is itself checked: a copy of the
    report with one value altered must be rejected.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.digests: dict[int, str] = {}
        self.blind = 0  # altered reports the checker failed to reject
        self.problems: list[str] = []

    def verify(self, index: int, request: workloads.Request, text: str) -> int | None:
        """Number of records when the report is right, else None."""
        try:
            report = json.loads(text)
            records = report["records"]
        except (ValueError, KeyError, TypeError) as exc:
            return self.fail(request, [f"unreadable report: {exc!r}"])
        digest = records_digest(records)
        known = self.digests.get(index)
        if known is not None:
            return len(records) if digest == known else self.fail(
                request, ["records differ from an earlier run of the same request"])
        problems = check.check(request.expect, report)
        if problems:
            return self.fail(request, problems)
        if not check.check(request.expect, check.mutate(report, self.rng)):
            self.blind += 1
            self.problems.append(f"{request.label}: checker accepted an altered report")
        self.digests[index] = digest
        return len(records)

    def run_digest(self) -> str:
        joined = ",".join(self.digests[i] for i in sorted(self.digests))
        return hashlib.sha256(joined.encode()).hexdigest()

    def fail(self, request, problems) -> None:
        self.problems += [f"{request.label}: {p}" for p in problems[:3]]
        return None


def xscore_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "XSCORE_BUDGET"}
    env["PYTHONPATH"] = str(src)
    return env


def summarise(setup: list[float], samples: list[list[float]], records: list[int],
              peak_kb: int) -> dict:
    # A pass's time is the sum of each request's median latency, which keeps
    # one slow moment of a shared machine from moving the whole figure.
    run_s = sum(statistics.median(s) for s in samples)
    latencies = [x for s in samples for x in s]
    return {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_p75_s": statistics.quantiles(latencies, n=4)[2],
        "scores_per_s": sum(records) / run_s,
        "peak_rss_mb": peak_kb / 1024,
    }


def measure(requests, seconds: float, src: Path, work: Path, verifier: Verifier) -> dict:
    env = xscore_env(src)
    python = [sys.executable, "-m", "xscore"]
    out = work / "report.json"
    reference = work / "reference.out"
    refs = [run_process([sys.executable, "-c", REFERENCE], env, work, reference).seconds]

    def timed(argv: list[str]) -> tuple[Outcome, int]:
        """Run argv, then the reference; the index of the reference before it."""
        outcome = run_process(argv, env, work, out)
        refs.append(run_process([sys.executable, "-c", REFERENCE], env, work, reference).seconds)
        return outcome, len(refs) - 2

    def time_setup() -> tuple[float, int]:
        outcome, ref = timed(python + ["--version"])
        if outcome.exit_code != 0:
            raise SystemExit(f"xscore --version exited {outcome.exit_code}")
        return outcome.seconds, ref

    time_setup()  # writes the bytecode caches
    setup = [time_setup() for _ in range(SETUP_FIRST)]

    samples: list[list[tuple[float, int]]] = [[] for _ in requests]  # latencies per request
    records = [0] * len(requests)
    attempted = failed = peak_kb = passes = 0
    started = time.perf_counter()

    def finished() -> bool:
        return (time.perf_counter() - started >= seconds and attempted >= MIN_REQUESTS
                and passes >= MIN_PASSES)

    # Whole passes only: every request keeps its share of the latency sample,
    # so the percentiles do not move with the point where a run stops.
    while not finished():
        for index, request in enumerate(requests):
            outcome, ref = timed(python + list(request.argv))
            attempted += 1
            samples[index].append((outcome.seconds, ref))
            peak_kb = max(peak_kb, outcome.maxrss_kb)
            if outcome.exit_code == 0 and not outcome.timed_out:
                count = verifier.verify(index, request, out.read_text(encoding="utf-8"))
            else:
                count = verifier.fail(request, [f"exit {outcome.exit_code} after "
                                                f"{outcome.seconds:.1f}s"])
            if count is None:
                failed += 1
            else:
                records[index] = count
            if attempted % SETUP_EVERY == 0:
                setup.append(time_setup())
        passes += 1

    def scaled(sample: tuple[float, int]) -> float:
        seconds, ref = sample
        return seconds * REFERENCE_S / statistics.mean(refs[ref:ref + 2])

    def wall(sample: tuple[float, int]) -> float:
        return sample[0]

    return {
        "values": summarise([scaled(x) for x in setup],
                            [[scaled(x) for x in s] for s in samples], records, peak_kb),
        "wall_clock": summarise([wall(x) for x in setup],
                                [[wall(x) for x in s] for s in samples], records, peak_kb),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "latencies": {r.label: [wall(x) for x in s] for r, s in zip(requests, samples)},
        "setup_runs": [wall(x) for x in setup],
        "reference_runs": refs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "xscore" / "__main__.py").is_file():
        print(f"perfbench: no xscore sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    results = root / ".perfbench"
    results.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=results))
    verifier = Verifier(args.seed)
    try:
        requests = workloads.build(args.workload, args.seed, work, sys.executable)
        if args.trace:
            spans_path = results / f"{args.workload}-seed{args.seed}-spans.json"
            result = tracing.run(requests, args.seconds, src, verifier, spans_path)
        else:
            result = measure(requests, args.seconds, src, work, verifier)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = result.pop("values")
    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in wanted}

    correct = result["failed"] == 0 and verifier.blind == 0 and not result.get("unstable")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": correct,
        "requests_per_pass": [r.label for r in requests],
        "records_sha256": verifier.run_digest(),
        "problems": verifier.problems[:50],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        **result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    for problem in verifier.problems[:10]:
        print(f"problem: {problem}")
    for key, metric in result["metrics"].items():
        print(f"{key:40s} {metric['value']:14.6f} {metric['unit']}")
    for key, value in result.get("wall_clock", {}).items():
        print(f"{key + ' (wall clock)':40s} {value:14.6f}")
    print(f"{'error_rate':40s} {result['error_rate']:14.6f} ratio "
          f"({result['failed']}/{result['attempted']})")
    print(f"{'records_sha256':40s} {detail['records_sha256']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
