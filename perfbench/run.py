#!/usr/bin/env python3
"""madnet performance benchmark: builds madnet_perfbench and runs one workload.

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 15 --trace 0

Run from the root of a madnet checkout. The first run builds madnet from
src/ together with madnet_perfbench (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. --trace 0
prints the end-to-end metrics, --trace 1 the per-layer ones and writes the
traced pass's span tree to <build>/spans/<workload>.jsonl. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The exit code is 0 only when every run's paper metrics were
correct; see perfbench/README.md for the metrics and the checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"
WORKLOADS = ("table2", "metro", "fig07_sweep", "marketplace")
# The seed whose paper metrics are committed under expected/.
DEFAULT_SEED = 1
PAPER_KEYS = ("delivery_rate_pct", "mean_delivery_time_s", "messages",
              "deliveries")

# End-to-end metrics of a --trace 0 run. TIMED are BENCHMARK.json's bounded
# metrics and go into the result line. RAW and PAPER (and failed_run_ratio)
# are printed with them but not bounded. The raw wall times follow the
# shared host's drift (up to 1.6x between minutes), which the wall times in
# units of the reference kernel ("ref") and setup_s, scaled to the kernel's
# speed on the reference host, cancel in large part. The paper metrics are exact
# functions of the seed, gated exactly by the correctness check, and vary
# more across seeds (metro's delivery rate by 24% between quartiles) than
# any bound allows.
TIMED = (
    ("wall_ref", "ref"),
    ("setup_s", "s"),
    ("sim_s_per_ref", "s/ref"),
    ("peak_rss_mb", "MB"),
)
RAW = (
    ("setup_wall_s", "s"),
    ("wall_s", "s"),
    ("sim_s_per_wall_s", "s/s"),
    ("ref_kernel_s", "s"),
)
PAPER = (
    ("delivery_rate_pct", "%"),
    ("mean_delivery_time_s", "s"),
    ("messages", "count"),
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds madnet_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no madnet source tree under {ROOT}; run from a checkout")
    out = build_dir()
    if not (out / "build.ninja").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-G",
                     "Ninja", "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "madnet_perfbench"


def run_binary(binary, workload, seed, seconds, trace, spans_out=None):
    """Runs madnet_perfbench once; returns its JSON report."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"madnet_perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("madnet_perfbench printed nothing")
    return json.loads(lines[-1])


def load_expected(workload):
    """The committed runs of `workload` at the default seed, keyed by id."""
    path = EXPECTED_DIR / f"{workload}.json"
    return {run["id"]: run for run in json.loads(path.read_text())["runs"]}


def plausible(run):
    """Bounds every run must meet on any seed (null = not finite)."""
    rate, time, messages = (run["delivery_rate_pct"],
                            run["mean_delivery_time_s"], run["messages"])
    return (rate is not None and 0.0 <= rate <= 100.0 and time is not None
            and time >= 0.0 and messages is not None and messages > 0.0)


def same_paper_metrics(run, want):
    """True when every paper metric both runs observed is identical.

    Floats compare bit-for-bit after the JSON round trip; a metric a pass
    could not observe is null and skipped.
    """
    return run["id"] == want["id"] and all(
        run[key] is None or want[key] is None or run[key] == want[key]
        for key in PAPER_KEYS)


def check_runs(report, expected):
    """The correctness gate: (attempted, failed) over every pass's runs.

    A run fails when it is implausible, differs from the same run of the
    reference pass (the first one the binary printed), or differs from
    `expected`, the committed runs keyed by id (None: nothing committed).
    """
    passes = report["passes"]
    reference = passes[0]
    attempted = sum(max(len(runs), len(reference)) for runs in passes)
    if expected is not None and len(expected) != len(reference):
        print(f"perfbench: {len(reference)} runs, {len(expected)} committed",
              file=sys.stderr)
        return attempted, attempted
    failed = 0
    for runs in passes:
        failed += abs(len(runs) - len(reference))
        for run, want in zip(runs, reference):
            committed = None if expected is None else expected.get(run["id"])
            ok = (plausible(run) and same_paper_metrics(run, want)
                  and (expected is None or (committed is not None and
                                            same_paper_metrics(run, committed))))
            if not ok:
                if failed < 10:
                    print(f"perfbench: run {run} fails; reference {want}, "
                          f"committed {committed}", file=sys.stderr)
                failed += 1
    return attempted, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(report):
    """Metric name -> (value, samples, p25, p75)."""
    runs = report["passes"][0]
    out = {}
    for name, values in report["samples"].items():
        p25, p75 = quartiles(values)
        out[name] = (statistics.median(values), len(values), p25, p75)
    for name in ("delivery_rate_pct", "mean_delivery_time_s", "messages"):
        out[name] = (statistics.fmean(run[name] for run in runs), len(runs),
                     None, None)
    return out


def print_end_to_end(report, metrics, failed, attempted):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"{len(report['passes'])} passes of {len(report['passes'][0])} runs "
          f"(closed loop)")
    for name, unit in TIMED + RAW + PAPER:
        value, n, p25, p75 = metrics[name]
        spread = "" if p25 is None else f"  p25 {p25:.6g}  p75 {p75:.6g}"
        print(f"  {name:24s} {value:14.6g} {unit:6s} n={n}{spread}")
    print(f"  {'failed_run_ratio':24s} {failed / attempted:14.6g} {'ratio':6s} "
          f"= {failed} failed / {attempted} runs attempted")


def print_layers(report):
    print(f"workload {report['workload']}  seed {report['seed']}  traced pass "
          f"{report['traced_wall_s']:.4f} s, untraced "
          f"{report['untraced_wall_s']:.4f} s, {report['spans']} spans")
    for name, metric in sorted(report["layers"].items()):
        # A ratio's count is its base (denominator); a timing's count is
        # the number of operations it averages over.
        label = "base" if metric["unit"] == "ratio" else "n"
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']:10s} "
              f"{label}={metric['samples']}")
    if report["workload"] == "marketplace":
        print("  (sim.*, mobility.legs: from a single-ad Scenario of the "
              "first run's base config; RunMultiAdScenario hides its "
              "simulator)")
    print("  span                        count      total_s       self_s")
    for name, totals in sorted(report["span_totals"].items()):
        print(f"  {name:26s} {totals['count']:7d} {totals['total_s']:12.6f} "
              f"{totals['self_s']:12.6f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    spans_out = None
    if args.trace == 1:
        spans_out = build_dir() / "spans" / f"{args.workload}.jsonl"
        spans_out.parent.mkdir(parents=True, exist_ok=True)
    report = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace, spans_out)

    expected = (load_expected(args.workload) if args.seed == DEFAULT_SEED
                else None)
    attempted, failed = check_runs(report, expected)

    if args.trace == 0:
        metrics = end_to_end(report)
        print_end_to_end(report, metrics, failed, attempted)
        result = {name: {"value": metrics[name][0], "unit": unit}
                  for name, unit in TIMED}
    else:
        print_layers(report)
        if spans_out is not None:
            print(f"  span tree: {spans_out}")
        result = {name: {"value": metric["value"], "unit": metric["unit"]}
                  for name, metric in sorted(report["layers"].items())}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
