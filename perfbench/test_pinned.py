#!/usr/bin/env python3
"""Pins the benchmark's exact work counts and paper metrics at the default seed.

    python3 perfbench/test_pinned.py            # check; exit 1 on any change
    python3 perfbench/test_pinned.py --update   # rewrite perfbench/expected/

For every workload it runs one traced pass at the default seed and compares
the exact per-layer counts below with perfbench/expected/<workload>.json. A
count is a pure function of the config, so any change, such as a 5%
algorithmic regression in events or deliveries, fails on every host.
The paper metrics in the same files are what run.py's correctness gate
checks; rewriting them must be explained in CHANGES.md. sim.events is
pinned here and deliberately not in the gate: removing idle events may
change it while the paper metrics stay bit-identical. On marketplace,
sim.events and mobility.legs are those of its single-ad stand-in Scenario
(see perfbench/README.md). --update writes a workload's file only when
every pass of its run reproduced the same paper metrics.
"""

import argparse
import json
import sys

import run

PINNED = ("sim.events", "net.broadcasts", "net.deliveries", "mobility.legs",
          "core.cache_evictions")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args()
    binary = run.build()
    failures = 0
    for workload in run.WORKLOADS:
        report = run.run_binary(binary, workload, run.DEFAULT_SEED, 1, 1)
        counts = {name: int(report["layers"][name]["value"])
                  for name in PINNED}
        path = run.EXPECTED_DIR / f"{workload}.json"
        if args.update:
            # Only values every pass reproduced may be committed.
            _, failed = run.check_runs(report, None)
            if failed:
                print(f"FAIL {workload}: {failed} runs differ between passes; "
                      f"{path} not written")
                failures += 1
                continue
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(
                {"seed": run.DEFAULT_SEED, "pinned_counts": counts,
                 "runs": report["passes"][0]}, indent=1) + "\n")
            print(f"wrote {path}")
            continue
        ok = True
        expected = json.loads(path.read_text())
        for name in PINNED:
            want = expected["pinned_counts"][name]
            if counts[name] != want:
                print(f"FAIL {workload} {name}: {counts[name]} != pinned {want}")
                ok = False
        _, failed = run.check_runs(report, run.load_expected(workload))
        if failed:
            print(f"FAIL {workload}: paper metrics of {failed} runs differ")
            ok = False
        print(f"ok   {workload}" if ok else f"FAIL {workload}")
        failures += 0 if ok else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
