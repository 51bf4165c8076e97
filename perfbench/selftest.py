#!/usr/bin/env python3
"""Self-tests of the benchmark, on short smoke runs of every workload.

    python3 perfbench/selftest.py            # from the repository root

They prove three things:
  1. every end-to-end metric (--trace 0) and every per-layer metric
     (--trace 1) is printed by name with the unit BENCHMARK.json gives it;
  2. an injected wrong reference is counted as a failed op;
  3. sim_device_us and footprint_mib repeat exactly between two runs of
     one seed.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SMOKE = ["--seconds", "2"]
DETERMINISTIC = ("sim_device_us", "footprint_mib")


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)] + SMOKE + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("FAIL: %s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().split("\n")[-1])


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        sys.exit(1)


def same_names_and_units(result, metrics):
    want = {m["name"]: m["unit"] for m in metrics}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return want == got


def main():
    with open(MANIFEST) as f:
        manifest = json.load(f)
    for w in manifest["workloads"]:
        name = w["name"]
        first = run(name, 7, 0)
        expect(first["correct"] and first["failed"] == 0 and first["attempted"] >= 1,
               "%s: smoke run correct with %d ops" % (name, first["attempted"]))
        expect(same_names_and_units(first, manifest["end_to_end"]),
               "%s: every end-to-end metric printed with its unit" % name)
        second = run(name, 7, 0)
        for metric in DETERMINISTIC:
            a = first["metrics"][metric]["value"]
            b = second["metrics"][metric]["value"]
            expect(a == b, "%s: %s repeats exactly (%r)" % (name, metric, a))
        traced = run(name, 7, 1)
        expect(same_names_and_units(traced, manifest["per_layer"]),
               "%s: every per-layer metric printed with its unit" % name)
        broken = run(name, 7, 0, "--inject-wrong-reference")
        expect(not broken["correct"] and broken["failed"] >= 1,
               "%s: wrong reference counted as %d failed of %d"
               % (name, broken["failed"], broken["attempted"]))
    print("all self-tests passed")


if __name__ == "__main__":
    main()
