#!/usr/bin/env python3
"""Build and run one workload of the Jigsaw benchmark.

    python3 perfbench/run.py --workload serve_ffn --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the
library and jigsaw_perfbench (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only re-check the build.
jigsaw_perfbench is started with OMP_NUM_THREADS=1, so parallelism comes
only from the workload's own engine workers and client threads. The last
line of stdout is its JSON result; any failure exits non-zero without one.

Extra flag, for the self-tests (perfbench/selftest.py):
  --inject-wrong-reference    shift every reference so each op must fail
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LIBRARY = os.path.join(os.path.dirname(HERE), "src", "CMakeLists.txt")
WORKLOADS = ("serve_ffn", "mlp_forward", "update_stream")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def configured(out_dir):
    """True when out_dir holds a completed configure of this source tree."""
    if not os.path.exists(os.path.join(out_dir, "Makefile")):
        return False
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    source = line.split("=", 1)[1].strip()
                    return os.path.realpath(source) == os.path.realpath(HERE)
    except OSError:
        pass
    return False


def build(out_dir):
    """Configures (when needed) and builds jigsaw_perfbench; output goes to
    stderr. A cache left by a failed configure, or by a configure of another
    source tree, is discarded first: CMake would otherwise reuse it and the
    build would find no build system."""
    if not os.path.exists(LIBRARY):
        sys.exit("perfbench: no library sources at %s; run from a full "
                 "checkout of the repository" % os.path.dirname(LIBRARY))
    steps = []
    if not configured(out_dir):
        for stale in ("CMakeCache.txt", "CMakeFiles"):
            path = os.path.join(out_dir, stale)
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.remove(path)
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out_dir, "--target", "jigsaw_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "jigsaw_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong-reference", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.inject_wrong_reference:
        cmd.append("--inject-wrong-reference")

    env = dict(os.environ, OMP_NUM_THREADS="1", OMP_DYNAMIC="false")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: jigsaw_perfbench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
