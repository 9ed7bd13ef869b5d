#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

    python3 perfbench/run.py --workload compact-batch --seed 1 --seconds 20 --trace 0

Builds the Go benchmark from the checkout's source into .bench_build/ and
runs one workload in a fresh process, relaying its output; the last line
is the JSON result. Every file it writes (build cache, binary, the empty
plan-store directory, traces) stays under .bench_build/ in the checkout.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    # Keep the toolchain's caches and config inside the checkout, offline.
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "HOME": os.path.join(BUILD, "home"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "home", ".config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "home", ".cache"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    for d in ("gocache", "gopath", "tmp", "home"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    return env


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s: the library source is missing" % ROOT, file=sys.stderr)
        return 2
    env = go_env()
    binary = os.path.join(BUILD, "bin", "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=800)
    except subprocess.TimeoutExpired:
        build = None
    if build is None or build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    tmp = os.path.join(BUILD, "tmp")
    store = tempfile.mkdtemp(prefix="store-", dir=tmp)
    run_env = dict(os.environ)
    # An empty, private plan-store directory: no run warms the next.
    run_env.update({"IATF_STORE_DIR": store, "TMPDIR": tmp, "HOME": env["HOME"],
                    "XDG_CACHE_HOME": env["XDG_CACHE_HOME"]})
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-trace-dir", traces]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=run_env, timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(store, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
