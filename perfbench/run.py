#!/usr/bin/env python3
"""Build the program and the benchmark from source, run one workload, and
check that the result names exactly the metrics BENCHMARK.json declares.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

With --workload all it runs every workload of BENCHMARK.json in turn.

Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
(default: .bench_build), inputs and scratch files to .bench_work; both are
inside the checkout, and .bench_work is removed when the run ends.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170
SELF_CHECK_TIMEOUT = 900


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def revision():
    """The git revision, or a digest of the sources when not in git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "shims"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "rcm-order"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT,
                                  stdout=sys.stderr, stderr=sys.stderr)
        except subprocess.TimeoutExpired:
            die(f"build timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")


def run_one(args, spec, target):
    """Run the benchmark binary once; check and print its output."""
    work = os.path.join(ROOT, ".bench_work")
    cmd = [
        os.path.join(target, "release", "rcm-perfbench"), *args,
        "--cli-bin", os.path.join(target, "release", "rcm-order"),
        "--work-dir", work, "--rev", revision(),
    ]
    self_check = "--self-check" in args
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SELF_CHECK_TIMEOUT if self_check else RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        die("run timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or self_check:
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            die(f"benchmark exited with {done.returncode}")
        return
    lines = done.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    trace = args[args.index("--trace") + 1] == "1" if "--trace" in args else False
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die(f"metrics differ from BENCHMARK.json: declared {sorted(declared.items())}, "
            f"printed {sorted(got.items())}")
    sys.stdout.write(done.stdout)


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        die("run from the root of a checkout (no Cargo.toml here)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target)
    if "--workload" in args and args[args.index("--workload") + 1] == "all":
        at = args.index("--workload") + 1
        for w in spec["workloads"]:
            run_one(args[:at] + [w["name"]] + args[at + 1:], spec, target)
    else:
        run_one(args, spec, target)


if __name__ == "__main__":
    main()
