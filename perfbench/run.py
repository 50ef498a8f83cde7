#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds `floodd` (root workspace) and the
`perfbench` crate in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs one workload. The last stdout line is the
result JSON; build output goes to stderr. Scratch files, span dumps and
result records go to `.bench_out/`. `--self-test` runs every workload
at tiny sizes, traced and untraced, and checks each result against
BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["sparse-suburb", "faulted-city-t2", "floodd-loopback", "connectivity-threshold"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
OUT_DIR = ".bench_out"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def cargo_build(args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *args],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed: cargo {' '.join(args)}")


def build():
    for needed in ["Cargo.toml", "crates/service/Cargo.toml", "perfbench/Cargo.toml"]:
        if not os.path.isfile(needed):
            fail(f"{needed} not found: run from the root of a full checkout")
    cargo_build(["-p", "fastflood-service", "--bin", "floodd"])
    cargo_build(["--manifest-path", "perfbench/Cargo.toml"])
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "floodd")


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs
        )
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_workload(binary, floodd, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout). Kills the whole
    process group (the benchmark and any daemon it started) on timeout."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--floodd", floodd, "--out", OUT_DIR,
        "--rev", revision(), "--rustc", rustc_version(), *extra,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def check_result(line, names, units):
    """Problems with one result line against the declared metrics."""
    res = json.loads(line)
    problems = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0 or res.get("attempted", 0) < 1:
        problems.append("not correct")
    metrics = res.get("metrics", {})
    if sorted(metrics) != sorted(names):
        problems.append(f"metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json")
    for name, m in metrics.items():
        if units.get(name) != m.get("unit"):
            problems.append(f"{name}: unit {m.get('unit')} != {units.get(name)}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value {m.get('value')!r}")
    return problems


def self_test(binary, floodd):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = [w["name"] for w in spec["workloads"]]
    if declared != WORKLOADS:
        fail(f"BENCHMARK.json workloads {declared} != {WORKLOADS}")
    failures = 0
    for workload in WORKLOADS:
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            names = [m["name"] for m in spec[key]]
            units = {m["name"]: m["unit"] for m in spec[key]}
            code, out = run_workload(binary, floodd, workload, 7, 1, trace, ["--tiny"])
            lines = out.strip().splitlines()
            problems = check_result(lines[-1], names, units) if lines else ["no output"]
            if code != 0:
                problems.append(f"exit code {code}")
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"self-test {workload:24s} trace={trace} {status}")
            if problems:
                failures += 1
                print(out, file=sys.stderr)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
    )
    print(f"self-test unit tests {'ok' if tests.returncode == 0 else 'FAILED'}")
    failures += tests.returncode != 0
    sys.exit(1 if failures else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    binary, floodd = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.self_test:
        self_test(binary, floodd)
    code, out = run_workload(binary, floodd, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
