#!/usr/bin/env python3
"""Repository benchmark: build `perfbench` from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <fleet-cascade|live-drain|live-churn>
                             --seed N --seconds S --trace 0|1 [--record FILE]
    python3 perfbench/run.py --compare FILE_A FILE_B

The first form builds the `perfbench` package (its own Cargo workspace, with
path dependencies on the repository crates) in release mode, then runs the
workload in a fresh process.  It prints the host fingerprint (nproc, CPU
model, `rustc -V`), the process's metric table, and as the last line the
result object `{"correct", "attempted", "failed", "metrics"}`.  It exits 0
only when every correctness gate passed.  `--record FILE` also writes the
fingerprint and result to FILE.

The second form compares two recorded results metric by metric and refuses
(exit 3) when their host fingerprints differ.

See perfbench/README.md for the workloads, metrics and predictions.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"[run.py] {message}", file=sys.stderr)
    sys.exit(code)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint():
    try:
        rustc = subprocess.run(
            ["rustc", "-V"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"cannot run rustc -V: {err}")
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu": cpu_model(), "rustc": rustc}


def build():
    """Builds perfbench in release mode and returns the executable's path."""
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        fail(f"{ROOT} holds no repository sources (crates/core/Cargo.toml is missing)")
    command = [
        "cargo", "build", "--release", "--offline", "--locked",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "--message-format", "json-render-diagnostics",
    ]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"cargo build failed with exit code {proc.returncode}")
    for line in proc.stdout.splitlines():
        message = json.loads(line)
        if message.get("reason") == "compiler-artifact" and message.get("executable"):
            if message["target"]["name"] == "perfbench":
                return message["executable"]
    fail("cargo built no perfbench executable")


def run(args):
    exe = build()
    host = fingerprint()
    command = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", code=1)
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"perfbench printed nothing (exit code {proc.returncode})", code=1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"perfbench's last line is not a result: {lines[-1]!r}", code=1)
    if set(result) != RESULT_KEYS:
        fail(f"perfbench's result has keys {sorted(result)}", code=1)
    print(f"host {json.dumps(host)}")
    for line in lines:
        print(line)
    if args.record:
        record = {
            "host": host, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "result": result,
        }
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if proc.returncode == 0 and not result["correct"]:
        return 1
    return proc.returncode


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b))
    if a["host"] != b["host"]:
        print(f"refusing to compare: host fingerprints differ\n  {a['host']}\n  {b['host']}")
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("refusing to compare: different workloads or trace modes")
        return 3
    for name, metric in a["result"]["metrics"].items():
        other = b["result"]["metrics"].get(name)
        if other is None:
            print(f"{name:<40} only in {path_a}")
            continue
        ratio = other["value"] / metric["value"] if metric["value"] else float("nan")
        print(f"{name:<40} {metric['value']:>14.4f} -> {other['value']:>14.4f} "
              f"{metric['unit']:<6} x{ratio:.4f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["fleet-cascade", "live-drain", "live-churn"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", metavar="FILE")
    parser.add_argument("--compare", nargs=2, metavar="FILE")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
