#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload and seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds two binaries of the `perfbench` package
from source: a plain one for the end-to-end run (`--trace 0`) and one with
the `obs` feature for the traced per-layer run (`--trace 1`). Build outputs go
under `$CARGO_TARGET_DIR` (default `.bench_build`), and so does the full report
of each run (`perfbench-results/`), which adds the host stamp: nproc, CPU model,
LLC size, total memory, rustc version, git revision or source digest, and
cargo features.

A traced run first repeats the workload untraced with the same seed and
reports `trace.overhead_frac`, the share of end-to-end throughput lost to
tracing. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}. Any failure to build or run
exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 170


def fail(msg, code=3):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def build(variant, features):
    out = target_dir() / f"perfbench-{variant}"
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(MANIFEST), "--target-dir", str(out)] + features
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"cannot build the {variant} benchmark: {e}")
    if p.returncode != 0:
        fail(f"building the {variant} benchmark failed (exit {p.returncode})")
    return out / "release" / "nss-perfbench"


def read(path, default=""):
    try:
        return Path(path).read_text()
    except OSError:
        return default


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            inside = p.relative_to(ROOT).parts
            if ("target" in inside or any(x.startswith(".") for x in inside)
                    or not p.is_file()):
                continue
            if p.suffix in (".rs", ".toml", ".lock", ".py", ".json"):
                files.append(p)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def host_stamp(features):
    cpu = next((line.split(":", 1)[1].strip()
                for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), None)
    llc, level = None, 0
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        lv = int(read(idx / "level", "0").strip() or 0)
        if lv >= level:
            level, llc = lv, read(idx / "size").strip() or None
    mem = next((line.split(":", 1)[1].strip()
                for line in read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), None)
    rev = command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "llc": llc,
        "llc_level": level,
        "mem_total": mem,
        "rustc": command_output(["rustc", "--version"]),
        "git_rev": rev,
        "source_sha256": source_digest(),
        "features": features,
    }


def run_binary(binary, args, trace, setups, report, spans, deadline):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--report", str(report)]
    if setups is not None:
        cmd += ["--setups", str(setups)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark run failed: {e}")
    if p.returncode != 0:
        fail(f"benchmark exited {p.returncode}")
    lines = p.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1]), json.loads(read(report))
    except (IndexError, ValueError) as e:
        fail(f"unreadable benchmark output: {e}")


def validate(result, names):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if set(result["metrics"]) != set(names):
        fail(f"metrics {sorted(set(result['metrics']) ^ set(names))} do not match BENCHMARK.json")
    for name, m in result["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {name} is not a finite number: {v!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)

    plain = build("plain", [])
    traced = build("traced", ["--features", "obs"])
    deadline = time.monotonic() + RUN_BUDGET_S
    out = target_dir() / "perfbench-results"
    out.mkdir(parents=True, exist_ok=True)
    stem = out / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    twin = None
    if args.trace:
        # One set-up each: the traced figures are per call, and the
        # untraced twin only prices the tracing.
        base, twin = run_binary(plain, args, 0, 1, f"{stem}-untraced.json",
                                None, deadline)
        result, report = run_binary(traced, args, 1, 1, f"{stem}-report.json",
                                    f"{stem}-spans.json", deadline)
        untraced = twin["end_to_end"]["throughput_per_s"]["value"]
        traced_tp = report["end_to_end"]["throughput_per_s"]["value"]
        if not untraced > 0:
            fail("the untraced twin run measured no throughput")
        result["metrics"]["trace.overhead_frac"]["value"] = 1.0 - traced_tp / untraced
        result["correct"] = result["correct"] and base["correct"]
        result["attempted"] += base["attempted"]
        result["failed"] += base["failed"]
        names = [m["name"] for m in bench["per_layer"]]
    else:
        result, report = run_binary(plain, args, 0, None, f"{stem}-report.json",
                                    None, deadline)
        names = [m["name"] for m in bench["end_to_end"]]
    validate(result, names)

    host = host_stamp(["obs"] if args.trace else [])
    full = {"host": host, "result": result, "report": report, "untraced_twin": twin}
    (Path(f"{stem}.json")).write_text(json.dumps(full, indent=1) + "\n")
    print("host: " + json.dumps(host))
    print("digest: " + json.dumps(report["digest"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
