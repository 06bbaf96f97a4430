#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script builds the measuring
program (``perfbench/Cargo.toml``, into ``$CARGO_TARGET_DIR`` or
``.bench_build``), generates the workload's inputs from the seed in a
process of its own, then measures them in a fresh process.  With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it makes an untraced and a traced run of the same
inputs and reports the per-layer metrics, the tracing overhead among
them.  Every metric is printed by name with its unit, then the output
checks, and the last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# Every run must end within 180 seconds; the measured process gets what
# the build and generation left of that, less a margin to clean up.
RUN_LIMIT_S = 170.0
# Per-workload digests of committed seeds (see README.md).
DIGESTS = HERE / "digests.json"
# End-to-end times summed to measure the tracing overhead.
OVERHEAD_METRICS = [
    "setup_s",
    "core_s",
    "truss_s",
    "nucleus_s",
    "nucleus_ap_s",
    "global_s",
    "weakly_s",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(env):
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        str(HERE / "Cargo.toml"),
    ]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        raise SystemExit("build failed")
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"


def run_child(binary, args, deadline):
    """Runs one measuring process to completion and returns its JSON
    report."""
    try:
        proc = subprocess.run(
            [str(binary)] + args,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit("measuring process ran out of time")
    if proc.returncode != 0:
        raise SystemExit(f"measuring process failed with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("measuring process printed nothing")
    return json.loads(lines[-1])


def committed_checks(workload, seed, report):
    """Checks against the digests and nucleus counts committed for this
    workload and seed, when there are any."""
    try:
        committed = json.loads(DIGESTS.read_text())[workload][str(seed)]
    except (OSError, KeyError, ValueError):
        return []
    checks = []
    for name, value in committed["digests"].items():
        checks.append(
            {
                "name": f"committed digest: {name}",
                "ok": report["digests"].get(name) == value,
            }
        )
    for name, value in committed["counts"].items():
        checks.append(
            {
                "name": f"committed count: {name}",
                "ok": report["counts"].get(name) == value,
            }
        )
    return checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one of {names}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    binary = build(env)
    # The first run in a checkout builds; only the measuring gets a limit.
    deadline = time.monotonic() + RUN_LIMIT_S

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        gen = [str(binary), "gen", args.workload, str(args.seed), str(work)]
        if subprocess.run(gen, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            raise SystemExit("input generation failed")
        run = ["run", args.workload, str(args.seed), str(args.seconds)]
        report = run_child(binary, run + ["0", str(work)], deadline)
        values = dict(report["metrics"])
        committed = committed_checks(args.workload, args.seed, report)
        checks = report["checks"] + committed
        attempted = report["attempted"] + len(committed)
        failed = report["failed"] + sum(1 for c in committed if not c["ok"])
        if args.trace:
            traced = run_child(binary, run + ["1", str(work)], deadline)
            untraced_s = sum(report["metrics"][m] for m in OVERHEAD_METRICS)
            traced_s = sum(traced["metrics"][m] for m in OVERHEAD_METRICS)
            values = {**traced["metrics"], **traced["layers"]}
            values["trace.overhead_s"] = traced_s - untraced_s
            values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
            checks += traced["checks"]
            attempted += traced["attempted"]
            failed += traced["failed"]
            kept = ROOT / ".bench_work" / "traces" / f"{args.workload}-{args.seed}.jsonl"
            kept.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(work / "trace.jsonl"), kept)
            log(f"spans written to {kept.relative_to(ROOT)}")
        values["failed_frac"] = failed / max(attempted, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            checks.append({"name": f"metric {m['name']} measured", "ok": False})
            failed += 1
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{m['name']:<40} {v:>16.6g} {m['unit']}")
    bad = [c["name"] for c in checks if not c["ok"]]
    for c in checks:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}")
    correct = not bad and failed == 0
    print(f"output checks: {'PASS' if correct else 'FAIL'} ({len(checks)} checks, {len(bad)} failed)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(int(attempted), 1),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
