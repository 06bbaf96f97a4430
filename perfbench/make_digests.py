#!/usr/bin/env python3
"""Regenerate perfbench/digests.json: the score-vector digests and the
Monte-Carlo nucleus counts of every workload for the committed seeds.

    python3 perfbench/make_digests.py

Run from the repository root.  Only run it when a change is meant to
alter the decompositions' outputs, and say so in the change.
"""

import json
import os
import shutil
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# Seeds 1-10 and the held-out seed 97 (see README.md).
SEEDS = list(range(1, 11)) + [97]


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, check=True,
    )
    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / f"digests-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out = {}
    try:
        for w in spec["workloads"]:
            out[w["name"]] = {}
            for seed in SEEDS:
                args = [w["name"], str(seed), str(work)]
                subprocess.run([str(binary), "gen"] + args, cwd=ROOT, check=True)
                line = subprocess.run(
                    [str(binary), "digest"] + args,
                    cwd=ROOT, check=True, capture_output=True, text=True,
                ).stdout.strip().splitlines()[-1]
                report = json.loads(line)
                out[w["name"]][str(seed)] = {
                    "digests": report["digests"],
                    "counts": report["counts"],
                }
                print(w["name"], seed, report["digests"], report["counts"], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
