#!/usr/bin/env python3
"""The benchmark's own tests, in a few seconds after the build.

    python3 perfbench/test_smoke.py

Runs every workload at its smoke size, untraced and traced, and checks
that each prints a result line naming exactly the metrics BENCHMARK.json
lists, with every output correct; then runs --self-check, which must see
every check fire on a corrupted output.  Writes no tracked file.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SPEC = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))


def run(args):
    p = subprocess.run([sys.executable, RUN] + args, capture_output=True, text=True,
                       timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"FAIL: run.py {' '.join(args)} exited {p.returncode}")
    return p.stdout


def main():
    failures = 0
    for w in SPEC["workloads"]:
        for trace in ("0", "1"):
            out = run(["--workload", w["name"], "--seed", "3", "--seconds", "1",
                       "--trace", trace, "--smoke"])
            r = json.loads(out.strip().splitlines()[-1])
            kind = "per_layer" if trace == "1" else "end_to_end"
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            ok = (set(r) == {"correct", "attempted", "failed", "metrics"}
                  and r["correct"] and r["failed"] == 0 and r["attempted"] > 0
                  and got == want
                  and all(isinstance(v["value"], (int, float)) for v in r["metrics"].values()))
            print(f"{'ok  ' if ok else 'FAIL'} {w['name']} --trace {trace}: "
                  f"{r['attempted']} operations, {len(got)} metrics")
            failures += not ok
    out = run(["--self-check"])
    fired = out.strip().splitlines()[-1] == "self-check: every check fired"
    print(f"{'ok  ' if fired else 'FAIL'} self-check")
    failures += not fired
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
