#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a short run length.

    python3 perfbench/smoke.py [--seeds 2017,4242] [--seconds 1]

For every workload of `BENCHMARK.json`, and the advisory serve-warm,
and every seed, runs `perfbench/run.py` untraced and traced and asserts
that the last line names every metric declared in `BENCHMARK.json`
(serve-warm untraced: `SERVE_METRICS` of `run.py`) with its unit and a
finite value, that the correctness gate passed with nothing failed, and
that the traced run carries every per-layer metric. The second default seed is held out: no bound or
pinned value was tuned on it. Exits non-zero on the first failure.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import SERVE_METRICS  # noqa: E402


def check(workload, seed, trace, seconds, declared):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    where = f"{workload} seed {seed} trace {trace}"
    assert done.returncode == 0, f"{where}: exit {done.returncode}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{where}: gate failed"
    assert result["attempted"] >= 1, f"{where}: nothing attempted"
    if trace:
        want = {m["name"]: m["unit"] for m in declared["per_layer"]}
    elif workload == "serve-warm":
        want = dict(SERVE_METRICS)
    else:
        want = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(want), f"{where}: metrics differ: {set(got) ^ set(want)}"
    for name, unit in want.items():
        value = got[name]["value"]
        assert got[name]["unit"] == unit, f"{where}: {name} unit {got[name]['unit']} != {unit}"
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name}={value}"
    if not trace:
        for name in want:
            assert got[name]["value"] != 0, f"{where}: end-to-end {name} reads 0"
    print(f"ok  {where}: {len(got)} metrics, {result['attempted']} attempted", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="2017,4242")
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for seed in [int(s) for s in args.seeds.split(",")]:
        for w in [w["name"] for w in declared["workloads"]] + ["serve-warm"]:
            for trace in (0, 1):
                check(w, seed, trace, args.seconds, declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
