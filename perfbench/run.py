#!/usr/bin/env python3
"""End-to-end discovery benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds `perfbench/` (a Rust package of its
own that links the repository's crates by path) in release mode, runs
one workload for about `--seconds` seconds, checks every output against
`perfbench/expected.json`, and prints one JSON object as the last line
of standard output. With `--trace 0` it holds every `end_to_end` metric
of `BENCHMARK.json`, with `--trace 1` every `per_layer` metric. It exits
with 1 when any output fails the check.

`serve-warm` is not in `BENCHMARK.json`: its figures move by a third
between runs of the same code on a shared 2-vCPU host, so it is run by
hand (`--workload serve-warm`) and prints the serve metrics of
`SERVE_METRICS` instead of the `end_to_end` set.

Everything else goes to standard error and to
`.bench_out/<workload>-s<seed>-t<trace>/`: `record.json` (all metrics,
sample counts, traffic properties and the stamp) and `spans.jsonl`.
See `perfbench/README.md` for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("builtin-cold", "builtin-warm", "static-population", "serve-warm")
# serve-warm's end-to-end metrics and units (see the module docs).
SERVE_METRICS = {"wall_s": "s", "task_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                 "success_rate": "ratio", "req_p50_ms": "ms", "req_p99_ms": "ms",
                 "req_per_s": "1/s"}
# Campaign workers and serve clients: two, never more than the cores.
PARALLEL = max(1, min(2, len(os.sched_getaffinity(0))))
MIN_REPS = 3
TRACE_PAIRS = 3
SERVE_SETUPS = 3


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def rep_seed(seed, rep):
    """Seed of repetition `rep`: the run's own seed first, then a
    SplitMix64 stream derived from it, so one run's median spans many
    inputs of the same shape."""
    if rep == 0:
        return seed
    mask = (1 << 64) - 1
    z = (seed + rep * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & 0xFFFFFFFF


def cpu_times():
    """Aggregate (busy, steal) jiffies from /proc/stat."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return sum(fields[:3]) + sum(fields[5:7]), fields[7]


def steal_share(busy, stolen):
    return stolen / max(busy + stolen, 1)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        raise BenchError("build failed")
    binary = target / "release" / "perfbench"
    profile = subprocess.run([str(binary), "profile"], cwd=ROOT, capture_output=True,
                             text=True)
    if profile.returncode != 0 or profile.stdout.strip() != "release":
        raise BenchError("refusing to time a build that is not a release build")
    return binary


def git_rev():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        return done.stdout.strip() if done.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for base in (ROOT / "crates", BENCH):
        files += [p for p in base.rglob("*")
                  if p.is_file() and p.suffix in (".rs", ".toml", ".json", ".py", ".lock")]
    for p in sorted(files):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, binary, workload, seed, seconds, work):
        self.bin = str(binary)
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.expected = json.loads((BENCH / "expected.json").read_text())
        self.n = 0
        self.origin = time.perf_counter()
        self.spans = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fresh_dir(self, name):
        self.n += 1
        d = self.work / f"{name}-{self.n}"
        d.mkdir(parents=True)
        return d

    def span(self, name, start, end, **fields):
        self.spans.append({"run": self.workload, "id": len(self.spans), "parent": None,
                           "layer": "process", "name": name,
                           "start_us": round((start - self.origin) * 1e6),
                           "end_us": round((end - self.origin) * 1e6), **fields})
        return len(self.spans) - 1

    def child(self, args):
        """Run the benchmark binary; returns its start time, its stdout
        lines and the time its last line arrived."""
        t0 = time.perf_counter()
        p = subprocess.Popen([self.bin] + [str(a) for a in args], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True)
        lines, t_last = [], t0
        try:
            for line in p.stdout:
                lines.append(line.rstrip("\n"))
                t_last = time.perf_counter()
        finally:
            code = p.wait()
        if code != 0:
            raise BenchError(f"perfbench {args[0]} exited with {code}")
        return t0, lines, t_last

    # ---- correctness gate ------------------------------------------------

    def problem(self, msg):
        self.problems.append(msg)
        log(f"CHECK FAILED: {msg}")

    def check_task(self, record):
        """Per-task verdict fields against expected.json; True on pass."""
        label = record["label"]
        kind, name = label.split(":", 1)
        result = record.get("result")
        if result is None:
            self.problem(f"{label}: no result ({record.get('error')})")
            return False
        (value,) = result.values()
        pinned = self.expected["tasks"]
        if kind == "arena":
            return self.check_arena(value["summary"])
        if kind in ("seh", "scan"):
            value = {"image_hash": value["image_hash"], **value["summary"]}
        want = pinned.get(kind, {}).get(name)
        if want is None:
            self.problem(f"{label}: no pinned verdict")
            return False
        got = {k: value.get(k) for k in want}
        if got != want:
            self.problem(f"{label}: {got} != pinned {want}")
            return False
        if kind == "server" and value["usable"] < 1:
            self.problem(f"{label}: no usable primitive")
            return False
        if kind == "poc" and (not value["located"] or value["crashed"]):
            self.problem(f"{label}: region not located or target crashed")
            return False
        return True

    def check_arena(self, row):
        """§VII-C headline, per strategy row."""
        cells = {p["detector"]: p for p in row["pairs"]}
        rounds = row["rounds"]
        ok = (row["located_rounds"] == rounds
              and cells["cusum"]["detected_rounds"] == rounds
              and cells["filter"]["blocked_escalations"] == 3 * rounds
              and all(p["false_positives"] == 0 for p in row["pairs"])
              and (row["strategy"] != "stealth" or cells["rate"]["detected_rounds"] == 0))
        if not ok:
            self.problem(f"arena:{row['strategy']}: headline broken: {row}")
        return ok

    def check_probe(self, verdicts, engine_records):
        """The probe's own verdict for each task it decomposed: the pinned
        fields and the arena headline, and, where the engine ran the same
        task on the same inputs, equality with the engine's result."""
        engine = {r["label"]: r["result"] for r in engine_records}
        failed = 0
        for v in verdicts:
            ok = self.check_task(v)
            if v["label"] in engine and v["result"] != engine[v["label"]]:
                self.problem(f"probe {v['label']}: {v['result']} != engine {engine[v['label']]}")
                ok = False
            failed += not ok
        self.attempted += len(verdicts)
        self.failed += failed

    def check_results(self, doc):
        """Gate one campaign results document; returns (tasks, failed)."""
        records = doc["records"]
        failed = sum(not self.check_task(r) for r in records)
        if self.workload == "static-population":
            totals = dict.fromkeys(self.expected["population_totals"], 0)
            for r in records:
                if r["label"].startswith("seh:") and r["label"] != "seh:loopy" and r["result"]:
                    for k in totals:
                        totals[k] += r["result"]["Seh"]["summary"][k]
            if totals != self.expected["population_totals"]:
                self.problem(f"§V-C totals {totals} != {self.expected['population_totals']}")
                failed += 1
        return len(records), failed

    def check_table1(self):
        """Table I: every server has a usable primitive, and memcached's
        epoll_wait is the only false positive."""
        t0, lines, t_end = self.child(["table1"])
        self.span("table1", t0, t_end)
        table = json.loads(lines[-1])
        fp = self.expected["table1"]["false_positive"]
        found = {(s, c) for s, row in table.items() for c in row["false_positives"]}
        bare = [s for s, row in table.items() if not row["usable"] and not row["false_positives"]]
        if bare:
            self.problem(f"Table I: no usable primitive on {bare}")
        if found != {(fp["server"], fp["syscall"])}:
            self.problem(f"Table I false positives {sorted(found)} != {fp}")
        self.attempted += 1
        self.failed += 1 if bare or found != {(fp["server"], fp["syscall"])} else 0

    # ---- batch workloads ---------------------------------------------------

    def campaign(self, seed, cache=None, trace=False, label="campaign"):
        d = self.fresh_dir("campaign")
        report = d / "report.json"
        args = ["campaign", "--workload", self.workload, "--seed", seed,
                "--jobs", PARALLEL, "--report", report]
        if cache is not None:
            args += ["--cache", cache]
        if trace:
            args += ["--trace-out", d / "trace.jsonl"]
        t0, lines, t_end = self.child(args)
        rep = json.loads(lines[-1])
        rep["wall_s"] = t_end - t0
        rep["results"] = (d / "report.results.json").read_bytes()
        self.span(label, t0, t_end, setup_cpu_us=round(rep["setup_s"] * 1e6))
        tasks, failed = self.check_results(json.loads(rep["results"]))
        self.attempted += tasks
        self.failed += failed
        return rep

    def prime(self):
        """The untimed cold run whose cache builtin-warm reads."""
        cache = self.fresh_dir("primed")
        return cache, self.campaign(self.seed, cache=cache, label="prime")

    def batch_cache(self, primed):
        return primed if primed is not None else self.fresh_dir("cache")

    def check_warm(self, rep, cold):
        if rep["results"] != cold["results"]:
            self.problem("builtin-warm results differ from the cold run's bytes")
            self.failed += 1

    def batch_end_to_end(self):
        primed, cold = self.prime() if self.workload == "builtin-warm" else (None, None)
        reps = []
        started = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - started < self.seconds:
            rep = self.campaign(self.seed if primed else rep_seed(self.seed, len(reps)),
                                cache=self.batch_cache(primed))
            if cold is not None:
                self.check_warm(rep, cold)
            reps.append(rep)
        metrics = {
            "wall_s": median([r["wall_s"] for r in reps]),
            "task_s": median([r["task_wall_us"] / 1e6 for r in reps]),
            "setup_s": median([r["setup_s"] for r in reps]),
            "peak_rss_mb": median([r["vmhwm_kb"] / 1024 for r in reps]),
        }
        samples = {"repetitions": len(reps)}
        return metrics, samples, {}

    def batch_per_layer(self):
        primed, cold = self.prime() if self.workload == "builtin-warm" else (None, None)
        plain, traced, first = [], [], None
        for i in range(TRACE_PAIRS):
            for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
                rep = self.campaign(self.seed if primed else rep_seed(self.seed, i),
                                    cache=self.batch_cache(primed), trace=is_traced,
                                    label="campaign-traced" if is_traced else "campaign")
                if cold is not None:
                    self.check_warm(rep, cold)
                first = first or rep
                (traced if is_traced else plain).append(rep)
        out = self.fresh_dir("probe") / "probe.json"
        args = ["probe", "--workload", self.workload, "--seed", self.seed,
                "--scratch", out.parent, "--out", out]
        if primed is not None:
            args += ["--cache", primed]
        t0, _, _ = self.child(args)
        probe = json.loads(out.read_text())
        parent = self.span("probe", t0, time.perf_counter())
        self.adopt_spans(probe["spans"], parent)
        # `first` ran at the probe's seed and, on builtin-warm, the same cache.
        self.check_probe(probe["verdicts"], json.loads(first["results"])["records"])
        self.check_probe(probe["fallback_verdicts"], [])
        if primed is not None and probe["cached_tasks"] != first["cached_tasks"]:
            self.problem(f"probe read {probe['cached_tasks']} results from the primed cache, "
                         f"the engine {first['cached_tasks']}")
            self.failed += 1

        layers = dict(probe["layers"])
        for key in traced[0]["layers"]:
            layers[key] = median([r["layers"][key] for r in traced if key in r["layers"]])
        for kind, ms in probe["fallback_task_ms"].items():
            layers.setdefault(f"campaign.task_ms.{kind}", ms)
        # The program's own stage spans over the task time of the same
        # traced campaign.
        layers["layers.attributed_ratio"] = median(
            [r["stage_us"] / r["task_wall_us"] for r in traced])
        layers["trace.overhead_ratio"] = (median([r["wall_s"] for r in traced])
                                          / median([r["wall_s"] for r in plain]) - 1)
        traffic = self.traffic(probe["self_us"], probe["tasks"], probe["cached_tasks"],
                               serve_share=0.0)
        samples = {"trace_pairs": TRACE_PAIRS, "probe_cached_tasks": probe["cached_tasks"]}
        return layers, samples, traffic

    def adopt_spans(self, spans, parent):
        base = len(self.spans)
        for s in spans:
            self.spans.append({**s, "run": f"{self.workload}/{s['run']}", "id": base + s["id"],
                               "parent": parent if s["parent"] is None else base + s["parent"]})

    @staticmethod
    def traffic(self_us, tasks, cached_tasks, serve_share):
        total = sum(self_us.values()) or 1
        emulation = sum(self_us.get(k, 0) for k in
                        ("emulate", "taint", "finder", "arena", "poc", "funnel"))
        return {"cache_share": cached_tasks / max(tasks, 1),
                "emulation_share": emulation / total,
                "symex_share": self_us.get("symex", 0) / total,
                "serve_share": serve_share}

    # ---- serve-warm --------------------------------------------------------

    def serve_child(self, phase, d, extra=()):
        out = d / f"{phase}-{self.n}.json"
        self.n += 1
        args = ["serve", "--phase", phase, "--seed", self.seed, "--scratch", d, "--out", out,
                "--refs", d / "refs.jsonl", *extra]
        t0, _, _ = self.child(args)
        return t0, out

    def serve(self, trace):
        """References, then SERVE_SETUPS - 1 setups in fresh processes, then
        the loop process, which sets up once more before its closed loop."""
        d = self.fresh_dir("serve")
        t0, _ = self.serve_child("refs", d)
        self.span("serve-references", t0, time.perf_counter())
        references = []
        for doc in (d / "refs.jsonl").read_text().splitlines():
            references += json.loads(doc)["records"]
            tasks, failed = self.check_results(json.loads(doc))
            self.attempted += tasks
            self.failed += failed
        setups, problems = [], []
        for _ in range(0 if trace else SERVE_SETUPS - 1):
            t0, out = self.serve_child("setup", d)
            res = json.loads(out.read_text())
            self.span("serve-setup", t0, time.perf_counter())
            setups.append(res["setup_s"])
            problems += res["problems"]
        extra = ["--seconds", self.seconds, "--clients", PARALLEL] + (["--trace"] if trace else [])
        t0, out = self.serve_child("loop", d, extra)
        res = json.loads(out.read_text())
        parent = self.span("serve-loop", t0, time.perf_counter())
        self.adopt_spans(res["spans"], parent)
        if trace:
            self.check_probe(res["verdicts"] + res["warm_verdicts"], references)
            self.check_probe(res["fallback_verdicts"], [])
        problems += res["problems"]
        for p in problems:
            self.problem(f"serve-warm: {p}")
        setups.append(res["end_to_end"]["setup_s"])
        res["end_to_end"]["setup_s"] = median(setups)
        self.attempted += res["attempted"] + len(setups)
        self.failed += res["failed"] + len(problems)
        samples = {"requests": res["samples"], "windows": res["windows"], "setups": len(setups)}
        return res, samples

    def serve_end_to_end(self):
        res, samples = self.serve(trace=False)
        return res["end_to_end"], samples, {"request_cache_share": res["from_cache"] / res["completed"]}

    def serve_per_layer(self):
        res, samples = self.serve(trace=True)
        layers = res["layers"]
        serve_share = layers["serve.overhead_ms"] / max(layers["serve.solo_ms"], 1e-9)
        traffic = self.traffic(res["self_us"], res["tasks"], res["cached_tasks"], serve_share)
        traffic["request_cache_share"] = res["from_cache"] / res["completed"]
        return layers, samples, traffic


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2017)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        binary = build()
        out = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
        shutil.rmtree(out, ignore_errors=True)
        work = out / "work"
        work.mkdir(parents=True)
        runner = Runner(binary, args.workload, args.seed, args.seconds, work)
        busy0, steal0 = cpu_times()
        if args.workload in ("builtin-cold", "builtin-warm"):
            runner.check_table1()
        if args.workload == "serve-warm":
            values, samples, traffic = (runner.serve_per_layer() if args.trace
                                        else runner.serve_end_to_end())
        else:
            values, samples, traffic = (runner.batch_per_layer() if args.trace
                                        else runner.batch_end_to_end())
    except BenchError as e:
        log(f"error: {e}")
        return 1

    if not args.trace:
        values["success_rate"] = 1 - runner.failed / max(runner.attempted, 1)
    if args.trace:
        section = declared["per_layer"]
    elif args.workload == "serve-warm":
        section = [{"name": k, "unit": u} for k, u in SERVE_METRICS.items()]
    else:
        section = declared["end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        log(f"error: metrics not measured: {missing}")
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}

    busy1, steal1 = cpu_times()
    stamp = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "seconds": args.seconds, "nproc": os.cpu_count(), "parallel": PARALLEL,
             "git_rev": git_rev(), "source_sha256": source_digest(), "profile": "release",
             "samples": samples,
             # Share of CPU time the host took from this machine during the run.
             "cpu_steal_share": round(steal_share(busy1 - busy0, steal1 - steal0), 4)}
    correct = runner.failed == 0 and not runner.problems
    record = {"stamp": stamp, "correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "problems": runner.problems, "traffic": traffic,
              "metrics": metrics}
    (out / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    (out / "spans.jsonl").write_text("".join(json.dumps(s) + "\n" for s in runner.spans))
    shutil.rmtree(work, ignore_errors=True)

    log(f"stamp {json.dumps(stamp)}")
    log(f"traffic {json.dumps(traffic)}")
    for name, m in metrics.items():
        log(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    log(f"correct={correct} attempted={runner.attempted} failed={runner.failed}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
