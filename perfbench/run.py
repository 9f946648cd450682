"""artloc benchmark: real CLI jobs, each in a fresh interpreter, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --summary [--seed N] [--seconds S]

Run from the root of a checkout. One client runs the workload's jobs in a
closed loop (the next job starts when the previous one has exited), pass
after pass, for about S seconds; a pass that would end past S is not
started, except the first. Every job's mathematical output is checked
against its pin (workloads.py). The last line of standard output is the
result object; the line before it holds provenance.

All times are scaled to a reference CPU speed, measured during the jobs by
a probe on their CPU (probe.py). --trace 0 reports the end-to-end metrics,
medians over passes; when the passes give fewer than SETUP_SAMPLES set-up
times, set-up passes add more. --trace 1 alternates untraced and traced
passes and reports the per-layer metrics of the traced ones (tracing.py),
plus the tracing overhead. --smoke is the benchmark's self-check; --summary
runs every workload both ways, prints every metric with fail_ratio, and
rewrites BENCHMARK.json from the definitions below. README.md has the
rationale.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

import tracing
import workloads
from probe import REFERENCE_CHUNKS_PER_S, SpeedProbe
from workloads import Job

ROOT = os.getcwd()
WORK = os.path.join(ROOT, "perfbench", "_work")
RUN_SECONDS = 20
# a job still running this long after the run started is killed and counted
# as failed, so that a run ends within 180 s
RUN_LIMIT_S = 170
# a run whose timed passes give fewer set-up samples than this adds set-up
# passes (each job stopped once its ring is loaded) until it has this many
SETUP_SAMPLES = 3
# the probe gets a slice of its CPU only every 0.1 to 0.2 s, so a pass shorter
# than about 1.5 s (set-up passes, smoke jobs) can see a handful of chunks or none
MIN_PROBE_CHUNKS = 50
MAX_DRAWS = 8
# a linalg entry call eliminating fewer cells than this is "small": its cost
# is mostly Python call overhead, not arithmetic (32 x 32 = 1024)
SMALL_CELLS = 1024

# (name, unit, bound); bound is the share of the parent's median a metric may worsen
END_TO_END = (
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric."""
    out: list[tuple[str, str, str]] = []
    for name in tracing.SPAN_NAMES:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
                (f"{name}.total_s", "s", "lower")]
    out += [
        ("extensions.candidates", "count", "lower"),
        ("extensions.kept_ratio", "ratio", "higher"),
        ("modules.is_isomorphic.hit_ratio", "ratio", "higher"),
        ("linalg.entry_calls", "count", "lower"),
        ("linalg.cells", "count", "lower"),
        ("linalg.small_call_share", "ratio", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    out += [(f"job.{group}.wall_s", "s", "lower") for group in workloads.every_job_group()]
    return out


PER_LAYER = per_layer_metrics()


@dataclass
class JobResult:
    job: Job
    wall_s: float
    setup_s: float
    rss_mb: float
    error: Optional[str]  # None when exit code and pinned output match
    trace: Optional[dict]  # tracing.summarize() of the job's spans
    probe_chunks: int  # speed-probe chunks done while the job ran
    probe_cpu_ns: int  # and the probe CPU time they took


def _check(job: Job, mode: str, code: int, report_path: str, stats: Optional[dict]) -> Optional[str]:
    if stats is None:
        return f"exit code {code} and no stats written"
    if stats["raised"]:
        return "raised: " + stats["raised"].strip().splitlines()[-1]
    if mode == "setup":
        return None if code == 0 else f"set-up exited with code {code}"
    if code != job.code:
        return f"exit code {code}, pinned {job.code}"
    try:
        with open(report_path, encoding="utf-8") as fh:
            results = json.load(fh)["results"]
        got = job.view(results)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"report unreadable or lacks a pinned field: {exc!r}"
    if got != job.pin:
        return f"got {got}, pinned {job.pin}"
    return None


def run_job(job: Job, index: int, workdir: str, mode: str, deadline: float,
            probe: SpeedProbe) -> JobResult:
    """Run one job in `mode` (see job.py) in a fresh interpreter and check it."""
    base = os.path.join(workdir, f"{index:02d}-{job.name}")
    stats_path, report_path = base + ".stats.json", base + ".report.json"
    for path in (stats_path, report_path, stats_path + ".spans.npy"):
        if os.path.exists(path):
            os.remove(path)
    argv = [sys.executable, "perfbench/job.py", stats_path, str(index), mode, "--",
            *job.argv, "--quiet", "--json", report_path]
    with open(base + ".log", "wb") as log:
        chunks0, cpu0 = probe.sample()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        chunks1, cpu1 = probe.sample()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stats = None
    try:
        with open(stats_path, encoding="utf-8") as fh:
            stats = json.load(fh)
    except (OSError, ValueError):
        pass  # the job died before writing its stats; _check reports it
    error = _check(job, mode, proc.returncode, report_path, stats)
    summary = None
    if mode == "trace" and os.path.exists(stats_path + ".spans.npy"):
        summary = tracing.summarize(np.load(stats_path + ".spans.npy"), SMALL_CELLS)
    setup = stats["import_s"] + stats["load_ring_s"] if stats else 0.0
    return JobResult(job, wall, setup, usage.ru_maxrss / 1024, error, summary,
                     chunks1 - chunks0, cpu1 - cpu0)


def run_pass(jobs: list[Job], workdir: str, mode: str, deadline: float,
             probe: SpeedProbe) -> list[JobResult]:
    return [run_job(job, i, workdir, mode, deadline, probe) for i, job in enumerate(jobs)]


def speed(results: list[JobResult], run: list[JobResult]) -> float:
    """CPU speed during a pass's jobs, relative to the reference (probe.py).

    Seconds times speed are seconds at the reference speed. The probe's CPU
    time accrues in proportion to each job's wall time, so this is the
    wall-weighted mean speed over the pass. A pass whose jobs got fewer than
    MIN_PROBE_CHUNKS takes the speed over all jobs of the run instead."""
    if sum(r.probe_chunks for r in results) < MIN_PROBE_CHUNKS:
        results = run
    chunks = sum(r.probe_chunks for r in results)
    cpu_s = sum(r.probe_cpu_ns for r in results) / 1e9
    if not chunks:
        raise RuntimeError("the speed probe got no CPU time during the run")
    return chunks / cpu_s / REFERENCE_CHUNKS_PER_S


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def _layer_values(passes: list[list[JobResult]], run: list[JobResult]) -> dict[str, float]:
    """Per-layer metrics of one traced pass each, then the median over passes.
    Times are at the reference speed, like the end-to-end ones."""
    per_pass = []
    groups = workloads.every_job_group()
    for results in passes:
        v: dict[str, float] = {}
        traces = [r.trace for r in results if r.trace is not None]
        for name in tracing.SPAN_NAMES:
            for field in ("calls", "self_s", "total_s"):
                v[f"{name}.{field}"] = sum(t["spans"][name][field] for t in traces)
        candidates = v["extensions.extension_from_cocycle.calls"]
        iso_calls = v["modules.is_isomorphic.calls"]
        entry_calls = sum(t["linalg_entry_calls"] for t in traces)
        v["extensions.candidates"] = candidates
        v["extensions.kept_ratio"] = _ratio(sum(t["classes_kept"] for t in traces), candidates)
        v["modules.is_isomorphic.hit_ratio"] = _ratio(sum(t["iso_hits"] for t in traces), iso_calls)
        v["linalg.entry_calls"] = entry_calls
        v["linalg.cells"] = sum(t["linalg_cells"] for t in traces)
        v["linalg.small_call_share"] = _ratio(sum(t["linalg_small_calls"] for t in traces), entry_calls)
        for group in groups:
            v[f"job.{group}.wall_s"] = sum(r.wall_s for r in results if r.job.metric_group == group)
        factor = speed(results, run)
        per_pass.append({k: x * factor if k.endswith("_s") else x for k, x in v.items()})
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


@dataclass
class Measurement:
    metrics: dict[str, float]
    attempted: int
    failed: int
    errors: list[str]
    untraced_passes: int
    traced_passes: int
    setup_passes: int
    job_walls: dict[str, float]  # median untraced wall per job, not scaled
    pass_walls: list[float]  # untraced wall of each pass, not scaled
    pass_speeds: list[float]  # speed() of each untraced pass


def measure(jobs: list[Job], seconds: float, trace: bool, workdir: str, deadline: float,
            probe: SpeedProbe) -> Measurement:
    untraced: list[list[JobResult]] = []
    traced: list[list[JobResult]] = []
    setups: list[list[JobResult]] = []
    cycles: list[float] = []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        untraced.append(run_pass(jobs, workdir, "run", deadline, probe))
        if trace:
            traced.append(run_pass(jobs, workdir, "trace", deadline, probe))
        now = time.perf_counter()
        cycles.append(now - cycle_start)
        if now - start + statistics.median(cycles) > seconds:
            break

    while not trace and len(untraced) + len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(jobs, workdir, "setup", deadline, probe))
    every = [r for p in untraced + traced + setups for r in p]

    def scaled_wall(results: list[JobResult]) -> float:
        return sum(r.wall_s for r in results) * speed(results, every)

    wall = statistics.median(scaled_wall(p) for p in untraced)
    if trace:
        metrics = _layer_values(traced, every)
        metrics["trace.overhead_s"] = statistics.median(scaled_wall(p) for p in traced) - wall
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(sum(r.setup_s for r in p) * speed(p, every) for p in untraced + setups),
            "peak_rss_mb": statistics.median(max(r.rss_mb for r in p) for p in untraced),
        }
    errors = [f"{r.job.name}: {r.error}" for r in every if r.error]
    job_walls = {job.name: statistics.median(p[i].wall_s for p in untraced) for i, job in enumerate(jobs)}
    return Measurement(metrics, len(every), len(errors), errors, len(untraced), len(traced), len(setups),
                       job_walls, [sum(r.wall_s for r in p) for p in untraced],
                       [speed(p, every) for p in untraced])


# -- set-up outside timing ----------------------------------------------------------------


def prepare(workload: str, seed: int, workdir: str, deadline: float,
            probe: SpeedProbe) -> tuple[list[Job], dict]:
    """Compile the sources, warm the caches, and make the workload's inputs from the seed."""
    compileall.compile_dir(os.path.join(ROOT, "src", "artloc"), quiet=1)
    warm = [j for j in workloads.paper_corpus_jobs() if j.name == "ext1-goto"][0]
    run_job(warm, 99, workdir, "run", deadline, probe)
    draw: dict = {}
    ring = ""
    if workload == "ring-load":
        # a draw whose quartic pairs (a,b), (c,d), (e,f) hold an odd number of
        # unequal pairs has a common zero; a correct program rejects at most
        # two candidates in a row, so MAX_DRAWS failures mean the program is wrong
        ring = os.path.relpath(os.path.join(workdir, "gorenstein64.ring"), ROOT)
        for k in range(MAX_DRAWS):
            coeffs = workloads.gorenstein_candidate(seed, k)
            with open(os.path.join(ROOT, ring), "w", encoding="utf-8") as fh:
                fh.write(workloads.gorenstein_ring_text(coeffs, seed))
            check = run_job(workloads.ring_load_jobs(ring)[1], 98, workdir, "run", deadline, probe)
            if check.error is None:
                draw = {"coefficients": list(coeffs), "rejected_draws": k}
                break
        else:
            raise RuntimeError(f"no ring-load draw passed its pins for seed {seed}: {check.error}")
    return workloads.workload_jobs(workload, ring), draw


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "artloc")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or None


def provenance(workload: str, seed: int, seconds: float, trace: bool, m: Measurement, draw: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "samples": {"untraced_passes": m.untraced_passes, "traced_passes": m.traced_passes,
                    "setup_passes": m.setup_passes, "jobs_per_pass": len(m.job_walls)},
        "pass_wall_s": m.pass_walls,
        "pass_speed": m.pass_speeds,
        "median_job_wall_s": m.job_walls,
        "ring_load_draw": draw or None,
        "errors": m.errors[:20],
    }


def result_line(m: Measurement, trace: bool) -> dict:
    units = {name: unit for name, unit, _ in (PER_LAYER if trace else END_TO_END)}
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": m.metrics[name], "unit": unit} for name, unit in units.items()},
    }


def pin_to_one_cpu() -> None:
    """Pin this process, and so every job and the speed probe it starts, to
    one CPU: the probe must see the speed the jobs see. The jobs run with the
    default --workers 1."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    pin_to_one_cpu()
    try:
        deadline = time.perf_counter() + RUN_LIMIT_S
        with SpeedProbe(workdir) as probe:
            jobs, draw = prepare(workload, seed, workdir, deadline, probe)
            m = measure(jobs, seconds, trace, workdir, deadline, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return provenance(workload, seed, seconds, trace, m, draw), result_line(m, trace)


# -- self-check and summary ------------------------------------------------------------------


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": workloads.WHY[n]} for n in workloads.WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b} for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def smoke() -> int:
    """One small job per workload: every metric of BENCHMARK.json is emitted
    with its unit, and a deliberately wrong pin is counted as a failure."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if spec != benchmark_spec():
        problems.append("BENCHMARK.json differs from run.py's definitions (run --summary)")
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    workdir = os.path.join(WORK, f"smoke-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    pin_to_one_cpu()
    try:
        with SpeedProbe(workdir) as probe:
            for workload, jobs in workloads.smoke_jobs("").items():
                for trace in (False, True):
                    line = result_line(measure(jobs, 0, trace, workdir,
                                               time.perf_counter() + RUN_LIMIT_S, probe), trace)
                    got = {k: v["unit"] for k, v in line["metrics"].items()}
                    if got != want[trace]:
                        problems.append(f"{workload} trace={int(trace)}: metric names or units differ")
                    if line["failed"]:
                        problems.append(f"{workload} trace={int(trace)}: {line['failed']} failed jobs")
            job = workloads.smoke_jobs("")["paper-corpus"][0]
            wrong = measure([replace(job, pin=job.pin + 1)], 0, False, workdir,
                            time.perf_counter() + RUN_LIMIT_S, probe)
        if not wrong.failed / wrong.attempted > 0:
            problems.append("a wrong pin did not raise fail_ratio above 0")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def summary(seed: int, seconds: float) -> int:
    rows = []
    results = {}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            prov, line = run_workload(workload, seed, seconds, trace)
            results[f"{workload}/trace{int(trace)}"] = {"provenance": prov, "result": line}
            if not trace:
                rows.append((workload, "fail_ratio", line["failed"] / line["attempted"], "ratio"))
                rows += [(workload, k, v["value"], v["unit"]) for k, v in line["metrics"].items()]
            else:
                rows.append((workload, "trace.overhead_s", line["metrics"]["trace.overhead_s"]["value"], "s"))
    for workload, name, value, unit in rows:
        print(f"{workload:14s} {name:18s} {value:12.4f} {unit}")
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(benchmark_spec(), fh, indent=2)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--summary", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "artloc", "cli.py")):
        print("error: run from the root of an artloc checkout (src/artloc/cli.py not found)",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.summary:
        return summary(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    prov, line = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
