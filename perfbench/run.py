"""Closed-loop benchmark of the tlbgram command line.

Usage:
    python3 perfbench/run.py --workload {basis,nullity,symbolic,all}
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --summary

One client runs one cold ``python -m tlbgram.cli ... --format json``
process at a time, spawned and timed by launcher.py; the next starts
only after the previous has exited.  Every verdict is checked by the
oracle.  With --trace 0 the run reports
the end-to-end metrics; with --trace 1 it runs the first half of the
same job list plainly and then again through the tracing shim, and
reports the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object; each run is also appended to
perfbench/.runs/runs.jsonl and summarized in perfbench/.runs/summary.json.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from oracle import verdict
from layers import PER_LAYER, per_layer, unit_of
from workloads import WARMUP, WORKLOADS, Job, job_list, rounds_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"

SETUP_PASSES = 3
JOB_TIMEOUT_S = 60
# Stop starting jobs after this long, so a run that has become very slow
# still exits within three minutes.
LAUNCH_DEADLINE_S = 110.0
TAIL_BEYOND = 10

END_TO_END = {
    "verdicts_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Result:
    job: Job
    wall: float
    spawn: float
    exit_code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    reason: str = ""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "TLBGRAM_ALLOW_LARGE")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """The small process that spawns every job and times it (launcher.py)."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, job: Job, spans_file: Path | None = None) -> Result:
        """Spawn one CLI process, wait for it, and time spawn to exit."""
        if spans_file is None:
            cmd = [sys.executable, "-m", "tlbgram.cli", *job.argv()]
        else:
            cmd = [sys.executable, str(HERE / "shim.py"), str(spans_file),
                   *job.argv()]
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        request = [str(JOB_TIMEOUT_S), str(out_path), str(err_path), *cmd]
        self.proc.stdin.write("\t".join(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 5:
            raise RuntimeError(f"launcher failed on {job.label()!r}")
        wall, spawn, code, maxrss, killed = reply
        return Result(job, float(wall), float(spawn), int(code), killed == "1",
                      out_path.read_bytes(), err_path.read_bytes(), int(maxrss))


def run_list(jobs: list[Job], launcher: Launcher, started: float,
             trace_dir: Path | None = None) -> tuple[list[Result], float, list[dict]]:
    """Closed loop over the jobs; returns results, loop wall and traces."""
    results, traces = [], []
    loop_start = time.perf_counter()
    for index, job in enumerate(jobs):
        if time.perf_counter() - started > LAUNCH_DEADLINE_S:
            break
        spans_file = None if trace_dir is None else trace_dir / f"{index}.json"
        result = launcher.run(job, spans_file)
        results.append(result)
        if spans_file is not None:
            with open(spans_file) as handle:
                traces.append({"job": index, "spawn": result.spawn,
                               "wall": result.wall,
                               "stdout_bytes": len(result.stdout),
                               "trace": json.load(handle)})
    wall = time.perf_counter() - loop_start
    for r in results:
        r.reason = verdict(r.job, r.exit_code, r.stdout, r.stderr, r.timed_out)
    return results, wall, traces


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 jobs beyond."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def source_commit() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tlbgram").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 started: float) -> dict:
    scratch = RUNS / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    with Launcher(scratch) as launcher:
        return _run_workload(workload, seed, seconds, traced, started, launcher)


def _run_workload(workload: str, seed: int, seconds: float, traced: bool,
                  started: float, launcher: Launcher) -> dict:
    rounds = rounds_for(workload, seconds)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(traced), **source_commit(),
              "python": platform.python_version(), "nproc": os.cpu_count()}
    setup_walls, setup_failed = [], []
    for _ in range(1 if traced else SETUP_PASSES):
        warm, wall, _ = run_list(list(WARMUP[workload]), launcher, started)
        setup_walls.append(wall)
        setup_failed += [r for r in warm if r.reason]
    if traced:
        rounds = max(1, rounds // 2)
        jobs = job_list(workload, seed, rounds)
        plain, plain_wall, _ = run_list(jobs, launcher, started)
        trace_dir = RUNS / "spans-tmp"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        results, wall, traces = run_list(jobs[:len(plain)], launcher, started,
                                         trace_dir)
        shutil.rmtree(trace_dir, ignore_errors=True)
        layer = per_layer(traces)
        job_walls = sum(t["wall"] for t in traces)
        accounted = layer["cli.startup_s"] + sum(
            sum(s["dur"] for s in t["trace"]["spans"] if s["parent"] == 0)
            for t in traces)
        layer["trace.overhead_s"] = wall - plain_wall
        layer["trace.overhead_share"] = (wall - plain_wall) / plain_wall
        layer["trace.accounted_share"] = accounted / job_walls if job_walls else 0.0
        metrics = {name: layer[name] for name in PER_LAYER}
        record.update(untraced_wall_s=plain_wall, traced_wall_s=wall,
                      traced_job_wall_s=job_walls, accounted_s=accounted,
                      other_self_s={k: v for k, v in layer.items()
                                    if k.endswith(".other_s")})
        spans_out = RUNS / f"spans-{workload}-seed{seed}.json"
        with open(spans_out, "w") as handle:
            json.dump([dict(s, job=t["job"]) for t in traces
                       for s in t["trace"]["spans"]], handle)
        record["spans_file"] = str(spans_out.relative_to(ROOT))
    else:
        jobs = job_list(workload, seed, rounds)
        results, wall, _ = run_list(jobs, launcher, started)
        walls = [r.wall for r in results]
        tail_value, tail_pct = tail(walls)
        metrics = {
            "verdicts_per_s": sum(1 for r in results if not r.reason) / wall,
            "job_s_p50": statistics.median(walls),
            "job_s_tail": tail_value,
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": max(r.maxrss_kb for r in results) / 1024,
        }
        record.update(tail_percentile=tail_pct, run_wall_s=wall,
                      setup_walls_s=setup_walls)
    failed = [r for r in results if r.reason]
    record.update(
        rounds=rounds, job_count=len(results), complete=len(results) == len(jobs),
        planned_jobs=len(jobs), attempted=len(results), failed=len(failed),
        fail_share=len(failed) / len(results) if results else 1.0,
        known_bug_failures=sum(1 for r in failed if r.job.known_bug),
        correct=all(r.job.known_bug for r in failed) and not setup_failed,
        metrics=metrics,
        failures=[{"job": r.job.label(), "reason": r.reason,
                   "known_bug": r.job.known_bug} for r in failed + setup_failed],
        jobs=[{"job": r.job.label(), "wall_s": r.wall, "exit": r.exit_code,
               "maxrss_kb": r.maxrss_kb, "ok": not r.reason} for r in results],
    )
    return record


def print_report(record: dict) -> None:
    w = record["workload"]
    n = record["job_count"]
    mode = "traced" if record["trace"] else "untraced"
    print(f"[{w}] seed {record['seed']}, {mode}, {n} jobs in "
          f"{record['rounds']} rounds, one client, python {record['python']}, "
          f"nproc {record['nproc']}")
    for name, value in record["metrics"].items():
        unit = END_TO_END.get(name) or unit_of(name)
        extra = ""
        if name == "job_s_tail":
            extra = f"  (p{record['tail_percentile']:.1f} of {n} jobs)"
        print(f"[{w}] {name} = {value:.6g} {unit}{extra}")
    print(f"[{w}] fail_share = {record['fail_share']:.4f} ratio  "
          f"({record['failed']} of {record['attempted']} jobs; "
          f"{record['known_bug_failures']} hit known CLI-contract bugs)")
    if record["trace"]:
        rest = record["traced_job_wall_s"] - record["accounted_s"]
        print(f"[{w}] traced job wall {record['traced_job_wall_s']:.3f} s: "
              f"startup + spans {record['accounted_s']:.3f} s, remainder "
              f"{rest:.3f} s (interpreter exit, span-file write, the shim's imports and patching)")
    seen = set()
    for f in record["failures"]:
        if f["job"] not in seen:
            seen.add(f["job"])
            tag = f"known bug: {f['known_bug']}" if f["known_bug"] else "UNEXPECTED"
            print(f"[{w}] failed: {f['job']}: {f['reason']} ({tag})")


def summarize() -> dict:
    """Per workload, mode and metric: the values of every recorded run."""
    groups: dict = {}
    with open(RUNS / "runs.jsonl") as handle:
        for line in handle:
            rec = json.loads(line)
            key = f"{rec['workload']}/trace{rec['trace']}"
            group = groups.setdefault(key, {})
            for name, value in rec["metrics"].items():
                group.setdefault(name, {"seeds": [], "values": []})
                group[name]["seeds"].append(rec["seed"])
                group[name]["values"].append(value)
    for group in groups.values():
        for entry in group.values():
            stats = quartiles(entry["values"])
            med = stats["median"]
            stats["spread"] = (stats["q3"] - stats["q1"]) / med if med else 0.0
            entry.update(stats)
    with open(RUNS / "summary.json", "w") as handle:
        json.dump(groups, handle, indent=1)
    return groups


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true",
                        help="print median and quartiles of the recorded runs")
    args = parser.parse_args(argv)
    if args.summary:
        for key, group in summarize().items():
            for name, e in group.items():
                print(f"{key} {name}: median {e['median']:.6g}, quartiles "
                      f"{e['q1']:.6g}..{e['q3']:.6g}, spread {e['spread']:.4f}, "
                      f"{len(e['values'])} runs")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "tlbgram" / "cli.py").is_file():
        print(f"error: no tlbgram sources under {SRC}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        record = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace), started)
        with open(RUNS / "runs.jsonl", "a") as handle:
            handle.write(json.dumps(record) + "\n")
        print_report(record)
        records.append(record)
    summarize()
    units = dict(END_TO_END)
    prefix = len(records) > 1
    metrics = {}
    for rec in records:
        for name, value in rec["metrics"].items():
            key = f"{rec['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value,
                            "unit": units.get(name) or unit_of(name)}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
