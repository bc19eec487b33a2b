#!/usr/bin/env python3
"""toricgit benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload stability-mix --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The corpus for (workload, seed) is generated by ``corpus.py`` and
written as CLI job files.  One client in this process runs the jobs one
after another through ``toricgit.cli.main(["--input", f, "--output", out])``
(no ``TORICGIT_THREADS``), whole passes over the corpus, until ``--seconds``
have elapsed.  Every report is checked (``check.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics
(``tracer.py``).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name the machine, the load, and any failing job.  Everything is also
written under ``.bench_build/toricgit-bench/`` with the span file of a
traced run.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
SETUP_PROBES = 9
TAIL_BEYOND = 10

import corpus  # noqa: E402  (bench/ is on sys.path as the script's directory)
from check import Checker, CheckError  # noqa: E402


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _workdir(workload, seed) -> Path:
    return ROOT / ".bench_build" / "toricgit-bench" / f"{workload}-seed{seed}"


def write_corpus(workload, seed):
    """Generate the pass and write one job file per job; returns (jobs,
    input paths, output paths)."""
    jobs = corpus.generate(workload, seed)
    d = _workdir(workload, seed)
    (d / "jobs").mkdir(parents=True, exist_ok=True)
    (d / "out").mkdir(exist_ok=True)
    paths, outs = [], []
    for job in jobs:
        p = d / "jobs" / f"{job['name']}.json"
        p.write_text(json.dumps(job["job"], sort_keys=True), encoding="utf-8")
        paths.append(str(p))
        outs.append(str(d / "out" / f"{job['name']}.json"))
    return jobs, paths, outs


def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that start the interpreter, import
    toricgit and write the corpus: the set-up a user pays before the first
    job."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    env = {k: v for k, v in os.environ.items() if k != "TORICGIT_THREADS"}
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
    return times


def run_job(cli, path, out):
    """One CLI invocation; returns (exit code, escaped traceback or None).
    An exception escaping main would end the process with exit code 1."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stderr(sink):
            return cli.main(["--input", path, "--output", out]), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception:  # noqa: BLE001 - recorded and counted as a failed job
        return 1, traceback.format_exc(limit=-3)


def run_pass(cli, jobs, paths, outs, execs, tracer=None):
    for i in range(len(jobs)):
        if tracer is not None:
            tracer.trace_id = len(execs)
        t0 = time.perf_counter()
        rc, tb = run_job(cli, paths[i], outs[i])
        latency = time.perf_counter() - t0
        digest = None
        if rc == 0:
            with open(outs[i], "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        execs.append((i, latency, rc, tb, digest))


def check_all(workload, seed, jobs, outs, execs):
    """Returns (failed executions, correct, [(job name, problem)])."""
    invariants = json.loads((GOLDEN / "invariants.json").read_text(encoding="utf-8"))
    golden = None
    if seed == corpus.DEFAULT_SEED:
        golden = json.loads((GOLDEN / f"{workload}.json").read_text(encoding="utf-8"))
    checker = Checker(invariants, golden)
    by_job: dict[int, list] = {}
    for e in execs:
        by_job.setdefault(e[0], []).append(e)
    failed, correct, problems = 0, True, []
    for i, runs in sorted(by_job.items()):
        _, _, rc, tb, digest = runs[-1]
        problem, wrong = None, False
        if len({(r[2], r[3] is None, r[4]) for r in runs}) > 1:
            problem, wrong = "report differs between passes", True
        else:
            report = None
            if rc == 0:
                report = json.loads(Path(outs[i]).read_text(encoding="utf-8"))
            try:
                checker.check(jobs[i], rc, tb, report)
            except CheckError as exc:
                problem = str(exc).splitlines()[0]
                wrong = not (tb is not None and rc == checker.expected_exit(jobs[i]))
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problem, wrong = f"malformed report: {exc!r}", True
        if problem:
            failed += len(runs)
            correct = correct and not wrong
            problems.append((jobs[i]["name"], problem))
    return failed, correct, problems


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def machine_info():
    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(), "cpu_model": model, "platform": platform.platform()}


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "toricgit" / "__init__.py").is_file():
        print(f"error: no toricgit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("TORICGIT_THREADS", None)
    from toricgit import cli

    if args.probe_setup:
        write_corpus(args.workload, args.seed)
        return 0

    load_start = os.getloadavg()
    setup_times = measure_setup(args) if args.trace == 0 else None
    jobs, paths, outs = write_corpus(args.workload, args.seed)
    n_pass = len(jobs)
    execs: list = []
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "jobs_per_pass": n_pass, **machine_info(),
            "loadavg_start": load_start}

    if args.trace == 0:
        # whole passes; stop when the next one would end mostly past --seconds
        walls = []
        t0 = time.perf_counter()
        while not walls or time.perf_counter() - t0 + walls[-1] / 2 < args.seconds:
            t1 = time.perf_counter()
            run_pass(cli, jobs, paths, outs, execs)
            walls.append(time.perf_counter() - t1)
        passes = len(walls)
    else:
        from tracer import Tracer

        t0 = time.perf_counter()
        run_pass(cli, jobs, paths, outs, execs)
        untraced_wall = time.perf_counter() - t0
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            run_pass(cli, jobs, paths, outs, execs, tracer)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        passes = 2
    info["loadavg_end"] = os.getloadavg()
    info["passes"] = passes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, correct, problems = check_all(args.workload, args.seed, jobs, outs, execs)
    attempted = len(execs)
    info["failed_jobs"] = [{"job": n, "problem": p} for n, p in problems]

    if args.trace == 0:
        # every pass has the same jobs, so the percentile that leaves ten
        # jobs of one pass beyond it is fixed by the corpus, not by the speed
        q = (n_pass - TAIL_BEYOND) / n_pass
        lat = sorted(e[1] for e in execs)
        tail = nearest_rank(lat, q)
        info["tail_jobs"] = sorted({jobs[e[0]]["name"] for e in execs if e[1] == tail})
        info["tail_percentile"] = round(100 * q, 2)
        info["job_latencies_s"] = {jobs[i]["name"]: [e[1] for e in execs if e[0] == i]
                                 for i in range(n_pass)}
        info["pass_walls_s"] = walls
        metrics = {
            "jobs_per_s": (attempted / sum(walls), "1/s"),
            "job_p50_s": (statistics.median(lat), "s"),
            "job_tail_s": (tail, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        info["setup_probes_s"] = setup_times
        shown = dict(metrics, failed_share=(failed / attempted, "share"))
    else:
        untraced_jps = n_pass / untraced_wall
        traced_jps = n_pass / traced_wall
        metrics = tracer.metrics()
        metrics["trace.overhead"] = (untraced_jps / traced_jps - 1.0, "share")
        info["untraced_jobs_per_s"] = untraced_jps
        info["traced_jobs_per_s"] = traced_jps
        info["spans"] = len(tracer.start)
        info["site_calls"] = tracer.site_calls
        prefix = _workdir(args.workload, args.seed) / "spans"
        tracer.write(str(prefix))
        shown = metrics
        missing = tracer.missing_sites(args.workload)
        if missing:
            print("error: traced wrappers recorded no calls: " + ", ".join(missing),
                  file=sys.stderr)
            return 1

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    info["result"] = result
    out = _workdir(args.workload, args.seed) / f"result-trace{args.trace}.json"
    out.write_text(json.dumps(info, indent=1, sort_keys=True), encoding="utf-8")

    print(f"# toricgit bench  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={passes} jobs/pass={n_pass}")
    print(f"# python {info['python']}  nproc {info['nproc']}  cpu {info['cpu_model']}")
    print(f"# loadavg start {load_start[0]:.2f} {load_start[1]:.2f} {load_start[2]:.2f}"
          f"  end {info['loadavg_end'][0]:.2f} {info['loadavg_end'][1]:.2f}"
          f" {info['loadavg_end'][2]:.2f}")
    if args.trace == 0:
        print(f"# job_tail_s is the p{info['tail_percentile']} latency over {attempted} "
              f"job runs ({passes} passes of {n_pass}; {TAIL_BEYOND} jobs of a pass beyond it)")
    for name, (value, unit) in shown.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(f"# failed {failed} of {attempted} job runs")
    for name, problem in problems:
        print(f"# FAILED {name}: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
