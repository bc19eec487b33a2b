#!/usr/bin/env python3
"""Record the checker's references from the current program.

    python3 bench/record_golden.py

Writes ``golden/invariants.json`` (classification, quotient, falsifier and
subgroup-search summaries of every base setup in ``corpus.py``; moved
setups must reproduce them on any seed) and ``golden/<workload>.json``
(the kept part of every report of the default seed).  Run it only when a
change to the program's output is intended, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import corpus
import run
from check import (
    classify_summary,
    compat_summary,
    falsify_summary,
    golden_entry,
    quotient_summary,
)


def _invoke(cli, workdir, name, job):
    path = workdir / f"{name}.json"
    out = workdir / f"{name}.out.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    rc, tb = run.run_job(cli, str(path), str(out))
    if tb is not None:
        raise SystemExit(f"{name}: traceback\n{tb}")
    return rc, (json.loads(out.read_text(encoding="utf-8")) if rc == 0 else None)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from toricgit import cli

    workdir = run.ROOT / ".bench_build" / "toricgit-bench" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    summarize = {"classify": classify_summary, "quotient": quotient_summary,
                 "falsify-converse": falsify_summary}
    setups = {}
    for label, (facets, gens) in sorted(corpus.SETUPS.items()):
        entry = {}
        for command, summary in summarize.items():
            job = {"command": command, "inputs": {"setup": corpus.setup_json(facets, gens)}}
            rc, report = _invoke(cli, workdir, f"{label}-{command}", job)
            entry[command] = {"exit": rc,
                              "summary": summary(report["result"]) if rc == 0 else None}
        setups[label] = entry
    compatible = {}
    for base, facets in sorted(corpus.COMPAT_BASES.items()):
        job = {"command": "compatible-subgroups",
               "inputs": {"polytope": corpus.poly_json(facets)}}
        rc, report = _invoke(cli, workdir, f"compatible-{base}", job)
        compatible[base] = compat_summary(report["result"])
    (run.GOLDEN).mkdir(exist_ok=True)
    (run.GOLDEN / "invariants.json").write_text(
        json.dumps({"setups": setups, "compatible": compatible}, indent=1, sort_keys=True)
        + "\n", encoding="utf-8")

    for workload in corpus.WORKLOADS:
        jobs, paths, outs = run.write_corpus(workload, corpus.DEFAULT_SEED)
        golden = {}
        for job, path, out in zip(jobs, paths, outs):
            rc, _ = run.run_job(cli, path, out)
            report = json.loads(open(out, encoding="utf-8").read()) if rc == 0 else None
            golden[job["name"]] = golden_entry(job["command"], rc, report)
        (run.GOLDEN / f"{workload}.json").write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{workload}: {len(golden)} golden reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
