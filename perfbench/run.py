#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the SLICC reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload paper-smoke --seed 7 --seconds 20 --trace 0

One invocation sets the workload up, repeats it for ``--seconds``,
runs the reference pass (golden pins, distance from the paper) and
prints every metric with its unit. The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` spends half the time on untraced repetitions and then
runs one repetition with every layer boundary wrapped in a span, and
reports the per-layer metrics. The exit code is non-zero if any check
fails: a golden pin differs, results differ between repetitions or
between the untraced and traced runs, a resume simulates, or a spec
fails. README.md in this directory lists the metrics and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, REPLAY_VARIANTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh-interpreter imports timed per run (the median is reported).
IMPORT_SAMPLES = 7
#: In-process workload set-ups timed per run (only ``replay`` has one).
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_repro():
    """Import the checkout's ``repro`` (never an installed copy)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")


def import_seconds() -> float:
    """Wall time of ``import repro`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro"], env=env, cwd=ROOT, check=True
    )
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def provenance(args, workload) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode())
        src_digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "replay_kernels": dict(getattr(workload, "kernels", {})),
    }


def layer_metrics(workload, rep, rec, slowdown: float) -> dict:
    """Per-layer values of the traced repetition (``queue.*`` aside)."""
    from campaigns import JOBS

    seconds, calls = rec.totals()
    m = dict.fromkeys(PER_LAYER, 0.0)
    m["workloads.generate_s"] = seconds["workloads.generate"]
    m["workloads.tables_s"] = seconds["workloads.tables"]
    m["workloads.generate_calls"] = calls["workloads.generate"]
    m["workloads.gen_per_trace"] = calls["workloads.generate"] / rep.traces
    m["exp.plan_s"] = seconds["exp.plan"]
    m["runner.run_s"] = seconds["runner.run"]
    for name in (
        "exp.specs",
        "runner.sim_s",
        "runner.simulated",
        "runner.cached",
        "runner.retried",
        "runner.failed",
    ) + tuple(f"sim.replay_s.{v}" for v in REPLAY_VARIANTS):
        m[name] = rep.layer.get(name, 0)
    m["pool.starts"] = calls["pool.start"]
    if m["runner.run_s"]:
        m["pool.parallel_eff"] = m["runner.sim_s"] / (JOBS * m["runner.run_s"])
    m["sim.init_s"] = seconds["sim.init"]
    m["sim.replay_s"] = seconds["sim.replay"]
    if rep.records:
        m["sim.ns_per_record"] = 1e9 * seconds["sim.replay"] / rep.records
    m["store.open_s"] = seconds["store.open"]
    m["store.put_s"] = seconds["store.put"]
    m["store.puts"] = calls["store.put"]
    m["store.get_s"] = seconds["store.get"]
    m["store.gets"] = calls["store.get"]
    m["report.render_s"] = seconds["report.render"]
    m["trace.slowdown"] = slowdown

    if workload.name == "replay":
        from budget import predict, trace_stores, unit_costs

        costs = unit_costs()
        stores = trace_stores(workload.trace)
        for variant, result in workload.results.items():
            m[f"sim.{variant}.cycles"] = result.cycles
            m[f"sim.{variant}.i_mpki"] = result.i_mpki
            m[f"sim.{variant}.d_mpki"] = result.d_mpki
            m[f"sim.{variant}.migrations"] = result.migrations
            parts = predict(result, costs, stores)
            for part, value in parts.items():
                m[f"sim.budget.{part}_s.{variant}"] = value
            m[f"sim.budget.residual_s.{variant}"] = rep.layer[
                f"sim.replay_s.{variant}"
            ] - sum(parts.values())
    return m


def queue_metrics(rep, rec, direct_wall: float) -> dict:
    """``queue.*`` values of the traced pass through the work queue."""
    seconds, calls = rec.totals()
    return {
        "queue.enqueue_s": seconds["queue.enqueue"],
        "queue.claim_s": seconds["queue.claim"],
        "queue.mark_s": seconds["queue.mark"],
        "queue.cycles": rep.layer["queue.cycles"],
        "queue.overhead_s": seconds["queue.drain"] - seconds["runner.run"],
        "queue.wall_s": rep.wall_s,
        "queue.wall_ratio": rep.wall_s / direct_wall,
        "queue.generate_calls": calls["workloads.generate"],
        "queue.gen_per_trace": calls["workloads.generate"] / rep.traces,
        "queue.pool_starts": calls["pool.start"],
    }


def traced_rep(workload, rec):
    """One repetition with every layer boundary wrapped in a span."""
    rec.install()
    try:
        workload.setup()
        return workload.rep()
    finally:
        rec.restore()


def main(argv=None) -> int:
    args = parse_args(argv)
    import_repro()
    from campaigns import JOBS, PaperWorkload, make_workload
    from checks import reference_pass
    from spans import Recorder

    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    try:
        rec = Recorder(tmp / "spans")
        workload = make_workload(args.workload, args.seed, tmp, rec)

        imports = [import_seconds() for _ in range(IMPORT_SAMPLES)]
        setups = []
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = statistics.median(imports) + statistics.median(setups)

        # Repeat while the next repetition is expected to end within the
        # budget, so a run measures about --seconds (at least one rep).
        budget = args.seconds / 2 if args.trace else args.seconds
        t_start = time.perf_counter()
        reps = [workload.rep()]
        while True:
            elapsed = time.perf_counter() - t_start
            if elapsed * (len(reps) + 1) / len(reps) > budget:
                break
            reps.append(workload.rep())
        rss = peak_rss_mb()

        traced = queued = None
        if args.trace:
            traced = traced_rep(workload, rec)
            if args.workload == "paper-smoke":
                # The same campaign through WorkQueue + drain, right after
                # the direct run, so the two paths meet the same host.
                queue_rec = Recorder(tmp / "queue-spans")
                queue_workload = PaperWorkload(
                    "queue-smoke", args.seed, tmp, queue_rec, via_queue=True
                )
                queued = traced_rep(queue_workload, queue_rec)

        paper_err, pins, errors = reference_pass(ROOT, JOBS)

        extra = [("traced run", traced), ("work-queue run", queued)]
        every = list(enumerate(reps, 1)) + [(n, r) for n, r in extra if r]
        for which, rep in every:
            errors += rep.errors
            if rep.results != reps[0].results:
                errors.append(f"results of {which} differ from repetition 1")
            for key, result in rep.results.items():
                if key in pins and pins[key] != result:
                    errors.append(f"timed result {key[:12]} differs from its pin")
        attempted = sum(rep.attempted for _, rep in every)
        failed = sum(rep.failed for _, rep in every)
        if failed:
            errors.append(f"{failed} spec(s) failed")

        if args.trace:
            untraced = statistics.median(rep.wall_s for rep in reps)
            metrics = layer_metrics(
                workload, traced, rec, traced.wall_s / untraced
            )
            if queued:
                metrics.update(queue_metrics(queued, queue_rec, traced.wall_s))
            units = PER_LAYER
        else:
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(rep.wall_s for rep in reps),
                "sim_krec_per_s": statistics.median(
                    rep.records / rep.wall_s / 1000.0 for rep in reps
                ),
                "resume_s": statistics.median(
                    sample for rep in reps for sample in rep.resume_s
                ),
                "peak_rss_mb": rss,
                "ok_frac": 1.0 - failed / attempted,
                **paper_err,
            }
            units = END_TO_END

        print("provenance " + json.dumps(provenance(args, workload)))
        print(
            f"repetitions {len(reps)}"
            + "".join(f" + 1 {which}" for which, rep in extra if rep)
        )
        print("wall_s samples " + json.dumps([rep.wall_s for rep in reps]))
        print(
            "resume_s samples "
            + json.dumps([statistics.median(rep.resume_s) for rep in reps])
        )
        for message in dict.fromkeys(errors):
            print(f"check failed: {message}")
        for name, unit in units.items():
            print(f"{name} = {metrics[name]:.6g} {unit}")
        result = {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }
        print(json.dumps(result), flush=True)
        return 0 if not errors else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
