#!/usr/bin/env python
"""Replay-engine throughput benchmark (the perf trajectory's data source).

Times :func:`repro.sim.engine.simulate` per variant on a fixed,
deterministically generated trace and reports records/second plus wall
time. Two modes:

* ``--out`` writes the measurements as JSON (``BENCH_<n>.json`` at the
  repo root is the convention for the per-PR perf trajectory);
* ``--check`` compares the measurements against a committed baseline
  JSON and exits non-zero when any variant's throughput regressed by
  more than ``--max-regression`` (the CI perf-smoke gate).

One workload is timed by default (``--workload``); ``--workloads a,b,c``
times several and emits a multi-workload document (top-level
``"workloads"`` mapping, one single-workload document per name), so the
perf trajectory can span scenario diversity in one file. ``--check``
accepts either shape on either side — a workload present in only one of
the two documents is skipped.

Each trace is generated once and reused across variants and repeats, so
the numbers isolate engine throughput from trace generation. Each
variant is timed ``--repeat`` times and the best run is kept (minimum
wall time is the standard low-noise estimator for CPU-bound loops).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import ConfigurationError  # noqa: E402
from repro.params import ScalePreset  # noqa: E402
from repro.sched import policy_names  # noqa: E402
from repro.sim.engine import (  # noqa: E402
    KERNELS,
    VARIANTS,
    ReplayEngine,
    SimConfig,
    simulate,
)
from repro.workloads import standard_trace  # noqa: E402

#: Variants timed by default: the paper's seven plus ``tmi``, so the
#: perf gate covers a migrating policy that takes the plain fast path
#: with quantum-boundary hooks (the extension-policy overhead model).
DEFAULT_BENCH_VARIANTS = list(VARIANTS) + ["tmi"]


def host_metadata() -> dict:
    """CPU model, core count and platform of the measuring machine.

    Recorded in every bench document so BENCH_<n> files are comparable
    across machines (absolute rec/s only means anything next to the
    hardware that produced it; ratios within one file stay the
    machine-independent signal).
    """
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu_model or platform.processor() or "unknown",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def profile_hotspots(trace, config: SimConfig, top: int = 15) -> list[dict]:
    """cProfile one simulation; the top-``top`` cumulative hotspots.

    Rows carry the same fields a ``pstats`` line would (call counts,
    tottime, cumtime) so future perf PRs start from measured
    attribution instead of guesses.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    simulate(trace, config=config)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows = []
    for func in stats.fcn_list[:top]:
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, lineno, name = func
        rows.append(
            {
                "function": f"{Path(filename).name}:{lineno}({name})",
                "ncalls": nc,
                "tottime": round(tt, 4),
                "cumtime": round(ct, 4),
            }
        )
    return rows


def bench(
    workload: str,
    scale: ScalePreset,
    variants: list[str],
    repeat: int,
    seed: int,
    kernel: str = "auto",
    profile: bool = False,
) -> dict:
    """Measure every variant; returns the result document.

    ``kernel`` forces a replay kernel (``native``/``specialized``/
    ``inline``/``fallback``); the default ``auto`` is the engine's own
    selection. ``profile`` additionally cProfiles one (untimed) run per
    variant and records the top-15 cumulative hotspots.
    Each measurement row records the kernel the engine actually ran
    (``auto`` resolves per config), so baselines pin *which* code path
    their numbers describe and a regression can be blamed on the right
    kernel. Variants a forced kernel cannot run (e.g. ``native`` with
    slicc's migrations) are reported as skipped rather than failing
    the whole sweep.
    """
    trace = standard_trace(workload, scale, seed=seed)
    records = trace.total_records
    doc: dict = {
        "workload": workload,
        "scale": scale.value,
        "seed": seed,
        "n_threads": len(trace.threads),
        "total_records": records,
        "repeat": repeat,
        "kernel": kernel,
        "python": platform.python_version(),
        "host": host_metadata(),
        "variants": {},
    }
    for variant in variants:
        config = SimConfig(variant=variant, kernel=kernel)
        try:
            used = ReplayEngine(trace, config).kernel
        except ConfigurationError as exc:
            print(f"{workload}/{variant:>9}: skipped ({exc})", flush=True)
            doc["variants"][variant] = {"skipped": str(exc)}
            continue
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            simulate(trace, config=config)
            best = min(best, time.perf_counter() - t0)
        row = {
            "seconds": round(best, 4),
            "records_per_sec": round(records / best),
            "kernel": used,
        }
        if profile:
            row["profile"] = profile_hotspots(trace, config)
        doc["variants"][variant] = row
        print(
            f"{workload}/{variant:>9} [{used}]: {best:7.3f}s  "
            f"{records / best / 1e3:8.1f} krec/s",
            flush=True,
        )
    return doc


def _per_workload(doc: dict) -> dict[str, dict]:
    """Normalise a bench document to ``{workload: single-workload doc}``.

    Accepts both the single-workload shape (``"variants"`` at top level)
    and the multi-workload shape (``"workloads"`` mapping).
    """
    if "workloads" in doc:
        return doc["workloads"]
    return {doc.get("workload", "?"): doc}


def check(doc: dict, baseline_path: Path, max_regression: float) -> int:
    """Compare ``doc`` against a baseline file; returns the exit code."""
    baseline = json.loads(baseline_path.read_text())
    base_docs = _per_workload(baseline)
    failures = []
    compared = 0
    for workload, wdoc in _per_workload(doc).items():
        base_doc = base_docs.get(workload)
        if base_doc is None:
            continue
        for variant, row in wdoc["variants"].items():
            base_row = base_doc.get("variants", {}).get(variant)
            if base_row is None:
                continue
            if "skipped" in row or "skipped" in base_row:
                continue
            compared += 1
            floor = base_row["records_per_sec"] * (1.0 - max_regression)
            ratio = row["records_per_sec"] / base_row["records_per_sec"]
            status = "ok" if row["records_per_sec"] >= floor else "REGRESSED"
            # Older baselines predate the kernel field; report those as
            # the inline loop, which is what they measured.
            kernel = row.get("kernel", "inline")
            print(
                f"check {workload}/{variant:>9} [{kernel}]: "
                f"{row['records_per_sec']:>9} rec/s vs "
                f"baseline {base_row['records_per_sec']:>9} "
                f"(floor {floor:>11.0f}) {status}"
            )
            if status != "ok":
                failures.append((f"{workload}/{variant}", kernel, ratio))
    if failures:
        # Name every offender with its kernel and measured ratio so a CI
        # failure line is diagnosable without re-running the harness.
        detail = ", ".join(
            f"{name} ({kernel} kernel) at {ratio:.2f}x of baseline"
            for name, kernel, ratio in failures
        )
        print(
            f"FAIL: {detail} — below the {1.0 - max_regression:.2f}x floor "
            f"(max regression {max_regression:.0%}) vs {baseline_path}"
        )
        return 1
    if compared == 0:
        # A gate that compared nothing passed nothing: workload/variant
        # keys of the run and the baseline are disjoint (renamed
        # workload, wrong baseline file, ...). Fail loudly rather than
        # silently disabling the regression check.
        print(
            f"FAIL: no variant of this run matched {baseline_path}; "
            "the regression gate compared nothing"
        )
        return 1
    print(f"perf check passed ({compared} variants compared)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="tpcc-10")
    parser.add_argument(
        "--workloads",
        default=None,
        metavar="A,B,C",
        help="comma-separated workload list; emits a multi-workload "
        "document and overrides --workload",
    )
    parser.add_argument(
        "--scale", default="ci", choices=[p.value for p in ScalePreset]
    )
    parser.add_argument(
        "--variants",
        nargs="+",
        default=DEFAULT_BENCH_VARIANTS,
        choices=list(policy_names()),
    )
    parser.add_argument("--repeat", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--kernel",
        default="auto",
        choices=list(KERNELS),
        help="force a replay kernel; auto is the engine's own selection "
        "(the kernel actually used is recorded per measurement)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile one extra (untimed) run per variant and record "
        "the top-15 cumulative hotspots under the variant's 'profile' "
        "key",
    )
    parser.add_argument("--out", type=Path, help="write results as JSON")
    parser.add_argument(
        "--check", type=Path, help="baseline JSON to compare against"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional throughput drop in --check mode",
    )
    args = parser.parse_args(argv)

    if args.workloads:
        workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
        doc = {
            "scale": args.scale,
            "seed": args.seed,
            "repeat": args.repeat,
            "kernel": args.kernel,
            "python": platform.python_version(),
            "host": host_metadata(),
            "workloads": {
                workload: bench(
                    workload,
                    ScalePreset(args.scale),
                    args.variants,
                    args.repeat,
                    args.seed,
                    args.kernel,
                    args.profile,
                )
                for workload in workloads
            },
        }
    else:
        doc = bench(
            args.workload,
            ScalePreset(args.scale),
            args.variants,
            args.repeat,
            args.seed,
            args.kernel,
            args.profile,
        )
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    if args.check:
        return check(doc, args.check, args.max_regression)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
