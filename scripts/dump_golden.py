#!/usr/bin/env python
"""Regenerate the golden-equivalence fixtures in ``tests/golden/``.

Each fixture is the canonical JSON (:func:`repro.exp.store.result_to_json`)
of one ``simulate()`` run: every engine variant crossed with two smoke
workloads (plus the plain variants on the scenario-extension workloads).
``tests/test_golden_equivalence.py`` pins the engine's output
byte-identical to these files, so they must only ever be regenerated when
a simulated *number* is meant to change — never as part of a pure
performance PR. Run from the repo root:

    python scripts/dump_golden.py

``--out DIR`` writes elsewhere (the CI golden-freshness job regenerates
into a temp dir and diffs against ``tests/golden/`` so stale pins cannot
merge silently). The specs here leave ``kernel="auto"`` (the native
kernel where eligible), so ``REPRO_KERNEL=inline`` or
``REPRO_KERNEL=specialized`` regenerates the whole grid through an
alternative replay kernel — CI's golden-freshness matrix uses exactly
that to pin every kernel byte-identical, and ``REPRO_NO_SPECIALIZE=1``
covers the escape hatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.exp.store import result_to_json  # noqa: E402
from repro.params import ScalePreset  # noqa: E402
from repro.sim.engine import VARIANTS, SimConfig, simulate  # noqa: E402
from repro.workloads import standard_trace  # noqa: E402

#: The golden grid: every variant on two structurally different smoke
#: workloads (OLTP with teams-relevant type mix, and TPC-E).
GOLDEN_WORKLOADS = ("tpcc-1", "tpce")
GOLDEN_SEED = 7

#: Scenario-extension workloads pinned on the plain variants only: their
#: point is trace-shape coverage (handler churn, mid-trace mix shift),
#: while the cfg combinations above already exercise every fallback path
#: on the OLTP pair.
GOLDEN_VARIANT_WORKLOADS = ("webserve", "phased")

#: Extension scheduling policies (PR 5), pinned on the canonical OLTP
#: trace plus the mix-shifting workload their semantics target. These
#: pins freeze the quantum-boundary decision semantics of the
#: registry-only policies exactly as the variant grid freezes the
#: paper's seven.
GOLDEN_POLICIES = ("tmi", "affinity", "random-migrate")
GOLDEN_POLICY_WORKLOADS = ("tpcc-1", "phased")

#: Config pins beyond the plain variants: every fallback trigger of the
#: pre-PR-3 engine (next-line prefetcher, miss classifiers, banked NUCA,
#: migration data prefetcher) alone and in combination, so the PR 3
#: inline fast paths are provably bit-identical to the generic
#: ``_process_instruction``/``_process_data`` reference they replace.
#: Captured from the PR-2 engine *before* that rewrite.
GOLDEN_CONFIGS: tuple[tuple[str, dict], ...] = (
    ("classify", {"variant": "base", "collect_miss_classes": True}),
    ("slicc-classify", {"variant": "slicc", "collect_miss_classes": True}),
    ("nuca", {"variant": "base", "model_l2_capacity": True}),
    ("nextline-nuca", {"variant": "nextline", "model_l2_capacity": True}),
    ("slicc-dp8", {"variant": "slicc", "data_prefetch_n": 8}),
    (
        "slicc-nuca-dp4-classify",
        {
            "variant": "slicc",
            "model_l2_capacity": True,
            "data_prefetch_n": 4,
            "collect_miss_classes": True,
        },
    ),
    (
        "steps-nuca-classify",
        {
            "variant": "steps",
            "model_l2_capacity": True,
            "collect_miss_classes": True,
        },
    ),
)


def golden_dir() -> Path:
    return Path(__file__).resolve().parent.parent / "tests" / "golden"


def _dump_variants(trace, workload: str, out: Path, variants=VARIANTS) -> None:
    for variant in variants:
        result = simulate(trace, variant=variant)
        path = out / f"{workload}__{variant}.json"
        path.write_text(result_to_json(result) + "\n")
        print(f"wrote {path.name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="output directory (default: tests/golden/)",
    )
    args = parser.parse_args(argv)
    out = args.out if args.out is not None else golden_dir()
    out.mkdir(parents=True, exist_ok=True)
    for workload in GOLDEN_WORKLOADS:
        trace = standard_trace(workload, ScalePreset.SMOKE, seed=GOLDEN_SEED)
        _dump_variants(trace, workload, out)
        for name, kwargs in GOLDEN_CONFIGS:
            result = simulate(trace, config=SimConfig(**kwargs))
            path = out / f"{workload}__cfg-{name}.json"
            path.write_text(result_to_json(result) + "\n")
            print(f"wrote {path.name}")
    for workload in GOLDEN_VARIANT_WORKLOADS:
        trace = standard_trace(workload, ScalePreset.SMOKE, seed=GOLDEN_SEED)
        _dump_variants(trace, workload, out)
    for workload in GOLDEN_POLICY_WORKLOADS:
        trace = standard_trace(workload, ScalePreset.SMOKE, seed=GOLDEN_SEED)
        _dump_variants(trace, workload, out, variants=GOLDEN_POLICIES)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
