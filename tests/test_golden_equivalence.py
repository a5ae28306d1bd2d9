"""Golden-equivalence guard for the optimized replay hot path.

The fixtures in ``tests/golden/`` are the canonical-JSON
``SimulationResult`` of every engine variant on two smoke workloads,
recorded with ``scripts/dump_golden.py`` on the *pre-optimization* (PR 1)
engine. Pinning today's engine byte-identical to them proves the hot-path
rewrite — allocation-free cache accesses, the age-counter LRU backend,
the transposed bloom presence probe, and the inlined L1/TLB hit fast
path — changes no simulated number anywhere, extending the jobs=1-vs-4
determinism guard across implementations rather than job counts.

If a future PR intentionally changes simulated numbers, regenerate the
fixtures with ``python scripts/dump_golden.py`` and say so in the PR.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.exp.store import result_to_json
from repro.params import ScalePreset
from repro.sim.engine import VARIANTS, SimConfig, simulate
from repro.workloads import standard_trace

GOLDEN_DIR = Path(__file__).parent / "golden"

# The golden grid — workloads, seed, and the prefetcher/classifier/NUCA/
# data-prefetch config pins — is defined once in scripts/dump_golden.py
# (the tool that records the fixtures); import it so the pinned set and
# the regeneration script cannot drift apart.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from dump_golden import (  # noqa: E402
    GOLDEN_CONFIGS,
    GOLDEN_POLICIES,
    GOLDEN_POLICY_WORKLOADS,
    GOLDEN_SEED,
    GOLDEN_VARIANT_WORKLOADS,
    GOLDEN_WORKLOADS,
)


@pytest.fixture(scope="module")
def golden_traces():
    return {
        workload: standard_trace(workload, ScalePreset.SMOKE, seed=GOLDEN_SEED)
        for workload in GOLDEN_WORKLOADS + GOLDEN_VARIANT_WORKLOADS
    }


def test_every_variant_has_a_fixture():
    expected = {
        f"{workload}__{variant}.json"
        for workload in GOLDEN_WORKLOADS + GOLDEN_VARIANT_WORKLOADS
        for variant in VARIANTS
    } | {
        f"{workload}__cfg-{name}.json"
        for workload in GOLDEN_WORKLOADS
        for name, _ in GOLDEN_CONFIGS
    } | {
        f"{workload}__{policy}.json"
        for workload in GOLDEN_POLICY_WORKLOADS
        for policy in GOLDEN_POLICIES
    }
    present = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert expected <= present, f"missing fixtures: {expected - present}"


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize(
    "workload", GOLDEN_WORKLOADS + GOLDEN_VARIANT_WORKLOADS
)
def test_byte_identical_to_seed_engine(golden_traces, workload, variant):
    golden = (GOLDEN_DIR / f"{workload}__{variant}.json").read_text().strip()
    result = simulate(golden_traces[workload], variant=variant)
    assert result_to_json(result) == golden


@pytest.mark.parametrize(
    "name,kwargs", GOLDEN_CONFIGS, ids=[name for name, _ in GOLDEN_CONFIGS]
)
@pytest.mark.parametrize("workload", GOLDEN_WORKLOADS)
def test_config_pins_byte_identical(golden_traces, workload, name, kwargs):
    """Prefetcher/classifier/NUCA configurations are pinned too, so the
    PR 3 inline fast paths cannot drift from the reference semantics."""
    golden = (GOLDEN_DIR / f"{workload}__cfg-{name}.json").read_text().strip()
    result = simulate(golden_traces[workload], config=SimConfig(**kwargs))
    assert result_to_json(result) == golden


@pytest.mark.parametrize("policy", GOLDEN_POLICIES)
@pytest.mark.parametrize("workload", GOLDEN_POLICY_WORKLOADS)
def test_extension_policies_byte_identical(golden_traces, workload, policy):
    """The extension scheduling policies (PR 5) are pinned like the
    paper's variants: their quantum-boundary decision semantics — and
    random-migrate's fixed-seed RNG — must stay deterministic."""
    golden = (GOLDEN_DIR / f"{workload}__{policy}.json").read_text().strip()
    result = simulate(golden_traces[workload], variant=policy)
    assert result_to_json(result) == golden


def test_eligible_pins_resolve_to_native(golden_traces, monkeypatch):
    """Every golden pin the native kernel covers runs on it under
    ``auto`` — so the byte-identity tests above pin the C kernel."""
    from repro.sim import native
    from repro.sim.engine import ReplayEngine

    if native.load() is None:
        pytest.skip(native.status())
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    configs = [
        (workload, SimConfig(variant=variant))
        for workload in GOLDEN_WORKLOADS + GOLDEN_VARIANT_WORKLOADS
        for variant in VARIANTS
    ]
    configs += [
        (workload, SimConfig(**kwargs))
        for workload in GOLDEN_WORKLOADS
        for _, kwargs in GOLDEN_CONFIGS
    ]
    configs += [
        (workload, SimConfig(variant=policy))
        for workload in GOLDEN_POLICY_WORKLOADS
        for policy in GOLDEN_POLICIES
    ]
    eligible = [(w, c) for w, c in configs if not native.blockers(c)]
    assert eligible
    for workload, config in eligible:
        engine = ReplayEngine(golden_traces[workload], config)
        assert engine.kernel == "native", (workload, config.variant)
