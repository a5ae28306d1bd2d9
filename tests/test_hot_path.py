"""Unit tests for the PR 2/PR 3 hot-path mechanisms.

The golden-equivalence suite proves the full engine is unchanged
end-to-end; these tests pin the individual mechanisms — the
allocation-free cache access, the age-counter LRU backend, the
transposed bloom store, and (PR 3) the inline fast paths for the
next-line prefetcher, the miss classifiers, the banked NUCA L2 and the
migration data prefetcher — against small hand-checkable scenarios and
the reference implementations they replace.
"""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.machine as machine_mod
from repro.cache.cache import SetAssociativeCache
from repro.cache.policies.base import make_policy
from repro.core.signature import BloomSignature, SignatureSet
from repro.errors import ConfigurationError
from repro.exp.store import result_to_json
from repro.params import CacheParams, ScalePreset, SliccParams, SystemParams
from repro.sched import get_policy, policy_names
from repro.sim import native
from repro.sim.engine import ReplayEngine, SimConfig
from repro.sim.machine import Machine
from repro.workloads import (
    DataSpec,
    PathStep,
    TransactionTypeSpec,
    WorkloadSpec,
    generate_trace,
    layout_segments,
    standard_trace,
)
from repro.workloads.trace import (
    KIND_INSTR,
    KIND_LOAD,
    KIND_STORE,
    ThreadTrace,
    Trace,
)


@pytest.fixture
def tiny_params():
    return CacheParams(size_bytes=4 * 1024, assoc=4, policy="lru")


class TestAccessFast:
    def test_hit_and_miss_returns(self, tiny_params):
        cache = SetAssociativeCache(tiny_params)
        assert cache.access_fast(5) is False
        assert cache.access_fast(5) is True

    def test_last_victim_matches_access_wrapper(self, tiny_params):
        fast = SetAssociativeCache(tiny_params)
        slow = SetAssociativeCache(tiny_params)
        n_sets = tiny_params.n_sets
        # Fill one set past capacity so evictions happen.
        blocks = [i * n_sets for i in range(6)]
        for block in blocks:
            hit_fast = fast.access_fast(block)
            result = slow.access(block)
            assert hit_fast == result.hit
            if not result.hit:
                assert fast.last_victim == result.victim

    def test_bypass_sets_no_victim(self, tiny_params):
        cache = SetAssociativeCache(tiny_params)
        n_sets = tiny_params.n_sets
        for i in range(4):
            cache.access_fast(i * n_sets)
        assert cache.access_fast(4 * n_sets, fill=False) is False
        assert cache.last_victim is None
        # The set was not disturbed.
        assert all(cache.probe(i * n_sets) for i in range(4))


class _ListLru:
    """Reference list-based LRU family (the pre-PR implementation)."""

    def __init__(self, n_sets, assoc, insert_at):
        self._order = [[] for _ in range(n_sets)]
        self._insert_at = insert_at  # "mru" or "lru"
        self._fills = 0

    def on_hit(self, s, w):
        self._order[s].remove(w)
        self._order[s].append(w)

    def on_fill(self, s, w):
        order = self._order[s]
        if w in order:
            order.remove(w)
        if self._insert_at == "mru":
            order.append(w)
        else:
            order.insert(0, w)

    def choose_victim(self, s):
        return self._order[s][0]


@pytest.mark.parametrize("policy_name,insert_at", [("lru", "mru"), ("lip", "lru")])
def test_age_counters_match_list_reference(policy_name, insert_at):
    """Random hit/fill/victim interleavings agree with the list form."""
    n_sets, assoc = 4, 4
    rng = random.Random(13)
    aged = make_policy(policy_name, n_sets, assoc)
    ref = _ListLru(n_sets, assoc, insert_at)
    resident: dict[int, set[int]] = {s: set() for s in range(n_sets)}
    for _ in range(2000):
        s = rng.randrange(n_sets)
        if len(resident[s]) < assoc:
            w = min(set(range(assoc)) - resident[s])
            resident[s].add(w)
            aged.on_fill(s, w)
            ref.on_fill(s, w)
        elif rng.random() < 0.5:
            w = rng.choice(sorted(resident[s]))
            aged.on_hit(s, w)
            ref.on_hit(s, w)
        else:
            assert aged.choose_victim(s) == ref.choose_victim(s)
            w = ref.choose_victim(s)
            # Refill the victim way, as the cache would.
            aged.on_fill(s, w)
            ref.on_fill(s, w)


def test_recency_order_reports_lru_first():
    policy = make_policy("lru", 1, 4)
    for way in (2, 0, 3, 1):
        policy.on_fill(0, way)
    policy.on_hit(0, 2)
    assert policy.recency_order(0) == [0, 3, 1, 2]
    assert policy.choose_victim(0) == 0


class TestTransposedSignatures:
    def test_shared_store_keeps_per_core_bits_separate(self, tiny_params):
        shared = SignatureSet(64)
        c0 = SetAssociativeCache(tiny_params)
        c1 = SetAssociativeCache(tiny_params)
        s0 = BloomSignature(64, c0, shared=shared, core=0)
        s1 = BloomSignature(64, c1, shared=shared, core=1)
        s0.insert(5)
        assert s0.probe(5) and not s1.probe(5)
        s1.insert(5)
        assert shared.masks[5] == 0b11
        s0.on_evict(5)  # block 5 not resident in c0 -> bit clears
        assert not s0.probe(5) and s1.probe(5)

    def test_standalone_signature_still_works(self, tiny_params):
        cache = SetAssociativeCache(tiny_params)
        sig = BloomSignature(64, cache)
        sig.insert(7)
        assert sig.probe(7)
        assert sig.popcount() == 1
        sig.rebuild()
        assert sig.popcount() == 0

    def test_presence_mask_matches_per_core_probes(self):
        system = SystemParams()
        machine = Machine(system, slicc=SliccParams(), with_signatures=True)
        block = 42
        for core in (1, 3, 6):
            machine.signature_insert(core, block)
        cores = list(range(system.n_cores))
        cores_mask = sum(1 << c for c in cores)
        expected = 0
        for core in cores:
            if core != 1 and machine.signatures[core].probe(block):
                expected |= 1 << core
        assert machine.presence_mask(block, 1, cores_mask) == expected
        assert machine.presence_mask(block, 1, cores_mask) == (1 << 3) | (1 << 6)

    def test_mismatched_shared_bits_rejected(self, tiny_params):
        from repro.errors import ConfigurationError

        cache = SetAssociativeCache(tiny_params)
        with pytest.raises(ConfigurationError):
            BloomSignature(128, cache, shared=SignatureSet(64))


# ----------------------------------------------------------------------
# PR 3: inline fast paths vs the generic reference implementation
# ----------------------------------------------------------------------

#: One configuration per inline branch of the quantum loop, plus the
#: combinations: next-line prefetcher (consume/issue/evict), I+D miss
#: classifiers (shadow LRU + three-C counts), banked NUCA (both record
#: kinds), the migration data prefetcher (history/pending), and each of
#: them stacked on the SLICC/STEPS tracker paths.
FAST_PATH_CONFIGS = (
    ("nextline", {}),
    ("base-classify", {"variant": "base", "collect_miss_classes": True}),
    ("pif-classify", {"variant": "pif", "collect_miss_classes": True}),
    ("slicc-classify", {"variant": "slicc", "collect_miss_classes": True}),
    ("base-nuca", {"variant": "base", "model_l2_capacity": True}),
    ("nextline-nuca", {"variant": "nextline", "model_l2_capacity": True}),
    ("slicc-dp", {"variant": "slicc", "data_prefetch_n": 4}),
    (
        "slicc-everything",
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
    (
        "slicc-sw-nuca-classify",
        {
            "variant": "slicc-sw",
            "model_l2_capacity": True,
            "collect_miss_classes": True,
        },
    ),
)


@pytest.fixture(scope="module")
def matrix_trace():
    return standard_trace("tpcc-1", ScalePreset.SMOKE, seed=3)


def _run(trace, kwargs, fast: bool):
    config = (
        SimConfig(**kwargs) if "variant" in kwargs
        else SimConfig(variant="nextline", **kwargs)
    )
    engine = ReplayEngine(trace, config)
    if not fast:
        # Force every record through the generic reference path
        # (_process_instruction/_process_data). These flags exist for
        # exactly this test: proving the inline loop bit-identical.
        engine._fast_i = False
        engine._fast_d = False
    return result_to_json(engine.run())


class TestFastVsFallbackMatrix:
    @pytest.mark.parametrize(
        "name,kwargs",
        FAST_PATH_CONFIGS,
        ids=[name for name, _ in FAST_PATH_CONFIGS],
    )
    def test_inline_matches_reference(self, matrix_trace, name, kwargs):
        fast = _run(matrix_trace, dict(kwargs), fast=True)
        reference = _run(matrix_trace, dict(kwargs), fast=False)
        assert fast == reference

    def test_mixed_fast_instruction_reference_data(self, matrix_trace):
        """Per-kind flags are independent: inline I records + reference
        D records (and vice versa) still agree with the full inline run,
        including the shared NUCA bank statistics."""
        config = SimConfig(
            variant="slicc",
            model_l2_capacity=True,
            data_prefetch_n=4,
            collect_miss_classes=True,
        )
        full = ReplayEngine(matrix_trace, config)
        expected = result_to_json(full.run())
        for fast_i, fast_d in ((True, False), (False, True)):
            engine = ReplayEngine(matrix_trace, config)
            engine._fast_i = fast_i
            engine._fast_d = fast_d
            assert result_to_json(engine.run()) == expected, (fast_i, fast_d)


class TestFastPathCoverage:
    def test_nuca_prefetcher_combo_takes_fast_path(self, matrix_trace):
        """Regression: a NUCA+prefetcher combination must run inline —
        exactly the class of config PR 2 sent through the slow generic
        fallback."""
        engine = ReplayEngine(
            matrix_trace,
            SimConfig(variant="nextline", model_l2_capacity=True),
        )
        assert engine.prefetchers is not None
        assert engine.machine.nuca is not None
        assert engine._fast_i and engine._fast_d

    @pytest.mark.parametrize(
        "name,kwargs",
        FAST_PATH_CONFIGS,
        ids=[name for name, _ in FAST_PATH_CONFIGS],
    )
    def test_every_config_is_fast(self, matrix_trace, name, kwargs):
        kwargs = dict(kwargs)
        config = (
            SimConfig(**kwargs) if "variant" in kwargs
            else SimConfig(variant="nextline", **kwargs)
        )
        engine = ReplayEngine(matrix_trace, config)
        assert engine._fast_i and engine._fast_d

    def test_nuca_bank_stats_flushed(self, matrix_trace):
        """The batched bank counters must land in the bank CacheStats by
        the time run() returns (inline runs only batch, never lose)."""
        config = SimConfig(variant="base", model_l2_capacity=True)
        fast = ReplayEngine(matrix_trace, config)
        fast.run()
        ref = ReplayEngine(matrix_trace, config)
        ref._fast_i = ref._fast_d = False
        ref.run()
        fast_stats = fast.machine.nuca.stats()
        ref_stats = ref.machine.nuca.stats()
        assert fast_stats.accesses == ref_stats.accesses > 0
        assert fast_stats.misses == ref_stats.misses
        assert fast_stats.evictions == ref_stats.evictions


class TestReplayTables:
    def test_tables_cached_and_consistent(self, matrix_trace):
        thread = matrix_trace.threads[0]
        addr, kind, page = thread.replay_tables(12)
        assert addr == thread.addr.tolist()
        assert kind == thread.kind.tolist()
        assert page == [a >> 12 for a in addr]
        # Same object on repeat (memoised), rebuilt for another shift.
        assert thread.replay_tables(12)[0] is addr
        assert thread.replay_tables(13)[2] != page or not page

    def test_tables_not_pickled(self, matrix_trace):
        import pickle

        thread = matrix_trace.threads[0]
        thread.replay_tables(12)
        clone = pickle.loads(pickle.dumps(thread))
        assert not hasattr(clone, "_replay_tables")
        assert clone.addr.tolist() == thread.addr.tolist()


# ----------------------------------------------------------------------
# Kernel selection and the kernel-equivalence matrix
# ----------------------------------------------------------------------

#: Policies the native C kernel covers (see repro.sim.native.blockers).
NATIVE_POLICIES = frozenset({"base", "nextline", "pif", "affinity"})

_NATIVE_OK = native.load() is not None

needs_native = pytest.mark.skipif(not _NATIVE_OK, reason=native.status())

KERNEL_MATRIX_WORKLOADS = ("tpcc-1", "webserve", "phased")


@pytest.fixture(scope="module")
def kernel_traces():
    return {
        workload: standard_trace(workload, ScalePreset.SMOKE, seed=3)
        for workload in KERNEL_MATRIX_WORKLOADS
    }


def _run_kernel(trace, variant: str, kernel: str) -> str:
    engine = ReplayEngine(trace, SimConfig(variant=variant, kernel=kernel))
    assert engine.kernel == kernel
    return result_to_json(engine.run())


def _machine_state(engine) -> dict:
    """Everything the native kernel owns during a run, read back from
    the engine's Python objects after it."""
    machine = engine.machine
    state = {
        "l2_seen": machine._l2_seen,
        "sharers": machine.directory._sharers,
        "invalidations": machine.directory.invalidations_sent,
        "engine": (
            engine.cycles_base,
            engine.cycles_tlb,
            engine.cycles_i_stall,
            engine.cycles_d_stall,
            engine.busy_cycles,
            engine.clock,
        ),
    }
    for side in ("l1i", "l1d"):
        for core, cache in enumerate(getattr(machine, side)):
            state[side, core] = (
                cache._tags,
                cache._index,
                cache.policy._age,
                cache.policy._hi,
                cache.stats,
            )
    for side in ("itlb", "dtlb"):
        for core, tlb in enumerate(getattr(machine, side)):
            state[side, core] = (list(tlb._map), tlb.accesses, tlb.misses)
    if engine.prefetchers is not None:
        state["prefetch"] = [
            (pf._pending, pf.issued, pf.useful) for pf in engine.prefetchers
        ]
    return state


def _assert_native_matches_reference(trace, config: SimConfig) -> None:
    """Native vs the fallback reference: byte-identical results and
    identical post-run machine state."""
    runs = {}
    for kernel in ("native", "fallback"):
        engine = ReplayEngine(trace, dataclasses.replace(config, kernel=kernel))
        assert engine.kernel == kernel
        runs[kernel] = (result_to_json(engine.run()), _machine_state(engine))
    assert runs["native"][0] == runs["fallback"][0]
    native_state, reference_state = runs["native"][1], runs["fallback"][1]
    assert native_state.keys() == reference_state.keys()
    for key, value in reference_state.items():
        assert native_state[key] == value, key


class TestKernelEquivalenceMatrix:
    """Every registered policy × three workloads: the kernels are
    byte-identical (inline == fallback for every policy; the native leg
    runs the policies it covers against the reference and also pins the
    post-run machine state)."""

    @pytest.mark.parametrize("workload", KERNEL_MATRIX_WORKLOADS)
    @pytest.mark.parametrize("variant", sorted(policy_names()))
    def test_kernels_byte_identical(self, kernel_traces, workload, variant):
        trace = kernel_traces[workload]
        inline = _run_kernel(trace, variant, "inline")
        fallback = _run_kernel(trace, variant, "fallback")
        assert inline == fallback
        if _NATIVE_OK and variant in NATIVE_POLICIES:
            _assert_native_matches_reference(trace, SimConfig(variant=variant))

    def test_native_policy_set(self):
        eligible = {
            name
            for name in policy_names()
            if not native.blockers(SimConfig(variant=name))
        }
        assert eligible == NATIVE_POLICIES


def _non_lru_system() -> SystemParams:
    system = SystemParams()
    return dataclasses.replace(
        system, l1d=dataclasses.replace(system.l1d, policy="srrip")
    )


class TestKernelSelection:
    def test_auto_resolves_to_inline(self, matrix_trace, monkeypatch):
        # auto resolves to inline only where the native kernel cannot
        # run: on ineligible policies like slicc, or without a C
        # compiler. REPRO_KERNEL re-routes auto fleet-wide (the CI
        # inline leg), so pin the default resolution with the override
        # cleared.
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        engine = ReplayEngine(matrix_trace, SimConfig(variant="slicc"))
        assert engine.kernel == "inline"
        assert engine._fast_i and engine._fast_d
        engine = ReplayEngine(matrix_trace, SimConfig(variant="base"))
        assert engine.kernel == ("native" if _NATIVE_OK else "inline")

    @needs_native
    def test_explicit_native_honoured(self, matrix_trace):
        engine = ReplayEngine(
            matrix_trace, SimConfig(variant="nextline", kernel="native")
        )
        assert engine.kernel == "native"

    def test_fallback_disables_fast_flags(self, matrix_trace):
        engine = ReplayEngine(
            matrix_trace, SimConfig(variant="base", kernel="fallback")
        )
        assert engine.kernel == "fallback"
        assert not engine._fast_i and not engine._fast_d

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(kernel="vectorised")
        with pytest.raises(ConfigurationError):
            SimConfig(kernel="batch")
        with pytest.raises(ConfigurationError):
            SimConfig(kernel="specialized")

    def test_ineligible_policy_raises_on_forced_native(self, matrix_trace):
        with pytest.raises(ConfigurationError, match="ineligible"):
            ReplayEngine(
                matrix_trace, SimConfig(variant="slicc", kernel="native")
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"collect_miss_classes": True},
            {"model_l2_capacity": True},
            {"variant": "slicc", "data_prefetch_n": 4},
            {"system": _non_lru_system()},
        ],
        ids=["classifiers", "nuca", "data-prefetch", "non-lru-l1"],
    )
    def test_structural_blockers_raise_on_forced_native(
        self, matrix_trace, kwargs
    ):
        kwargs.setdefault("variant", "base")
        with pytest.raises(ConfigurationError, match="ineligible"):
            ReplayEngine(matrix_trace, SimConfig(kernel="native", **kwargs))

    def test_repro_kernel_inline_keeps_auto_off_native(
        self, matrix_trace, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL", "inline")
        engine = ReplayEngine(matrix_trace, SimConfig(variant="base"))
        assert engine.kernel == "inline"
        if _NATIVE_OK:
            # Explicit kernels keep their request under the override.
            engine = ReplayEngine(
                matrix_trace, SimConfig(variant="base", kernel="native")
            )
            assert engine.kernel == "native"

    def test_repro_kernel_env_silent_fallback(self, matrix_trace, monkeypatch):
        # A fleet override must not break ineligible configs: auto falls
        # back to inline silently instead of raising.
        monkeypatch.setenv("REPRO_KERNEL", "native")
        for config in (
            SimConfig(variant="slicc"),
            SimConfig(variant="base", system=_non_lru_system()),
        ):
            assert ReplayEngine(matrix_trace, config).kernel == "inline"

    def test_repro_kernel_env_unknown_raises(self, matrix_trace, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "vectorised")
        with pytest.raises(ConfigurationError, match="REPRO_KERNEL"):
            ReplayEngine(matrix_trace, SimConfig(variant="base"))

    def test_policy_flags_block_native(self, matrix_trace, monkeypatch):
        cls = get_policy("base")
        monkeypatch.setattr(cls, "quantum_hook", True)
        assert "quantum hook" in " ".join(
            native.blockers(SimConfig(variant="base"))
        )
        with pytest.raises(ConfigurationError, match="quantum hook"):
            ReplayEngine(
                matrix_trace, SimConfig(variant="base", kernel="native")
            )

    def test_kernel_excluded_from_spec_keys(self):
        from repro.exp.spec import ExperimentSpec

        base = ExperimentSpec("tpcc-1", config=SimConfig(variant="base"))
        forced = ExperimentSpec(
            "tpcc-1", config=SimConfig(variant="base", kernel="native")
        )
        assert base.key() == forced.key()


# ----------------------------------------------------------------------
# The native C kernel against the reference path
# ----------------------------------------------------------------------

_POW2 = st.sampled_from([1, 2, 4, 8, 16, 32, 64])

native_configs = st.fixed_dictionaries(
    {
        "variant": st.sampled_from(sorted(NATIVE_POLICIES)),
        "i_sets": _POW2,
        "i_assoc": st.sampled_from([1, 2, 4, 8]),
        "d_sets": _POW2,
        "d_assoc": st.sampled_from([1, 2, 4, 8]),
        "itlb": st.integers(min_value=1, max_value=32),
        "dtlb": st.integers(min_value=1, max_value=32),
        "quantum": st.integers(min_value=1, max_value=120),
        "spacing": st.one_of(st.none(), st.integers(0, 3000)),
        "width": st.integers(min_value=1, max_value=8),
        "n_threads": st.integers(min_value=1, max_value=24),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


def _small_trace(n_threads: int, seed: int):
    """A small two-type workload with a hot shared data set, so stores
    invalidate remote sharers often."""
    segments = layout_segments([48, 32, 64])
    types = tuple(
        TransactionTypeSpec(
            type_id=t,
            name=f"t{t}",
            weight=1.0,
            path=tuple(
                PathStep(seg_id=(t + i) % 3, inner_iterations=1)
                for i in range(3)
            ),
        )
        for t in range(2)
    )
    spec = WorkloadSpec(
        name="native-diff",
        segments=tuple(segments),
        txn_types=types,
        data=DataSpec(accesses_per_iblock=0.6, shared_hot_blocks=24),
    )
    return generate_trace(spec, n_threads=n_threads, seed=seed)


class TestNativeDifferential:
    @needs_native
    @settings(max_examples=30, deadline=None)
    @given(native_configs)
    def test_random_configs_match_reference(self, p):
        system = SystemParams(
            n_cores=p["width"] ** 2,
            torus_width=p["width"],
            l1i=CacheParams(
                size_bytes=p["i_sets"] * p["i_assoc"] * 64,
                assoc=p["i_assoc"],
            ),
            l1d=CacheParams(
                size_bytes=p["d_sets"] * p["d_assoc"] * 64,
                assoc=p["d_assoc"],
            ),
        )
        config = SimConfig(
            variant=p["variant"],
            system=system,
            quantum=p["quantum"],
            arrival_spacing=p["spacing"],
        )
        trace = _small_trace(p["n_threads"], p["seed"])
        with mock.patch.object(
            machine_mod, "ITLB_ENTRIES", p["itlb"]
        ), mock.patch.object(machine_mod, "DTLB_ENTRIES", p["dtlb"]):
            _assert_native_matches_reference(trace, config)

    @needs_native
    def test_store_orphaning_last_remote_sharer(self):
        """Directory.on_write's pinned quirk: a store that invalidates
        the last remote sharer, by a core that was not a sharer, leaves
        the block cached at the writer but absent from the directory."""
        block = 1 << 20

        def thread(tid: int, kind: int) -> ThreadTrace:
            return ThreadTrace(
                thread_id=tid,
                txn_type=0,
                addr=np.array([tid, block], dtype=np.int64),
                kind=np.array([KIND_INSTR, kind], dtype=np.int8),
            )

        trace = Trace(
            workload="orphan",
            threads=[thread(0, KIND_LOAD), thread(1, KIND_STORE)],
            instructions_per_iblock=4,
            seed=0,
        )
        config = SimConfig(
            variant="base",
            system=SystemParams(n_cores=4, torus_width=2),
            arrival_spacing=0,
        )
        _assert_native_matches_reference(trace, config)
        engine = ReplayEngine(trace, dataclasses.replace(config, kernel="native"))
        engine.run()
        machine = engine.machine
        assert machine.directory.invalidations_sent == 1
        assert machine.l1d[0].stats.invalidations == 1
        assert machine.l1d[1].probe(block)
        assert block not in machine.directory._sharers


def _prewarm(engine) -> None:
    """Deterministic non-empty machine state before the run starts, so
    the native import path sees every structure populated."""
    machine = engine.machine
    for core in range(machine.n_cores):
        for i in range(40):
            block = 7 * i + core
            machine.l1i[core].access_fast(block)
            machine.itlb[core].access(block << 3)
            if engine.prefetchers is not None:
                engine.prefetchers[core].on_demand_miss(block)
            if machine.l1d[core].access_fast(block) is False:
                machine.directory.on_read(core, block)
            machine.dtlb[core].access(block << 5)
            machine.l2_touch(block)


class TestNativeImport:
    @needs_native
    @pytest.mark.parametrize("variant", ["base", "nextline"])
    def test_prewarmed_state_round_trips(self, matrix_trace, variant):
        runs = {}
        for kernel in ("native", "fallback"):
            engine = ReplayEngine(
                matrix_trace, SimConfig(variant=variant, kernel=kernel)
            )
            _prewarm(engine)
            runs[kernel] = (result_to_json(engine.run()), _machine_state(engine))
        assert runs["native"] == runs["fallback"]


class TestNativeFallback:
    @pytest.mark.parametrize(
        "case", ["missing-compiler", "failing-compiler", "unwritable-cache"]
    )
    def test_unbuildable_library_falls_back_to_inline(
        self, matrix_trace, tmp_path, monkeypatch, case
    ):
        cache = tmp_path / "cache"
        if case == "missing-compiler":
            monkeypatch.setattr(native, "CC", (str(tmp_path / "no-cc"),))
        elif case == "failing-compiler":
            monkeypatch.setattr(native, "CC", ("false",))
        else:
            cache.write_text("a file where the cache directory should be")
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        native.reset()
        try:
            engine = ReplayEngine(matrix_trace, SimConfig(variant="base"))
            assert engine.kernel == "inline"
            assert result_to_json(engine.run()) == _run_kernel(
                matrix_trace, "base", "fallback"
            )
            with pytest.raises(
                ConfigurationError, match="native kernel unavailable"
            ):
                ReplayEngine(
                    matrix_trace, SimConfig(variant="base", kernel="native")
                )
            # A failed build leaves no partial artifact behind.
            leftovers = [
                path
                for path in tmp_path.rglob("*")
                if path.is_file() and path != cache
            ]
            assert not leftovers
        finally:
            native.reset()

    def test_import_builds_nothing(self, tmp_path):
        env = dict(
            os.environ,
            XDG_CACHE_HOME=str(tmp_path),
            PYTHONPATH=os.pathsep.join(sys.path),
        )
        subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro, repro.sim.native; "
                "assert repro.sim.native._tried is False",
            ],
            env=env,
            check=True,
        )
        assert not list(tmp_path.iterdir())
