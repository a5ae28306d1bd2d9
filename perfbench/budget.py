"""Predicted replay cost per component, from primitive unit costs.

The replay loop inlines its caches, TLBs, bloom signatures and
directory, so a profiler sees it as one frame. This module times the
public primitives those inlined blocks mirror, multiplies each unit
cost by the event counts a ``SimulationResult`` reports, and leaves the
rest of the measured replay time as the residual: interpreter dispatch,
scheduling and everything not modelled here.

It is a prediction, not a measurement: the inline loop does not call
these functions, so a component's figure is what it would cost through
its public method.
"""

from __future__ import annotations

import time
from functools import partial

from repro.cache.cache import SetAssociativeCache
from repro.coherence.mesi import Directory
from repro.core.signature import BloomSignature
from repro.params import SliccParams, SystemParams
from repro.sched import get_policy
from repro.sim.machine import DTLB_ENTRIES
from repro.sim.tlb import PAGE_SHIFT, Tlb
from repro.workloads import KIND_STORE

_CALLS = 50_000


def _per_call(fn, args) -> float:
    """Median seconds per call of ``fn(arg)`` over three passes."""
    passes = []
    for _ in range(3):
        t0 = time.perf_counter()
        for arg in args:
            fn(arg)
        passes.append((time.perf_counter() - t0) / len(args))
    return sorted(passes)[1]


def unit_costs() -> dict[str, float]:
    """Seconds per call of each primitive, on this host."""
    system = SystemParams()
    cache = SetAssociativeCache(system.l1i)
    resident = [s for s in range(cache.n_sets)] * (_CALLS // cache.n_sets)
    for block in resident[: cache.n_sets]:
        cache.access_fast(block)
    streaming = range(1 << 30, (1 << 30) + _CALLS)

    tlb = Tlb(DTLB_ENTRIES)
    tlb_resident = [p << PAGE_SHIFT for p in range(DTLB_ENTRIES)] * (
        _CALLS // DTLB_ENTRIES
    )
    for block in tlb_resident[:DTLB_ENTRIES]:
        tlb.access(block)

    bloom = BloomSignature(SliccParams().bloom_bits, cache)
    directory = Directory([SetAssociativeCache(system.l1d)])
    blocks = range(_CALLS)
    costs = {
        "l1_hit": _per_call(cache.access_fast, resident),
        "tlb_hit": _per_call(tlb.access, tlb_resident),
        "bloom_insert": _per_call(bloom.insert, blocks),
        "bloom_probe": _per_call(bloom.probe, blocks),
        "dir_read": _per_call(partial(directory.on_read, 0), blocks),
        "dir_write": _per_call(partial(directory.on_write, 0), blocks),
    }
    # Each pass streams fresh blocks/pages, so every call misses and fills.
    fresh = Tlb(DTLB_ENTRIES)
    costs["l1_miss"] = _per_call(cache.access_fast, streaming)
    costs["tlb_miss"] = _per_call(
        fresh.access, [b << PAGE_SHIFT for b in streaming]
    )
    return costs


def trace_stores(trace) -> int:
    """Store records in a trace (one ``Directory.on_write`` each)."""
    return sum(int((thread.kind == KIND_STORE).sum()) for thread in trace.threads)


def predict(result, costs: dict[str, float], stores: int) -> dict[str, float]:
    """Predicted seconds per component for one simulated run."""
    accesses = result.i_accesses + result.d_accesses
    misses = result.i_misses + result.d_misses
    tlb_misses = result.itlb_misses + result.dtlb_misses
    bloom = 0.0
    if get_policy(result.variant).slicc_machinery:
        bloom = (
            result.i_misses * costs["bloom_insert"]
            + result.broadcasts * costs["bloom_probe"]
        )
    return {
        "l1": (accesses - misses) * costs["l1_hit"] + misses * costs["l1_miss"],
        "tlb": (accesses - tlb_misses) * costs["tlb_hit"]
        + tlb_misses * costs["tlb_miss"],
        "bloom": bloom,
        "dir": stores * costs["dir_write"] + result.d_misses * costs["dir_read"],
    }
