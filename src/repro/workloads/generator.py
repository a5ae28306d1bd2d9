"""Synthetic trace generation from a :class:`WorkloadSpec`.

The generator is the substitution for the paper's PIN traces of Shore-MT
(DESIGN.md, "Modelling substitutions"). It is fully deterministic given ``(spec, n_threads,
seed)``: every thread derives its own child RNG from the master seed, so
regenerating a trace always yields bit-identical streams regardless of
generation order.

Instruction streams
-------------------
Each thread instantiates its transaction type's segment path: per
:class:`PathStep`, the visit is taken with ``step.probability`` and the
segment's blocks are walked ``inner_iterations`` times in program order
with a small per-block skip probability (conditional control flow). This
produces exactly the structure SLICC exploits — segment-grain locality,
intra-transaction revisits, inter-thread overlap through shared segments.

Data streams
------------
Data records are drawn from the three-way mixture documented on
:class:`DataSpec` (private hot set / shared hot structures / private cold
stream) and interleaved uniformly among the instruction records. The cold
stream advances to a fresh block every ``cold_run_length`` accesses, which
makes compulsory misses dominate data misses exactly as in Figure 1.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.spec import DATA_BLOCK_BASE, WorkloadSpec
from repro.workloads.trace import (
    KIND_INSTR,
    KIND_LOAD,
    KIND_STORE,
    Trace,
    ThreadTrace,
)

#: Consecutive cold-stream data accesses that land in the same block
#: before advancing (spatial run length of a scan).
COLD_RUN_LENGTH = 3

#: Average sequential-run length within a segment's fetch order. Real code
#: fetches a handful of sequential blocks, then branches elsewhere; this is
#: what keeps a next-line prefetcher from being unrealistically perfect.
FETCH_RUN_LENGTH = 4

#: Shared hot data structures live below the per-thread private regions.
SHARED_DATA_BASE = DATA_BLOCK_BASE // 2

_fetch_order_cache: dict[tuple[str, int], np.ndarray] = {}


def segment_fetch_order(workload: str, seg_id: int, base_block: int, n_blocks: int) -> np.ndarray:
    """The fixed branchy fetch order of one segment's blocks.

    The order is a permutation built from sequential runs (~4 blocks each)
    shuffled among themselves: within a run, fetch is sequential (a
    next-line prefetcher helps); across runs it jumps (it does not). The
    order is a pure function of (workload, seg_id) so every pass by every
    thread walks the segment identically — that determinism *is* the
    inter-thread instruction reuse SLICC harvests.
    """
    key = (workload, seg_id)
    cached = _fetch_order_cache.get(key)
    if cached is not None and len(cached) == n_blocks and cached[0] >= base_block:
        return cached
    # zlib.crc32 rather than hash(): str hashing is salted per process and
    # would silently break cross-run trace determinism.
    rng = np.random.default_rng(zlib.crc32(f"{workload}:{seg_id}".encode()))
    blocks = np.arange(base_block, base_block + n_blocks, dtype=np.int64)
    runs: list[np.ndarray] = []
    i = 0
    while i < n_blocks:
        run_len = int(rng.integers(2, 2 * FETCH_RUN_LENGTH))
        runs.append(blocks[i : i + run_len])
        i += run_len
    order = np.concatenate([runs[j] for j in rng.permutation(len(runs))])
    _fetch_order_cache[key] = order
    return order


def _instruction_stream(
    spec: WorkloadSpec, type_id: int, rng: np.random.Generator
) -> np.ndarray:
    """Generate one thread's instruction-block stream (program order)."""
    txn = spec.txn_types[type_id]
    chunks: list[np.ndarray] = []
    for step in txn.path:
        if step.probability < 1.0 and rng.random() >= step.probability:
            continue
        seg = spec.segments[step.seg_id]
        blocks = segment_fetch_order(
            spec.name, seg.seg_id, seg.base_block, seg.n_blocks
        )
        for _ in range(step.inner_iterations):
            if spec.block_skip_prob > 0.0:
                keep = rng.random(seg.n_blocks) >= spec.block_skip_prob
                chunks.append(blocks[keep])
            else:
                chunks.append(blocks)
    if not chunks:
        # Every visit was skipped (only possible with all-optional paths);
        # fall back to the first segment so the thread is non-empty.
        seg = spec.segments[txn.path[0].seg_id]
        chunks.append(
            segment_fetch_order(
                spec.name, seg.seg_id, seg.base_block, seg.n_blocks
            )
        )
    return np.concatenate(chunks)


def _data_stream(
    spec: WorkloadSpec, thread_id: int, n_data: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``n_data`` data records: (block ids, kinds)."""
    data = spec.data
    private_base = DATA_BLOCK_BASE + thread_id * data.private_region_blocks

    source = rng.random(n_data)
    hot_mask = source < data.hot_private_frac
    shared_mask = (~hot_mask) & (
        source < data.hot_private_frac + data.shared_frac
    )
    cold_mask = ~(hot_mask | shared_mask)

    addrs = np.empty(n_data, dtype=np.int64)

    n_hot = int(hot_mask.sum())
    if n_hot:
        addrs[hot_mask] = private_base + rng.integers(
            0, data.hot_private_blocks, size=n_hot
        )

    n_shared = int(shared_mask.sum())
    if n_shared:
        # Quadratic skew: low-numbered shared blocks (root pages) are far
        # hotter than high-numbered ones.
        skew = rng.random(n_shared) ** 2
        addrs[shared_mask] = SHARED_DATA_BASE + (
            skew * data.shared_hot_blocks
        ).astype(np.int64)

    n_cold = int(cold_mask.sum())
    if n_cold:
        cold_base = private_base + data.hot_private_blocks
        run = np.arange(n_cold, dtype=np.int64) // COLD_RUN_LENGTH
        addrs[cold_mask] = cold_base + (run % data.private_region_blocks)

    kinds = np.where(
        rng.random(n_data) < data.store_frac, KIND_STORE, KIND_LOAD
    ).astype(np.int8)
    return addrs, kinds


def generate_thread(
    spec: WorkloadSpec,
    thread_id: int,
    type_id: int,
    rng: np.random.Generator,
) -> ThreadTrace:
    """Generate one thread's full interleaved trace."""
    iblocks = _instruction_stream(spec, type_id, rng)
    n_instr = len(iblocks)
    n_data = int(round(n_instr * spec.data.accesses_per_iblock))
    daddrs, dkinds = _data_stream(spec, thread_id, n_data, rng)

    # Interleave: choose the instruction-record index after which each data
    # record occurs, then merge with np.insert (stable, program order kept).
    positions = np.sort(rng.integers(0, n_instr + 1, size=n_data))
    addr = np.insert(iblocks, positions, daddrs)
    kind = np.insert(
        np.zeros(n_instr, dtype=np.int8) + KIND_INSTR, positions, dkinds
    )
    return ThreadTrace(
        thread_id=thread_id, txn_type=type_id, addr=addr, kind=kind
    )


def generate_trace(
    spec: WorkloadSpec,
    n_threads: int,
    seed: int = 1,
    instructions_per_iblock: int = 12,
) -> Trace:
    """Generate a deterministic multi-thread trace for ``spec``.

    Thread ids double as arrival order; transaction types are drawn from
    the spec's weighted mix with the master RNG, then each thread's stream
    comes from an independent child RNG (so traces are stable under
    changes to generation internals of *other* threads).
    """
    if n_threads <= 0:
        raise ConfigurationError("n_threads must be positive")
    master = np.random.default_rng(seed)
    if spec.mix_phases:
        # Phase-shifting mix: each contiguous arrival slice draws from
        # its own phase weights, so the transaction mix changes mid-trace
        # while the per-thread streams stay bit-deterministic by seed.
        type_ids = np.empty(n_threads, dtype=np.int64)
        for start, end, phase in spec.phase_slices(n_threads):
            if end > start:
                type_ids[start:end] = master.choice(
                    len(spec.txn_types),
                    size=end - start,
                    p=np.array(phase.mix()),
                )
        nonzero = [
            i
            for i in range(len(spec.txn_types))
            if any(phase.weights[i] > 0 for phase in spec.mix_phases)
        ]
    else:
        mix = np.array(spec.type_mix())
        type_ids = master.choice(len(spec.txn_types), size=n_threads, p=mix)
        nonzero = [i for i, t in enumerate(spec.txn_types) if t.weight > 0]
    # Guarantee every type with nonzero weight appears at least once when
    # there is room: experiments slice per-type and an absent type would
    # silently produce empty series.
    if n_threads >= len(nonzero):
        present = set(type_ids.tolist())
        missing = [t for t in nonzero if t not in present]
        if spec.mix_phases:
            # Inject only into arrival slots of a phase that actually
            # schedules the type — injecting elsewhere would break the
            # phase invariant (each slice draws from its own weights).
            # A type whose positive-weight phases all rounded to empty
            # slices stays absent: the schedule gave it no slots.
            used: set[int] = set()
            slices = spec.phase_slices(n_threads)
            for type_id in missing:
                slot = next(
                    (
                        s
                        for start, end, phase in slices
                        if phase.weights[type_id] > 0
                        for s in range(start, end)
                        if s not in used
                    ),
                    None,
                )
                if slot is not None:
                    type_ids[slot] = type_id
                    used.add(slot)
        else:
            for slot, type_id in enumerate(missing):
                type_ids[slot] = type_id

    child_seeds = master.integers(0, 2**63 - 1, size=n_threads)
    threads = []
    for thread_id in range(n_threads):
        rng = np.random.default_rng(int(child_seeds[thread_id]))
        threads.append(
            generate_thread(spec, thread_id, int(type_ids[thread_id]), rng)
        )
    return Trace(
        workload=spec.name,
        threads=threads,
        instructions_per_iblock=instructions_per_iblock,
        seed=seed,
        metadata={
            "n_threads": n_threads,
            "footprint_blocks": spec.footprint_blocks(),
            "n_types": len(spec.txn_types),
            "n_phases": len(spec.mix_phases),
        },
    )
