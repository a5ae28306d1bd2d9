"""Native (C) quantum kernel for the non-migrating replay policies.

``_native.c`` replays one quantum of records per call for the
configurations :func:`blockers` admits — ``base``, ``nextline``, ``pif``
and ``affinity`` with LRU L1s, no miss classifiers, no banked NUCA L2
and at most :data:`MAX_CORES` cores. The Python scheduling loop in
:meth:`repro.sim.engine.ReplayEngine.run` (event heap, admission,
completion) is unchanged and makes one :func:`rk_dispatch` call per
dispatch.

State ownership: for the whole run C owns the per-core L1 tags, ages and
per-set ``hi`` counters, the TLB LRU orders, the L2 "seen" set, the
directory sharer sets, the next-line prefetch-pending sets and every
batched counter. :class:`NativeRun` imports that state from the engine's
Python objects after the first admission and exports it back when the
run ends, so ``engine.machine`` and ``_collect_results`` see exactly what
the inline loop would have left behind.

Build: the shared library is compiled lazily, once per machine, with
``cc -O2`` into ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``),
under a name keyed on sha256(C source + compiler flags + platform tag).
Each build goes to a temporary file that is ``os.replace``-d into place,
so concurrent builds never expose a partial library. A missing or
failing compiler, or an unwritable cache, leaves :func:`load` returning
None with the reason in :func:`status`; ``kernel="auto"`` then resolves
to the inline loop with identical results. Importing this module neither
builds nor loads anything.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile
import weakref
from pathlib import Path
from typing import Optional

import numpy as np

from repro.sched import get_policy
from repro.sched.base import SchedulingPolicy

SOURCE = Path(__file__).with_name("_native.c")
#: Compiler command; a build runs ``CC + CFLAGS + ("-o", out, source)``.
CC: tuple[str, ...] = ("cc",)
CFLAGS: tuple[str, ...] = ("-O2", "-shared", "-fPIC")
#: Sharer sets are uint64 core masks in C.
MAX_CORES = 64
#: Invalid L1 way / free slot marker (``EMPTY`` in ``_native.c``).
EMPTY = int(np.iinfo(np.int64).min)

# Per-core counter and engine-total slots; the order matches the K_* and
# T_* enums in _native.c.
_K_I_ACC, _K_I_MISS, _K_I_EV, _K_I_PF = 0, 1, 2, 3
_K_D_ACC, _K_D_MISS, _K_D_EV, _K_D_INV = 4, 5, 6, 7
_K_ITLB_ACC, _K_ITLB_MISS, _K_DTLB_ACC, _K_DTLB_MISS = 8, 9, 10, 11
_K_PF_ISSUED, _K_PF_USEFUL = 12, 13
_N_COUNTERS = 14
_T_BASE, _T_TLB, _T_I_STALL, _T_D_STALL, _T_BUSY, _T_INV_SENT = range(6)
_N_TOTALS = 6

_lib: Optional[ctypes.CDLL] = None
_path: Optional[Path] = None
_error: Optional[str] = None
_tried = False


def cache_dir() -> Path:
    """Where built libraries live: ``$XDG_CACHE_HOME/repro``."""
    root = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(root) / "repro"


def artifact_path() -> Path:
    """Cache path of the library for the current source and flags."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join(CC + CFLAGS).encode())
    digest.update(sysconfig.get_platform().encode())
    return cache_dir() / f"native-{digest.hexdigest()[:16]}.so"


def _build(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [*CC, *CFLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            detail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise OSError(
                f"{' '.join(CC)} exited with status {proc.returncode}: "
                f"{detail[0]}"
            )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _declare(lib: ctypes.CDLL) -> None:
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    signatures = {
        "rk_new": ([ptr, ptr], ptr),
        "rk_free": ([ptr], None),
        "rk_set_thread": ([ptr, i64, ptr, ptr], None),
        "rk_l2_add": ([ptr, ptr, i64], ctypes.c_int),
        "rk_dir_put": ([ptr, ptr, ptr, i64], ctypes.c_int),
        "rk_l2_count": ([ptr], i64),
        "rk_dir_count": ([ptr], i64),
        "rk_l2_dump": ([ptr, ptr], None),
        "rk_dir_dump": ([ptr, ptr, ptr], None),
        "rk_oom": ([ptr], ctypes.c_int),
        "rk_dispatch": ([ptr, i64, i64, i64, i64], i64),
    }
    for name, (argtypes, restype) in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype


def load() -> Optional[ctypes.CDLL]:
    """The loaded library, building it on first use; None when it cannot
    be built or loaded (the reason is in :func:`status`). Memoised per
    process — the Runner calls this before forking its workers."""
    global _lib, _path, _error, _tried
    if _tried:
        return _lib
    _tried = True
    try:
        path = artifact_path()
        if not path.exists():
            _build(path)
        lib = ctypes.CDLL(str(path))
        _declare(lib)
    except (OSError, subprocess.SubprocessError) as exc:
        _error = f"native kernel unavailable: {exc}"
        return None
    _lib, _path = lib, path
    return lib


def status() -> str:
    """Build status: the loaded library's path, or why there is none."""
    if load() is not None:
        return f"built: {_path}"
    return str(_error)


def reset() -> None:
    """Forget the memoised load outcome (tests)."""
    global _lib, _path, _error, _tried
    _lib = _path = _error = None
    _tried = False


def blockers(config) -> list[str]:
    """Why ``config`` cannot run on the native kernel (empty when it
    can). Pure function of the configuration — no engine needed."""
    policy = get_policy(config.variant)
    features = [
        what
        for flag, what in (
            (policy.migrates, "migrates threads"),
            (policy.slicc_machinery, "uses SLICC machinery"),
            (policy.time_multiplexes, "time-multiplexes"),
            (policy.quantum_hook, "has a quantum hook"),
        )
        if flag
    ]
    features += [
        f"overrides {hook}"
        for hook in ("on_thread_start", "on_complete")
        if getattr(policy, hook) is not getattr(SchedulingPolicy, hook)
    ]
    reasons = []
    if features:
        reasons.append(f"policy {policy.name!r} " + ", ".join(features))
    system = config.system
    l1i = policy.l1i_params(system) or system.l1i
    if l1i.policy != "lru":
        reasons.append("non-LRU L1-I policy")
    if system.l1d.policy != "lru":
        reasons.append("non-LRU L1-D policy")
    if config.collect_miss_classes:
        reasons.append("miss classifiers")
    if config.model_l2_capacity:
        reasons.append("banked NUCA L2")
    if system.n_cores > MAX_CORES:
        reasons.append(f"{system.n_cores} cores (max {MAX_CORES})")
    return reasons


def preload(configs) -> None:
    """Build and load the library in this process if any of ``configs``
    may resolve to it (the Runner calls this pre-fork, so workers
    inherit the loaded library instead of each loading it)."""
    env = os.environ.get("REPRO_KERNEL", "").strip()
    auto_native = env in ("", "auto", "native")
    for config in configs:
        if config.kernel == "native" or (
            config.kernel == "auto" and auto_native
        ):
            if not blockers(config):
                load()
                return


# ----------------------------------------------------------------------
# Import / export of one run's state
# ----------------------------------------------------------------------


def _import_cache(caches) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tags, ages, hi) arrays of a list of LRU caches, one row per core.

    LruPolicy assigns ages only from a set's ``hi`` counter, and every
    fill bumps it, so a set whose ``hi`` is 0 is empty with all-zero
    ages: only touched sets are copied, which keeps importing a fresh
    machine cheap.
    """
    first = caches[0]
    shape = (len(caches), first.n_sets, first.assoc)
    tags = np.full(shape, EMPTY, dtype=np.int64)
    ages = np.zeros(shape, dtype=np.int64)
    hi = np.zeros(shape[:2], dtype=np.int64)
    for core, cache in enumerate(caches):
        if not any(cache.policy._hi):
            continue
        hi[core] = cache.policy._hi
        age_rows = cache.policy._age
        for set_idx in np.flatnonzero(hi[core]).tolist():
            ages[core, set_idx] = age_rows[set_idx]
            for block, way in cache._index[set_idx].items():
                tags[core, set_idx, way] = block
    return tags, ages, hi


def _export_cache(caches, tags, ages, hi, dirty) -> None:
    """Write the sets the run touched back into the Python caches.

    Fills take the first empty way and only coherence invalidations
    punch holes, so a set's valid ways almost always form a prefix;
    those rows are rebuilt from slices of the resident blocks, the rest
    way by way.
    """
    assoc = tags.shape[2]
    ways = range(assoc)
    pads = [[None] * (assoc - n) for n in range(assoc + 1)]
    for core in np.flatnonzero(dirty.any(axis=1)).tolist():
        sets = np.flatnonzero(dirty[core])
        sub = tags[core, sets]
        valid = sub != EMPTY
        occupancy = valid.sum(axis=1)
        holes = valid != (np.arange(assoc) < occupancy[:, None])
        bounds = np.concatenate(([0], np.cumsum(occupancy))).tolist()
        blocks = sub[valid].tolist()
        resident = [blocks[a:b] for a, b in zip(bounds, bounds[1:])]
        rows = [row + pads[len(row)] for row in resident]
        indexes = [dict(zip(row, ways)) for row in resident]
        for i in np.flatnonzero(holes.any(axis=1)).tolist():
            row = [None if b == EMPTY else b for b in sub[i].tolist()]
            rows[i] = row
            indexes[i] = {b: way for way, b in enumerate(row) if b is not None}
        cache = caches[core]
        set_list = sets.tolist()
        for target, values in (
            (cache._tags, rows),
            (cache._index, indexes),
            (cache.policy._age, ages[core, sets].tolist()),
            (cache.policy._hi, hi[core, sets].tolist()),
        ):
            for set_idx, value in zip(set_list, values):
                target[set_idx] = value


def _import_tlbs(tlbs) -> tuple[np.ndarray, np.ndarray]:
    """MRU-first page arrays and fill counts of a list of TLBs."""
    pages = np.full((len(tlbs), tlbs[0].entries), EMPTY, dtype=np.int64)
    counts = np.zeros(len(tlbs), dtype=np.int64)
    for core, tlb in enumerate(tlbs):
        order = list(reversed(tlb._map))
        pages[core, : len(order)] = order
        counts[core] = len(order)
    return pages, counts


def _export_tlbs(tlbs, pages, counts) -> None:
    for tlb, row, n in zip(tlbs, pages.tolist(), counts.tolist()):
        tlb._map.clear()
        tlb._map.update(dict.fromkeys(reversed(row[:n])))


def _ptr(array: np.ndarray) -> int:
    return array.ctypes.data


class NativeRun:
    """One engine run on the native kernel.

    Construction imports the engine's machine state (call it after the
    first admission); :attr:`dispatch` replays one quantum; :meth:`export`
    writes the final state back into the Python objects.
    """

    def __init__(self, engine, lib: ctypes.CDLL) -> None:
        self._engine = engine
        self._lib = lib
        machine = engine.machine
        timing = engine.timing
        n = machine.n_cores
        l1i, l1d = machine.l1i, machine.l1d

        self.i_tags, self.i_ages, self.i_hi = _import_cache(l1i)
        self.d_tags, self.d_ages, self.d_hi = _import_cache(l1d)
        self.i_dirty = np.zeros(self.i_hi.shape, dtype=np.uint8)
        self.d_dirty = np.zeros(self.d_hi.shape, dtype=np.uint8)
        self.i_pend = np.zeros(self.i_tags.shape, dtype=np.uint8)
        prefetchers = engine.prefetchers
        if prefetchers is not None:
            # A pending prefetch is always resident (evicting it discards
            # it), so it maps to a flag on the way holding it.
            mask = l1i[0].n_sets - 1
            for core, pf in enumerate(prefetchers):
                for block in pf._pending:
                    row = self.i_tags[core, block & mask]
                    way = np.flatnonzero(row == block)[0]
                    self.i_pend[core, block & mask, way] = 1
        self.itlb, self.itlb_n = _import_tlbs(machine.itlb)
        self.dtlb, self.dtlb_n = _import_tlbs(machine.dtlb)
        self.counters = np.zeros((n, _N_COUNTERS), dtype=np.int64)
        self.totals = np.zeros(_N_TOTALS, dtype=np.int64)

        config = np.array(
            [
                n,
                l1i[0].n_sets,
                l1i[0].assoc,
                l1d[0].n_sets,
                l1d[0].assoc,
                machine.itlb[0].entries,
                machine.dtlb[0].entries,
                prefetchers is not None,
                timing.ibase,
                timing.dbase,
                timing.itlb_miss,
                timing.dtlb_miss,
                timing.i_miss_l2,
                timing.i_miss_mem,
                timing.d_load_l2,
                timing.d_load_mem,
                timing.d_store_l2,
                timing.d_store_mem,
                timing.prefetch_late(True),
                len(engine.threads),
            ],
            dtype=np.int64,
        )
        buffers = (
            self.i_tags, self.i_ages, self.i_hi, self.i_pend, self.i_dirty,
            self.d_tags, self.d_ages, self.d_hi, self.d_dirty,
            self.itlb, self.itlb_n, self.dtlb, self.dtlb_n,
            self.counters, self.totals,
        )
        table = (ctypes.c_void_p * len(buffers))(*map(_ptr, buffers))
        ctx = lib.rk_new(_ptr(config), table)
        if not ctx:
            raise MemoryError("native kernel: out of memory")
        self.ctx = ctx
        self._finalizer = weakref.finalize(self, lib.rk_free, ctx)

        # Records are read straight from the trace arrays; the keepalive
        # list pins any contiguous copy a non-native layout needed.
        self._keep = []
        self.lengths = []
        for tid, state in enumerate(engine.threads):
            addr = np.ascontiguousarray(state.trace.addr, dtype=np.int64)
            kind = np.ascontiguousarray(state.trace.kind, dtype=np.int8)
            self._keep.append((addr, kind))
            self.lengths.append(len(addr))
            lib.rk_set_thread(ctx, tid, _ptr(addr), _ptr(kind))

        seen = np.fromiter(machine._l2_seen, dtype=np.int64)
        sharers = machine.directory._sharers
        keys = np.fromiter(sharers, dtype=np.int64, count=len(sharers))
        masks = np.array(
            [sum(1 << core for core in cores) for cores in sharers.values()],
            dtype=np.uint64,
        )
        if (
            lib.rk_l2_add(ctx, _ptr(seen), len(seen))
            or lib.rk_dir_put(ctx, _ptr(keys), _ptr(masks), len(keys))
        ):
            raise MemoryError("native kernel: out of memory")
        #: ``dispatch(ctx, core, thread_id, pos, end) -> cycles``.
        self.dispatch = lib.rk_dispatch

    def export(self) -> None:
        """Write the run's final state back into the engine's objects
        and release the C state."""
        lib, ctx, engine = self._lib, self.ctx, self._engine
        if lib.rk_oom(ctx):
            raise MemoryError("native kernel: out of memory")
        machine = engine.machine
        _export_cache(
            machine.l1i, self.i_tags, self.i_ages, self.i_hi, self.i_dirty
        )
        _export_cache(
            machine.l1d, self.d_tags, self.d_ages, self.d_hi, self.d_dirty
        )
        _export_tlbs(machine.itlb, self.itlb, self.itlb_n)
        _export_tlbs(machine.dtlb, self.dtlb, self.dtlb_n)

        seen = np.empty(lib.rk_l2_count(ctx), dtype=np.int64)
        lib.rk_l2_dump(ctx, _ptr(seen))
        machine._l2_seen.update(seen.tolist())
        keys = np.empty(lib.rk_dir_count(ctx), dtype=np.int64)
        masks = np.empty(len(keys), dtype=np.uint64)
        lib.rk_dir_dump(ctx, _ptr(keys), _ptr(masks))
        sharers = machine.directory._sharers
        sharers.clear()
        cores_of: dict[int, tuple[int, ...]] = {}
        for block, mask in zip(keys.tolist(), masks.tolist()):
            cores = cores_of.get(mask)
            if cores is None:
                cores = cores_of[mask] = tuple(
                    core for core in range(mask.bit_length()) if mask >> core & 1
                )
            sharers[block] = set(cores)
        self._finalizer()

        counters = self.counters.tolist()
        for core, row in enumerate(counters):
            i_stats = machine.l1i[core].stats
            i_stats.accesses += row[_K_I_ACC]
            i_stats.misses += row[_K_I_MISS]
            i_stats.evictions += row[_K_I_EV]
            i_stats.prefetch_fills += row[_K_I_PF]
            d_stats = machine.l1d[core].stats
            d_stats.accesses += row[_K_D_ACC]
            d_stats.misses += row[_K_D_MISS]
            d_stats.evictions += row[_K_D_EV]
            d_stats.invalidations += row[_K_D_INV]
            machine.itlb[core].accesses += row[_K_ITLB_ACC]
            machine.itlb[core].misses += row[_K_ITLB_MISS]
            machine.dtlb[core].accesses += row[_K_DTLB_ACC]
            machine.dtlb[core].misses += row[_K_DTLB_MISS]
        if engine.prefetchers is not None:
            mask = self.i_pend.astype(bool)
            for core, pf in enumerate(engine.prefetchers):
                pf.issued += counters[core][_K_PF_ISSUED]
                pf.useful += counters[core][_K_PF_USEFUL]
                pf._pending.clear()
                pf._pending.update(self.i_tags[core][mask[core]].tolist())
        totals = self.totals.tolist()
        engine.cycles_base += totals[_T_BASE]
        engine.cycles_tlb += totals[_T_TLB]
        engine.cycles_i_stall += totals[_T_I_STALL]
        engine.cycles_d_stall += totals[_T_D_STALL]
        engine.busy_cycles += totals[_T_BUSY]
        machine.directory.invalidations_sent += totals[_T_INV_SENT]
