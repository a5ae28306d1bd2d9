"""Trace-replay simulation engine.

Replays a :class:`repro.workloads.trace.Trace` on a :class:`Machine`
under one *scheduling policy* (``SimConfig.variant`` names it). Policies
live in the :mod:`repro.sched` registry — the paper's seven variants:

======================  =====================================================
``base``                OS-style static scheduling, no migration (Section 5.1)
``nextline``            base + per-core next-line instruction prefetcher
``pif``                 base + the PIF upper-bound L1-I (512KB @ 32KB latency)
``slicc``               type-oblivious SLICC thread migration (Section 4.1)
``slicc-sw``            SLICC + software-provided types + teams (Section 4.3)
``slicc-pp``            SLICC + scout-core preamble type detection
``steps``               STEPS-style same-core time-multiplexing (Section 6)
======================  =====================================================

plus the scenario extensions (``tmi``, ``affinity``, ``random-migrate``
— see :mod:`repro.sched.extensions`). The engine owns the mechanism
(caches, queues, agents, the replay loop); the policy object declares
which machinery to build and makes the scheduling decisions, only at
quantum boundaries and scheduling events — the per-record hot path
stays policy-free (see DESIGN.md's policy-subsystem section).

Scheduling model: every core has a local cycle clock and a FIFO thread
queue; an event heap always advances the core that is earliest in time,
running its current thread for up to ``quantum`` records before
rescheduling. This quantum interleaving approximates the concurrency of
the paper's cycle-accurate Zesto runs while staying fast enough for
parameter sweeps (DESIGN.md, "Modelling substitutions", discusses the
substitution).

A thread runs on exactly one core at a time. Migration enqueues the
thread at the target core and charges it the Thread-Motion-style context
transfer cost (Section 4.4) when it next starts running.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.cache.classify import MissClass, MissClassifier
from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.lru import LruPolicy
from repro.core.agent import SliccAgent
from repro.core.scheduler import ThreadQueues
from repro.core.txn_types import PreambleTypeDetector
from repro.errors import ConfigurationError, SimulationError
from repro.params import SliccParams, SystemParams
from repro.prefetch.nextline import NextLinePrefetcher
from repro.sched import (
    STEPS_SWITCH_CYCLES,  # noqa: F401  (compat re-export; lives in sched)
    SchedulingPolicy,
    get_policy,
    has_policy,
    policy_names,
)
from repro.sim.machine import Machine
from repro.sim.results import SimulationResult
from repro.sim.timing import TimingModel
from repro.sim.tlb import PAGE_SHIFT
from repro.workloads.trace import KIND_INSTR, KIND_STORE, Trace

#: Deprecated: the paper's original seven variants, frozen here for
#: compatibility (golden grids, older callers). The authoritative —
#: growing — list is the policy registry: ``repro.sched.policy_names()``.
VARIANTS = (
    "base",
    "nextline",
    "pif",
    "slicc",
    "slicc-sw",
    "slicc-pp",
    "steps",
)

#: Deprecated: the paper's variants that migrate threads. Policy classes
#: now carry this as the ``migrates`` capability flag.
SLICC_VARIANTS = ("slicc", "slicc-sw", "slicc-pp")

#: Deprecated: the paper's variants that use team scheduling (the
#: ``team_scheduling`` policy flag, minus STEPS).
TEAM_VARIANTS = ("slicc-sw", "slicc-pp")

#: Cycles of L2 bandwidth charged per block shipped by the migration data
#: prefetcher (Section 5.5's mitigation experiment).
DATA_PREFETCH_CYCLES_PER_BLOCK = 2

#: One in this many bypassed misses installs anyway (gap self-repair; see
#: the segment-protection comment in ``_process_instruction``).
BYPASS_REPAIR_RATE = 8

#: MissClass members resolved once (the inline classifier path batches
#: per-class counts in locals and flushes through these keys).
_MC_COMPULSORY = MissClass.COMPULSORY
_MC_CAPACITY = MissClass.CAPACITY
_MC_CONFLICT = MissClass.CONFLICT

#: Valid ``SimConfig.kernel`` (and ``REPRO_KERNEL``) values.
KERNELS = ("auto", "native", "inline", "fallback")


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation run."""

    variant: str = "base"
    system: SystemParams = field(default_factory=SystemParams)
    slicc: SliccParams = field(default_factory=SliccParams)
    quantum: int = 50
    collect_miss_classes: bool = False
    #: Cycles between successive thread arrivals. ``None`` derives a
    #: throughput-matched spacing (mean thread service time / cores) so
    #: the machine runs at steady state with threads at *different phases*
    #: of their transactions — the regime of the paper's 1K-task stream.
    #: 0 makes all threads available at cycle zero (synchronised start).
    arrival_spacing: Optional[int] = None
    #: Idle-core work stealing in SLICC variants (see
    #: :meth:`ReplayEngine._rebalance`). Exposed for the ablation bench.
    work_stealing: bool = True
    #: Minimum queue depth a victim core must have before an idle core
    #: steals from it. Higher values trade utilisation for segment
    #: stability (a stolen thread replicates its segment at the idle
    #: core, evicting whatever lived there).
    steal_min_depth: int = 3
    #: Reset the stolen-to core's MC so the stolen thread *replicates*
    #: the hot segment there (spreading queue load over two copies).
    #: False keeps the idle core's cache frozen: the stolen thread runs
    #: bypassed until a segment match pulls it back into the collective.
    #: The default False preserves assembled segments; the ablation bench
    #: quantifies both policies.
    steal_resets_mc: bool = False
    #: Migration data prefetcher (Section 5.5): ship the last n data
    #: block tags with a migrating thread. 0 disables (the default — the
    #: paper found the mitigation unhelpful; the bench reproduces that).
    data_prefetch_n: int = 0
    #: Model the banked NUCA L2's finite capacity and bank distances
    #: (Table 2) instead of the infinite-L2 approximation. Slower; only
    #: changes results when a workload's footprint pressures 16MB.
    model_l2_capacity: bool = False
    #: Replay kernel selection. ``"auto"`` (the default) resolves to the
    #: native C kernel (``sim/native.py``) for the configurations it
    #: covers — the non-migrating policies with LRU L1s, see
    #: :func:`repro.sim.native.blockers` — when the library builds, and
    #: to the pure-python inline loop otherwise. ``"native"`` requests
    #: the C kernel explicitly (raising on an ineligible config or when
    #: the library cannot be built); ``"inline"`` forces the inline
    #: loop (which also hosts the scheduling loop the native kernel runs
    #: inside); ``"fallback"`` routes every record through the generic
    #: ``_process_instruction`` / ``_process_data`` reference path.
    #: ``REPRO_KERNEL=<name>`` re-resolves ``"auto"`` fleet-wide
    #: (falling back silently to inline on ineligible configs). All
    #: kernels are byte-identical; the choice never affects results (and
    #: is excluded from experiment store keys — see ``exp/spec.py``).
    kernel: str = "auto"

    def __post_init__(self) -> None:
        if not has_policy(self.variant):
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; known: {policy_names()}"
            )
        if self.quantum <= 0:
            raise ConfigurationError("quantum must be positive")
        if self.kernel not in KERNELS:
            raise ConfigurationError(
                f"unknown kernel {self.kernel!r}; "
                f"expected one of {', '.join(KERNELS)}"
            )


class _ThreadState:
    """Mutable replay position of one thread.

    ``addr``/``kind``/``page`` are plain-list renderings of the trace
    arrays (page ids precomputed), bound at admission from the cache on
    the thread trace (:meth:`ThreadTrace.replay_tables`): indexing a
    Python list yields cached small ints where indexing a numpy array
    allocates a numpy scalar that must then be unboxed — a large
    per-record cost in the replay loop — and the tables are shared
    read-only across every simulation of the same trace. The native
    kernel reads the trace arrays directly and leaves them unbound.
    """

    __slots__ = ("trace", "pos", "pending_cycles", "done", "addr", "kind", "page")

    def __init__(self, trace) -> None:
        self.trace = trace
        self.pos = 0
        self.pending_cycles = 0
        self.done = False
        self.addr: Optional[list[int]] = None
        self.kind: Optional[list[int]] = None
        self.page: Optional[list[int]] = None


class _CoreHot(NamedTuple):
    """Per-core references the replay loop touches, resolved once.

    run() unpacks this positionally per dispatch; the field order here is
    the single source of truth (construction in ``_build_core_hot`` uses
    keywords, so only the unpack in run() must mirror this order).
    """

    l1i_index: list
    l1i_tags: list
    l1i_set_mask: int
    l1i_assoc: int
    l1i_stats: object
    l1i_is_lru: bool
    l1i_on_hit: object
    l1i_need_on_miss: bool
    l1i_on_miss: object
    l1i_on_fill: object
    l1i_choose_victim: object
    l1i_on_evict: object
    l1i_evict_is_sig: bool
    l1i_ages: Optional[list]
    l1i_hi: Optional[list]
    itlb: object
    itlb_map: object
    itlb_entries: int
    l1d_index: list
    l1d_tags: list
    l1d_set_mask: int
    l1d_assoc: int
    l1d_stats: object
    l1d_is_lru: bool
    l1d_on_hit: object
    l1d_need_on_miss: bool
    l1d_on_miss: object
    l1d_on_fill: object
    l1d_choose_victim: object
    l1d_on_evict: object
    l1d_evict_is_dir: bool
    l1d_ages: Optional[list]
    l1d_hi: Optional[list]
    dtlb: object
    dtlb_map: object
    dtlb_entries: int
    sig_masks: Optional[list]
    sig_imask: int
    sig_bit: int
    presence_excl: int
    slicc_agent: Optional[SliccAgent]
    steps_agent: Optional[SliccAgent]
    mc: object
    mc_limit: int
    msv: object
    msv_bits: object
    msv_window: int
    msv_dilution: int
    mtq_entries: object
    mtq_matched: int
    pf: Optional[NextLinePrefetcher]
    pf_pending: Optional[set]
    i_cls: Optional[MissClassifier]
    icls_shadow: object
    icls_seen: Optional[set]
    icls_cap: int
    d_cls: Optional[MissClassifier]
    dcls_shadow: object
    dcls_seen: Optional[set]
    dcls_cap: int
    nuca_ipen: Optional[list]


class ReplayEngine:
    """Replays one trace under one configuration. Single-use."""

    def __init__(self, trace: Trace, config: SimConfig) -> None:
        self.trace = trace
        self.config = config
        system = config.system
        self.timing_base = system

        variant = config.variant
        # The policy object carries all variant-specific capability flags
        # and decisions; the engine attributes below mirror its flags so
        # the construction and hot-loop code reads the same as before.
        policy_cls = get_policy(variant)
        self.policy: SchedulingPolicy = policy_cls(config)
        self.is_slicc = self.policy.slicc_machinery
        # STEPS (Section 6): time-multiplex similar threads on one core,
        # context-switching when the running thread leaves the cached
        # chunk (dilution), instead of migrating between cores.
        self.is_steps = self.policy.time_multiplexes

        l1i_params = policy_cls.l1i_params(system)
        self.machine = Machine(
            system,
            slicc=config.slicc if self.is_slicc else None,
            l1i_params=l1i_params,
            with_signatures=self.is_slicc,
            model_l2_capacity=config.model_l2_capacity,
        )
        self.timing = TimingModel(system, self.machine.l1i_params.hit_latency)

        n = system.n_cores
        # SLICC-Pp dedicates the last core to preamble scouting.
        if self.policy.scout_core:
            self.worker_cores = list(range(n - 1))
        else:
            self.worker_cores = list(range(n))
        self._worker_set = frozenset(self.worker_cores)
        #: Worker cores as a bitmask (the fused presence-probe operand).
        self._worker_mask = sum(1 << c for c in self.worker_cores)

        self.queues = ThreadQueues(n)
        self.agents: Optional[list[SliccAgent]] = None
        if self.is_slicc:
            self.agents = [
                SliccAgent(core, config.slicc, n) for core in range(n)
            ]
        self.steps_agents: Optional[list[SliccAgent]] = None
        if self.is_steps:
            # STEPS reuses the MSV dilution detector per core, nothing
            # else of the SLICC machinery.
            self.steps_agents = [
                SliccAgent(core, config.slicc, n) for core in range(n)
            ]

        self.data_prefetcher = None
        if config.data_prefetch_n > 0 and self.policy.migrates:
            from repro.prefetch.migration_data import MigrationDataPrefetcher

            self.data_prefetcher = MigrationDataPrefetcher(
                config.data_prefetch_n
            )

        # Type-aware scheduling (SLICC-SW / SLICC-Pp): partition the
        # worker cores among transaction types proportionally to their
        # share of the thread mix, so same-type threads co-schedule on the
        # same caches and pipeline (Section 4.3.2's teams, realised as a
        # static partition — robust under any arrival pattern, whereas
        # dynamic team formation needs a deep standing pool to group
        # from). Types too small to earn 2 cores pool into a shared
        # region and behave like the paper's stray threads.
        self.type_source = self.policy.make_type_source()
        self._partition: Optional[dict[int, frozenset[int]]] = None
        self._thread_type_key: dict[int, int] = {}
        if self.type_source is not None:
            counts: dict[int, int] = {}
            for thread in trace.threads:
                key = self.type_source.type_of(thread)
                self._thread_type_key[thread.thread_id] = key
                counts[key] = counts.get(key, 0) + 1
            self._partition = self._build_partition(counts)

        # Sorted-tuple mirror of each partition region, precomputed so
        # placement does not re-sort the allowed frozenset per thread.
        self._worker_sorted = tuple(self.worker_cores)
        self._partition_sorted: Optional[dict[int, tuple[int, ...]]] = None
        if self._partition is not None:
            self._partition_sorted = {
                key: tuple(sorted(cores))
                for key, cores in self._partition.items()
            }

        self.prefetchers: Optional[list[NextLinePrefetcher]] = None
        if self.policy.nextline_prefetch:
            self.prefetchers = []
            for core in range(n):
                pf = NextLinePrefetcher(self.machine.l1i[core])
                self.machine.l1i[core].on_evict = pf.on_evict
                self.prefetchers.append(pf)

        self.i_classifiers: Optional[list[MissClassifier]] = None
        self.d_classifiers: Optional[list[MissClassifier]] = None
        if config.collect_miss_classes:
            self.i_classifiers = [
                MissClassifier(self.machine.l1i_params.n_blocks)
                for _ in range(n)
            ]
            self.d_classifiers = [
                MissClassifier(system.l1d.n_blocks) for _ in range(n)
            ]

        # Banked-NUCA flat state (PR 3): per-bank hot tuples shared by
        # all cores, a per-core instruction-miss penalty table (bank
        # latency plus the front-end refill), and batched bank
        # statistics run() flushes once when the loop ends.
        self._nuca_hot: Optional[list[tuple]] = None
        self._nuca_i_pen: Optional[list[list[int]]] = None
        self._nuca_acc: Optional[list[int]] = None
        self._nuca_miss: Optional[list[int]] = None
        self._nuca_ev: Optional[list[int]] = None
        if self.machine.nuca is not None:
            nuca = self.machine.nuca
            refill = system.frontend_refill_cycles
            self._nuca_hot = nuca.hot_banks()
            self._nuca_i_pen = [
                [lat + refill for lat in nuca.latency_table(core)]
                for core in range(n)
            ]
            self._nuca_acc = [0] * nuca.n_banks
            self._nuca_miss = [0] * nuca.n_banks
            self._nuca_ev = [0] * nuca.n_banks

        # Fast-path coverage: since PR 3 every configuration takes the
        # inlined record handling in run() — the next-line prefetcher,
        # the miss classifiers, the migration data prefetcher and the
        # banked NUCA L2 all expose flat hot state the loop drives
        # directly with plain ints and batched counter flushes. The
        # generic _process_instruction/_process_data methods are kept as
        # the reference implementation: the golden suite pins both, and
        # tests force these flags off to replay a config through the
        # reference path and compare byte-for-byte.
        self._fast_i = True
        self._fast_d = True

        # Thread / core state.
        self.threads = [_ThreadState(t) for t in trace.threads]
        self.running: list[Optional[int]] = [None] * n
        self.clock = [0] * n
        self._heap: list[tuple[int, int, int]] = []
        self._in_heap = [False] * n
        self._seq = 0
        self._arrival_ptr = 0
        self._resident = 0
        # SLICC manages a 2N pool (Section 5.1); STEPS also needs peers
        # queued per core to multiplex between.
        pool_factor = (
            config.slicc.thread_pool_factor
            if (self.policy.migrates or self.is_steps)
            else 1
        )
        self.pool_size = pool_factor * len(self.worker_cores)

        spacing = config.arrival_spacing
        if spacing is None:
            # Throughput-matched arrival rate: one thread per (mean thread
            # service time / worker count), using the base cycle cost as
            # the service-time proxy.
            mean_records = trace.total_records / len(trace.threads)
            spacing = int(
                mean_records
                * system.base_cycles_per_iblock
                / max(1, len(self.worker_cores))
            )
        self._arrival_time = [spacing * i for i in range(len(self.threads))]

        # Work-stealing knobs, resolved once (the _rebalance early-out
        # runs on every migration and completion).
        self._steal_enabled = self.policy.migrates and config.work_stealing
        self._steal_min_depth = config.steal_min_depth
        self._steal_resets_mc = config.steal_resets_mc

        # Statistics.
        self.migrations = 0
        self.context_switches = 0
        self.steals = 0
        self.completed = 0
        self._bypass_tick = 0
        self.busy_cycles = 0
        self.cycles_base = 0
        self.cycles_i_stall = 0
        self.cycles_d_stall = 0
        self.cycles_migration = 0
        self.cycles_tlb = 0
        self._ran = False

        # Per-core tuples of every reference the replay loop touches,
        # resolved once here (after all cache/prefetcher/signature
        # wiring) so each dispatch is a single tuple unpack instead of
        # dozens of attribute chains. Everything inside is stable for
        # the lifetime of the run: policies, stat blocks, TLB maps and
        # tracker objects are mutated in place, never rebound.
        self._core_hot = [self._build_core_hot(core) for core in range(n)]

        # Policy attachment: the policy allocates its per-run state
        # against the fully built machine, and its decision entry points
        # are bound as engine attributes so the replay loop dispatches
        # through one bound-method call exactly as before the extraction.
        policy = self.policy
        policy.bind(self)
        self._evaluate_migration = policy.evaluate_migration
        self._steps_switch = policy.context_switch
        policy_type = type(policy)
        self._policy_on_start = (
            policy_type.on_thread_start
            is not SchedulingPolicy.on_thread_start
        )
        self._policy_on_complete = (
            policy_type.on_complete is not SchedulingPolicy.on_complete
        )
        self._policy_quantum_hook = policy.quantum_hook

        # Kernel selection: native (C quanta, sim/native.py) vs inline
        # (the handwritten per-record loop) vs fallback (the generic
        # reference methods).
        # All are byte-identical — the golden suite pins it; the choice
        # is pure performance.
        self._native_lib = None
        self.kernel = self._select_kernel()
        if self.kernel == "fallback":
            self._fast_i = False
            self._fast_d = False

    def _native_unavailable(self) -> Optional[str]:
        """Why this run cannot use the native kernel (None when it can).

        Checks the configuration first (:func:`repro.sim.native.blockers`)
        and only then builds/loads the library, so ineligible configs
        never pay for a compile.
        """
        from repro.sim import native

        blockers = native.blockers(self.config)
        if blockers:
            return "the configuration is ineligible: " + "; ".join(blockers)
        self._native_lib = native.load()
        if self._native_lib is None:
            return native.status()
        return None

    def _select_kernel(self) -> str:
        """Resolve ``config.kernel`` to the kernel this run will use.

        ``auto`` resolves to ``native`` when the configuration is
        eligible and the library builds, else to ``inline``.
        ``REPRO_KERNEL=<name>`` re-resolves ``auto`` fleet-wide (CI runs
        the golden suite this way), falling back *silently* to inline
        when the named kernel cannot run this config — a fleet override
        must not break ineligible configs. An explicit per-config
        ``native`` request, by contrast, is validated loudly: an
        ineligible configuration or an unbuildable library raises rather
        than silently running a different kernel than the caller asked
        for.
        """
        requested = self.config.kernel
        if requested == "auto":
            env = os.environ.get("REPRO_KERNEL", "").strip() or "auto"
            if env not in KERNELS:
                raise ConfigurationError(
                    f"unknown REPRO_KERNEL {env!r}; "
                    f"expected one of {', '.join(KERNELS)}"
                )
            if env in ("auto", "native"):
                return "inline" if self._native_unavailable() else "native"
            return env
        if requested == "native":
            reason = self._native_unavailable()
            if reason:
                raise ConfigurationError(
                    f"kernel='native' requested but {reason}"
                )
            return "native"
        return requested

    def _build_core_hot(self, core: int) -> "_CoreHot":
        machine = self.machine
        l1i = machine.l1i[core]
        l1i_policy = l1i.policy
        l1i_is_lru = l1i_policy.__class__ is LruPolicy
        l1d = machine.l1d[core]
        l1d_policy = l1d.policy
        l1d_is_lru = l1d_policy.__class__ is LruPolicy
        itlb = machine.itlb[core]
        dtlb = machine.dtlb[core]
        sig_set = machine.signature_set
        if sig_set is not None:
            sig_masks = sig_set.masks
            sig_imask = machine._sig_index_mask
            sig_bit = 1 << core
            presence_excl = self._worker_mask & ~(1 << core)
        else:
            sig_masks = None
            sig_imask = sig_bit = presence_excl = 0
        slicc_agent = self.agents[core] if self.agents is not None else None
        steps_agent = (
            self.steps_agents[core] if self.steps_agents is not None else None
        )
        track = slicc_agent if slicc_agent is not None else steps_agent
        if track is not None:
            mc = track.mc
            mc_limit = mc.fill_up_t
            msv = track.msv
            msv_bits = msv._bits
            msv_window = msv.window
            msv_dilution = msv.dilution_t
        else:
            mc = msv = msv_bits = None
            mc_limit = msv_window = msv_dilution = 0
        if slicc_agent is not None:
            mtq_entries = slicc_agent.mtq._entries
            mtq_matched = slicc_agent.mtq.matched_t
        else:
            mtq_entries = None
            mtq_matched = 0
        pf = self.prefetchers[core] if self.prefetchers is not None else None
        i_cls = (
            self.i_classifiers[core] if self.i_classifiers is not None else None
        )
        d_cls = (
            self.d_classifiers[core] if self.d_classifiers is not None else None
        )
        return _CoreHot(
            l1i_index=l1i._index,
            l1i_tags=l1i._tags,
            l1i_set_mask=l1i._set_mask,
            l1i_assoc=l1i.assoc,
            l1i_stats=l1i.stats,
            l1i_is_lru=l1i_is_lru,
            l1i_on_hit=l1i_policy.on_hit,
            l1i_need_on_miss=(
                type(l1i_policy).on_miss is not ReplacementPolicy.on_miss
            ),
            l1i_on_miss=l1i_policy.on_miss,
            l1i_on_fill=l1i_policy.on_fill,
            l1i_choose_victim=l1i_policy.choose_victim,
            l1i_on_evict=l1i.on_evict,
            l1i_evict_is_sig=(
                machine.signatures is not None
                and l1i.on_evict == machine.signatures[core].on_evict
            ),
            l1i_ages=l1i_policy._age if l1i_is_lru else None,
            l1i_hi=l1i_policy._hi if l1i_is_lru else None,
            itlb=itlb,
            itlb_map=itlb._map,
            itlb_entries=itlb.entries,
            l1d_index=l1d._index,
            l1d_tags=l1d._tags,
            l1d_set_mask=l1d._set_mask,
            l1d_assoc=l1d.assoc,
            l1d_stats=l1d.stats,
            l1d_is_lru=l1d_is_lru,
            l1d_on_hit=l1d_policy.on_hit,
            l1d_need_on_miss=(
                type(l1d_policy).on_miss is not ReplacementPolicy.on_miss
            ),
            l1d_on_miss=l1d_policy.on_miss,
            l1d_on_fill=l1d_policy.on_fill,
            l1d_choose_victim=l1d_policy.choose_victim,
            l1d_on_evict=l1d.on_evict,
            l1d_evict_is_dir=(
                getattr(l1d.on_evict, "func", None)
                == machine.directory.on_evict
            ),
            l1d_ages=l1d_policy._age if l1d_is_lru else None,
            l1d_hi=l1d_policy._hi if l1d_is_lru else None,
            dtlb=dtlb,
            dtlb_map=dtlb._map,
            dtlb_entries=dtlb.entries,
            sig_masks=sig_masks,
            sig_imask=sig_imask,
            sig_bit=sig_bit,
            presence_excl=presence_excl,
            slicc_agent=slicc_agent,
            steps_agent=steps_agent,
            mc=mc,
            mc_limit=mc_limit,
            msv=msv,
            msv_bits=msv_bits,
            msv_window=msv_window,
            msv_dilution=msv_dilution,
            mtq_entries=mtq_entries,
            mtq_matched=mtq_matched,
            pf=pf,
            pf_pending=pf._pending if pf is not None else None,
            i_cls=i_cls,
            icls_shadow=i_cls._shadow if i_cls is not None else None,
            icls_seen=i_cls._seen if i_cls is not None else None,
            icls_cap=i_cls.capacity_blocks if i_cls is not None else 0,
            d_cls=d_cls,
            dcls_shadow=d_cls._shadow if d_cls is not None else None,
            dcls_seen=d_cls._seen if d_cls is not None else None,
            dcls_cap=d_cls.capacity_blocks if d_cls is not None else 0,
            nuca_ipen=(
                self._nuca_i_pen[core] if self._nuca_i_pen is not None else None
            ),
        )

    # ------------------------------------------------------------------
    # Heap / activation helpers
    # ------------------------------------------------------------------

    def _build_partition(
        self, counts: dict[int, int]
    ) -> dict[int, frozenset[int]]:
        """Split the worker cores among types by thread-count share.

        Types earning fewer than 2 cores pool into a shared region
        (key ``-1``) alongside any leftover cores — their threads are the
        equivalent of the paper's strays.
        """
        workers = list(self.worker_cores)
        total = max(1, sum(counts.values()))
        n = len(workers)
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        small_keys = [k for k, c in ordered if round(n * c / total) < 2]
        # Reserve a pool region when small types exist.
        reserve = 2 if small_keys else 0
        assignment: dict[int, frozenset[int]] = {}
        cursor = 0
        for key, count in ordered:
            if key in small_keys:
                continue
            want = round(n * count / total)
            avail = n - reserve - cursor
            take = min(want, avail)
            if take < 2:
                small_keys.append(key)
                continue
            assignment[key] = frozenset(workers[cursor : cursor + take])
            cursor += take
        pool = frozenset(workers[cursor:])
        if pool:
            for key in small_keys:
                assignment[key] = pool
            assignment[-1] = pool
        else:
            # Everything assigned exactly: strays roam the whole chip.
            for key in small_keys:
                assignment[key] = frozenset(workers)
            assignment[-1] = frozenset(workers)
        return assignment

    def _allowed_for(self, thread_id: int) -> frozenset[int]:
        """Cores a thread may be placed on / migrate to."""
        if self._partition is None:
            return self._worker_set
        key = self._thread_type_key.get(thread_id, -1)
        return self._partition.get(key, self._worker_set)

    def _activate(self, core: int, at_cycle: int) -> None:
        """Ensure a core with work is in the event heap."""
        if self._in_heap[core]:
            return
        self.clock[core] = max(self.clock[core], at_cycle)
        self._seq += 1
        heapq.heappush(self._heap, (self.clock[core], self._seq, core))
        self._in_heap[core] = True

    def _idle_cores(self) -> list[int]:
        """Worker cores with nothing running and nothing queued."""
        running = self.running
        queues = self.queues._queues
        return [
            c
            for c in self.worker_cores
            if running[c] is None and not queues[c]
        ]

    def _rebalance(self, now: int) -> None:
        """Idle-core work stealing (migrating policies only — the SLICC
        variants plus the tmi/random-migrate extensions).

        Same-type threads chase the same segment sequence, so they pile
        up in the queue of whichever core holds the next segment while
        other cores run dry. An idle core adopting the *tail* of the
        deepest compatible queue keeps utilisation up; the
        ``steal_resets_mc`` knob controls whether the stolen-to core
        also unfreezes its fill path (see :class:`SimConfig` — this
        engine deliberately does *not* reset the MC on queue drain, so
        by default assembled segments survive steals).
        This implements the paper's stated scheduler goal of maximising
        core utilisation and reducing queuing delay (Section 4.3.2).
        """
        if not self._steal_enabled:
            return
        idle = self._idle_cores()
        if not idle:
            return
        for victim in self.queues.deepest_cores(
            min_depth=self._steal_min_depth
        ):
            if not idle:
                break
            thread_id = self.queues.steal_tail(victim)
            if thread_id is None:
                continue
            allowed = self._allowed_for(thread_id)
            target = next((c for c in idle if c in allowed), None)
            if target is None:
                # No compatible idle core; put the thread back.
                self.queues.enqueue(victim, thread_id)
                continue
            idle.remove(target)
            self.steals += 1
            if self._steal_resets_mc:
                # The stealing core adopts (replicates) the stolen
                # thread's segment — each policy resets its own fill
                # tracker (the SLICC agents' MC, or policy-local state).
                self.policy.on_steal(target)
            self.queues.enqueue(target, thread_id)
            self._activate(target, now)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def _admit_threads(self, now: int) -> None:
        """Pull threads from the arrival stream into the resident pool.

        A thread is admitted once it has arrived (its arrival time is due)
        and the pool has room (N threads for the baseline's OS scheduler,
        2N for SLICC — Section 5.1).
        """
        while (
            self._arrival_ptr < len(self.threads)
            and self._arrival_time[self._arrival_ptr] <= now
            and self._resident < self.pool_size
        ):
            thread_id = self._arrival_ptr
            self._arrival_ptr += 1
            self._resident += 1
            state = self.threads[thread_id]
            if state.addr is None and self.kernel != "native":
                # Bind the shared numpy -> list tables (see _ThreadState).
                state.addr, state.kind, state.page = (
                    state.trace.replay_tables(PAGE_SHIFT)
                )
            if isinstance(self.type_source, PreambleTypeDetector):
                # Scout-core preprocessing: a few tens of instructions on
                # the dedicated core before the thread starts working.
                state.pending_cycles += (
                    self.type_source.scout_records * self.timing.ibase
                )
            core = self._place_core(thread_id)
            self.queues.enqueue(core, thread_id)
            self._activate(core, now)

    def _place_core(self, thread_id: int) -> int:
        """Naive load balancing within the thread's allowed region:
        idle core first, else shortest queue (Section 4.1)."""
        allowed = self._allowed_for(thread_id)
        idle = [c for c in self._idle_cores() if c in allowed]
        if idle:
            return idle[0]
        if self._partition_sorted is None:
            region = self._worker_sorted
        else:
            key = self._thread_type_key.get(thread_id, -1)
            region = self._partition_sorted.get(key, self._worker_sorted)
        return self.queues.least_congested(allowed=region)

    # ------------------------------------------------------------------
    # Record processing
    # ------------------------------------------------------------------

    def _process_instruction(self, core: int, block: int) -> tuple[int, bool]:
        """One instruction-block record; returns (cycles, migrate_checked).

        The second element is True when SLICC decided to migrate — the
        caller must stop the quantum and perform the migration (the
        decision is stored in ``self._pending_target``).

        The TLB has already been consulted by the caller (run() handles
        it inline for every record); this path owns everything from the
        L1 down. It is the generic fallback — run() short-circuits the
        common configurations inline with identical semantics.
        """
        machine = self.machine
        timing = self.timing
        cycles = timing.ibase
        self.cycles_base += timing.ibase

        # Segment protection: once this core's cache is full of a useful
        # segment (MC saturated), demand misses mostly bypass the fill
        # path so a thread streaming towards a *different* segment cannot
        # erode the collective other threads rely on. One in
        # BYPASS_REPAIR_RATE bypassed misses still installs: the blocks a
        # thread misses during its migration-decision window ("gaps" in
        # the paper's terms, Section 4.2.2) would otherwise be cached
        # nowhere and re-missed by every pass; the occasional install
        # accretes them onto the core where the gap occurs, repairing the
        # seam. Installs resume fully after the MC resets (queue drained,
        # STAY decision, or team completion).
        fill = True
        if self.agents is not None and self.agents[core].cache_full:
            self._bypass_tick += 1
            fill = self._bypass_tick % BYPASS_REPAIR_RATE == 0
        hit = machine.l1i[core].access_fast(block, fill=fill)
        if self.i_classifiers is not None:
            self.i_classifiers[core].observe(block, hit)

        if hit:
            if self.prefetchers is not None and self.prefetchers[
                core
            ].consume_if_prefetched(block):
                late = timing.prefetch_late(True)
                cycles += late
                self.cycles_i_stall += late
        else:
            if machine.nuca is not None:
                l2_hit, l2_cycles = machine.nuca.access(core, block)
                penalty = (
                    l2_cycles + timing.system.frontend_refill_cycles
                    if l2_hit
                    else timing.i_miss(False)
                )
            else:
                penalty = timing.i_miss(machine.l2_touch(block))
            cycles += penalty
            self.cycles_i_stall += penalty
            if fill:
                machine.signature_insert(core, block)
            if self.prefetchers is not None:
                prefetched = self.prefetchers[core].on_demand_miss(block)
                if prefetched is not None:
                    machine.l2_touch(prefetched)

        if self.steps_agents is not None:
            agent = self.steps_agents[core]
            agent.observe_access(hit)
            if not agent.cache_full:
                return cycles, False
            if (
                not hit
                and agent.msv.dilution_reached
                and not self.queues.is_empty(core)
            ):
                # The running thread left the cached chunk and peers are
                # waiting: context switch (STEPS time-multiplexing).
                self._pending_target = -1
                return cycles, True
            return cycles, False

        if self.agents is None:
            return cycles, False

        agent = self.agents[core]
        gather = agent.observe_access(hit)
        if gather:
            mask = machine.presence_mask(block, core, self._worker_mask)
            agent.note_miss_presence(mask)
            if agent.migration_enabled and self._evaluate_migration(
                core, agent
            ):
                return cycles, True
        return cycles, False

    def _process_data(self, core: int, block: int, is_store: bool) -> int:
        """One data record; returns cycles charged.

        As with :meth:`_process_instruction`, the TLB was already
        handled by the caller.
        """
        machine = self.machine
        timing = self.timing
        cycles = timing.dbase
        self.cycles_base += timing.dbase

        if self.data_prefetcher is not None:
            thread_id = self.running[core]
            self.data_prefetcher.record_access(thread_id, block)
            if not machine.l1d[core].probe(block):
                self.data_prefetcher.note_demand(thread_id, block)
        hit = machine.l1d[core].access_fast(block)
        if self.d_classifiers is not None:
            self.d_classifiers[core].observe(block, hit)
        if not hit:
            if machine.nuca is not None:
                l2_hit, _ = machine.nuca.access(core, block)
                penalty = timing.d_miss(l2_hit, is_store)
            else:
                penalty = timing.d_miss(machine.l2_touch(block), is_store)
            cycles += penalty
            self.cycles_d_stall += penalty
        if is_store:
            machine.directory.on_write(core, block)
        elif not hit:
            machine.directory.on_read(core, block)
        return cycles

    # ------------------------------------------------------------------
    # Migration / completion
    # ------------------------------------------------------------------

    def _migrate(self, core: int, target: int) -> None:
        """Move the running thread of ``core`` to ``target``'s queue."""
        thread_id = self.running[core]
        if thread_id is None:
            raise SimulationError("migration from a core with no thread")
        state = self.threads[thread_id]
        hops = self.machine.torus.hops(core, target)
        cost = self.timing.migration(hops)
        if self.data_prefetcher is not None:
            # Ship the last-n data tags to the target L1-D (Section 5.5).
            blocks = self.data_prefetcher.blocks_for_migration(thread_id)
            for block in blocks:
                self.machine.l1d[target].install(block)
                self.machine.directory.on_read(target, block)
            cost += DATA_PREFETCH_CYCLES_PER_BLOCK * len(blocks)
        state.pending_cycles += cost
        self.cycles_migration += cost
        self.running[core] = None
        self.policy.on_migrate(core, target)
        self.migrations += 1
        self.queues.enqueue(target, thread_id)
        self._activate(target, self.clock[core])
        self._rebalance(self.clock[core])

    def _complete(self, core: int, now: int) -> None:
        """The running thread of ``core`` finished all its records."""
        thread_id = self.running[core]
        state = self.threads[thread_id]
        state.done = True
        self.running[core] = None
        self.completed += 1
        self._resident -= 1
        if self._policy_on_complete:
            self.policy.on_complete(core)
        self._admit_threads(now)
        self._rebalance(now)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the full trace; returns aggregated results."""
        if self._ran:
            raise SimulationError("ReplayEngine instances are single-use")
        self._ran = True
        self._pending_target: Optional[int] = None
        self._admit_threads(now=0)

        quantum = self.config.quantum
        machine = self.machine
        timing = self.timing
        ibase = timing.ibase
        dbase = timing.dbase
        fast_i = self._fast_i
        fast_d = self._fast_d
        process_instruction = self._process_instruction
        process_data = self._process_data
        directory_on_write = machine.directory.on_write
        dir_sharers = machine.directory._sharers
        queues_is_empty = self.queues.is_empty
        l2_seen = machine._l2_seen
        itlb_pen = timing.itlb_miss
        dtlb_pen = timing.dtlb_miss
        i_miss_l2 = timing.i_miss_l2
        i_miss_mem = timing.i_miss_mem
        d_load_l2 = timing.d_load_l2
        d_load_mem = timing.d_load_mem
        d_store_l2 = timing.d_store_l2
        d_store_mem = timing.d_store_mem
        #: Late-prefetch residual: the fallback always charges the L2
        #: flavour (prefetches are only consumed after their trigger miss
        #: brought the line on chip), so this is one constant.
        pf_late = timing.prefetch_late(True)
        dp = self.data_prefetcher
        nuca_hot = self._nuca_hot
        nuca_acc = self._nuca_acc
        nuca_miss_ct = self._nuca_miss
        nuca_ev = self._nuca_ev
        n_banks = machine.nuca.n_banks if machine.nuca is not None else 0
        core_hot = self._core_hot
        # Policy hooks, resolved once: zero per-quantum overhead for
        # policies without them (the legacy seven), one bound-method call
        # per scheduling event for those with them. Nothing here is ever
        # consulted per record.
        policy_on_start = self._policy_on_start
        policy_on_thread_start = self.policy.on_thread_start
        policy_quantum = self._policy_quantum_hook
        policy_quantum_end = self.policy.quantum_end
        KI = KIND_INSTR
        KS = KIND_STORE
        native_run = native_dispatch = None
        if self.kernel == "native":
            # Native kernel (sim/native.py): C owns the machine state
            # from here to the export below; each dispatch replays one
            # quantum in C and only the scheduling around it runs here.
            from repro.sim.native import NativeRun

            native_run = NativeRun(self, self._native_lib)
            native_dispatch = native_run.dispatch
            native_ctx = native_run.ctx
            native_lengths = native_run.lengths
        heappop = heapq.heappop
        heap = self._heap
        in_heap = self._in_heap
        clocks = self.clock
        threads = self.threads
        n_threads = len(threads)
        arrival_time = self._arrival_time
        running = self.running
        while True:
            if not heap:
                if self._arrival_ptr >= n_threads:
                    break
                # All admitted work finished before the next arrival: jump
                # time forward to the arrival and admit it.
                now = max(
                    max(clocks),
                    arrival_time[self._arrival_ptr],
                )
                self._admit_threads(now)
                if not heap:
                    raise SimulationError(
                        "no core activated by a due arrival — pool stuck"
                    )
                continue
            clock, _, core = heappop(heap)
            in_heap[core] = False
            clock = clocks[core] = max(clock, clocks[core])
            if (
                self._arrival_ptr < n_threads
                and arrival_time[self._arrival_ptr] <= clock
            ):
                self._admit_threads(clock)

            if running[core] is None:
                thread_id = self.queues.dequeue(core)
                if thread_id is None:
                    # Note: the paper resets the MC when a queue drains
                    # (Section 4.1). With the segment-protection bypass
                    # that reset lets any thread landing on a drained core
                    # overwrite a chunk other threads still use, so this
                    # engine resets the MC on *idle-rung migrations* and
                    # STAY decisions instead — same adaptivity, without
                    # sacrificing assembled segments (see DESIGN.md,
                    # "Modelling substitutions").
                    self._rebalance(clock)
                    if not self.queues.is_empty(core):
                        self._activate(core, clock)
                    continue
                running[core] = thread_id
                state = threads[thread_id]
                if policy_on_start:
                    # SLICC resets the dispatched core's MSV/MTQ, STEPS
                    # its MSV — per-thread trackers do not survive a
                    # thread switch (the MC, describing the cache, does).
                    policy_on_thread_start(core)
                if state.pending_cycles:
                    clocks[core] += state.pending_cycles
                    state.pending_cycles = 0

            thread_id = running[core]
            state = threads[thread_id]

            if native_dispatch is not None:
                # Native policies never migrate, switch or hook quanta:
                # a dispatch always runs its full quantum (or the rest
                # of the thread).
                pos = state.pos
                n_records = native_lengths[thread_id]
                end = pos + quantum
                if end > n_records:
                    end = n_records
                clocks[core] += native_dispatch(
                    native_ctx, core, thread_id, pos, end
                )
                state.pos = end
                if end >= n_records:
                    self._complete(core, clocks[core])
                if running[core] is not None or not queues_is_empty(core):
                    self._activate(core, clocks[core])
                continue

            addr = state.addr
            kind = state.kind
            pages = state.page
            n_records = len(addr)
            pos = state.pos
            cycles = 0
            tlb_cycles = 0
            i_stall_cycles = 0
            d_stall_cycles = 0
            migrated = False

            # Per-core hot references: one tuple unpack per dispatch
            # (field order is defined by _CoreHot — keep this unpack
            # aligned with the class). The loop body below handles every
            # record — TLB access plus L1 hit or miss, and since PR 3
            # also the next-line prefetcher, the miss classifiers, the
            # migration data prefetcher and the banked NUCA L2 —
            # entirely inline, with no attribute chains, method dispatch
            # or result allocation. The inline paths mirror the
            # reference _process_instruction/_process_data line for
            # line; the golden suite pins them byte-identical, and the
            # fast-vs-fallback matrix in tests/test_hot_path.py replays
            # each configuration through both.
            (
                l1i_index,
                l1i_tags,
                l1i_set_mask,
                l1i_assoc,
                l1i_stats,
                l1i_is_lru,
                l1i_on_hit,
                l1i_need_on_miss,
                l1i_on_miss,
                l1i_on_fill,
                l1i_choose_victim,
                l1i_on_evict,
                l1i_evict_is_sig,
                l1i_ages,
                l1i_hi,
                itlb,
                itlb_map,
                itlb_entries,
                l1d_index,
                l1d_tags,
                l1d_set_mask,
                l1d_assoc,
                l1d_stats,
                l1d_is_lru,
                l1d_on_hit,
                l1d_need_on_miss,
                l1d_on_miss,
                l1d_on_fill,
                l1d_choose_victim,
                l1d_on_evict,
                l1d_evict_is_dir,
                l1d_ages,
                l1d_hi,
                dtlb,
                dtlb_map,
                dtlb_entries,
                sig_masks,
                sig_imask,
                sig_bit,
                presence_excl,
                slicc_agent,
                steps_agent,
                mc,
                mc_limit,
                msv,
                msv_bits,
                msv_window,
                msv_dilution,
                mtq_entries,
                mtq_matched,
                pf,
                pf_pending,
                i_cls,
                icls_shadow,
                icls_seen,
                icls_cap,
                d_cls,
                dcls_shadow,
                dcls_seen,
                dcls_cap,
                nuca_ipen,
            ) = core_hot[core]

            # Batched counters, flushed once per quantum: per-record
            # read-modify-write on heap objects is pure overhead when
            # nothing reads the totals mid-run.
            bypass_tick = self._bypass_tick
            if msv is not None:
                # Local mirrors of the MSV occupancy/popcount, flushed at
                # quantum end; resynced after _evaluate_migration, whose
                # STAY outcome resets the MSV in place.
                msv_n = len(msv_bits)
                msv_ones = msv._ones
            itlb_last = -1
            dtlb_last = -1
            i_n = 0
            d_n = 0
            itlb_m = 0
            dtlb_m = 0
            i_m = 0
            d_m = 0
            i_ev = 0
            d_ev = 0
            # PR 3 batched feature counters (flushed with the rest).
            pf_issued = 0
            pf_useful = 0
            i_pf = 0
            icls_comp = icls_capc = icls_conf = 0
            dcls_comp = dcls_capc = dcls_conf = 0
            dp_useful = 0
            if dp is not None:
                # The running thread is fixed for the whole quantum:
                # resolve its data-prefetch history ring and pending set
                # once (record_access/note_demand, amortised).
                dp_hist = dp._history.get(thread_id)
                if dp_hist is None:
                    dp_hist = deque(maxlen=dp.n_blocks)
                    dp._history[thread_id] = dp_hist
                dp_pending = dp._pending.get(thread_id)
            else:
                dp_hist = None
                dp_pending = None

            end = pos + quantum
            if end > n_records:
                end = n_records
            for block, k, page in zip(
                addr[pos:end], kind[pos:end], pages[pos:end]
            ):
                pos += 1
                if k == KI:
                    # --- I-TLB (Tlb.access, inlined; the page id is
                    # precomputed in the replay tables) ---
                    i_n += 1
                    if page == itlb_last:
                        # Already the most-recent entry: move_to_end
                        # would be a no-op (sequential blocks share a
                        # page, so this is the common case).
                        pass
                    elif page in itlb_map:
                        itlb_map.move_to_end(page)
                        itlb_last = page
                    else:
                        itlb_m += 1
                        itlb_map[page] = None
                        itlb_last = page
                        if len(itlb_map) > itlb_entries:
                            itlb_map.popitem(last=False)
                        tlb_cycles += itlb_pen
                    if not fast_i:
                        step, migrate = process_instruction(core, block)
                        cycles += step
                        if migrate:
                            migrated = True
                            break
                        continue
                    # (ibase is charged once per inline record at
                    # the quantum flush: ibase * i_n.)
                    set_idx = block & l1i_set_mask
                    index = l1i_index[set_idx]
                    way = index.get(block)
                    if way is not None:
                        # --- L1-I hit ---
                        if l1i_is_lru:
                            hi = l1i_hi[set_idx] + 1
                            l1i_hi[set_idx] = hi
                            l1i_ages[set_idx][way] = hi
                        else:
                            l1i_on_hit(set_idx, way)
                        if i_cls is not None:
                            # MissClassifier.observe (hit case), inlined:
                            # keep the fully-associative shadow's recency
                            # faithful; nothing to classify.
                            if block in icls_shadow:
                                icls_shadow.move_to_end(block)
                            else:
                                icls_shadow[block] = None
                                if len(icls_shadow) > icls_cap:
                                    icls_shadow.popitem(last=False)
                        if pf_pending is not None and block in pf_pending:
                            # consume_if_prefetched, inlined: the hit
                            # consumed an in-flight prefetch — charge the
                            # late-prefetch residual.
                            pf_pending.discard(block)
                            pf_useful += 1
                            i_stall_cycles += pf_late
                        if mc is not None and mc._count >= mc_limit:
                            if slicc_agent is not None:
                                bypass_tick += 1
                            # msv.record(miss=False), inlined
                            if msv_n == msv_window:
                                msv_ones -= msv_bits[0]
                            else:
                                msv_n += 1
                            msv_bits.append(0)
                        continue
                    # --- L1-I miss ---
                    i_m += 1
                    if i_cls is not None:
                        # MissClassifier.observe (miss case), inlined.
                        if block in icls_shadow:
                            icls_shadow.move_to_end(block)
                            if block not in icls_seen:
                                icls_seen.add(block)
                                icls_comp += 1
                            else:
                                icls_conf += 1
                        else:
                            icls_shadow[block] = None
                            if len(icls_shadow) > icls_cap:
                                icls_shadow.popitem(last=False)
                            if block not in icls_seen:
                                icls_seen.add(block)
                                icls_comp += 1
                            else:
                                icls_capc += 1
                    if l1i_need_on_miss:
                        l1i_on_miss(set_idx)
                    fill = True
                    mc_full = False
                    if slicc_agent is not None and mc._count >= mc_limit:
                        # Segment-protection bypass (see
                        # _process_instruction for the rationale).
                        mc_full = True
                        bypass_tick += 1
                        fill = bypass_tick % BYPASS_REPAIR_RATE == 0
                    if fill:
                        # --- SetAssociativeCache._fill, inlined ---
                        if len(index) < l1i_assoc:
                            tags = l1i_tags[set_idx]
                            way = tags.index(None)
                        else:
                            if l1i_is_lru:
                                ages = l1i_ages[set_idx]
                                way = ages.index(min(ages))
                            else:
                                way = l1i_choose_victim(set_idx)
                            tags = l1i_tags[set_idx]
                            victim = tags[way]
                            del index[victim]
                            i_ev += 1
                            if l1i_evict_is_sig:
                                # BloomSignature.on_evict, inlined:
                                # clear the bit unless a same-set
                                # survivor shares the filter index.
                                vidx = victim & sig_imask
                                for other in index:
                                    if other & sig_imask == vidx:
                                        break
                                else:
                                    sig_masks[vidx] &= ~sig_bit
                            elif pf_pending is not None:
                                # NextLinePrefetcher.on_evict, inlined: a
                                # pending prefetch for the victim dies.
                                pf_pending.discard(victim)
                            elif l1i_on_evict is not None:
                                l1i_on_evict(victim)
                        tags[way] = block
                        index[block] = way
                        if l1i_is_lru:
                            hi = l1i_hi[set_idx] + 1
                            l1i_hi[set_idx] = hi
                            l1i_ages[set_idx][way] = hi
                        else:
                            l1i_on_fill(set_idx, way)
                    if nuca_ipen is None:
                        if block in l2_seen:
                            i_stall_cycles += i_miss_l2
                        else:
                            l2_seen.add(block)
                            i_stall_cycles += i_miss_mem
                    else:
                        # --- NucaL2.access, inlined: banked lookup with
                        # distance-aware latency; banks are plain LRU.
                        # On a bank hit the penalty is the per-bank
                        # latency table entry (latency + front-end
                        # refill); a bank miss pays the memory-flavour
                        # instruction miss and fills the bank. The
                        # infinite-L2 l2_seen set is not consulted,
                        # mirroring the reference path. ---
                        bank = block % n_banks
                        local = block // n_banks
                        (
                            b_index,
                            b_tags,
                            b_ages,
                            b_hi,
                            b_mask,
                            b_assoc,
                        ) = nuca_hot[bank]
                        nuca_acc[bank] += 1
                        b_set = local & b_mask
                        b_dict = b_index[b_set]
                        b_way = b_dict.get(local)
                        if b_way is not None:
                            h = b_hi[b_set] + 1
                            b_hi[b_set] = h
                            b_ages[b_set][b_way] = h
                            i_stall_cycles += nuca_ipen[bank]
                        else:
                            nuca_miss_ct[bank] += 1
                            if len(b_dict) < b_assoc:
                                b_t = b_tags[b_set]
                                b_way = b_t.index(None)
                            else:
                                b_a = b_ages[b_set]
                                b_way = b_a.index(min(b_a))
                                b_t = b_tags[b_set]
                                del b_dict[b_t[b_way]]
                                nuca_ev[bank] += 1
                            b_t[b_way] = local
                            b_dict[local] = b_way
                            h = b_hi[b_set] + 1
                            b_hi[b_set] = h
                            b_ages[b_set][b_way] = h
                            i_stall_cycles += i_miss_mem
                    if fill and sig_masks is not None:
                        sig_masks[block & sig_imask] |= sig_bit
                    if pf_pending is not None:
                        # NextLinePrefetcher.on_demand_miss + the
                        # engine's l2_touch of the prefetched block,
                        # inlined: fetch block+1 unless already resident
                        # (an install, not a demand access — no
                        # access/miss counts, no policy.on_miss).
                        nxt = block + 1
                        n_set = nxt & l1i_set_mask
                        n_index = l1i_index[n_set]
                        if nxt not in n_index:
                            i_pf += 1
                            if len(n_index) < l1i_assoc:
                                n_tags = l1i_tags[n_set]
                                n_way = n_tags.index(None)
                            else:
                                if l1i_is_lru:
                                    n_a = l1i_ages[n_set]
                                    n_way = n_a.index(min(n_a))
                                else:
                                    n_way = l1i_choose_victim(n_set)
                                n_tags = l1i_tags[n_set]
                                victim = n_tags[n_way]
                                del n_index[victim]
                                i_ev += 1
                                pf_pending.discard(victim)
                            n_tags[n_way] = nxt
                            n_index[nxt] = n_way
                            if l1i_is_lru:
                                hi = l1i_hi[n_set] + 1
                                l1i_hi[n_set] = hi
                                l1i_ages[n_set][n_way] = hi
                            else:
                                l1i_on_fill(n_set, n_way)
                            pf_pending.add(nxt)
                            pf_issued += 1
                            l2_seen.add(nxt)
                    if steps_agent is not None:
                        # observe_access + the STEPS dilution check,
                        # inlined from _process_instruction.
                        if mc._count < mc_limit:
                            mc._count += 1
                        else:
                            if msv_n == msv_window:
                                msv_ones -= msv_bits[0]
                            else:
                                msv_n += 1
                            msv_bits.append(1)
                            msv_ones += 1
                        if (
                            mc._count >= mc_limit
                            and msv_ones >= msv_dilution
                            and not queues_is_empty(core)
                        ):
                            self._pending_target = -1
                            migrated = True
                            break
                    elif slicc_agent is not None:
                        if not mc_full:
                            # observe_access -> mc.record_miss, inlined
                            # (mc_full was False, so no saturation check).
                            mc._count += 1
                        else:
                            # observe_access -> msv.record(True) and the
                            # presence gather (note_miss_presence) with
                            # the fused bloom probe, inlined.
                            if msv_n == msv_window:
                                msv_ones -= msv_bits[0]
                            else:
                                msv_n += 1
                            msv_bits.append(1)
                            msv_ones += 1
                            mtq_entries.append(
                                sig_masks[block & sig_imask] & presence_excl
                            )
                            if (
                                msv_ones >= msv_dilution
                                and len(mtq_entries) == mtq_matched
                            ):
                                if self._evaluate_migration(
                                    core, slicc_agent
                                ):
                                    migrated = True
                                    break
                                # STAY: the agent reset its trackers in
                                # place — resync the mirrors.
                                msv_n = len(msv_bits)
                                msv_ones = msv._ones
                    continue
                # --- data record ---
                # --- D-TLB (Tlb.access, inlined; precomputed page) ---
                d_n += 1
                if page == dtlb_last:
                    pass
                elif page in dtlb_map:
                    dtlb_map.move_to_end(page)
                    dtlb_last = page
                else:
                    dtlb_m += 1
                    dtlb_map[page] = None
                    dtlb_last = page
                    if len(dtlb_map) > dtlb_entries:
                        dtlb_map.popitem(last=False)
                    tlb_cycles += dtlb_pen
                if not fast_d:
                    cycles += process_data(core, block, k == KS)
                    continue
                # (dbase is charged at the quantum flush: dbase * d_n.)
                if dp_hist is not None:
                    # MigrationDataPrefetcher.record_access, inlined
                    # (bounded deque; the oldest tag falls off).
                    dp_hist.append(block)
                set_idx = block & l1d_set_mask
                index = l1d_index[set_idx]
                way = index.get(block)
                if way is not None:
                    # --- L1-D hit ---
                    if l1d_is_lru:
                        hi = l1d_hi[set_idx] + 1
                        l1d_hi[set_idx] = hi
                        l1d_ages[set_idx][way] = hi
                    else:
                        l1d_on_hit(set_idx, way)
                    if d_cls is not None:
                        # MissClassifier.observe (hit case), inlined.
                        if block in dcls_shadow:
                            dcls_shadow.move_to_end(block)
                        else:
                            dcls_shadow[block] = None
                            if len(dcls_shadow) > dcls_cap:
                                dcls_shadow.popitem(last=False)
                    if k == KS:
                        # Directory.on_write fast cases, inlined: first
                        # write, or a write by the sole sharer.
                        sharers = dir_sharers.get(block)
                        if sharers is None:
                            dir_sharers[block] = {core}
                        elif len(sharers) == 1 and core in sharers:
                            pass
                        else:
                            directory_on_write(core, block)
                    continue
                # --- L1-D miss ---
                d_m += 1
                if dp_pending and block in dp_pending:
                    # note_demand, inlined: the miss consumed a block the
                    # migration prefetcher shipped here.
                    dp_pending.discard(block)
                    dp_useful += 1
                if d_cls is not None:
                    # MissClassifier.observe (miss case), inlined.
                    if block in dcls_shadow:
                        dcls_shadow.move_to_end(block)
                        if block not in dcls_seen:
                            dcls_seen.add(block)
                            dcls_comp += 1
                        else:
                            dcls_conf += 1
                    else:
                        dcls_shadow[block] = None
                        if len(dcls_shadow) > dcls_cap:
                            dcls_shadow.popitem(last=False)
                        if block not in dcls_seen:
                            dcls_seen.add(block)
                            dcls_comp += 1
                        else:
                            dcls_capc += 1
                if l1d_need_on_miss:
                    l1d_on_miss(set_idx)
                # --- SetAssociativeCache._fill, inlined ---
                if len(index) < l1d_assoc:
                    tags = l1d_tags[set_idx]
                    way = tags.index(None)
                else:
                    if l1d_is_lru:
                        ages = l1d_ages[set_idx]
                        way = ages.index(min(ages))
                    else:
                        way = l1d_choose_victim(set_idx)
                    tags = l1d_tags[set_idx]
                    victim = tags[way]
                    del index[victim]
                    d_ev += 1
                    if l1d_evict_is_dir:
                        # Directory.on_evict, inlined.
                        vs = dir_sharers.get(victim)
                        if vs is not None:
                            vs.discard(core)
                            if not vs:
                                del dir_sharers[victim]
                    elif l1d_on_evict is not None:
                        l1d_on_evict(victim)
                tags[way] = block
                index[block] = way
                if l1d_is_lru:
                    hi = l1d_hi[set_idx] + 1
                    l1d_hi[set_idx] = hi
                    l1d_ages[set_idx][way] = hi
                else:
                    l1d_on_fill(set_idx, way)
                if nuca_ipen is None:
                    if block in l2_seen:
                        in_l2 = True
                    else:
                        l2_seen.add(block)
                        in_l2 = False
                else:
                    # --- NucaL2.access, inlined (data flavour): only
                    # the bank hit/miss outcome feeds the overlap-
                    # adjusted penalty; l2_seen is not consulted. ---
                    bank = block % n_banks
                    local = block // n_banks
                    (
                        b_index,
                        b_tags,
                        b_ages,
                        b_hi,
                        b_mask,
                        b_assoc,
                    ) = nuca_hot[bank]
                    nuca_acc[bank] += 1
                    b_set = local & b_mask
                    b_dict = b_index[b_set]
                    b_way = b_dict.get(local)
                    if b_way is not None:
                        h = b_hi[b_set] + 1
                        b_hi[b_set] = h
                        b_ages[b_set][b_way] = h
                        in_l2 = True
                    else:
                        nuca_miss_ct[bank] += 1
                        if len(b_dict) < b_assoc:
                            b_t = b_tags[b_set]
                            b_way = b_t.index(None)
                        else:
                            b_a = b_ages[b_set]
                            b_way = b_a.index(min(b_a))
                            b_t = b_tags[b_set]
                            del b_dict[b_t[b_way]]
                            nuca_ev[bank] += 1
                        b_t[b_way] = local
                        b_dict[local] = b_way
                        h = b_hi[b_set] + 1
                        b_hi[b_set] = h
                        b_ages[b_set][b_way] = h
                        in_l2 = False
                if k == KS:
                    d_stall_cycles += d_store_l2 if in_l2 else d_store_mem
                    sharers = dir_sharers.get(block)
                    if sharers is None:
                        dir_sharers[block] = {core}
                    elif len(sharers) == 1 and core in sharers:
                        pass
                    else:
                        directory_on_write(core, block)
                else:
                    d_stall_cycles += d_load_l2 if in_l2 else d_load_mem
                    # Directory.on_read, inlined.
                    sharers = dir_sharers.get(block)
                    if sharers is None:
                        dir_sharers[block] = {core}
                    else:
                        sharers.add(core)

            state.pos = pos
            # Flush the batched counters. The fallback paths increment
            # the same totals directly, so fast-path records were only
            # ever counted in the locals (the L1 access counters belong
            # to the fast path alone: with fast_i/fast_d set, every
            # record of that kind took the inline route).
            if fast_i:
                self._bypass_tick = bypass_tick
                if msv is not None:
                    msv._ones = msv_ones
                l1i_stats.accesses += i_n
                l1i_stats.misses += i_m
                l1i_stats.evictions += i_ev
                inline_base = ibase * i_n
                cycles += inline_base
                self.cycles_base += inline_base
                if pf is not None:
                    pf.issued += pf_issued
                    pf.useful += pf_useful
                    l1i_stats.prefetch_fills += i_pf
                if i_cls is not None:
                    i_cls.accesses += i_n
                    counts = i_cls.counts
                    counts[_MC_COMPULSORY] += icls_comp
                    counts[_MC_CAPACITY] += icls_capc
                    counts[_MC_CONFLICT] += icls_conf
            if fast_d:
                l1d_stats.accesses += d_n
                l1d_stats.misses += d_m
                l1d_stats.evictions += d_ev
                inline_base = dbase * d_n
                cycles += inline_base
                self.cycles_base += inline_base
                if d_cls is not None:
                    d_cls.accesses += d_n
                    counts = d_cls.counts
                    counts[_MC_COMPULSORY] += dcls_comp
                    counts[_MC_CAPACITY] += dcls_capc
                    counts[_MC_CONFLICT] += dcls_conf
                if dp_useful:
                    dp.useful += dp_useful
            itlb.accesses += i_n
            itlb.misses += itlb_m
            dtlb.accesses += d_n
            dtlb.misses += dtlb_m
            cycles += tlb_cycles + i_stall_cycles + d_stall_cycles
            self.cycles_tlb += tlb_cycles
            self.cycles_i_stall += i_stall_cycles
            self.cycles_d_stall += d_stall_cycles
            clocks[core] += cycles
            self.busy_cycles += cycles

            if migrated:
                if self._pending_target == -1:
                    self._steps_switch(core)
                else:
                    self._migrate(core, self._pending_target)
            elif state.pos >= n_records:
                self._complete(core, clocks[core])
            elif policy_quantum:
                # Extension policies decide at quantum boundaries only
                # (their per-record cost is zero: they read the batched
                # L1-I statistics flushed just above).
                target = policy_quantum_end(core)
                if target is not None:
                    self._migrate(core, target)

            if running[core] is not None or not queues_is_empty(core):
                self._activate(core, clocks[core])

        if native_run is not None:
            native_run.export()
        if nuca_hot is not None:
            # Flush the batched bank statistics (inline events only; the
            # reference path updates bank stats directly, so mixed
            # fast/fallback runs stay correct).
            for bank, cache in enumerate(machine.nuca._banks):
                stats = cache.stats
                stats.accesses += nuca_acc[bank]
                stats.misses += nuca_miss_ct[bank]
                stats.evictions += nuca_ev[bank]
                nuca_acc[bank] = nuca_miss_ct[bank] = nuca_ev[bank] = 0

        if self.completed != len(self.threads):
            raise SimulationError(
                f"run ended with {self.completed}/{len(self.threads)} "
                "threads completed — scheduler deadlock"
            )
        return self._collect_results()

    # ------------------------------------------------------------------

    def _collect_results(self) -> SimulationResult:
        machine = self.machine
        result = SimulationResult(
            variant=self.config.variant,
            workload=self.trace.workload,
            cycles=max(self.clock),
            instructions=self.trace.total_instructions,
            i_accesses=machine.total_i_accesses(),
            i_misses=machine.total_i_misses(),
            d_accesses=machine.total_d_accesses(),
            d_misses=machine.total_d_misses(),
            migrations=self.migrations,
            invalidations=machine.directory.invalidations_sent,
            itlb_misses=sum(t.misses for t in machine.itlb),
            dtlb_misses=sum(t.misses for t in machine.dtlb),
            threads_completed=self.completed,
            context_switches=self.context_switches,
            cycles_base=self.cycles_base,
            cycles_i_stall=self.cycles_i_stall,
            cycles_d_stall=self.cycles_d_stall,
            cycles_migration=self.cycles_migration,
            cycles_tlb=self.cycles_tlb,
        )
        makespan = max(self.clock)
        if makespan:
            n_workers = len(self.worker_cores)
            result.utilization = self.busy_cycles / (n_workers * makespan)
        if self.agents is not None:
            result.broadcasts = sum(a.stats.broadcasts for a in self.agents)
            result.segment_match_migrations = sum(
                a.stats.segment_match_migrations for a in self.agents
            )
            result.idle_core_migrations = sum(
                a.stats.idle_core_migrations for a in self.agents
            )
            result.stay_decisions = sum(
                a.stats.stay_decisions for a in self.agents
            )
        if self._partition is not None:
            # Report the number of distinct type regions as "teams".
            regions = {cores for key, cores in self._partition.items() if key != -1}
            result.teams_completed = len(regions)
        if self.i_classifiers is not None:
            instructions = self.trace.total_instructions
            result.miss_class_mpki = {
                "instruction": self._class_mpki(self.i_classifiers, instructions),
                "data": self._class_mpki(self.d_classifiers, instructions),
            }
        self.policy.contribute_stats(result)
        return result

    @staticmethod
    def _class_mpki(
        classifiers: list[MissClassifier], instructions: int
    ) -> dict[str, float]:
        out = {}
        for miss_class in MissClass:
            total = sum(c.counts[miss_class] for c in classifiers)
            out[miss_class.value] = 1000.0 * total / instructions
        return out


def simulate(trace: Trace, config: Optional[SimConfig] = None, **kwargs) -> SimulationResult:
    """Convenience wrapper: build an engine, run it, return the result.

    ``kwargs`` are forwarded to :class:`SimConfig` when ``config`` is not
    given (e.g. ``simulate(trace, variant="slicc-sw")``).
    """
    if config is None:
        config = SimConfig(**kwargs)
    elif kwargs:
        raise ConfigurationError("pass either a SimConfig or kwargs, not both")
    return ReplayEngine(trace, config).run()
