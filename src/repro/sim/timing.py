"""Stall-cycle timing model (the Zesto substitution — see DESIGN.md,
"Modelling substitutions").

The engine charges cycles per trace record instead of simulating a
pipeline. The model keeps the paper's first-order structure:

* an instruction-block record costs its base cycles plus, on an L1-I
  miss, the full downstream latency plus a front-end refill — instruction
  misses starve the pipeline and cannot be hidden (Section 3.3);
* a data record costs one cycle plus, on an L1-D miss, the downstream
  latency *scaled by an overlap factor* — out-of-order execution absorbs
  most data-miss latency, stores more than loads;
* larger caches pay their extra hit latency on every access (the CACTI
  effect that caps Figure 1's speedups);
* a migration costs context save/restore through the L2, per-hop transfer
  on the torus, and a pipeline refill at the destination (Section 4.4).
"""

from __future__ import annotations

from repro.params import SystemParams


class TimingModel:
    """Precomputed cycle costs for one system configuration."""

    def __init__(self, system: SystemParams, l1i_hit_latency: int | None = None) -> None:
        self.system = system
        l1i_lat = l1i_hit_latency if l1i_hit_latency is not None else system.l1i.hit_latency
        # Base cost of an instruction record grows if the L1-I is slower
        # than the 3-cycle anchor (Figure 1's size/latency trade-off).
        self.ibase = system.base_cycles_per_iblock + max(0, l1i_lat - 3)
        self.dbase = 1 + max(0, system.l1d.hit_latency - 3)
        self.i_miss_l2 = system.l2_hit_latency + system.frontend_refill_cycles
        self.i_miss_mem = system.memory_latency + system.frontend_refill_cycles
        self.d_load_l2 = int(round(system.l2_hit_latency * system.load_overlap))
        self.d_load_mem = int(round(system.memory_latency * system.load_overlap))
        self.d_store_l2 = int(round(system.l2_hit_latency * system.store_overlap))
        self.d_store_mem = int(round(system.memory_latency * system.store_overlap))
        self.itlb_miss = system.tlb_miss_cycles
        # D-TLB walks overlap with execution like data misses do.
        self.dtlb_miss = int(round(system.tlb_miss_cycles * system.load_overlap))

    def i_miss(self, in_l2: bool) -> int:
        """Penalty for one L1-I miss."""
        return self.i_miss_l2 if in_l2 else self.i_miss_mem

    def d_miss(self, in_l2: bool, is_store: bool) -> int:
        """Overlap-adjusted penalty for one L1-D miss."""
        if is_store:
            return self.d_store_l2 if in_l2 else self.d_store_mem
        return self.d_load_l2 if in_l2 else self.d_load_mem

    def migration(self, hops: int) -> int:
        """Cycles a migrating thread pays before resuming remotely."""
        s = self.system
        return (
            s.migration_context_cycles
            + hops * s.migration_hop_cycles
            + s.migration_refill_cycles
        )

    def prefetch_late(self, in_l2: bool) -> int:
        """Residual penalty when using a block whose prefetch is in flight."""
        full = self.system.l2_hit_latency if in_l2 else self.system.memory_latency
        return int(round(full * self.system.prefetch_late_fraction))
