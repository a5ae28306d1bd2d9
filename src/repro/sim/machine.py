"""The simulated machine: cores, caches, signatures, directory, torus, L2.

``Machine`` assembles the Table 2 hardware for one simulation run and
wires the cross-component callbacks (L1-D evictions inform the coherence
directory; L1-I evictions update the bloom signature). The shared L2 is
modelled as effectively infinite: 16MB holds every instruction and data
footprint we generate, so a block's first-ever touch goes to memory and
every later L1 miss hits in the L2. This matches the paper's machine for
all reported metrics (the L2 never thrashes in their runs either).
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.cache.cache import SetAssociativeCache
from repro.cache.nuca import NucaL2
from repro.coherence.mesi import Directory
from repro.core.signature import BloomSignature, SignatureSet
from repro.interconnect.torus import Torus2D
from repro.params import CacheParams, SliccParams, SystemParams
from repro.sim.tlb import Tlb

#: TLB sizes: I-TLB covers typical OLTP code footprints (so migration does
#: not disturb it — Section 5.5 reports +/-0.5%); the D-TLB is half the
#: size over a much larger data footprint, hence its 8-11% sensitivity.
ITLB_ENTRIES = 128
DTLB_ENTRIES = 64


class Machine:
    """All hardware state for one simulation run."""

    def __init__(
        self,
        system: SystemParams,
        slicc: Optional[SliccParams] = None,
        l1i_params: Optional[CacheParams] = None,
        with_signatures: bool = False,
        model_l2_capacity: bool = False,
    ) -> None:
        self.system = system
        self.n_cores = system.n_cores
        self.torus = Torus2D(system.torus_width, system.migration_hop_cycles)

        i_params = l1i_params if l1i_params is not None else system.l1i
        self.l1i_params = i_params

        self.l1i: list[SetAssociativeCache] = []
        self.l1d: list[SetAssociativeCache] = []
        self.itlb: list[Tlb] = []
        self.dtlb: list[Tlb] = []
        for core in range(self.n_cores):
            self.l1i.append(SetAssociativeCache(i_params, name=f"core{core}.l1i"))
            self.l1d.append(SetAssociativeCache(system.l1d, name=f"core{core}.l1d"))
            self.itlb.append(Tlb(ITLB_ENTRIES))
            self.dtlb.append(Tlb(DTLB_ENTRIES))

        self.directory = Directory(self.l1d)
        for core in range(self.n_cores):
            # partial() rather than a lambda: the directory must know
            # which core dropped the block, and partial dispatches from C
            # without an intermediate Python frame per eviction.
            self.l1d[core].on_evict = partial(self.directory.on_evict, core)

        self.signatures: Optional[list[BloomSignature]] = None
        self.signature_set: Optional[SignatureSet] = None
        if with_signatures:
            if slicc is None:
                raise ValueError("signatures need SliccParams for bloom size")
            # One transposed store shared by every core's filter: the
            # remote segment search reads all cores in a single lookup.
            self.signature_set = SignatureSet(slicc.bloom_bits)
            self._sig_index_mask = slicc.bloom_bits - 1
            self.signatures = []
            for core in range(self.n_cores):
                sig = BloomSignature(
                    slicc.bloom_bits,
                    self.l1i[core],
                    shared=self.signature_set,
                    core=core,
                )
                self.l1i[core].on_evict = sig.on_evict
                self.signatures.append(sig)

        #: Blocks ever brought on chip: "in L2" for the timing model.
        self._l2_seen: set[int] = set()
        #: Optional banked NUCA L2 (Table 2 fidelity); None keeps the
        #: infinite-L2 approximation that DESIGN.md's "Modelling
        #: substitutions" justifies.
        self.nuca: Optional[NucaL2] = (
            NucaL2(self.torus) if model_l2_capacity else None
        )

    # ------------------------------------------------------------------

    def l2_touch(self, block: int) -> bool:
        """Record an L1 miss reaching the L2; True if the L2 already had
        the block (i.e. this is not its first on-chip fetch)."""
        if block in self._l2_seen:
            return True
        self._l2_seen.add(block)
        return False

    def presence_mask(self, block: int, exclude: int, cores_mask: int) -> int:
        """Which cores of ``cores_mask`` (bloom-)report caching ``block``.

        This is the remote cache segment search of Section 4.2.3: the
        answer comes from the approximate signatures, not the caches, so
        false positives are possible exactly as in hardware. Thanks to
        the transposed :class:`SignatureSet` the whole-chip search is one
        list lookup fused with the core restriction — not a probe loop.
        """
        assert self.signature_set is not None, "machine built without signatures"
        return (
            self.signature_set.masks[block & self._sig_index_mask]
            & cores_mask
            & ~(1 << exclude)
        )

    def signature_insert(self, core: int, block: int) -> None:
        """Mirror a fill into the core's signature (if signatures exist)."""
        if self.signatures is not None:
            self.signatures[core].insert(block)

    # ------------------------------------------------------------------
    # Aggregation helpers
    # ------------------------------------------------------------------

    def total_i_misses(self) -> int:
        """Demand L1-I misses summed over cores."""
        return sum(c.stats.misses for c in self.l1i)

    def total_d_misses(self) -> int:
        """Demand L1-D misses summed over cores."""
        return sum(c.stats.misses for c in self.l1d)

    def total_i_accesses(self) -> int:
        """L1-I references summed over cores."""
        return sum(c.stats.accesses for c in self.l1i)

    def total_d_accesses(self) -> int:
        """L1-D references summed over cores."""
        return sum(c.stats.accesses for c in self.l1d)
