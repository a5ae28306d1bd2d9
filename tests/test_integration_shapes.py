"""Cross-module integration tests for the paper's characterisation claims.

Fast, small-scale versions of the structural facts the evaluation rests
on (the benchmark suite re-validates them at CI scale).
"""

from repro.params import ScalePreset
from repro.sim import SimConfig, simulate
from repro.workloads import get_workload, standard_trace


class TestOltpCharacterisation:
    """Section 2's claims about OLTP memory behaviour."""

    def test_instruction_stalls_dominate(self):
        """Tözün et al.: instruction stalls are 70-85% of stall cycles."""
        trace = standard_trace("tpcc-1", ScalePreset.CI, n_threads=16)
        base = simulate(trace, variant="base")
        assert 0.6 < base.instruction_stall_share < 0.95

    def test_oltp_instruction_mpki_an_order_above_mapreduce(self):
        oltp = simulate(
            standard_trace("tpcc-1", ScalePreset.CI, n_threads=16),
            variant="base",
        )
        cloud = simulate(
            standard_trace("mapreduce", ScalePreset.CI, n_threads=16),
            variant="base",
        )
        assert oltp.i_mpki > 10 * cloud.i_mpki

    def test_footprint_relationships(self):
        """Per-type footprints exceed one L1-I but fit the aggregate
        capacity; MapReduce fits one L1-I (Section 2.1 conclusions)."""
        l1_blocks = 512
        aggregate = 16 * l1_blocks
        for name in ("tpcc-1", "tpce"):
            spec = get_workload(name, ScalePreset.CI)
            for txn in spec.txn_types:
                per_type = spec.type_footprint_blocks(txn.type_id)
                assert per_type > l1_blocks
                assert per_type < aggregate
        assert get_workload("mapreduce", ScalePreset.CI).footprint_blocks() <= l1_blocks

    def test_data_misses_mostly_compulsory(self):
        trace = standard_trace("tpcc-1", ScalePreset.CI, n_threads=16)
        r = simulate(
            trace, config=SimConfig(variant="base", collect_miss_classes=True)
        )
        data = r.miss_class_mpki["data"]
        assert data["compulsory"] > data["capacity"]
        assert data["compulsory"] > data["conflict"]

    def test_instruction_misses_mostly_capacity(self):
        # Needs several threads per core: with one thread per core every
        # block is a per-core first touch and classifies compulsory.
        trace = standard_trace("tpcc-1", ScalePreset.CI, n_threads=48)
        r = simulate(
            trace, config=SimConfig(variant="base", collect_miss_classes=True)
        )
        instr = r.miss_class_mpki["instruction"]
        assert instr["capacity"] > instr["compulsory"]
        assert instr["capacity"] > instr["conflict"]


class TestMigrationMechanics:
    def test_migration_spacing_reasonable(self):
        """The paper reports ~3.2K instructions per migration; ours is
        denser (a tracked deviation, ROADMAP item 1) but must stay
        within an order."""
        trace = standard_trace("tpcc-1", ScalePreset.CI, n_threads=16)
        r = simulate(trace, variant="slicc")
        assert r.migrations > 0
        assert r.instructions_per_migration() > 320

    def test_segment_matches_dominate_migrations(self):
        """Q.3's first rung should fire far more than the idle rung in
        steady state — migrations chase code, not free cores."""
        trace = standard_trace("tpcc-1", ScalePreset.CI, n_threads=16)
        r = simulate(trace, variant="slicc")
        assert r.segment_match_migrations > r.idle_core_migrations

    def test_invalidations_rise_with_migration(self):
        trace = standard_trace("tpcc-1", ScalePreset.CI, n_threads=16)
        base = simulate(trace, variant="base")
        slicc = simulate(trace, variant="slicc")
        assert slicc.invalidations >= base.invalidations * 0.9

    def test_pp_matches_sw_when_detection_perfect(self):
        """SLICC-Pp's only structural handicaps vs SW are the scout core
        and its latency; with 100%-accurate detection the I-MPKI gap must
        stay moderate (the paper reports 'slightly lower' reductions)."""
        trace = standard_trace("tpcc-1", ScalePreset.CI, n_threads=16)
        sw = simulate(trace, variant="slicc-sw")
        pp = simulate(trace, variant="slicc-pp")
        assert pp.i_mpki < sw.i_mpki * 1.35
