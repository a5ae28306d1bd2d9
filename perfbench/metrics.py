"""Names of the workloads, and names and units of every metric.

``BENCHMARK.json`` at the repository root lists the same names with
their direction and, for the end-to-end metrics, their bound.
"""

WORKLOADS = ("replay", "paper-smoke")

#: One variant per arm of the replay loop: plain, prefetcher, SLICC
#: bloom/migration, STEPS time-multiplexing.
REPLAY_VARIANTS = ("base", "nextline", "slicc-sw", "steps")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_krec_per_s": "krec/s",
    "resume_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "paper_err.sw_speedup.tpcc-1": "x",
    "paper_err.sw_speedup.tpce": "x",
    "paper_err.sw_speedup.mapreduce": "x",
    "paper_err.sw_impki_cut.tpcc-1": "frac",
    "paper_err.sw_impki_cut.tpce": "frac",
}

PER_LAYER = {
    "workloads.generate_s": "s",
    "workloads.tables_s": "s",
    "workloads.generate_calls": "count",
    "workloads.gen_per_trace": "ratio",
    "exp.plan_s": "s",
    "exp.specs": "count",
    "runner.run_s": "s",
    "runner.sim_s": "s",
    "runner.simulated": "count",
    "runner.cached": "count",
    "runner.retried": "count",
    "runner.failed": "count",
    "pool.starts": "count",
    "pool.parallel_eff": "frac",
    "sim.init_s": "s",
    "sim.replay_s": "s",
    "sim.ns_per_record": "ns",
    **{f"sim.replay_s.{v}": "s" for v in REPLAY_VARIANTS},
    **{
        f"sim.{v}.{name}": unit
        for v in REPLAY_VARIANTS
        for name, unit in (
            ("cycles", "count"),
            ("i_mpki", "mpki"),
            ("d_mpki", "mpki"),
            ("migrations", "count"),
        )
    },
    **{
        f"sim.budget.{part}_s.{v}": "s"
        for v in REPLAY_VARIANTS
        for part in ("l1", "tlb", "bloom", "dir", "residual")
    },
    "store.open_s": "s",
    "store.put_s": "s",
    "store.puts": "count",
    "store.get_s": "s",
    "store.gets": "count",
    "queue.enqueue_s": "s",
    "queue.claim_s": "s",
    "queue.mark_s": "s",
    "queue.cycles": "count",
    "queue.overhead_s": "s",
    "queue.wall_s": "s",
    "queue.wall_ratio": "x",
    "queue.generate_calls": "count",
    "queue.gen_per_trace": "ratio",
    "queue.pool_starts": "count",
    "report.render_s": "s",
    "trace.slowdown": "x",
}

