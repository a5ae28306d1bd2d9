"""The benchmark's workloads: each is a repeatable unit of user work.

``replay`` drives the engine alone. ``paper-smoke`` drives the
paper-report pipeline over the whole figure registry at smoke scale
(figure planning, one ``Runner.run`` over every distinct spec, report
rendering) into a fresh store, then resumes it from that store. Its
traced run also makes one ``queue-smoke`` pass: the same campaign with
the run step replaced by the durable work queue, so the two differ only
in ``repro.exp.queue``.

Every workload takes its inputs from the seed: the figures' specs are
rebuilt with ``seed`` in place of the registry's ``FIGURE_SEED``.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import repro.workloads as workloads_mod
from repro.errors import SweepFailure
from repro.analysis.paper_report import write_figure_report, write_index
from repro.exp import (
    ResultStore,
    Runner,
    RunnerStats,
    WorkQueue,
    drain,
    result_to_json,
    select_figures,
    spec_for,
)
from repro.exp.figures import FigureRow
from repro.params import ScalePreset
from repro.sim.engine import ReplayEngine, SimConfig
from repro.sim.tlb import PAGE_SHIFT

from metrics import REPLAY_VARIANTS

#: Worker processes for every pool (the measuring host has two cores).
JOBS = 2

REPLAY_WORKLOAD = "tpcc-10"
#: Store resumes per ``replay`` repetition.
RESUME_SAMPLES = 50


@dataclass
class Rep:
    """What one repetition of a workload did."""

    wall_s: float
    #: Seconds per resume from the store (one or more resumes).
    resume_s: list[float]
    #: Canonical result JSON per spec key (or variant, on ``replay``).
    results: dict[str, str]
    #: Trace records replayed in the timed (cold) section.
    records: int
    #: Distinct traces the timed section needed.
    traces: int
    attempted: int
    failed: int
    #: Problems found by the repetition's own checks.
    errors: list[str] = field(default_factory=list)
    #: Layer values the workload measures itself (not through spans).
    layer: dict[str, float] = field(default_factory=dict)


def _records(result) -> int:
    return result.i_accesses + result.d_accesses


class ReplayWorkload:
    """Four variants replayed in-process on one tpcc-10 CI trace."""

    name = "replay"

    def __init__(self, seed: int, tmp: Path, rec) -> None:
        self.seed = seed
        self.tmp = tmp
        self.rec = rec
        self.trace = None
        self.kernels: dict[str, str] = {}
        self.results: dict = {}

    def setup(self) -> None:
        """Generate the trace and build its replay tables."""
        trace = workloads_mod.standard_trace(
            REPLAY_WORKLOAD, ScalePreset.CI, seed=self.seed
        )
        for thread in trace.threads:
            thread.replay_tables(PAGE_SHIFT)
        self.trace = trace

    def rep(self) -> Rep:
        results, layer = {}, {}
        t0 = time.perf_counter()
        for variant in REPLAY_VARIANTS:
            engine = ReplayEngine(self.trace, SimConfig(variant=variant))
            t1 = time.perf_counter()
            result = engine.run()
            layer[f"sim.replay_s.{variant}"] = time.perf_counter() - t1
            self.kernels[variant] = engine.kernel
            self.results[variant] = result
        wall = time.perf_counter() - t0
        with self.rec.paused():
            for variant, result in self.results.items():
                results[variant] = result_to_json(result)
        records = sum(_records(r) for r in self.results.values())
        resume, stats, errors = self._resume()
        layer["runner.cached"] = stats.cached
        layer["runner.simulated"] = stats.simulated
        n = len(REPLAY_VARIANTS)
        return Rep(wall, resume, results, records, 1, n, 0, errors, layer)

    def _resume(self) -> tuple[list[float], RunnerStats, list[str]]:
        """Serve the four specs again from a store that holds them.

        One resume takes under a millisecond, so it is sampled
        ``RESUME_SAMPLES`` times.
        """
        where = self.tmp / "replay-store"
        specs = [
            spec_for(self.trace, SimConfig(variant=v)) for v in REPLAY_VARIANTS
        ]
        with self.rec.paused():
            shutil.rmtree(where, ignore_errors=True)
            store = ResultStore(where)
            for spec, variant in zip(specs, REPLAY_VARIANTS):
                store.put(spec.key(), self.results[variant], spec=spec)
            store.close()
        samples, stats, errors = [], RunnerStats(), []
        for _ in range(RESUME_SAMPLES):
            t0 = time.perf_counter()
            store = ResultStore(where)
            runner = Runner(store=store, jobs=JOBS)
            served = runner.run(specs, trace=self.trace)
            samples.append(time.perf_counter() - t0)
            store.close()
            stats.add(runner.last_stats)
            if runner.last_stats.simulated:
                errors.append("replay resume simulated instead of serving")
            with self.rec.paused():
                for variant, result in zip(REPLAY_VARIANTS, served):
                    if result_to_json(result) != result_to_json(
                        self.results[variant]
                    ):
                        errors.append(f"replay resume changed {variant}")
        return samples, stats, errors


def seeded_rows(figure, scale: str, seed: int) -> list[FigureRow]:
    """The figure's rows with every spec moved to ``seed``."""
    return [
        FigureRow(
            replace(row.spec, seed=seed),
            None if row.baseline is None else replace(row.baseline, seed=seed),
        )
        for row in figure.build(scale)
    ]


@dataclass
class _Phase:
    specs: list
    stats: RunnerStats
    records: int = 0
    queue_cycles: int = 0
    queue_completed: int = 0


class PaperWorkload:
    """Plan, run and render every registered figure at smoke scale; then
    resume the campaign from its store.

    With ``via_queue`` the specs go through ``WorkQueue.enqueue`` +
    ``drain`` instead of a direct ``Runner.run``.
    """

    scale = "smoke"

    def __init__(self, name, seed, tmp, rec, via_queue=False):
        self.name = name
        self.seed = seed
        self.tmp = tmp
        self.rec = rec
        self.via_queue = via_queue
        self._count = 0

    def setup(self) -> None:
        """Nothing: planning and trace generation are part of the run."""

    def _phase(self, where: Path, tag: str) -> tuple[_Phase, dict]:
        store = ResultStore(where)
        figures = select_figures()
        with self.rec.span("exp.plan"):
            rows, specs = {}, {}
            for figure in figures:
                rows[figure.name] = seeded_rows(figure, self.scale, self.seed)
                for row in rows[figure.name]:
                    for spec in (row.spec, row.baseline):
                        if spec is not None:
                            specs.setdefault(spec.key(), spec)
        runner = Runner(store=store, jobs=JOBS)
        phase = _Phase(list(specs.values()), runner.stats)
        if self.via_queue:
            queue = WorkQueue(where / f"queue-{tag}", worker_id="w0")
            queue.enqueue(phase.specs)
            with self.rec.span("queue.drain"):
                report = drain(queue, runner)
            phase.queue_cycles = report.cycles
            phase.queue_completed = report.completed
        else:
            try:
                runner.run(phase.specs)
            except SweepFailure:
                pass  # counted through runner.stats.failed
        out = where / f"report-{tag}"
        with self.rec.span("report.render"):
            entries = []
            for figure in figures:
                write_figure_report(figure, rows[figure.name], store, out)
                entries.append((figure, len(rows[figure.name])))
            write_index(out, entries, scale=self.scale, store_path=store.path)
        with self.rec.paused():
            stored = {key: store.get(key) for key in specs}
            results = {
                key: result_to_json(result)
                for key, result in stored.items()
                if result is not None
            }
            phase.records = sum(
                _records(stored[key]) for key in runner.stats.spec_seconds
            )
        store.close()
        return phase, results

    def rep(self) -> Rep:
        self._count += 1
        where = self.tmp / f"{self.name}-{self._count}"
        t0 = time.perf_counter()
        cold, results = self._phase(where, "cold")
        wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm, warm_results = self._phase(where, "warm")
        resume = [time.perf_counter() - t0]

        n = len(cold.specs)
        errors = []
        if warm.stats.simulated:
            errors.append(f"{self.name} resume simulated {warm.stats.simulated}")
        if warm_results != results:
            errors.append(f"{self.name} resume served different results")
        if len(results) != n - cold.stats.failed:
            errors.append(f"{self.name} store is missing results")
        for tag in ("cold", "warm"):
            if not (where / f"report-{tag}" / "index.md").is_file():
                errors.append(f"{self.name} {tag} report has no index.md")
        if self.via_queue and (cold.queue_completed, warm.queue_completed) != (
            n - cold.stats.failed,
            n - cold.stats.failed,
        ):
            errors.append(f"{self.name} queue did not complete every spec")
        shutil.rmtree(where, ignore_errors=True)

        layer = {
            "exp.specs": n,
            "runner.simulated": cold.stats.simulated + warm.stats.simulated,
            "runner.cached": cold.stats.cached + warm.stats.cached,
            "runner.retried": cold.stats.retried + warm.stats.retried,
            "runner.failed": cold.stats.failed + warm.stats.failed,
            "runner.sim_s": cold.stats.sim_seconds + warm.stats.sim_seconds,
            "queue.cycles": cold.queue_cycles + warm.queue_cycles,
        }
        traces = len({spec.trace_key() for spec in cold.specs})
        failed = cold.stats.failed + warm.stats.failed
        return Rep(
            wall,
            resume,
            results,
            cold.records,
            traces,
            2 * n,
            failed,
            errors,
            layer,
        )


def make_workload(name: str, seed: int, tmp: Path, rec):
    if name == "replay":
        return ReplayWorkload(seed, tmp, rec)
    if name == "paper-smoke":
        return PaperWorkload(name, seed, tmp, rec)
    raise ValueError(f"unknown workload {name!r}")
