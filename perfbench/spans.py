"""Per-layer spans recorded from outside the program.

The benchmark's traced run wraps public functions of ``repro`` (and its
own call sites) with timers; nothing inside ``src/`` is instrumented.
Each span name accumulates seconds and a call count. A call made while
a span of the same name is already open is not counted again, so a
group such as ``exp.plan`` (``Figure.build``, ``Figure.specs`` and
``ExperimentSpec.key``) reports wall time, not the sum of nested calls.

Forked pool workers inherit the wrappers. A worker cannot hand its
spans back in memory, so it appends them to one file per process in
``spill_dir``; :meth:`Recorder.totals` merges those files.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_MISSING = object()


class Recorder:
    """Accumulates span seconds and call counts; off until :meth:`install`."""

    def __init__(self, spill_dir: Path) -> None:
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        spill_dir.mkdir(parents=True, exist_ok=True)
        self.active = False
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def add(self, name: str, seconds: float) -> None:
        if not self.active:
            return
        if os.getpid() == self.pid:
            self.seconds[name] += seconds
            self.calls[name] += 1
        else:
            with open(self.spill_dir / f"{os.getpid()}.jsonl", "a") as fh:
                fh.write(json.dumps([name, seconds]) + "\n")

    @contextmanager
    def span(self, name: str):
        """Time a block as one call of ``name`` (outermost only)."""
        if self._open[name]:
            yield
            return
        self._open[name] += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._open[name] -= 1
            self.add(name, time.perf_counter() - t0)

    @contextmanager
    def paused(self):
        """Suspend recording, for the benchmark's own bookkeeping."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a timed wrapper until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        import repro.exp.runner as runner_mod
        import repro.workloads as workloads_mod
        from repro.exp.figures import Figure
        from repro.exp.queue import WorkQueue
        from repro.exp.spec import ExperimentSpec
        from repro.exp.store import ResultStore
        from repro.sim.engine import ReplayEngine
        from repro.workloads.trace import ThreadTrace

        for owner, attr, name in (
            (workloads_mod, "standard_trace", "workloads.generate"),
            (runner_mod, "standard_trace", "workloads.generate"),
            (ThreadTrace, "replay_tables", "workloads.tables"),
            (Figure, "build", "exp.plan"),
            (Figure, "specs", "exp.plan"),
            (ExperimentSpec, "key", "exp.plan"),
            (runner_mod.Runner, "run", "runner.run"),
            (runner_mod, "FaultTolerantPool", "pool.start"),
            (ReplayEngine, "__init__", "sim.init"),
            (ReplayEngine, "run", "sim.replay"),
            (ResultStore, "__init__", "store.open"),
            (ResultStore, "put", "store.put"),
            (ResultStore, "put_failure", "store.put"),
            (ResultStore, "get", "store.get"),
            (ResultStore, "__contains__", "store.get"),
            (WorkQueue, "enqueue", "queue.enqueue"),
            (WorkQueue, "claim", "queue.claim"),
            (WorkQueue, "mark_done", "queue.mark"),
            (WorkQueue, "mark_failed", "queue.mark"),
        ):
            self.patch(owner, attr, name)
        for path in self.spill_dir.glob("*.jsonl"):
            path.unlink()
        self.active = True

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Seconds and calls per span, this process and its workers."""
        seconds = defaultdict(float, self.seconds)
        calls = defaultdict(int, self.calls)
        for path in sorted(self.spill_dir.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                name, dt = json.loads(line)
                seconds[name] += dt
                calls[name] += 1
        return seconds, calls
