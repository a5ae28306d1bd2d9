"""Trace containers.

A trace is the unit of exchange between the workload generators and the
simulation engine: per thread, two parallel numpy arrays of block ids and
access kinds. Encoding one record per *cache block* touched (rather than
per instruction) keeps traces ~12x smaller than instruction-granular ones
at zero loss for cache simulation — consecutive instructions in the same
block cannot change any cache state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TraceError

#: Access kinds (values of ``ThreadTrace.kind``).
KIND_INSTR = 0
KIND_LOAD = 1
KIND_STORE = 2


@dataclass
class ThreadTrace:
    """The replayable access stream of one worker thread.

    Attributes:
        thread_id: unique id within the trace.
        txn_type: transaction type id (ground truth; the type-oblivious
            SLICC variant never reads it).
        addr: int64 block ids, program order.
        kind: int8 access kinds aligned with ``addr``.
    """

    thread_id: int
    txn_type: int
    addr: np.ndarray
    kind: np.ndarray

    def __post_init__(self) -> None:
        if len(self.addr) != len(self.kind):
            raise TraceError(
                f"thread {self.thread_id}: addr/kind length mismatch "
                f"({len(self.addr)} vs {len(self.kind)})"
            )

    def __len__(self) -> int:
        return len(self.addr)

    def replay_tables(self, page_shift: int) -> tuple[list, list, list]:
        """Cached plain-list ``(addr, kind, page)`` tables for the replay
        engine's hot loop.

        Indexing a Python list yields cached small ints where indexing a
        numpy array allocates a numpy scalar that must be unboxed — a
        large per-record cost — and the page id (``addr >> page_shift``)
        is a pure function of the address, so both conversions are done
        once here and memoised on the thread. The tables are read-only
        by contract: the engine never mutates them, so one materialised
        copy serves every simulation of this trace in the process (and,
        under ``fork``-based experiment runners, every worker inherits
        the parent's copy for free). The cache is dropped on pickling —
        shipping redundant list renderings of the numpy arrays would
        bloat ``spawn``-style worker transfers.
        """
        cached = getattr(self, "_replay_tables", None)
        if cached is not None and cached[0] == page_shift:
            return cached[1]
        tables = (
            self.addr.tolist(),
            self.kind.tolist(),
            (self.addr >> page_shift).tolist(),
        )
        self._replay_tables = (page_shift, tables)
        return tables

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_replay_tables", None)
        return state

    @property
    def n_instruction_records(self) -> int:
        """Number of instruction-block records."""
        return int(np.count_nonzero(self.kind == KIND_INSTR))

    @property
    def n_data_records(self) -> int:
        """Number of load/store records."""
        return len(self) - self.n_instruction_records

    def instruction_blocks(self) -> np.ndarray:
        """Distinct instruction block ids this thread touches."""
        return np.unique(self.addr[self.kind == KIND_INSTR])


@dataclass
class Trace:
    """A full workload trace: many threads plus generation metadata."""

    workload: str
    threads: list[ThreadTrace]
    instructions_per_iblock: int
    seed: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.threads:
            raise TraceError("trace has no threads")
        ids = [t.thread_id for t in self.threads]
        if len(set(ids)) != len(ids):
            raise TraceError("duplicate thread ids in trace")

    def __len__(self) -> int:
        return len(self.threads)

    @property
    def total_records(self) -> int:
        """Total access records across all threads."""
        return sum(len(t) for t in self.threads)

    @property
    def total_instructions(self) -> int:
        """Retired instructions the trace represents."""
        return sum(
            t.n_instruction_records for t in self.threads
        ) * self.instructions_per_iblock

    def types_present(self) -> list[int]:
        """Sorted distinct transaction type ids."""
        return sorted({t.txn_type for t in self.threads})

    def threads_of_type(self, type_id: int) -> list[ThreadTrace]:
        """All threads running the given transaction type."""
        return [t for t in self.threads if t.txn_type == type_id]
