"""SLICC: Self-Assembly of Instruction Cache Collectives for OLTP Workloads.

A complete trace-driven reproduction of Atta, Tozun, Ailamaki and
Moshovos, MICRO 2012. The public API in one import:

>>> import repro
>>> trace = repro.standard_trace("tpcc-1", repro.ScalePreset.SMOKE)
>>> base = repro.simulate(trace, variant="base")
>>> sw = repro.simulate(trace, variant="slicc-sw")
>>> sw.speedup_over(base) > 0
True

See README.md for the system inventory and for ``repro paper``, which
regenerates every figure and table, and DESIGN.md for the design notes
and the modelling substitutions.
"""

from repro.exp import (
    ExperimentSpec,
    ResultStore,
    Runner,
    grid,
    spec_for,
    summarize,
)
from repro.params import (
    BLOCK_SIZE,
    DEFAULT_SLICC,
    DEFAULT_SYSTEM,
    CacheParams,
    ScalePreset,
    SliccParams,
    SystemParams,
)
from repro.sim import SimConfig, SimulationResult, simulate
from repro.workloads import (
    generate_trace,
    get_workload,
    standard_trace,
    workload_names,
)

__version__ = "1.0.0"

__all__ = [
    "BLOCK_SIZE",
    "CacheParams",
    "DEFAULT_SLICC",
    "DEFAULT_SYSTEM",
    "ExperimentSpec",
    "ResultStore",
    "Runner",
    "ScalePreset",
    "SimConfig",
    "SimulationResult",
    "SliccParams",
    "SystemParams",
    "__version__",
    "generate_trace",
    "get_workload",
    "grid",
    "simulate",
    "spec_for",
    "standard_trace",
    "summarize",
    "workload_names",
]
