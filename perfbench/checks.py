"""The reference pass: golden pins and distance from the paper.

Run once per benchmark invocation, after the timed section, always at
the registry's ``FIGURE_SEED`` whatever ``--seed`` is:

* every smoke-scale registry spec that has a pin in ``tests/golden/``
  is simulated and compared byte-for-byte (``result_to_json``) with it;
* the SLICC-SW claims of Figures 10 and 11 are simulated at CI scale and
  their absolute distance from the paper's values becomes the
  ``paper_err.*`` metrics. These are the numbers ``repro paper`` reports,
  so a change that only speeds the program up must leave them identical.

The pins and the paper's values are read from the repository
(``tests/golden/`` and the figure benchmarks), so a change that
deliberately regenerates the pins needs no edit here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.exp import ExperimentSpec, Runner, result_to_json, select_figures
from repro.exp.figures import FIGURE_SEED
from repro.sim.engine import SimConfig

#: The paper's workloads whose SLICC-SW speedup / I-MPKI cut is checked.
SPEEDUP_WORKLOADS = ("tpcc-1", "tpce", "mapreduce")
IMPKI_CUT_WORKLOADS = ("tpcc-1", "tpce")


def _paper_constant(root: Path, bench: str, name: str):
    """A module-level constant of one of ``benchmarks/test_fig*.py``."""
    path = root / "benchmarks" / f"{bench}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{bench}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name)


def pinned_specs(root: Path) -> dict[str, tuple[ExperimentSpec, str]]:
    """Smoke registry specs with a golden pin: key -> (spec, pin JSON).

    A pin ``tests/golden/<workload>__<variant>.json`` records
    ``simulate(standard_trace(workload, smoke, seed=FIGURE_SEED),
    variant=variant)``, which is the registry spec with that variant and
    an otherwise default config.
    """
    golden = root / "tests" / "golden"
    pinned = {}
    for figure in select_figures():
        for spec in figure.specs("smoke"):
            pin = golden / f"{spec.workload}__{spec.variant}.json"
            if (
                spec.n_threads is None
                and spec.config == SimConfig(variant=spec.variant)
                and pin.is_file()
            ):
                pinned[spec.key()] = (spec, pin.read_text().strip())
    return pinned


def fidelity_specs() -> dict[tuple[str, str], ExperimentSpec]:
    return {
        (workload, variant): ExperimentSpec(
            workload,
            config=SimConfig(variant=variant),
            scale="ci",
            seed=FIGURE_SEED,
        )
        for workload in SPEEDUP_WORKLOADS
        for variant in ("base", "slicc-sw")
    }


def reference_pass(root: Path, jobs: int) -> tuple[dict, dict, list[str]]:
    """Simulate the pinned and paper-claim specs.

    Returns ``(paper_err, pins, errors)``: the paper-error metrics, the
    pins (key -> pin JSON, so timed results can be checked too) and one
    message per mismatching pin.
    """
    pinned = pinned_specs(root)
    errors = [] if pinned else [f"no golden pins under {root}/tests/golden"]
    claims = fidelity_specs()
    specs = [spec for spec, _ in pinned.values()] + list(claims.values())
    results = Runner(jobs=jobs).run(specs)
    by_key = {spec.key(): result for spec, result in zip(specs, results)}
    for key, (spec, pin) in pinned.items():
        if result_to_json(by_key[key]) != pin:
            errors.append(f"golden pin differs: {spec.workload}/{spec.variant}")

    speedup = _paper_constant(root, "test_fig11_performance", "PAPER_SPEEDUP")
    cut = _paper_constant(root, "test_fig10_mpki", "PAPER_SW_REDUCTION")
    claim = {k: by_key[spec.key()] for k, spec in claims.items()}
    paper_err = {}
    for workload in SPEEDUP_WORKLOADS:
        base, sw = claim[(workload, "base")], claim[(workload, "slicc-sw")]
        paper_err[f"paper_err.sw_speedup.{workload}"] = abs(
            sw.speedup_over(base) - speedup[workload]["slicc-sw"]
        )
        if workload in IMPKI_CUT_WORKLOADS:
            paper_err[f"paper_err.sw_impki_cut.{workload}"] = abs(
                (1.0 - sw.i_mpki / base.i_mpki) - cut[workload]
            )
    pins = {key: pin for key, (_, pin) in pinned.items()}
    return paper_err, pins, errors
