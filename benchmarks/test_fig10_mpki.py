"""Figure 10 — L1 I- and D-MPKI for Base / SLICC / SLICC-Pp / SLICC-SW.

Paper result: SLICC-SW cuts I-MPKI by 56% (TPC-C) and 61% (TPC-E) at a
small D-MPKI increase (+11% / +4%; only +1% on the larger TPC-C-10
database); the oblivious variant reduces less (~40% average); MapReduce
is unaffected by all variants.
"""

import pytest

from repro.analysis import format_table

VARIANTS = ("base", "slicc", "slicc-pp", "slicc-sw")

#: Paper I-MPKI reduction of SLICC-SW vs base, for the shape record.
PAPER_SW_REDUCTION = {"tpcc-1": 0.56, "tpce": 0.61}


@pytest.mark.parametrize(
    "workload", ["tpcc-1", "tpcc-10", "tpce", "mapreduce"]
)
def test_fig10_mpki(benchmark, run_sims, workload):
    def run():
        return run_sims(workload, VARIANTS)

    results = benchmark.pedantic(run, iterations=1, rounds=1)
    base = results["base"]
    rows = []
    for variant in VARIANTS:
        r = results[variant]
        rows.append(
            [
                variant,
                r.i_mpki,
                r.d_mpki,
                1 - r.i_mpki / base.i_mpki if base.i_mpki else 0.0,
                r.d_mpki / base.d_mpki - 1 if base.d_mpki else 0.0,
            ]
        )
    print()
    paper = PAPER_SW_REDUCTION.get(workload)
    note = f" (paper SW I-MPKI cut: {paper:.0%})" if paper else ""
    print(
        format_table(
            ["variant", "I-MPKI", "D-MPKI", "I-cut", "D-growth"],
            rows,
            title=f"Figure 10 — {workload}{note}",
        )
    )
    if workload == "mapreduce":
        # Robustness: SLICC leaves the small-footprint workload alone.
        for variant in ("slicc", "slicc-sw"):
            r = results[variant]
            assert r.i_mpki == pytest.approx(base.i_mpki, rel=0.1)
    elif workload.startswith("tpcc"):
        # Shape: migration trades instruction misses for data misses.
        assert results["slicc-sw"].i_mpki < base.i_mpki
        assert results["slicc-sw"].d_mpki >= base.d_mpki * 0.95
    else:
        # TPC-E at CI scale: the 10-way type mix leaves each partition
        # only 3-5 caches against a 4-segment footprint, so SLICC-SW does
        # not beat the (inner-loop-friendly) baseline's I-MPKI here —
        # deviation tracked in ROADMAP item 1. The orderings that do
        # hold: type-awareness beats oblivious, and the D-MPKI cost of
        # migration appears exactly as the paper describes.
        assert results["slicc-sw"].i_mpki <= results["slicc"].i_mpki
        assert results["slicc-sw"].d_mpki >= base.d_mpki * 0.95
