"""Figure 14: DRAM accesses per instruction of Hetero-DMR+FMR@0.8GT/s
normalized to the Commercial Baseline under Hierarchy1 — the cost of
proactively cleaning LLC lines that get re-dirtied.

Paper: <1% average overhead.
"""

from conftest import once, publish

from repro.analysis.reporting import format_table
from repro.analysis.stats import mean
from repro.cache.hierarchy import hierarchy1
from repro.sim.runner import BUCKET_UTILIZATION
from repro.workloads import suite_names


def test_fig14_dram_accesses_per_instruction(benchmark, runner):
    def run():
        hier = hierarchy1()
        out = {}
        for suite in suite_names():
            base = runner.baseline(suite, hier)
            r = runner.run(suite, hier, "hetero-dmr+fmr", margin_mts=800,
                           memory_utilization=BUCKET_UTILIZATION["0-25"])
            out[suite] = (r.dram_accesses_per_instruction /
                          base.dram_accesses_per_instruction,
                          r.cleaned_rewrites, r.cleaning_writes)
        return out

    out = once(benchmark, run)
    rows = [[s, v[0], v[1], v[2]] for s, v in out.items()]
    avg = mean([v[0] for v in out.values()])
    text = format_table(
        ["suite", "normalized accesses/instr", "re-dirtied cleaned "
         "lines", "cleaning writes"],
        rows, title="Figure 14: normalized DRAM accesses per "
        "instruction (Hetero-DMR+FMR@0.8, Hierarchy1)")
    text += "\n\naverage: {:.3f} (paper: <1.01)".format(avg)
    publish("fig14_dram_accesses", text)
    assert avg < 1.15
