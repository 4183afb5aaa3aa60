"""Figure 13: system-level (CPU+DRAM) energy per instruction,
normalized to the Commercial Baseline.

Paper shape: Hetero-DMR improves EPI ~6% on average despite doubling
DRAM write energy, because static CPU energy dominates and falls with
execution time; Hetero-DMR+FMR stays near FMR.
"""

from conftest import once, publish

from repro.analysis.reporting import format_table
from repro.analysis.stats import mean
from repro.cache.hierarchy import hierarchy1, hierarchy2
from repro.energy import normalized_epi
from repro.sim.runner import BUCKET_UTILIZATION
from repro.workloads import suite_names

DESIGNS = ("fmr", "hetero-dmr", "hetero-dmr+fmr")


def test_fig13_energy_per_instruction(benchmark, runner):
    def run():
        out = {}
        for hier in (hierarchy1(), hierarchy2()):
            for design in DESIGNS:
                vals = []
                for suite in suite_names():
                    base = runner.baseline(suite, hier)
                    r = runner.run(
                        suite, hier, design, margin_mts=800,
                        memory_utilization=BUCKET_UTILIZATION["0-25"])
                    vals.append(normalized_epi(r, base))
                out[(hier.name, design)] = mean(vals)
        return out

    epi = once(benchmark, run)
    rows = [[design] +
            ["{:.3f}".format(epi[(h, design)])
             for h in ("Hierarchy1", "Hierarchy2")]
            for design in DESIGNS]
    hdmr_avg = mean([epi[("Hierarchy1", "hetero-dmr")],
                     epi[("Hierarchy2", "hetero-dmr")]])
    text = format_table(["design", "Hierarchy1", "Hierarchy2"], rows,
                        title="Figure 13: normalized EPI vs baseline")
    text += ("\n\nHetero-DMR average EPI: {:.3f} (paper: 0.94, i.e. "
             "-6%)".format(hdmr_avg))
    publish("fig13_energy_per_instruction", text)
    assert hdmr_avg < 1.02      # no energy-efficiency degradation
