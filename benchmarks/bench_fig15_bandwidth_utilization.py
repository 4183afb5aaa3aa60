"""Figure 15: average DRAM bandwidth utilization per suite at the
manufacturer-specified setting under Hierarchy1, split into read and
write shares.  Paper: writes are ~15% of traffic on average."""

from conftest import once, publish

from repro.analysis.reporting import format_table
from repro.analysis.stats import mean
from repro.cache.hierarchy import hierarchy1
from repro.workloads import BANDWIDTH_TARGETS, suite_names


def test_fig15_bandwidth_utilization(benchmark, runner):
    def run():
        hier = hierarchy1()
        return {s: runner.baseline(s, hier) for s in suite_names()}

    results = once(benchmark, run)
    rows = []
    for suite, r in results.items():
        rows.append([suite, r.bus_utilization,
                     r.bus_utilization * (1 - r.write_share),
                     r.bus_utilization * r.write_share,
                     r.write_share])
    write_share = mean([r.write_share for r in results.values()])
    text = format_table(
        ["suite", "bus util", "read util", "write util", "write share"],
        rows, title="Figure 15: bandwidth utilization at spec "
        "(Hierarchy1)")
    text += ("\n\naverage write share of DRAM traffic: {:.1%} "
             "(paper: ~15%)".format(write_share))
    publish("fig15_bandwidth_utilization", text)
    assert 0.08 <= write_share <= 0.22
    # graph500 is the least bandwidth-hungry suite, as in the paper.
    assert results["graph500"].bus_utilization == min(
        r.bus_utilization for r in results.values())
