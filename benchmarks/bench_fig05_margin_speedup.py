"""Figure 5: real-system speedup from exploiting memory margins — the
four Table II settings across six suites and two hierarchies.

Paper shape: freq+lat ~1.19x average (1.24x for Linpack); frequency
margin alone beats latency margin alone.
"""

from conftest import once, publish

from repro.analysis.reporting import format_table
from repro.analysis.stats import suite_average
from repro.cache.hierarchy import hierarchy1, hierarchy2
from repro.workloads import suite_names


def test_fig05_margin_speedups(benchmark, runner):
    def run():
        return {h.name: runner.table2_speedups(h)
                for h in (hierarchy1(), hierarchy2())}

    results = once(benchmark, run)
    blocks = []
    freq_lat_avgs = []
    for hname, per_setting in results.items():
        rows = []
        for setting, per_suite in per_setting.items():
            rows.append([setting] +
                        ["{:.3f}".format(per_suite[s])
                         for s in suite_names()] +
                        ["{:.3f}".format(suite_average(per_suite))])
        blocks.append(format_table(
            ["setting"] + suite_names() + ["avg"], rows,
            title="Figure 5 ({}): speedup over spec".format(hname)))
        freq_lat_avgs.append(suite_average(
            per_setting["Setting to Exploit Freq+Lat Margins"]))
    overall = sum(freq_lat_avgs) / len(freq_lat_avgs)
    lin = sum(r["Setting to Exploit Freq+Lat Margins"]["linpack"]
              for r in results.values()) / 2
    text = "\n\n".join(blocks)
    text += ("\n\nfreq+lat average across suites and hierarchies: "
             "{:.3f} (paper: 1.19); linpack: {:.3f} (paper: 1.24)"
             .format(overall, lin))
    publish("fig05_margin_speedup", text)
    assert overall > 1.10
    assert lin >= overall      # linpack among the biggest winners
    for per_setting in results.values():
        freq = suite_average(
            per_setting["Setting to Exploit Frequency Margin"])
        lat = suite_average(
            per_setting["Setting to Exploit Latency Margin"])
        both = suite_average(
            per_setting["Setting to Exploit Freq+Lat Margins"])
        assert both >= max(freq, lat) - 0.02
