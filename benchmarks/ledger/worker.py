"""Run one repeat of one ledger workload in this fresh process.

    python3 worker.py --workload NAME --seed N [--trace | --setup-only]
        [--work-dir DIR]

``run.py`` starts one of these per repeat, with ``src`` on
``PYTHONPATH``, and reads the single JSON object it prints: the raw and
host-normalised (``hostprobe.py``) seconds of the set-up and of the
timed call, peak RSS, the workload's outcome and, with ``--trace``, the
sampled per-layer counts.  Set-up time starts below, before ``repro``
is imported, and ends where the timed call starts; one probe on each
side of it normalises it.  ``--setup-only`` stops there and reports the
set-up time alone.
"""

import time

from hostprobe import HostProbe, normalize

PROBE = HostProbe()
BEFORE_SETUP_S = PROBE.measure()
STARTED = time.perf_counter()

import argparse  # noqa: E402  (set-up time includes every import)
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def _sampler():
    import asyncio
    import os

    import repro
    from repro.sim.node import NodeSimulation
    from sampler import LayerMap, StackSampler
    layer_map = LayerMap(os.path.dirname(repro.__file__),
                         os.path.dirname(asyncio.__file__))
    return StackSampler(layer_map,
                        span_code=NodeSimulation.__init__.__code__)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir")
    args = parser.parse_args(argv)
    function, needs_dir = WORKLOADS[args.workload]
    kwargs = {"registry_dir": args.work_dir} if needs_dir else {}
    try:
        call, outcome = function(args.seed, **kwargs)
        sampler = _sampler() if args.trace else None
        setup_s = time.perf_counter() - STARTED
        setup = {"setup_s": setup_s, "norm_setup_s": normalize(
            [setup_s], [BEFORE_SETUP_S, PROBE.measure()])}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        PROBE.start()
        if sampler is not None:
            sampler.start()
        try:
            result = call()
        finally:
            if sampler is not None:
                sampler.stop()
            PROBE.stop()
        summary = outcome(result)
    except Exception:  # reported to run.py, which counts a failed repeat
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    doc = dict(
        setup,
        wall_s=PROBE.wall_s,
        norm_wall_s=PROBE.norm_wall_s,
        probe_s=statistics.median(PROBE.probes),
        peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        outcome=dataclasses.asdict(summary))
    if sampler is not None:
        doc["trace"] = {"samples": sampler.samples,
                        "span_samples": sampler.span_samples,
                        "self": dict(sampler.self_counts),
                        "busy": dict(sampler.busy_counts)}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
