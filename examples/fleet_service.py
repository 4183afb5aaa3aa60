#!/usr/bin/env python3
"""Example: the fleet margin registry end to end.

Profiles a seeded fleet in parallel into a file-backed
:class:`MarginRegistry` (with a few flaky rigs exercising the bounded
retry path), answers a batched placement query, ingests a
degradation-ladder demotion through the registry, and shows the next
placement decision change.  Finishes by compacting the event log and
reloading the registry from its snapshot — what a scheduler restart
would do.

Run:  python examples/fleet_service.py [nodes] [workers]
"""

import sys
import tempfile

from repro.fleet import (FleetConfig, FleetIngest, FleetProfiler,
                         MarginRegistry, PlacementService)
from repro.hpc import Cluster
from repro.resilience import build_ladder


def describe(assignments):
    return "; ".join(
        "job {} -> nodes {} (bucket {})".format(
            a.job_id, ",".join(str(n) for n in a.nodes),
            a.margin_bucket)
        if a is not None else "job unplaced"
        for a in assignments)


def main() -> None:
    nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2

    with tempfile.TemporaryDirectory() as root:
        registry = MarginRegistry(root + "/registry")
        config = FleetConfig(nodes=nodes, workers=workers,
                             flaky_node_rate=0.1, seed=7)
        summary = FleetProfiler(config, registry).run()
        print(summary.render())

        service = PlacementService(registry)
        widths = [4, 2, 2]
        before = service.place(widths)
        print("placement before demotion:")
        print("  " + describe(before))

        # A degradation controller demotes the first assigned node to
        # specification; the event flows through the registry.
        victim = before[0].nodes[0]
        ingest = FleetIngest(registry)
        ingest.now_s = 60.0
        ingest.rung_hook(victim)(build_ladder(800)[-1])
        after = service.place(widths)
        print("placement after demotion of node {}:".format(victim))
        print("  " + describe(after))

        dropped = registry.compact()
        reloaded = MarginRegistry(registry.path)
        cluster = Cluster.from_registry(reloaded)
        print("compacted {} events; reloaded registry drives a "
              "{}-node cluster: {}".format(
                  dropped, len(cluster), cluster.group_counts()))


if __name__ == "__main__":
    main()
