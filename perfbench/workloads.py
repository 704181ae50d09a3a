"""The benchmark's workloads, at full size and as tiny instances for self-tests.

Sizes are chosen so that one run of each workload takes about half a minute on
a 2-core machine; README.md lists each workload's share of work per layer.
"""

from dataclasses import replace

from bench import Workload

WORKLOADS = {
    wl.name: wl
    for wl in (
        # Every value kept: lattice join, edge aggregation and cube write carry the build.
        Workload(name="full-cube", vertices=2000, edges=8000, dims=6, cardinality=10,
                 hub_fraction=0.0, hot_weight=1.0, policy="none", strategy="level-by-level",
                 serve=False),
        # Dense graph, planted hub, half of each dimension's values twice as frequent:
        # ss-mean keeps the frequent half (31 of 61 values) on every seed, so scoring
        # and edge aggregation carry the build. Its cuboids are small, so three read
        # passes per build give the run over 1,000 reads.
        Workload(name="pruned-cube", vertices=3000, edges=45000, dims=6, cardinality=10,
                 hub_fraction=0.02, hot_weight=2.0, policy="ss-mean", strategy="steps-up",
                 serve=False, read_passes=3),
        # Closed-loop reads of a full 127-cuboid cube written during set-up.
        Workload(name="query-zipf", vertices=600, edges=2400, dims=7, cardinality=6,
                 hub_fraction=0.0, hot_weight=1.0, policy="none", strategy="level-by-level",
                 serve=True),
    )
}

TINY = {
    "full-cube": replace(WORKLOADS["full-cube"], vertices=120, edges=400),
    "pruned-cube": replace(WORKLOADS["pruned-cube"], vertices=200, edges=1500, hub_fraction=0.1),
    "query-zipf": replace(WORKLOADS["query-zipf"], vertices=80, edges=240),
}
