"""Quality corpus: the partitioner's cut and balance on six graphs,
pinned against the last unbounded-FM commit.

``PARENT`` holds what commit 83c805e (all-vertex FM passes, no stop
rule, plain heavy-edge matching) produced on the same graphs: the edge
cut summed, and the balance averaged, over partitioner seeds 0-4. Summed
because that partitioner's cut moved by 5-10 % with the seed on one
graph (165 / 184 / 176 on the Twitter week at k = 2), so a per-seed 3 %
bound would test luck; the sum is what a change of algorithm moves.

``DIGESTS`` pin the seed-0 partition vectors themselves. CI runs this
directory under two ``PYTHONHASHSEED`` values, so any dependence of the
flat level form on hash order shows up as a digest mismatch.
"""

import hashlib

import pytest

from repro.partitioning import edge_cut, part_weights, partition
from repro.testing import balance_bound

from .corpus import CORPUS

ALPHA = 1.03
SEEDS = range(5)

#: (graph, k) -> (cut summed over SEEDS, balance averaged over SEEDS)
#: at commit 83c805e
PARENT = {
    ("planted", 2): (420.0, 1.0000),
    ("planted", 4): (614.0, 1.0000),
    ("grid", 2): (155.0, 1.0067),
    ("grid", 4): (338.0, 1.0124),
    ("star_forest", 2): (1211.0, 1.0359),
    ("star_forest", 4): (1953.0, 1.0904),
    ("random_sparse", 2): (934.0, 1.0246),
    ("random_sparse", 4): (1573.0, 1.0276),
    ("twitter_week", 2): (870.0, 1.0288),
    ("twitter_week", 4): (1395.0, 1.0718),
    ("flickr_sample", 2): (17457.0, 1.1013),
    ("flickr_sample", 4): (25592.0, 1.1724),
}

#: (graph, k) -> sha1 of the seed-0 partition vector, this partitioner
DIGESTS = {
    ("planted", 2): "f55283c74d77",
    ("planted", 4): "573161f9e7ce",
    ("grid", 2): "750ef733a308",
    ("grid", 4): "24aaf0134908",
    ("star_forest", 2): "cc0557ab34ea",
    ("star_forest", 4): "931c987c6885",
    ("random_sparse", 2): "5b3471567021",
    ("random_sparse", 4): "6024ec410d30",
    ("twitter_week", 2): "c5be9ad7d06f",
    ("twitter_week", 4): "3206824836af",
    ("flickr_sample", 2): "2ffd85ed763b",
    ("flickr_sample", 4): "a7a1499a7b50",
}


@pytest.fixture(scope="module")
def graphs():
    return {name: build() for name, build in CORPUS.items()}


@pytest.mark.parametrize("name,k", sorted(PARENT))
def test_cut_and_balance_hold_against_unbounded_fm(graphs, name, k):
    graph = graphs[name]
    parent_cut, parent_balance = PARENT[name, k]
    weights = graph.vertex_weights()
    ideal = sum(weights) / k
    bound = balance_bound(sum(weights), k, max(weights), ALPHA)
    total_cut = total_balance = 0.0
    for seed in SEEDS:
        parts = partition(graph, k, imbalance=ALPHA, seed=seed)
        heaviest = max(part_weights(graph, parts, k))
        assert heaviest <= bound, (name, k, seed)
        total_cut += edge_cut(graph, parts)
        total_balance += heaviest / ideal
    # the unstructured graph has no cut a local search reliably finds
    allowed = 1.05 if name == "random_sparse" else 1.03
    assert total_cut <= allowed * parent_cut, (
        f"{name} k={k}: cut {total_cut} over seeds 0-4, "
        f"commit 83c805e had {parent_cut}"
    )
    # Inside the bound there is granularity slack (one heaviest vertex
    # per bisection): a lower cut must not be bought by filling it.
    mean_balance = total_balance / len(SEEDS)
    assert mean_balance <= max(ALPHA, parent_balance) + 0.01, (
        f"{name} k={k}: balance {mean_balance:.4f} over seeds 0-4, "
        f"commit 83c805e had {parent_balance}"
    )


@pytest.mark.parametrize("name,k", sorted(DIGESTS))
def test_partition_vectors_do_not_depend_on_hash_order(graphs, name, k):
    parts = partition(graphs[name], k, imbalance=ALPHA, seed=0)
    digest = hashlib.sha1(bytes(parts)).hexdigest()[:12]
    assert digest == DIGESTS[name, k]
