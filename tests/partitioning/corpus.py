"""Quality corpus for the partitioner: six graphs with the shapes the
library meets (clustered, mesh-like, key-graph star forests, unstructured
sparse, one ``TwitterWorkload`` week, one ``FlickrWorkload`` sample).

Built through the public :class:`Graph` API only and seeded with
``random.Random`` so every graph is the same on every interpreter.
"""

import random
from collections import Counter

from repro.core import KeyGraph
from repro.partitioning import Graph
from repro.workloads.flickr import FlickrConfig, FlickrWorkload
from repro.workloads.twitter import TwitterConfig, TwitterWorkload


def planted_clusters(clusters=8, size=40, seed=11):
    """Dense clusters (weight 5 inside) joined by sparse unit edges."""
    rng = random.Random(seed)
    n = clusters * size
    edges = []
    for cluster in range(clusters):
        base = cluster * size
        for _ in range(size * 4):
            u, v = base + rng.randrange(size), base + rng.randrange(size)
            if u != v:
                edges.append((u, v, 5.0))
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, 1.0))
    return Graph.from_edges(n, edges)


def grid(side=30):
    edges = []
    for row in range(side):
        for col in range(side):
            v = row * side + col
            if col + 1 < side:
                edges.append((v, v + 1, 1.0))
            if row + 1 < side:
                edges.append((v, v + side, 1.0))
    return Graph.from_edges(side * side, edges)


def star_forest(
    hubs=400, seed=13, keygraph_weights=True, cross=0.5, max_leaves=40
):
    """Hubs with Pareto-many leaves, a share ``cross`` of which also link
    to a foreign hub: what a location -> hashtag key graph looks like.

    With ``keygraph_weights`` edges carry Pareto pair counts and a
    vertex weighs the sum of its incident edges (Figure 5); without,
    everything is unit weight.
    """
    rng = random.Random(seed)
    edges = []
    hub_ids = list(range(hubs))
    n = hubs
    for hub in hub_ids:
        for _ in range(min(max_leaves, int(rng.paretovariate(1.1)) + 1)):
            count = float(int(rng.paretovariate(1.3)))
            edges.append((hub, n, count if keygraph_weights else 1.0))
            if rng.random() < cross:
                other = rng.choice(hub_ids)
                if other != hub:
                    edges.append((other, n, 1.0))
            n += 1
    graph = Graph.from_edges(n, edges)
    if keygraph_weights:
        for v in range(n):
            graph.set_vertex_weight(v, graph.adjacency_weight(v))
    return graph


def random_sparse(n=2000, seed=17):
    """Unstructured: m = 1.2 n uniformly random unit edges."""
    rng = random.Random(seed)
    edges = []
    while len(edges) < int(1.2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, 1.0))
    return Graph.from_edges(n, edges)


def twitter_week(week=1, tweets=5000):
    """The exact key graph of one week of the generative Twitter
    workload (what ``twitter-plan`` partitions)."""
    generator = TwitterWorkload(TwitterConfig(seed=0, tweets_per_week=tweets))
    counts = Counter(generator.week_pairs(week))
    keygraph = KeyGraph.from_stats({("S->A", "A->B"): sorted(counts.items())})
    return keygraph.to_partition_graph()[0]


def flickr_sample(pairs=50_000):
    """The key graph the offline Flickr tables are mined from: 9.5k
    vertices, one country holding 7 % of the weight. Hub-heavy graphs
    are where coarsening and the balance slack go wrong first."""
    dataset = FlickrWorkload(FlickrConfig(seed=0, num_tags=20_000))
    counts = Counter(dataset.pairs(pairs, stream_seed=(0, "sample")))
    keygraph = KeyGraph.from_stats({("S->A", "A->B"): sorted(counts.items())})
    return keygraph.to_partition_graph()[0]


CORPUS = {
    "planted": planted_clusters,
    "grid": grid,
    "star_forest": star_forest,
    "random_sparse": random_sparse,
    "twitter_week": twitter_week,
    "flickr_sample": flickr_sample,
}
