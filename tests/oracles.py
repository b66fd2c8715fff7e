"""Brute-force reference implementations used only to check the library.

Everything here recomputes results the slow, obvious way (dense
matrices, nested loops, exhaustive enumeration) without touching the
library's own algorithms, so a test that compares both routes actually
compares two independent derivations.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations


def dense_edge_aggregation(links, directed):
    """Expected (u, v) -> weight mapping by accumulating triples one by one."""
    weights = {}
    for u, v, w in links:
        if directed:
            key = (u, v)
        else:
            key = (u, v) if (u.kind, u.id) < (v.kind, v.id) else (v, u)
        weights[key] = weights.get(key, 0) + w
    return weights


def brute_projection(side_nodes, counterparts_of):
    """All-pairs shared-counterpart counts: {(u, v): count} with u < v."""
    weights = {}
    for u, v in combinations(sorted(side_nodes, key=lambda n: (n.kind, n.id)), 2):
        shared = len(counterparts_of[u] & counterparts_of[v])
        if shared:
            weights[(u, v)] = shared
    return weights


def triangle_clustering(neighbor_sets):
    """Per-node clustering by looping over every neighbour pair."""
    out = {}
    for v, nbrs in neighbor_sets.items():
        nbrs = sorted(nbrs)
        k = len(nbrs)
        if k < 2:
            out[v] = 0.0
            continue
        links = 0
        for i in range(k):
            for j in range(i + 1, k):
                if nbrs[j] in neighbor_sets[nbrs[i]]:
                    links += 1
        out[v] = 2.0 * links / (k * (k - 1))
    return out


def floyd_warshall(neighbor_sets):
    """All-pairs hop distances; unreachable pairs are absent from the result."""
    nodes = sorted(neighbor_sets)
    inf = float("inf")
    dist = {(u, v): (0 if u == v else inf) for u in nodes for v in nodes}
    for u in nodes:
        for v in neighbor_sets[u]:
            dist[(u, v)] = 1
    for k in nodes:
        for i in nodes:
            dik = dist[(i, k)]
            if dik == inf:
                continue
            for j in nodes:
                alt = dik + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return {pair: d for pair, d in dist.items() if d != inf}


def enumerate_edge_betweenness(neighbor_sets):
    """Edge betweenness by listing every shortest path of every pair.

    For each unordered pair, all shortest paths are generated by a DFS
    over the BFS-distance layers; each path adds 1/(number of shortest
    paths) to each of its edges.
    """
    nodes = sorted(neighbor_sets)
    scores = {}
    for u in nodes:
        for v in neighbor_sets[u]:
            if (u.kind, u.id) < (v.kind, v.id):
                scores[(u, v)] = 0.0

    def edge(a, b):
        return (a, b) if (a.kind, a.id) < (b.kind, b.id) else (b, a)

    for i, s in enumerate(nodes):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in neighbor_sets[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        for t in nodes[i + 1:]:
            if t not in dist:
                continue
            paths = []

            def extend(path):
                head = path[-1]
                if head == t:
                    paths.append(list(path))
                    return
                for y in neighbor_sets[head]:
                    if dist.get(y) == dist[head] + 1 and dist[y] <= dist[t]:
                        path.append(y)
                        extend(path)
                        path.pop()

            extend([s])
            for path in paths:
                for a, b in zip(path, path[1:]):
                    scores[edge(a, b)] += 1.0 / len(paths)
    return scores


def all_partitions(items):
    """Every set partition of the items (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in all_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def modularity_from_edges(edges, partition_blocks):
    """Direct formula evaluation from a raw undirected edge list."""
    m = len(edges)
    label = {}
    for i, block in enumerate(partition_blocks):
        for node in block:
            label[node] = i
    degree = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    q = 0.0
    for i, block in enumerate(partition_blocks):
        internal = sum(1 for u, v in edges if label[u] == i and label[v] == i)
        total_degree = sum(degree.get(n, 0) for n in block)
        q += internal / m - (total_degree / (2 * m)) ** 2
    return q


def exact_modularity(edges, partition_blocks):
    """The modularity formula in exact rationals from a raw undirected edge list."""
    m = len(edges)
    q = Fraction(0)
    for block in partition_blocks:
        members = set(block)
        internal = sum(1 for u, v in edges if u in members and v in members)
        total_degree = sum((u in members) + (v in members) for u, v in edges)
        q += Fraction(internal, m) - Fraction(total_degree, 2 * m) ** 2
    return q
