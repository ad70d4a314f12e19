"""Proximity graphs, degree bounds and equitable colorings.

Joining two members of a norm->=1 k-collapsing family whenever their
distance is below 1 yields a graph of maximum degree at most k-2 (each
member of a small-sum k-subset has a far partner).  Any graph with
max degree below k admits an equitable k-coloring; the constructive
balancing below repeatedly walks a path of single-vertex moves between
color classes, each application strictly decreasing the size imbalance,
so it terminates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import InvariantError, PreconditionError
from .family import VectorFamily, check_k_collapsing
from .scalars import unit_floor


@dataclass(frozen=True)
class SimpleGraph:
    n: int
    edges: frozenset  # frozenset of 2-tuples (i, j) with i < j, 0-based

    def __post_init__(self):
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise PreconditionError(f"bad edge ({i}, {j})")

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def to_json(self) -> dict:
        return {"n": self.n, "edges": sorted(map(list, self.edges))}


def make_graph(n: int, edges) -> SimpleGraph:
    norm_edges = set()
    for i, j in edges:
        if i == j:
            raise PreconditionError("loops are not allowed")
        norm_edges.add((min(i, j), max(i, j)))
    return SimpleGraph(n=n, edges=frozenset(norm_edges))


def proximity_graph(family: VectorFamily, threshold=1) -> SimpleGraph:
    """Edge whenever the distance is strictly below the threshold."""
    vectors = family.vectors
    g = family.gauge()
    bound = g.scale(threshold)
    edges = [
        (i, j)
        for i, j in combinations(range(len(vectors)), 2)
        if g.value([a - b for a, b in zip(vectors[i], vectors[j])]) < bound
    ]
    return make_graph(len(vectors), edges)


def max_degree(graph: SimpleGraph) -> int:
    degree = [0] * graph.n
    for i, j in graph.edges:
        degree[i] += 1
        degree[j] += 1
    return max(degree, default=0)


@dataclass(frozen=True)
class EquitableColoring:
    assignment: tuple  # vertex -> color in 0..k-1
    class_sizes: tuple

    def classes(self, k: int) -> list[list[int]]:
        out = [[] for _ in range(k)]
        for v, c in enumerate(self.assignment):
            out[c].append(v)
        return out


def is_proper(graph: SimpleGraph, assignment: Sequence[int]) -> bool:
    return all(assignment[i] != assignment[j] for i, j in graph.edges)


def is_equitable(graph: SimpleGraph, assignment: Sequence[int], k: int) -> bool:
    sizes = [0] * k
    for c in assignment:
        sizes[c] += 1
    lo, hi = graph.n // k, -(-graph.n // k)
    return is_proper(graph, assignment) and all(s in (lo, hi) for s in sizes)


def _greedy_coloring(adj: list[set[int]], order: Sequence[int], k: int) -> list[int]:
    color = [-1] * len(order)
    for v in order:
        used = {color[u] for u in adj[v] if color[u] >= 0}
        # least-loaded admissible color keeps the start roughly balanced
        counts = [0] * k
        for c in color:
            if c >= 0:
                counts[c] += 1
        choice = min(
            (c for c in range(k) if c not in used), key=lambda c: (counts[c], c)
        )
        color[v] = choice
    return color


def _balance(adj: list[set[int]], color: list[int], k: int) -> bool:
    """Move-path balancing; True on success.

    A class move A -> B relocates some vertex of A with no neighbour in B.
    Whenever two classes differ in size by >= 2, a chain of moves from the
    larger to the smaller strictly decreases sum(size^2); we search chains
    by BFS over classes and apply the first one found.
    """
    n = len(color)
    classes: list[set[int]] = [set() for _ in range(k)]
    for v, c in enumerate(color):
        classes[c].add(v)
    while True:
        sizes = [len(cl) for cl in classes]
        if max(sizes) - min(sizes) <= 1:
            return True
        moved = False
        donors = sorted(range(k), key=lambda c: -sizes[c])
        for a in donors:
            # BFS over classes: edge c -> d when some vertex of c can move to d
            parent: dict[int, tuple[int, int]] = {a: (-1, -1)}
            frontier = [a]
            target = -1
            while frontier and target < 0:
                nxt = []
                for c in frontier:
                    for d in range(k):
                        if d in parent or d == c:
                            continue
                        witness = next(
                            (v for v in sorted(classes[c]) if not (adj[v] & classes[d])),
                            None,
                        )
                        if witness is None:
                            continue
                        parent[d] = (c, witness)
                        if sizes[d] <= sizes[a] - 2:
                            target = d
                            break
                        nxt.append(d)
                    if target >= 0:
                        break
                frontier = nxt
            if target < 0:
                continue
            # unwind the chain, then apply moves from the donor end
            chain = []
            d = target
            while parent[d][0] >= 0:
                c, witness = parent[d]
                chain.append((witness, c, d))
                d = c
            for witness, c, d in reversed(chain):
                classes[c].discard(witness)
                classes[d].add(witness)
                color[witness] = d
            moved = True
            break
        if not moved:
            return False


def equitable_coloring(graph: SimpleGraph, k: int, restarts: int = 32) -> EquitableColoring:
    """Proper coloring with class sizes differing by at most one.

    Requires k > max degree (refuses otherwise rather than best-effort).
    Uses greedy start plus move-path balancing; on a stuck configuration the
    greedy order is reshuffled deterministically.
    """
    delta = max_degree(graph)
    if k <= delta:
        raise PreconditionError(f"need k > max degree, got k={k}, degree={delta}")
    adj = graph.adjacency()
    order = list(range(graph.n))
    rng = random.Random(0xC0109)
    for _ in range(restarts):
        color = _greedy_coloring(adj, order, k)
        if _balance(adj, color, k):
            if not is_equitable(graph, color, k):
                raise InvariantError("balancing terminated on a non-equitable coloring")
            sizes = [0] * k
            for c in color:
                sizes[c] += 1
            return EquitableColoring(assignment=tuple(color), class_sizes=tuple(sizes))
        rng.shuffle(order)
    raise InvariantError("equitable balancing failed after restarts")


# ---------------------------------------------------------------------------
# The coloring/volume pipeline at desk scale


@dataclass(frozen=True)
class PipelineReport:
    m: int
    k: int
    dim: int
    collapsing_ok: bool
    norms_ok: bool
    max_degree: int
    degree_ok: bool
    class_sizes: tuple | None
    coloring_ok: bool
    remainder: int
    lhs: float
    rhs: float
    inequality_holds: bool

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "dim": self.dim,
            "stages": {
                "collapsing": self.collapsing_ok,
                "norms": self.norms_ok,
                "degree": {"max_degree": self.max_degree, "ok": self.degree_ok},
                "coloring": {
                    "sizes": list(self.class_sizes) if self.class_sizes else None,
                    "ok": self.coloring_ok,
                },
                "volume_inequality": {
                    "lhs": self.lhs,
                    "rhs": self.rhs,
                    "holds": self.inequality_holds,
                },
            },
        }


def partition_inequality(m: int, k: int, d: int) -> tuple[float, float, bool]:
    """The exact comparison ((q+1)^r q^(k-r))^(1/k) <= (1 + 2/k)^d with
    q = floor(m/k), r = m - k q; compared by clearing denominators so the
    verdict is exact, floats only for display."""
    q, r = divmod(m, k)
    lhs_pow = (q + 1) ** r * q ** (k - r)  # lhs^k
    holds = lhs_pow * k ** (d * k) <= (k + 2) ** (d * k)
    lhs = lhs_pow ** (1.0 / k)
    rhs = (1.0 + 2.0 / k) ** d
    return lhs, rhs, holds


def bm_pipeline_check(family: VectorFamily, k: int) -> PipelineReport:
    """Run the proof pipeline on a concrete family: degree bound, equitable
    coloring, and the resulting scalar volume inequality.  The measure
    theory behind the inequality is out of scope; only the final scalar
    comparison is evaluated."""
    norm = family.gauge()
    norms_ok = all(norm.value(v) >= unit_floor(norm.exact) for v in family.vectors)
    collapsing_ok = check_k_collapsing(family, k).holds
    g = proximity_graph(family, 1)
    delta = max_degree(g)
    degree_ok = delta <= k - 2
    class_sizes = None
    coloring_ok = False
    if degree_ok and collapsing_ok and norms_ok:
        coloring = equitable_coloring(g, k)
        class_sizes = coloring.class_sizes
        coloring_ok = is_equitable(g, coloring.assignment, k)
    m, d = family.m, family.space.dim
    lhs, rhs, holds = partition_inequality(m, k, d)
    return PipelineReport(
        m=m,
        k=k,
        dim=d,
        collapsing_ok=collapsing_ok,
        norms_ok=norms_ok,
        max_degree=delta,
        degree_ok=degree_ok,
        class_sizes=class_sizes,
        coloring_ok=coloring_ok,
        remainder=m - k * (m // k),
        lhs=lhs,
        rhs=rhs,
        inequality_holds=holds,
    )


def random_bounded_degree_graph(n: int, max_deg: int, seed: int, density: float = 0.5) -> SimpleGraph:
    """Seeded edge-rejection generator for test graphs with degree <= max_deg."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    degree = [0] * n
    edges = []
    target = int(density * n * max_deg / 2)
    for i, j in pairs:
        if len(edges) >= target:
            break
        if degree[i] < max_deg and degree[j] < max_deg:
            edges.append((i, j))
            degree[i] += 1
            degree[j] += 1
    return make_graph(n, edges)
