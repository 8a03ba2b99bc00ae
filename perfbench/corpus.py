"""Seeded benchmark corpus: wheels, complete graphs, K3,3, the prism and
banana multigraphs, plus the manifest of outputs that no seed may change.

Every family member is built around a designated spanning tree.  A seed
relabels and reorders the vertices, flips arrow orientations and permutes
arrow ids, but tree arrows always receive the lowest ids.  zonoharm
coordinatises a graph by the fundamental cycles of its greedy spanning
forest (ascending ids), so the seed never changes that forest.  The bounding
box scanned for interior points is the product of the fundamental cycle
lengths plus one, so keeping the forest keeps the amount of work independent
of the seed while the literal input still varies with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Expected:
    """Seed-independent outputs of one corpus graph.

    ``rank`` is the lattice rank of the cycle-space arrangement, which is
    also the length of its ground set minus the graph rank.
    """

    rank: int
    arrows: int
    point_count: int
    gr_dims: tuple
    redundant: int | None = None  # len(redundant_generators), where known


# pointCount and grDims agree with the baseline table in ROADMAP.md; the
# redundant-generator counts were measured on the unmodified library.
MANIFEST = {
    "K4": Expected(3, 6, 6, (1, 3, 2)),
    "W4": Expected(4, 8, 14, (1, 4, 6, 3), redundant=8),
    "K33": Expected(4, 9, 31, (1, 4, 10, 11, 5), redundant=6),
    "prism": Expected(4, 9, 26, (1, 4, 8, 9, 4), redundant=9),
    "W5": Expected(5, 10, 30, (1, 5, 10, 10, 4), redundant=15),
    "K5": Expected(6, 10, 24, (1, 6, 11, 6)),
    "B5": Expected(4, 5, 1, (1,)),
    "B8": Expected(7, 8, 1, (1,)),
    "B9": Expected(8, 9, 1, (1,)),
    "B10": Expected(9, 10, 1, (1,)),
}


def wheel(k: int):
    """Hub plus a k-cycle rim; the spokes are the tree."""
    rim = [f"r{i}" for i in range(k)]
    tree = [("h", v) for v in rim]
    rest = [(rim[i], rim[(i + 1) % k]) for i in range(k)]
    return ["h"] + rim, tree, rest


def complete(n: int):
    """K_n; the star at the first vertex is the tree."""
    vs = [f"u{i}" for i in range(n)]
    tree = [(vs[0], v) for v in vs[1:]]
    rest = [(vs[i], vs[j]) for i in range(1, n) for j in range(i + 1, n)]
    return vs, tree, rest


def k33():
    a, b = ["a1", "a2", "a3"], ["b1", "b2", "b3"]
    tree = [("a1", x) for x in b] + [(x, "b1") for x in a[1:]]
    rest = [(x, y) for x in a[1:] for y in b[1:]]
    return a + b, tree, rest


def prism():
    """Two triangles x and y joined by three rungs."""
    vs = ["x1", "x2", "x3", "y1", "y2", "y3"]
    tree = [("x1", "x2"), ("x1", "x3"), ("x1", "y1"), ("x2", "y2"), ("x3", "y3")]
    rest = [("x2", "x3"), ("y1", "y2"), ("y1", "y3"), ("y2", "y3")]
    return vs, tree, rest


def banana(k: int):
    """Two vertices joined by k parallel arrows."""
    return ["p", "q"], [("p", "q")], [("p", "q")] * (k - 1)


FAMILIES = {
    "K4": lambda: complete(4),
    "K5": lambda: complete(5),
    "W4": lambda: wheel(4),
    "W5": lambda: wheel(5),
    "K33": k33,
    "prism": prism,
    "B5": lambda: banana(5),
    "B8": lambda: banana(8),
    "B9": lambda: banana(9),
    "B10": lambda: banana(10),
}


def graph_text(name: str, seed: int) -> str:
    """The graph file for corpus member ``name`` under ``seed``."""
    vertices, tree, rest = FAMILIES[name]()
    rng = random.Random(f"{name}:{seed}")
    labels = rng.sample(range(1, len(vertices) + 1), len(vertices))
    rename = {v: f"v{n}" for v, n in zip(vertices, labels)}
    tree_ids = rng.sample(range(1, len(tree) + 1), len(tree))
    rest_ids = rng.sample(range(len(tree) + 1, len(tree) + len(rest) + 1), len(rest))
    arrows = []
    for ident, (u, v) in zip(tree_ids + rest_ids, tree + rest):
        if rng.random() < 0.5:
            u, v = v, u
        arrows.append(f"arrow {ident} {rename[u]} {rename[v]}")
    rng.shuffle(arrows)
    names = [rename[v] for v in vertices]
    rng.shuffle(names)
    return "".join(f"vertex {v}\n" for v in names) + "\n".join(arrows) + "\n"
