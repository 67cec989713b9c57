"""Shared oracles and random generators for the test suite.

The Hilbert-basis oracle is deliberately independent of the package: it
finds facets by scanning generator pairs and enumerates a box.  It only
handles small 2d/3d cones inside the nonnegative orthant — there the box
[0, dim*maxentry]^dim provably contains every irreducible element, and
subtracting a cone member never leaves the box, so the pairwise
reduction below is complete.
"""

from __future__ import annotations

import itertools
import math
import random
from pathlib import Path
from typing import Sequence

import sympy
from hypothesis import assume, strategies as st

Vec = tuple[int, ...]


def sympy_det(cols: Sequence[Vec]) -> int:
    m = sympy.Matrix([list(c) for c in cols]).T
    return int(m.det())


def sympy_adjugate(cols: Sequence[Vec]) -> tuple[Vec, ...]:
    m = sympy.Matrix([list(c) for c in cols]).T
    adj = m.adjugate()
    return tuple(tuple(int(adj[i, j]) for i in range(adj.rows)) for j in range(adj.cols))


def _gcd_reduce(v: Vec) -> Vec:
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    return v if g <= 1 else tuple(x // g for x in v)


def has_opposite_primitives(gens: Sequence[Vec]) -> bool:
    """Do two of the vectors point in exactly opposite directions?"""
    prims = {_gcd_reduce(tuple(g)) for g in gens}
    return any(tuple(-x for x in v) in prims for v in prims)


def oracle_facets(gens: Sequence[Vec]) -> list[Vec]:
    """Supporting facet normals of a full-dimensional 2d/3d cone."""
    dim = len(gens[0])
    normals = set()
    if dim == 2:
        for (x, y) in gens:
            for n in ((-y, x), (y, -x)):
                if all(n[0] * gx + n[1] * gy >= 0 for gx, gy in gens):
                    normals.add(_gcd_reduce(n))
    elif dim == 3:
        for a, b in itertools.combinations(gens, 2):
            cross = (
                a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0],
            )
            if cross == (0, 0, 0):
                continue
            for n in (cross, tuple(-x for x in cross)):
                if all(sum(n[i] * g[i] for i in range(3)) >= 0 for g in gens):
                    normals.add(_gcd_reduce(n))
    else:
        raise ValueError("oracle only covers 2d/3d")
    out = []
    for n in normals:
        if any(sum(n[i] * g[i] for i in range(dim)) == 0 for g in gens):
            out.append(n)
    return sorted(out)


def oracle_hilbert_basis(gens: Sequence[Vec]) -> list[Vec]:
    """Hilbert basis of a full-dimensional orthant subcone in 2d/3d."""
    dim = len(gens[0])
    if any(x < 0 for g in gens for x in g):
        raise ValueError("oracle needs generators in the nonnegative orthant")
    facets = oracle_facets(gens)

    def inside(x: Vec) -> bool:
        return all(sum(n[i] * x[i] for i in range(dim)) >= 0 for n in facets)

    box = dim * max(x for g in gens for x in g)
    members = [
        p
        for p in itertools.product(range(box + 1), repeat=dim)
        if any(p) and inside(p)
    ]
    member_set = set(members)

    basis = []
    for x in members:
        reducible = any(
            tuple(a - b for a, b in zip(x, u)) in member_set for u in members if u != x
        )
        if not reducible:
            basis.append(x)
    return sorted(basis)


def random_pointed_gens(rng: random.Random, dim: int, count: int, hi: int = 3) -> list[Vec]:
    """Nonzero vectors with nonnegative entries spanning all of R^dim.
    Subcones of the positive orthant are automatically pointed.
    """
    while True:
        gens = []
        for _ in range(count):
            v = tuple(rng.randint(0, hi) for _ in range(dim))
            if any(v):
                gens.append(v)
        if len(gens) >= dim and sympy.Matrix([list(g) for g in gens]).rank() == dim:
            return gens


def random_unimodular(rng: random.Random, dim: int, steps: int = 12) -> tuple[Vec, ...]:
    """Product of elementary integer operations; determinant is ±1."""
    cols = [[1 if i == j else 0 for i in range(dim)] for j in range(dim)]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.sample(range(dim), 2) if dim > 1 else (0, 0)
        if op == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            for r in range(dim):
                cols[j][r] += c * cols[i][r]
        elif op == 1:
            cols[i], cols[j] = cols[j], cols[i]
        else:
            cols[i] = [-x for x in cols[i]]
    return tuple(tuple(col) for col in cols)


@st.composite
def unimodular_matrices(draw, dim):
    """A product of elementary integer column operations (determinant +-1)."""
    cols = [[int(i == j) for i in range(dim)] for j in range(dim)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        if i == j:
            cols[i] = [-x for x in cols[i]]
        else:
            c = draw(st.sampled_from((-2, -1, 1, 2)))
            cols[j] = [x + c * y for x, y in zip(cols[j], cols[i])]
    return tuple(tuple(c) for c in cols)


@st.composite
def embedded_pointed_cones(draw, extra=2):
    """Orthant cones in Z^dim, dim 2..5, moved by a GL_dim(Z) map.

    At least half have rank dim; the rest have rank dim - 1 or dim - 2 (at
    least 1), so they are not full-dimensional.  There are rank + 1 to
    rank + extra generators.
    """
    dim = draw(st.sampled_from((2, 3, 4, 5)))
    rank = dim - draw(st.sampled_from((0, 0, 1, 2)[: dim + 1]))
    vector = st.tuples(*[st.integers(0, 3)] * rank).filter(any)
    gens = draw(st.lists(vector, min_size=rank + 1, max_size=rank + extra))
    assume(sympy.Matrix([list(g) for g in gens]).rank() == rank)
    u = draw(unimodular_matrices(dim))
    return dim, [apply_matrix(u, g + (0,) * (dim - rank)) for g in gens]


def apply_matrix(cols: Sequence[Vec], v: Vec) -> Vec:
    dim = len(cols[0])
    return tuple(sum(cols[j][i] * v[j] for j in range(len(cols))) for i in range(dim))


# --- forged graph files ---

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


def forge_node(path, key, forge):
    """Rewrite node `key`'s record in the graph file at path by forge(record fields)."""
    lines = path.read_text().splitlines()
    hits = [i for i, line in enumerate(lines) if line.startswith(f"node {key} ")]
    assert len(hits) == 1
    parts = lines[hits[0]].split()
    forge(parts)
    lines[hits[0]] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")


def drop_last_hilbert_element(parts):
    """node <key> <depth> <smooth> <dim> <ngens> <entries>: one generator fewer."""
    dim = int(parts[4])
    parts[5] = str(int(parts[5]) - 1)
    del parts[-dim:]


def flip_smooth_flag(parts):
    parts[3] = "0" if parts[3] == "1" else "1"


# (node key, forge) pairs for the corpus graph of B, each a well-formed lie
FORGED_B_NODES = [
    ("e57cbb5b5a6b-0", drop_last_hilbert_element),  # 12 -> 11 elements; an extreme ray goes
    ("e57cbb5b5a6b-0", flip_smooth_flag),  # not smooth, claimed smooth
    ("9067582a63d1-0", flip_smooth_flag),  # smooth, claimed not
]
