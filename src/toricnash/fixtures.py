"""Built-in example cones and the data for the verification checks.

The central example is a five-dimensional saturated semigroup whose
normalized Nash blowup in characteristic three has a chart unimodularly
equivalent to the source — a one-step loop.  The claimed intermediate data
(replacement sets, decompositions, certificate matrix, binomial balances)
is embedded here so the checks can replay every step with exact integers.
"""

from __future__ import annotations

from .conefile import ConeFile
from .exactmath import Vec, sub
from .semigroup import AffineSemigroup

# Hilbert basis of the loop example: eight extreme rays plus one extra element.
H_VECTORS: tuple[Vec, ...] = (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (2, 2, -1, 1, -2),
    (1, 2, -1, 1, -1),
    (1, 2, 0, 0, -1),
    (1, 1, 0, 1, -1),
)

B_COLUMNS: tuple[Vec, ...] = H_VECTORS[:8]

LOOP_CHARACTERISTIC = 3

# The distinguished chart subset, 1-based into H_VECTORS.
CHART_SUBSET = (1, 2, 4, 5, 6)

# Replacement determinants that vanish mod 3: (replaced index, replacing index).
DET_ZERO_PAIRS = frozenset({(2, 7), (4, 7), (4, 8), (6, 8), (6, 9)})

# Replacement blocks of the chart: subset member -> indices whose substitution
# keeps the determinant nonzero mod 3.
REPLACEMENT_BLOCKS = {
    1: (3, 7, 8, 9),
    2: (3, 8, 9),
    4: (3, 9),
    5: (3, 7, 8, 9),
    6: (3, 7),
}

# Claimed Hilbert basis of the chart semigroup, as terms: (i,) means h_i,
# (i, j) means h_i - h_j.
CHART_HILBERT_TERMS = (
    (1,),
    (3, 2),
    (9, 2),
    (3, 4),
    (9, 4),
    (3, 5),
    (7, 5),
    (3, 6),
    (7, 6),
)

# Two-term decompositions of every remaining chart generator over the nine
# elements above (via the two chained differences h7-h1, h8-h1, h9-h1).
DECOMPOSITION_TERMS = (
    ((2,), (7, 6), (9, 4)),
    ((4,), (7, 6), (9, 2)),
    ((5,), (7, 6), (1,)),
    ((6,), (7, 5), (1,)),
    ((3, 1), (3, 5), (7, 6)),
    ((7, 1), (7, 5), (7, 6)),
    ((8, 5), (7, 5), (3, 4)),
    ((9, 5), (7, 5), (3, 2)),
    ((3,), (3, 5), (5,)),
    ((7,), (7, 5), (5,)),
    ((8, 1), (7, 1), (3, 4)),
    ((9, 1), (7, 1), (3, 2)),
    ((8,), (8, 1), (1,)),
    ((9,), (9, 1), (1,)),
)

# Two chart generators coincide as vectors.
COINCIDENT_TERMS = ((8, 2), (9, 4))

# Certificate of the loop: columns of the unimodular matrix sending the
# source Hilbert basis onto the chart Hilbert basis.
LOOP_MATRIX = (
    (-1, 0, 0, 0, 1),
    (0, -1, 1, 0, 0),
    (1, 0, 0, 0, 0),
    (0, 0, 1, -1, 0),
    (-2, -2, 2, -1, 2),
)

# Image of h_i under the loop matrix, as terms.
LOOP_IMAGE_TERMS = (
    (7, 6),
    (3, 2),
    (1,),
    (3, 4),
    (3, 6),
    (7, 5),
    (3, 5),
    (9, 2),
    (9, 4),
)

# A unimodular covering of the cone by simplicial subcones (1-based indices).
COVER_SUBSETS = (
    (1, 2, 3, 4, 5),
    (1, 2, 4, 5, 7),
    (1, 2, 3, 6, 8),
    (1, 2, 4, 6, 7),
    (1, 2, 3, 4, 9),
    (1, 2, 4, 6, 9),
    (1, 2, 3, 6, 9),
)

# Ten binomial balances: pairs of exponent vectors over h_1..h_9 whose
# weighted sums agree.
BINOMIAL_BALANCES = (
    ((0, 0, 0, 0, 0, 0, 0, 0, 2), (0, 0, 1, 1, 0, 1, 0, 0, 0)),
    ((0, 0, 0, 0, 0, 0, 1, 1, 0), (0, 2, 0, 0, 0, 1, 0, 0, 0)),
    ((1, 0, 0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 1, 0, 0, 0)),
    ((0, 0, 0, 0, 0, 0, 1, 0, 1), (0, 1, 0, 1, 0, 1, 0, 0, 0)),
    ((0, 0, 0, 0, 0, 0, 0, 1, 1), (0, 1, 1, 0, 0, 1, 0, 0, 0)),
    ((0, 0, 0, 0, 1, 0, 0, 0, 1), (1, 1, 0, 1, 0, 0, 0, 0, 0)),
    ((0, 0, 0, 0, 1, 0, 0, 1, 0), (1, 2, 0, 0, 0, 0, 0, 0, 0)),
    ((0, 0, 0, 1, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 0, 0, 0, 1)),
    ((0, 0, 1, 0, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0, 1)),
    ((0, 0, 1, 0, 1, 1, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0, 0, 1)),
)

# Four-dimensional companions: a cone over a unimodular-simplex lattice
# pyramid of index five, and a descendant that loops with period two in
# characteristic three.
REEVES_COLUMNS: tuple[Vec, ...] = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (1, 1, 1, 5),
)

DIM4_CHAR3_COLUMNS: tuple[Vec, ...] = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (1, 2, 3, 0),
    (0, 0, 0, 1),
    (0, 3, 3, 1),
)


def hv(i: int) -> Vec:
    """h_i, 1-based."""
    return H_VECTORS[i - 1]


def term_vector(t: tuple[int, ...]) -> Vec:
    """(i,) -> h_i and (i, j) -> h_i - h_j."""
    if len(t) == 1:
        return hv(t[0])
    return sub(hv(t[0]), hv(t[1]))


def source_semigroup() -> AffineSemigroup:
    """The saturated semigroup of the loop example, Hilbert basis pinned."""
    return AffineSemigroup.from_hilbert_basis(H_VECTORS, 5, saturated=True)


def chart_subset_vectors() -> tuple[Vec, ...]:
    return tuple(sorted(hv(i) for i in CHART_SUBSET))


def expected_chart_generators() -> tuple[Vec, ...]:
    gens = set(H_VECTORS)
    for i, block in REPLACEMENT_BLOCKS.items():
        for j in block:
            gens.add(sub(hv(j), hv(i)))
    return tuple(sorted(gens))


def expected_chart_hilbert() -> tuple[Vec, ...]:
    return tuple(sorted(term_vector(t) for t in CHART_HILBERT_TERMS))


BUILTIN_CONES: dict[str, ConeFile] = {
    "B": ConeFile(dim=5, generators=B_COLUMNS, name="B", characteristic=3),
    "reeves": ConeFile(dim=4, generators=REEVES_COLUMNS, name="reeves", characteristic=3),
    "dim4char3": ConeFile(
        dim=4, generators=DIM4_CHAR3_COLUMNS, name="dim4char3", characteristic=3
    ),
    "a2": ConeFile(dim=2, generators=((1, 0), (1, 2)), name="a2", characteristic=0),
    "smooth3": ConeFile(
        dim=3, generators=((1, 0, 0), (0, 1, 0), (0, 0, 1)), name="smooth3", characteristic=0
    ),
}
