"""Rational polyhedral cones with exact generator and facet descriptions."""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .exactmath import (
    Vec,
    DimensionMismatch,
    identity,
    independent_indices,
    is_zero,
    mat,
    neg,
    orthogonal_complement,
    primitive,
    scale,
    solve,
    vec,
)


class NotPointedError(ValueError):
    """Operation requires a strongly convex (pointed) cone."""


class NotFullDimensionalError(ValueError):
    """Operation requires a cone that spans its ambient space."""


def double_description(constraints: Sequence[Vec], dim: int) -> dict[Vec, int]:
    """Extreme rays of {x : <c, x> >= 0 for all c}, each with its tight set.

    The result maps each primitive extreme ray r to a bitmask over the
    constraints: bit i is set when <constraints[i], r> == 0, i indexing the
    caller's list.  The constraints must span R^dim, so that the cone is
    pointed; if they do not, ValueError is raised before any ray is formed.
    Start from the simplicial cone cut out by dim independent constraints:
    its rays are the sign-fixed adjugate columns, ray j tight on every base
    constraint but the j-th.  The invariant below holds there; then insert
    the remaining halfspaces one at a time.  Adjacency of rays u, v is the
    standard combinatorial test: no third ray is tight on every constraint
    that is tight on both u and v.  Adjacent rays span a 2-face,
    so they share at least dim - 2 tight constraints; pairs sharing fewer
    are skipped before that scan (Fukuda and Prodon 1996).  Each ray carries
    its tight set over the constraints inserted so far.  A fresh ray
    vals[u] * v - vals[v] * u inherits tight[u] & tight[v] plus the new
    constraint, exactly: on an earlier constraint both terms are >= 0, so
    their sum vanishes only where both do.

    The loop works on positions: rays, their tight sets and their values on
    the constraint being inserted are parallel lists, the plus, zero and
    minus rays are lists of positions, and the adjacency scan compares
    positions, never vectors.  Rays are distinct, so comparing positions
    is comparing rays.
    """
    base = independent_indices(constraints, dim)
    rows_as_cols = mat(tuple(zip(*(constraints[i] for i in base))))
    d0, adj = solve(rows_as_cols, identity(dim))
    s = 1 if d0 > 0 else -1
    rays = [primitive(scale(s, col)) for col in adj]
    everything = sum(1 << i for i in base)
    tights = [everything ^ 1 << i for i in base]
    inserted = set(base)

    for k in range(len(constraints)):
        if k in inserted:
            continue
        c, bit = constraints[k], 1 << k
        vals = [sum(map(mul, c, r)) for r in rays]
        plus: list[int] = []
        zero: list[int] = []
        minus: list[int] = []
        for j, t in enumerate(vals):
            if t > 0:
                plus.append(j)
            elif t:
                minus.append(j)
            else:
                zero.append(j)
                tights[j] |= bit
        if not minus:
            continue
        fresh: dict[Vec, int] = {}  # new ray -> its tight set, deduplicated
        minus_tights = [(v, tights[v]) for v in minus]
        for u in plus:
            tu, vu, ru = tights[u], vals[u], rays[u]
            for v, tv in minus_tights:
                common = tu & tv
                if common.bit_count() < dim - 2:
                    continue
                for j, t in enumerate(tights):
                    if t & common == common and j != u and j != v:
                        break
                else:
                    vv = vals[v]
                    w = primitive(tuple([vu * b - vv * a for a, b in zip(ru, rays[v])]))
                    fresh.setdefault(w, common | bit)
        kept = plus + zero
        rays = [rays[j] for j in kept] + list(fresh)
        tights = [tights[j] for j in kept] + list(fresh.values())

    return dict(zip(rays, tights))


def dual_description(vectors: Sequence[Vec], dim: int) -> tuple[tuple[Vec, ...], dict[Vec, int]]:
    """(span equations, facets) of the cone C generated by the vectors.

    The span equations E are a saturated lattice basis of span(C)^perp,
    empty when the vectors span R^dim.  facets maps each primitive facet
    normal n of C, chosen inside span(C), to its tight set: bit j is set
    when <n, vectors[j]> == 0, j indexing the caller's list as in
    double_description.  Zero vectors, multiples and repeats are allowed.

    The normals are the extreme rays of the dual cone cut down to the span,
    {y : <v, y> >= 0 for every vector v and <e, y> == 0 for e in E}.  Its
    lineality, C^perp meet span(C), is 0, so it is pointed, and one double
    description finds it, each equation entering as the pair of
    inequalities e and -e (Fukuda and Prodon 1996); the pairs' bits are
    masked off the tight sets.  When the vectors span R^dim there are no
    equations, and no Hermite form runs.
    """
    try:
        return (), double_description(vectors, dim)
    except ValueError:  # the vectors do not span R^dim
        eqs = orthogonal_complement(vectors, dim)
    tight = double_description([*vectors, *eqs, *map(neg, eqs)], dim)
    mask = (1 << len(vectors)) - 1
    return eqs, {n: t & mask for n, t in tight.items()}


class Cone(object):
    """Cone(generators, ambient_dim) -> rational polyhedral cone.

    Generators are primitivised and deduplicated; when the cone is pointed
    they are further reduced to the extreme rays.  The facet description
    (facet normals plus span equations for lower-dimensional cones) is
    computed eagerly by one double description, in dual_description, so
    membership tests are plain integer dot products.

    dual_description returns each facet's tight set over the generators.
    The cone is pointed exactly when the normals and span equations span
    R^d; then the extreme rays are read from those tight sets by
    ray_incidence, and a full-dimensional pointed cone runs no Hermite
    form.  Otherwise the generators are kept as given.
    Cone.from_rays_and_facets builds a cone whose extreme rays and facets
    are already known.
    """

    __slots__ = (
        "dim",
        "generators",
        "facet_normals",
        "span_equations",
        "is_pointed",
    )

    def __init__(self, generators: Sequence[Sequence[int]], ambient_dim: int):
        gens = [vec(g) for g in generators]
        for g in gens:
            if len(g) != ambient_dim:
                raise DimensionMismatch("generator of wrong length")
        self.dim = ambient_dim
        prim = tuple(sorted({primitive(g) for g in gens if not is_zero(g)}))
        eqs, tight = dual_description(prim, ambient_dim)
        normals = tuple(sorted(tight))
        self.facet_normals = normals
        self.span_equations = eqs  # x in span(cone) iff all these vanish on x
        # pointed iff no line is orthogonal to every normal and span equation
        self.is_pointed = _spans(normals + eqs, ambient_dim)
        if self.is_pointed:
            self.generators = _extreme_rays(prim, [tight[n] for n in normals])
        else:
            self.generators = prim

    @classmethod
    def from_rays_and_facets(
        cls, rays: Sequence[Vec], ambient_dim: int, facet_normals: Sequence[Vec]
    ) -> Cone:
        """The pointed, full-dimensional cone whose extreme rays and facets are known.

        Trusted and unchecked, like AffineSemigroup.from_hilbert_basis: rays
        and facet_normals must be exactly the cone's primitive extreme rays
        and facet normals, in any order.  No double description runs.
        """
        out = cls.__new__(cls)
        out.dim = ambient_dim
        out.generators = tuple(sorted(rays))
        out.facet_normals = tuple(sorted(facet_normals))
        out.span_equations = ()
        out.is_pointed = True
        return out

    @property
    def is_full_dimensional(self) -> bool:
        return not self.span_equations

    def contains(self, x: Sequence[int]) -> bool:
        """Membership: x on the span and <n, x> >= 0 for every facet normal n."""
        v = vec(x)
        if len(v) != self.dim:
            raise DimensionMismatch("point of wrong length")
        if any(sum(map(mul, e, v)) for e in self.span_equations):
            return False
        return all(sum(map(mul, n, v)) >= 0 for n in self.facet_normals)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cone)
            and self.dim == other.dim
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.generators))

    def __repr__(self) -> str:
        return f"Cone(dim={self.dim}, generators={list(self.generators)})"


def _spans(vectors: Sequence[Vec], dim: int) -> bool:
    """Do the vectors span R^dim?"""
    try:
        independent_indices(vectors, dim)
    except ValueError:
        return False
    return True


def face_meet(columns: Sequence[int], facets: int, everything: int) -> int:
    """The generators on every facet i in the bitmask `facets`.

    columns[i] is facet i's tight set, a bitmask over the generators, and
    the result is the AND of those columns: the smallest face holding the
    facets' common generators.  `everything`, the mask of all generators,
    is the face cut out by no facet.
    """
    out = everything
    while facets:
        low = facets & -facets
        out &= columns[low.bit_length() - 1]
        facets ^= low
    return out


def ray_incidence(columns: Sequence[int], n: int) -> tuple[list[int], int]:
    """(rows, extreme) for n generators of a pointed cone, from its facet columns.

    rows[j] is the bitmask of the facets through generator j; extreme is
    the bitmask of the generators that span extreme rays.  Generator j does
    exactly when the face_meet of the facets through it is {j}: no other
    generator lies on all of them.
    """
    rows = [0] * n
    for i, c in enumerate(columns):
        while c:
            low = c & -c
            rows[low.bit_length() - 1] |= 1 << i
            c ^= low
    everything = (1 << n) - 1
    extreme = sum(1 << j for j, r in enumerate(rows) if face_meet(columns, r, everything) == 1 << j)
    return rows, extreme


def _extreme_rays(prim: Sequence[Vec], columns: Sequence[int]) -> tuple[Vec, ...]:
    """The generators of a pointed cone that span extreme rays, read from its facet columns."""
    _, extreme = ray_incidence(columns, len(prim))
    return tuple(g for j, g in enumerate(prim) if extreme >> j & 1)


def _triangulate_rays(c: Cone) -> list[tuple[Vec, ...]]:
    """Ray sets of the pieces of a pointed cone's pulling triangulation.

    Works on bitmasks over the sorted extreme rays, read from the facet
    incidence alone.  Every proper face of a face F is an intersection of
    the cone's facets, so the facets of F are the inclusion-maximal proper
    sets F & G over the cone's facets G.  F is simplicial when it has as
    many rays as its dimension: c's dimension at the top, one less per
    level.  Otherwise every facet of F missing F's least ray is split in
    turn and each piece joined to that ray.
    """
    rays = c.generators
    facets = [
        sum(1 << j for j, r in enumerate(rays) if not sum(map(mul, n, r))) for n in c.facet_normals
    ]

    def split(face: int, k: int) -> list[int]:
        if bin(face).count("1") == k:
            return [face]
        v0 = face & -face
        sub_faces = {face & g for g in facets} - {face}
        return [
            piece | v0
            for f in sub_faces
            if not f & v0 and not any(f & h == f != h for h in sub_faces)
            for piece in split(f, k - 1)
        ]

    pieces = split((1 << len(rays)) - 1, c.dim - len(c.span_equations))
    return [tuple(r for i, r in enumerate(rays) if p >> i & 1) for p in pieces]
