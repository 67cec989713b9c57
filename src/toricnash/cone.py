"""Rational polyhedral cones with exact generator and facet descriptions."""

from __future__ import annotations

from operator import mul
from typing import Iterator, Optional, Sequence

from .exactmath import (
    Vec,
    DimensionMismatch,
    add,
    dot,
    identity,
    independent_indices,
    is_zero,
    mat,
    mat_apply,
    neg,
    orthogonal_complement,
    primitive,
    scale,
    solve,
    sub,
    vec,
    zero_vec,
)


class NotPointedError(ValueError):
    """Operation requires a strongly convex (pointed) cone."""


class NotFullDimensionalError(ValueError):
    """Operation requires a cone that spans its ambient space."""


def _dd_rays(constraints: Sequence[Vec], dim: int, seed: Optional[Cone] = None) -> tuple[Vec, ...]:
    """Extreme rays of {x : <c, x> >= 0 for all c} by double description.

    Pre: the constraints span R^dim, so the cone is pointed.  There are two
    start states.  Unseeded, start from the simplicial cone cut out by dim
    independent constraints (its rays are the sign-fixed adjugate columns,
    ray j tight on every base constraint but the j-th).  Seeded with a
    pointed, full-dimensional Cone whose extreme rays are among the
    constraints, start from the dual of that cone: its rays are the seed's
    facet normals, each tight on the seed rays it vanishes on.  Both are
    exact start states, since the invariant below holds there; then insert
    the remaining halfspaces one at a time.  Adjacency of rays u, v is the
    standard combinatorial test: no third ray is tight on every constraint
    that is tight on both u and v.  Each ray carries its tight set as a
    bitmask over the constraints inserted so far.  A fresh ray
    vals[u] * v - vals[v] * u inherits tight[u] & tight[v] plus the new
    constraint, exactly: on an earlier constraint both terms are >= 0, so
    their sum vanishes only where both do.
    """
    if seed is None:
        base = [constraints[i] for i in independent_indices(constraints, dim)]
        rows_as_cols = mat(tuple(zip(*base)))  # matrix with rows = base constraints
        d0, adj = solve(rows_as_cols, identity(dim))
        s = 1 if d0 > 0 else -1
        rays = [primitive(scale(s, col)) for col in adj]
        tight = {r: ((1 << dim) - 1) ^ 1 << j for j, r in enumerate(rays)}
    else:
        base = list(seed.generators)
        rays = list(seed.facet_normals)
        tight = {n: sum(1 << i for i, g in enumerate(base) if not dot(n, g)) for n in rays}
    ordered = base + [c for c in constraints if c not in base]

    for k in range(len(base), len(ordered)):
        c = ordered[k]
        vals = {r: dot(c, r) for r in rays}
        if all(v >= 0 for v in vals.values()):
            for r in rays:
                if vals[r] == 0:
                    tight[r] |= 1 << k
            continue
        plus = [r for r in rays if vals[r] > 0]
        zero = [r for r in rays if vals[r] == 0]
        minus = [r for r in rays if vals[r] < 0]
        fresh: dict[Vec, int] = {}  # new ray -> its tight set
        for u in plus:
            for v in minus:
                common = tight[u] & tight[v]
                adjacent = True
                for w in rays:
                    if w == u or w == v:
                        continue
                    if tight[w] & common == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                w = primitive(sub(scale(vals[u], v), scale(vals[v], u)))
                fresh.setdefault(w, common | 1 << k)
        rays = plus + zero + list(fresh)
        tight = {r: tight[r] for r in plus} | {r: tight[r] | 1 << k for r in zero} | fresh

    return tuple(sorted(set(rays)))


def dual_description(vectors: Sequence[Vec], dim: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """(lineality basis, extreme rays) of the cone {x : <v, x> >= 0 for all v}.

    The rays are primitive, sorted, and chosen inside the rational span of
    the constraint vectors, which makes them canonical even when the dual
    cone is not full-dimensional.
    """
    vs = sorted({primitive(v) for v in vectors if not is_zero(v)})
    if not vs:
        return identity(dim), ()
    lin = orthogonal_complement(vs, dim)
    if not lin:
        return (), _dd_rays(vs, dim)
    span_basis = orthogonal_complement(lin, dim)  # saturated basis of span(vs)
    r = len(span_basis)
    if r == 0:
        return lin, ()
    projected = [vec(dot(v, w) for w in span_basis) for v in vs]
    rays_y = _dd_rays(sorted(set(projected)), r)
    back = mat(span_basis)  # columns = basis vectors of the span
    rays = tuple(sorted(primitive(mat_apply(back, y)) for y in rays_y))
    return lin, rays


class Cone(object):
    """Cone(generators, ambient_dim=None, inner=None) -> rational polyhedral cone.

    Generators are primitivised and deduplicated; when the cone is pointed
    they are further reduced to the extreme rays.  The facet description
    (facet normals plus span equations for lower-dimensional cones) is
    computed eagerly by one double description, so membership tests are
    plain integer dot products.  The extreme rays are read from the facet
    incidence (_extreme_rays).  Cone.from_rays_and_facets builds a cone
    whose extreme rays and facets are already known.

    `inner`, when given, is a pointed, full-dimensional Cone of the same
    dimension whose extreme rays are among the primitive generators (a
    blowup chart and its source, say).  The double description then starts
    from its facets instead of from a simplex; the result is the same.
    """

    __slots__ = (
        "dim",
        "generators",
        "facet_normals",
        "span_equations",
        "lineality_basis",
    )

    def __init__(
        self, generators: Sequence[Sequence[int]], ambient_dim: Optional[int] = None,
        inner: Optional[Cone] = None,
    ):
        gens = [vec(g) for g in generators]
        if ambient_dim is None:
            if not gens:
                raise ValueError("ambient_dim required for a cone with no generators")
            ambient_dim = len(gens[0])
        for g in gens:
            if len(g) != ambient_dim:
                raise DimensionMismatch("generator of wrong length")
        self.dim = ambient_dim
        prim = tuple(sorted({primitive(g) for g in gens if not is_zero(g)}))

        if inner is None:
            lin_dual, normals = dual_description(prim, ambient_dim)
        else:
            if not (inner.dim == ambient_dim and inner.is_pointed and inner.is_full_dimensional):
                raise ValueError("inner must be pointed and full-dimensional in this dimension")
            if not set(inner.generators) <= set(prim):
                raise ValueError("the extreme rays of inner must be among the generators")
            lin_dual, normals = (), _dd_rays(prim, ambient_dim, inner)
        self.facet_normals = normals
        self.span_equations = lin_dual  # x in span(cone) iff all these vanish on x

        # the cone is cut out by the (primitive) normals and +-lin_dual
        constraints = sorted((*normals, *lin_dual, *map(neg, lin_dual)))
        self.lineality_basis = orthogonal_complement(constraints, ambient_dim)
        self.generators = prim if self.lineality_basis else _extreme_rays(prim, normals)

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
        out.span_equations = out.lineality_basis = ()
        return out

    @property
    def is_pointed(self) -> bool:
        return not self.lineality_basis

    @property
    def is_full_dimensional(self) -> bool:
        return not self.span_equations

    def _facet_values(self, x: Sequence[int]) -> Optional[Iterator[int]]:
        """<n, x> for every facet normal n, or None when x is off the span."""
        v = vec(x)
        if len(v) != self.dim:
            raise DimensionMismatch("point of wrong length")
        if any(sum(map(mul, e, v)) for e in self.span_equations):
            return None
        return (sum(map(mul, n, v)) for n in self.facet_normals)

    def contains(self, x: Sequence[int]) -> bool:
        vals = self._facet_values(x)
        return vals is not None and all(t >= 0 for t in vals)

    def interior_contains(self, x: Sequence[int]) -> bool:
        """Relative interior membership."""
        vals = self._facet_values(x)
        return vals is not None and all(t > 0 for t in vals)

    def positive_grading(self) -> Vec:
        """An integral L with <L, g> >= 1 for every (nonzero) generator."""
        if not self.is_pointed:
            raise NotPointedError("no positive grading: cone contains a line")
        total = zero_vec(self.dim)
        for n in self.facet_normals:
            total = add(total, n)
        return total

    def triangulate(self) -> tuple["Cone", ...]:
        """Split into simplicial subcones spanned by extreme rays.

        Pulling construction: recursively triangulate every facet missing
        the lexicographically least ray, then join each piece to that ray.
        The facets of each face are read from the cone's facet incidence, so
        no double description runs below the cone's own.  The pieces cover
        the cone and have pairwise disjoint interiors.
        """
        if not self.is_pointed:
            raise NotPointedError("triangulation requires a pointed cone")
        if not self.is_full_dimensional:
            raise ValueError("triangulation requires a full-dimensional cone")
        pieces = _triangulate_rays(self)
        return tuple(Cone(rs, self.dim) for rs in sorted(pieces))

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


def _extreme_rays(prim: Sequence[Vec], normals: Sequence[Vec]) -> tuple[Vec, ...]:
    """The generators g of a pointed cone with no other generator on every facet through g."""
    masks = [sum(1 << i for i, n in enumerate(normals) if not dot(n, g)) for g in prim]
    return tuple(
        g
        for g, m in zip(prim, masks)
        if not any(h != g and m & mh == m for h, mh in zip(prim, masks))
    )


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
    facets = [sum(1 << i for i, r in enumerate(rays) if not dot(n, r)) for n in c.facet_normals]

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
