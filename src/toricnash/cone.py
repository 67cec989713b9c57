"""Rational polyhedral cones with exact generator and facet descriptions."""

from __future__ import annotations

from typing import Optional, Sequence

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
    rank_of_vectors,
    scale,
    solve,
    sub,
    vec,
    zero_vec,
)


class NotPointedError(ValueError):
    """Operation requires a strongly convex (pointed) cone."""


def _tight_mask(r: Vec, constraints: Sequence[Vec], upto: int) -> int:
    m = 0
    for i in range(upto):
        if dot(constraints[i], r) == 0:
            m |= 1 << i
    return m


def _dd_rays(constraints: Sequence[Vec], dim: int) -> tuple[Vec, ...]:
    """Extreme rays of {x : <c, x> >= 0 for all c} by double description.

    Pre: the constraints span R^dim, so the cone is pointed.  Start from the
    simplicial cone cut out by dim independent constraints (its rays are the
    sign-fixed adjugate columns), then insert the remaining halfspaces one at
    a time.  Adjacency of rays u, v is the standard combinatorial test: no
    third ray is tight on every constraint that is tight on both u and v.
    """
    base = [constraints[i] for i in independent_indices(constraints, dim)]
    rest = [c for c in constraints if c not in base]
    ordered = base + rest

    rows_as_cols = mat(tuple(zip(*base)))  # matrix with rows = base constraints
    d0, adj = solve(rows_as_cols, identity(dim))
    s = 1 if d0 > 0 else -1
    rays = [primitive(tuple(s * e for e in col)) for col in adj]
    tight = {r: _tight_mask(r, ordered, dim) for r in rays}

    for k in range(dim, len(ordered)):
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
        fresh: list[Vec] = []
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
                if w not in fresh:
                    fresh.append(w)
        rays = plus + zero + fresh
        new_tight = {}
        for r in plus:
            new_tight[r] = tight[r]
        for r in zero:
            new_tight[r] = tight[r] | 1 << k
        for r in fresh:
            new_tight[r] = _tight_mask(r, ordered, k + 1)
        tight = new_tight

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
    """Cone(generators, ambient_dim=None) -> rational polyhedral cone.

    Generators are primitivised and deduplicated; when the cone is pointed
    they are further reduced to the extreme rays.  The facet description
    (facet normals plus span equations for lower-dimensional cones) is
    computed eagerly, so membership tests are plain integer dot products.
    """

    __slots__ = (
        "dim",
        "generators",
        "facet_normals",
        "span_equations",
        "lineality_basis",
    )

    def __init__(self, generators: Sequence[Sequence[int]], ambient_dim: Optional[int] = None):
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

        lin_dual, normals = dual_description(prim, ambient_dim)
        self.facet_normals = normals
        self.span_equations = lin_dual  # x in span(cone) iff all these vanish on x

        # double dual: extreme rays and lineality of the cone itself
        constraints = list(normals)
        for e in lin_dual:
            constraints.append(e)
            constraints.append(neg(e))
        lineality, rays = dual_description(constraints, ambient_dim)
        self.lineality_basis = lineality
        if lineality:
            self.generators = prim
        else:
            self.generators = rays

    @property
    def is_pointed(self) -> bool:
        return not self.lineality_basis

    @property
    def is_full_dimensional(self) -> bool:
        return not self.span_equations

    def contains(self, x: Sequence[int]) -> bool:
        v = vec(x)
        if len(v) != self.dim:
            raise DimensionMismatch("point of wrong length")
        return all(dot(e, v) == 0 for e in self.span_equations) and all(
            dot(n, v) >= 0 for n in self.facet_normals
        )

    def interior_contains(self, x: Sequence[int]) -> bool:
        """Relative interior membership."""
        v = vec(x)
        return all(dot(e, v) == 0 for e in self.span_equations) and all(
            dot(n, v) > 0 for n in self.facet_normals
        )

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
        The pieces cover the cone and have pairwise disjoint interiors.
        """
        if not self.is_pointed:
            raise NotPointedError("triangulation requires a pointed cone")
        if not self.is_full_dimensional:
            raise ValueError("triangulation requires a full-dimensional cone")
        pieces = _triangulate_rays(self.generators, self.dim)
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


def _triangulate_rays(rays: Sequence[Vec], dim: int) -> list[tuple[Vec, ...]]:
    rays = tuple(sorted(rays))
    if len(rays) == rank_of_vectors(rays):
        return [rays]
    v0 = rays[0]
    _, normals = dual_description(rays, dim)
    out: list[tuple[Vec, ...]] = []
    for n in normals:
        if dot(n, v0) <= 0:
            continue
        facet_rays = tuple(r for r in rays if dot(n, r) == 0)
        for piece in _triangulate_rays(facet_rays, dim):
            out.append(tuple(sorted(piece + (v0,))))
    return out
