"""Finitely generated subsemigroups of Z^d and their Hilbert bases."""

from __future__ import annotations

from operator import mul
from typing import Optional, Sequence

from .cone import Cone, NotPointedError, _triangulate_rays
from .exactmath import (
    Vec,
    DimensionMismatch,
    det,
    dot,
    identity,
    independent_indices,
    is_zero,
    lattice_is_full,
    mat,
    mat_apply,
    minor_table,
    orthogonal_complement,
    solve,
    solve_integral,
    vec,
    zero_vec,
)


class NotFullLatticeError(ValueError):
    """The generators do not generate Z^d as a group."""


class NotSaturatedError(ValueError):
    """Operation requires a saturated semigroup."""


class ResourceLimitError(Exception):
    """A computation would exceed a fixed size limit.  Not a ValueError, which
    the search reads as a chart or node that is not what it claims."""


# the most lattice points one fundamental parallelepiped may hold; the largest
# index any fixture or corpus cone reaches is 245
MAX_PARALLELEPIPED_POINTS = 100_000


def coordinates_in_basis(basis: Sequence[Vec], v: Vec) -> Vec:
    """Integer coordinates of v in a saturated lattice basis (exact)."""
    rows = [tuple(b[i] for b in basis) for i in range(len(v))]
    sel = independent_indices(rows, len(basis))
    square = mat(tuple(tuple(b[i] for i in sel) for b in basis))
    out = solve_integral(square, vec(v[i] for i in sel))
    if out is None:
        raise ValueError("vector lies outside the lattice of the basis")
    if mat_apply(mat(basis), out) != tuple(v):
        raise ValueError("vector lies outside the span of the basis")
    return out


def _parallelepiped_points_fullrank(rays: Sequence[Vec]) -> set[Vec]:
    """Lattice points of {sum t_i r_i : 0 <= t_i < 1}, rays a basis of Q^d.

    One point R k / n per coset of R Z^d in Z^d, n = |det R|, where
    k = n frac(R^-1 x) names the coset of x.  The k form the group that the
    adjugate's columns generate mod n (det's sign is immaterial): from {0},
    add each column's multiples until one falls back into the group so far.
    No Hermite form.  Past MAX_PARALLELEPIPED_POINTS this raises
    ResourceLimitError before any point is listed.
    """
    d = len(rays)
    dval, adj = solve(mat(rays), identity(d))
    n = abs(dval)
    if n == 1:
        return {zero_vec(d)}
    if n > MAX_PARALLELEPIPED_POINTS:
        raise ResourceLimitError(
            f"a simplicial piece of index {n} has more than "
            f"{MAX_PARALLELEPIPED_POINTS} parallelepiped points to list"
        )
    group = {zero_vec(d)}
    for col in adj:
        base = tuple(group)
        shift = step = tuple([a % n for a in col])
        while shift not in group:
            group.update(tuple([(a + b) % n for a, b in zip(k, shift)]) for k in base)
            shift = tuple([(a + b) % n for a, b in zip(shift, step)])
    rows = tuple(zip(*rays))
    return {tuple([sum(map(mul, row, k)) // n for row in rows]) for k in group}


def _parallelepiped_points(rays: Sequence[Vec], dim: int) -> set[Vec]:
    k = len(rays)
    if k == 0:
        return {zero_vec(dim)}
    if k == dim:
        return _parallelepiped_points_fullrank(rays)
    comp = orthogonal_complement(rays, dim)
    span_basis = orthogonal_complement(comp, dim)
    coords = tuple(coordinates_in_basis(span_basis, r) for r in rays)
    back = mat(span_basis)
    return {mat_apply(back, p) for p in _parallelepiped_points_fullrank(coords)}


def saturation_hilbert_basis(c: Cone) -> tuple[Vec, ...]:
    """Hilbert basis of the saturated semigroup cone(c) intersect Z^d.

    Candidates: the primitive extreme rays together with the lattice points
    of the fundamental parallelepiped of every simplicial piece of a
    triangulation, which is read from c's facet incidence with no further
    double description.  An irreducible element lies in some piece with all
    ray coefficients below one, so the candidates generate.

    Reduction in degree order, as in Normaliz.  The candidates lie in the
    cone's span, so x - h is in the cone iff no facet value of h exceeds
    that of x.  x is reducible iff that holds for some Hilbert basis
    element h != x, and such an h has lower degree: the grading sums the
    facet normals, and equal facet values force h == x.  So testing each
    candidate, by degree, against the elements kept so far is exact.

    Facet values are packed into one int, sum_i x_i P_i with P_i packing
    column i of the normals, in fields of `width` bits.  No candidate's
    value reaches a field's top (guard) bit: it is at most one facet's sum
    over the extreme rays.  With x's guards set, subtracting h borrows
    across no field, so h <= x on every facet iff every guard survives.
    """
    if not c.is_pointed:
        raise NotPointedError("Hilbert basis of a non-pointed cone")
    rays = c.generators
    if not rays:
        return ()
    cands: set[Vec] = set(rays)
    for piece in _triangulate_rays(c):
        cands |= _parallelepiped_points(piece, c.dim)
    cands.discard(zero_vec(c.dim))
    grading = c.positive_grading()
    width = max(sum(dot(n, r) for r in rays) for n in c.facet_normals).bit_length() + 1
    guards = sum(1 << (width * f + width - 1) for f in range(len(c.facet_normals)))
    packs = [sum(n[i] << (width * f) for f, n in enumerate(c.facet_normals)) for i in range(c.dim)]
    kept: list[Vec] = []
    kept_packed: list[int] = []
    for x in sorted(cands, key=lambda v: (sum(map(mul, grading, v)), v)):
        px = sum(map(mul, x, packs)) | guards
        for ph in kept_packed:
            if (px - ph) & guards == guards:
                break
        else:
            kept.append(x)
            kept_packed.append(px ^ guards)
    return tuple(sorted(kept))


def _facet_rows(c: Cone, gens: Sequence[Vec]) -> tuple[list[Vec], list[tuple[int, ...]]]:
    """gens sorted by (-degree, g), with their facet-value rows; a row sums to the degree."""
    rows = {g: tuple(dot(n, g) for n in c.facet_normals) for g in gens}
    order = sorted(gens, key=lambda g: (-sum(rows[g]), g))
    return order, [rows[g] for g in order]


def _decompose(
    gs: Sequence[Vec], rows: Sequence[tuple[int, ...]], x: tuple[int, ...], skip: int = -1
) -> Optional[dict[Vec, int]]:
    """Nonnegative integer combination of gs, gs[skip] left out, with facet values x.

    Depth-first over multiplicities in the order of _facet_rows.  In a
    pointed cone a point of the span is fixed by its facet values, so the
    residue is carried as those.  The largest multiplicity of gs[i] that
    keeps the residue r in the cone is the minimum of r_f // g_f over the
    facets f with g_f > 0, and every smaller one keeps it there too.
    """
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def rec(i: int, r: tuple[int, ...]) -> Optional[dict[Vec, int]]:
        if not any(r):
            return {}
        if i == skip:
            i += 1
        if i >= len(gs) or (i, r) in failed:
            return None
        row = rows[i]
        for mult in range(min(a // b for a, b in zip(r, row) if b), -1, -1):
            res = rec(i + 1, tuple([a - mult * b for a, b in zip(r, row)]) if mult else r)
            if res is not None:
                if mult:
                    res[gs[i]] = mult
                return res
        failed.add((i, r))
        return None

    return rec(0, x)


class AffineSemigroup(object):
    """Semigroup generated by finitely many lattice points (zero dropped).

    `cone`, when given, is a prebuilt Cone of exactly these generators, trusted unchecked.
    """

    __slots__ = (
        "dim", "generators", "_cone", "_hilbert", "_saturated", "_full", "_minors",
        "_fingerprint", "_signatures", "_vertex_charts",
    )

    def __init__(
        self, generators: Sequence[Sequence[int]], ambient_dim: Optional[int] = None,
        cone: Optional[Cone] = None,
    ):
        gens = [vec(g) for g in generators]
        if ambient_dim is None:
            if not gens:
                raise ValueError("ambient_dim required for an empty generator list")
            ambient_dim = len(gens[0])
        for g in gens:
            if len(g) != ambient_dim:
                raise DimensionMismatch("generator of wrong length")
        self.dim = ambient_dim
        self.generators = tuple(sorted({g for g in gens if not is_zero(g)}))
        self._cone = cone
        self._hilbert: Optional[tuple[Vec, ...]] = None
        self._saturated: Optional[bool] = None
        self._full: Optional[bool] = None
        self._minors: Optional[dict[int, int]] = None
        # filled on first use by iso.fingerprint, iso.signatures and
        # nash.vertex_charts (a dict keyed by characteristic)
        self._fingerprint = None
        self._signatures = None
        self._vertex_charts = None

    @classmethod
    def from_hilbert_basis(
        cls, basis: Sequence[Sequence[int]], dim: int, saturated: Optional[bool] = None,
        cone: Optional[Cone] = None,
    ) -> "AffineSemigroup":
        """The semigroup generated by a known Hilbert basis, trusted unchecked.

        `saturated` pins is_saturated() when the caller knows it; None
        leaves it to be computed on demand.  `cone`, as in the constructor,
        is a prebuilt Cone of the basis.
        """
        out = cls(basis, dim, cone=cone)
        out._hilbert = out.generators
        out._saturated = saturated
        return out

    @property
    def cone(self) -> Cone:
        if self._cone is None:
            self._cone = Cone(self.generators, self.dim)
        return self._cone

    @property
    def is_pointed(self) -> bool:
        """Is the cone spanned by the generators free of lines?"""
        return self.cone.is_pointed

    def generates_full_lattice(self) -> bool:
        if self._full is None:
            self._full = lattice_is_full(self.generators, self.dim)
        return self._full

    def decompose(self, x: Sequence[int]) -> Optional[dict[Vec, int]]:
        """A witness {generator: multiplicity} with sum == x, or None.

        The first witness of a depth-first search over multiplicities,
        generators taken by decreasing degree, residues kept as facet values.
        """
        v = vec(x)
        if len(v) != self.dim:
            raise DimensionMismatch("point of wrong length")
        if is_zero(v):
            return {}
        if not self.is_pointed:
            raise NotPointedError("membership search requires a pointed semigroup")
        c = self.cone
        if not c.contains(v):
            return None
        row = tuple(dot(n, v) for n in c.facet_normals)
        return _decompose(*_facet_rows(c, self.generators), row)

    def membership(self, x: Sequence[int]) -> bool:
        return self.decompose(x) is not None

    def __contains__(self, x: Sequence[int]) -> bool:
        return self.membership(x)

    def hilbert_basis(self) -> tuple[Vec, ...]:
        """The unique minimal generating set (pointed semigroups only).

        A generator is kept when the others do not decompose it; the sorted
        generators and their facet values are computed once for all tests.
        """
        if self._hilbert is None:
            if not self.is_pointed:
                raise NotPointedError("Hilbert basis of a non-pointed semigroup")
            gs, rows = _facet_rows(self.cone, self.generators)
            self._hilbert = tuple(
                sorted(g for i, g in enumerate(gs) if _decompose(gs, rows, rows[i], i) is None)
            )
        return self._hilbert

    def hilbert_minors(self) -> dict[int, int]:
        """The nonzero dim-minors of the Hilbert basis, keyed by position bitmask.

        Computed once by minor_table and kept: fingerprints and Nash charts
        both read it.
        """
        if self._minors is None:
            self._minors = minor_table(self.hilbert_basis(), self.dim)
        return self._minors

    @classmethod
    def from_cone(cls, c: Cone) -> "AffineSemigroup":
        """The saturated semigroup cone(c) intersect Z^d, sharing c as its cone."""
        return cls.from_hilbert_basis(saturation_hilbert_basis(c), c.dim, saturated=True, cone=c)

    def saturate(self) -> "AffineSemigroup":
        return AffineSemigroup.from_cone(self.cone)

    def is_saturated(self) -> bool:
        if self._saturated is None:
            self._saturated = set(self.hilbert_basis()) == set(
                saturation_hilbert_basis(self.cone)
            )
        return self._saturated

    def is_smooth(self) -> bool:
        """Freeness test: exactly d Hilbert elements forming a unimodular basis."""
        if not self.is_pointed:
            raise NotPointedError("smoothness test requires a pointed semigroup")
        if not self.generates_full_lattice():
            raise NotFullLatticeError("smoothness test requires the full lattice")
        if not self.is_saturated():
            raise NotSaturatedError("smoothness test requires a saturated semigroup")
        h = self.hilbert_basis()
        return len(h) == self.dim and abs(det(mat(h))) == 1

    def same_semigroup(self, other: "AffineSemigroup") -> bool:
        """Mathematical equality: mutual membership of all generators."""
        if self.dim != other.dim:
            return False
        return all(other.membership(g) for g in self.generators) and all(
            self.membership(g) for g in other.generators
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffineSemigroup)
            and self.dim == other.dim
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.generators))

    def __repr__(self) -> str:
        return f"AffineSemigroup(dim={self.dim}, {len(self.generators)} generators)"
