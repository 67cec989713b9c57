"""Finitely generated subsemigroups of Z^d and their Hilbert bases."""

from __future__ import annotations

from math import comb, gcd
from operator import lshift, mul
from typing import Optional, Sequence

from .cone import Cone, NotPointedError, _triangulate_rays
from .exactmath import (
    Mat,
    Vec,
    DimensionMismatch,
    det,
    dot,
    exchange,
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

# the most subsets one level of a Hilbert basis minor table may hold; the
# largest table any fixture or corpus search builds has 65,780
MAX_MINOR_SUBSETS = 1_000_000


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


def _packing(rows: Sequence[Sequence[int]], fields: int, bound: int) -> tuple[int, int, list[int]]:
    """(width, guards, packed rows): rows of facet values, each packed into one int.

    Entry f of a row fills bits [width f, width f + width) and the row's sum,
    its degree, sits above all `fields` fields.  A field is one bit wider
    than `bound` needs, so no value up to `bound` reaches the field's top
    bit, its guard; `guards` has every guard bit set.  Packing is linear, so
    the packed value of a sum is the sum of the packed values, and packed
    ints sort by (degree, facet values).  For x and h within `bound`,
    ((x | guards) - h) & guards == guards iff h <= x on every facet: while
    every field of x is at least h's, no field borrows and each guard
    survives; the lowest field where h exceeds x borrows its own guard.
    """
    width = bound.bit_length() + 1
    top = width * fields
    guards = sum(1 << (width * f + width - 1) for f in range(fields))
    shifts = range(0, top, width)
    packed = [sum(map(lshift, row, shifts)) + (sum(row) << top) for row in rows]
    return width, guards, packed


def _cyclic_group(s: Sequence[int], n: int) -> list[Vec]:
    """The group s generates in (Z/n)^d, each element once: the multiples
    j s mod n for j below the order of s, n / gcd(n, s); s is reduced mod n."""
    return [tuple([j * a % n for a in s]) for j in range(n // gcd(n, *s))]


def _parallelepiped_cosets(dval: int, adj: Mat) -> tuple[int, set[Vec]]:
    """(n, K): the lattice points of {sum t_i r_i : 0 <= t_i < 1} are R k / n for k in K.

    dval and adj are the determinant and adjugate of R, whose columns r_i
    are a basis of Q^d, and n = |dval|.  There is one point per coset of
    R Z^d in Z^d, and k = n frac(R^-1 x) names the coset of x.  The k form
    the group that the adjugate's columns generate mod n (det's sign is
    immaterial).  The first column s generates a cyclic group of order
    n / gcd(n, s), listed at once as the multiples j s mod n.  Each further
    column's multiples are added to the group so far until one falls back
    into it.  No Hermite form and no elimination.  Past
    MAX_PARALLELEPIPED_POINTS this raises ResourceLimitError before any
    coset is listed.
    """
    n = abs(dval)
    if n == 1:
        return 1, {zero_vec(len(adj))}
    if n > MAX_PARALLELEPIPED_POINTS:
        raise ResourceLimitError(
            f"a simplicial piece of index {n} has more than "
            f"{MAX_PARALLELEPIPED_POINTS} parallelepiped points to list"
        )
    first, *rest = ([a % n for a in col] for col in adj)
    group = set(_cyclic_group(first, n))
    for col in rest:
        base = tuple(group)
        shift = step = tuple(col)
        while shift not in group:
            group.update(tuple([(a + b) % n for a, b in zip(k, shift)]) for k in base)
            shift = tuple([(a + b) % n for a, b in zip(shift, step)])
    return n, group


def _piece_bases(
    pieces: Sequence[tuple[Vec, ...]], coords: dict[Vec, Vec]
) -> dict[tuple[Vec, ...], tuple[tuple[Vec, ...], int, Mat]]:
    """piece -> (its rays in column order, det, adj) of the matrix of their coords.

    The first piece is solved.  The pieces of a triangulation are connected
    through shared facets, so breadth first from there every other piece
    shares all its rays but one with a piece already handled, and takes
    its determinant and adjugate from that piece by one exchange: its new
    ray replaces the column of the ray it lacks.
    """
    bit = {r: 1 << i for i, r in enumerate(coords)}
    # facet (a piece's rays but one, as a bitmask) -> the pieces that have it
    sharing: dict[int, list[tuple[Vec, ...]]] = {}
    for piece in pieces:
        mask = sum(bit[r] for r in piece)
        for r in piece:
            sharing.setdefault(mask ^ bit[r], []).append(piece)
    first = pieces[0]
    out = {first: (first, *solve(mat([coords[r] for r in first]), identity(len(first))))}
    queue = [first]
    for piece in queue:
        cols, dval, adj = out[piece]
        mask = sum(bit[r] for r in cols)
        for j, r in enumerate(cols):
            for other in sharing[mask ^ bit[r]]:
                if other not in out:
                    x = next(s for s in other if s not in cols)
                    moved = cols[:j] + (x,) + cols[j + 1:]
                    out[other] = (moved, *exchange(dval, adj, j, coords[x]))
                    queue.append(other)
    return out


def saturation_hilbert_basis(c: Cone) -> tuple[Vec, ...]:
    """Hilbert basis of the saturated semigroup cone(c) intersect Z^d.

    A simplicial full-dimensional cone whose rays have determinant +-1 is
    its own Hilbert basis, decided by one det.  Otherwise the candidates
    are the primitive extreme rays together with the lattice points of
    the fundamental parallelepiped of every simplicial piece of a
    triangulation, which is read from c's facet incidence with no further
    double description.  An irreducible element lies in some piece with
    all ray coefficients below one, so the candidates generate.  Only the
    first piece is solved: every other one takes its determinant and
    adjugate, from which its cosets are listed, from a neighbouring piece
    by an exchange (_piece_bases).

    A candidate is held as its packed facet values (_packing), and only the
    elements kept are built as vectors.  The point R k / n with coset
    coordinates k packs to sum_i k_i P(r_i) / n, exactly: packing is
    linear, and n times the point is the integral sum_i k_i r_i.  A piece
    of a lower-dimensional cone has its cosets listed in coordinates of a
    lattice basis of the span, and the same formula holds, as k does not
    depend on that basis.  No candidate's facet value reaches a guard: it
    is at most one facet's sum over the extreme rays.  Facet values fix a
    point of the span, so equal packed ints are equal points.

    Reduction in the order of the packed ints, which is by degree first,
    as in Normaliz.  x - h is in the cone iff no facet value of h exceeds
    that of x, the guard test of _packing.  x is reducible iff that holds
    for some Hilbert basis element h != x, and such an h has lower degree:
    the degree sums the facet values, and equal facet values force h == x.
    So testing each candidate, by degree, against the elements kept so far
    is exact.
    """
    if not c.is_pointed:
        raise NotPointedError("Hilbert basis of a non-pointed cone")
    rays = c.generators
    if not rays:
        return ()
    if len(rays) == c.dim and abs(det(mat(rays))) == 1:
        return rays
    normals = c.facet_normals
    rows = [[sum(map(mul, n, r)) for n in normals] for r in rays]
    _, guards, packs = _packing(rows, len(normals), max(map(sum, zip(*rows))))
    packed = dict(zip(rays, packs))
    coords = {r: r for r in rays}
    if c.span_equations:
        span_basis = orthogonal_complement(c.span_equations, c.dim)
        coords = {r: coordinates_in_basis(span_basis, r) for r in rays}
    # packed candidate -> (rays R, n, k), the candidate being R k / n, or
    # None for an extreme ray: a primitive one is the sum of no two nonzero
    # points of the cone, so it is kept untested
    cands: dict[int, Optional[tuple[Sequence[Vec], int, Vec]]] = dict.fromkeys(packs)
    pieces = _triangulate_rays(c)
    bases = _piece_bases(pieces, coords)
    # cosets in the triangulation's order, so that the budget refuses the same piece first
    for piece in pieces:
        cols, dval, adj = bases[piece]
        n, group = _parallelepiped_cosets(dval, adj)
        piece_packs = [packed[r] for r in cols]
        for k in group:
            cands.setdefault(sum(map(mul, k, piece_packs)) // n, (cols, n, k))
    cands.pop(0, None)
    kept = list(rays)
    kept_packed: list[int] = []
    for px in sorted(cands):
        point = cands[px]
        if point is None:
            kept_packed.append(px)
            continue
        guarded = px | guards
        for ph in kept_packed:
            if (guarded - ph) & guards == guards:
                break
        else:
            piece, n, k = point
            kept.append(tuple([sum(map(mul, row, k)) // n for row in zip(*piece)]))
            kept_packed.append(px)
    return tuple(sorted(kept))


def _facet_rows(c: Cone, gens: Sequence[Vec]) -> tuple[list[Vec], list[tuple[int, ...]]]:
    """gens sorted by (-degree, g), with their facet-value rows; a row sums to the degree."""
    normals = c.facet_normals
    rows = {g: tuple([sum(map(mul, n, g)) for n in normals]) for g in gens}
    order = sorted(gens, key=lambda g: (-sum(rows[g]), g))
    return order, [rows[g] for g in order]


def _terms(rows: Sequence[tuple[int, ...]], width: int) -> list[list[tuple[int, int]]]:
    """Per row, (bit offset, value) of each nonzero facet value, fields `width` bits wide."""
    return [[(width * f, b) for f, b in enumerate(row) if b] for row in rows]


def _decompose(
    gs: Sequence[Vec], terms: Sequence[Sequence[tuple[int, int]]], packs: Sequence[int],
    width: int, x: int, start: int = 0,
) -> Optional[dict[Vec, int]]:
    """Nonnegative integer combination of gs[start:] with packed facet values x.

    Depth-first over multiplicities in the order of _facet_rows.  packs are
    the facet-value rows packed by _packing in fields of `width` bits,
    which must hold every value of x, and terms are the rows' _terms.  In
    a pointed cone a point of the span is fixed by its facet values, so
    the residue is carried as their packed int, and failures are memoized
    by (position, residue).  The largest multiplicity m of gs[i] that keeps
    the residue r in the cone is the minimum of r_f // g_f over the facets
    f with g_f > 0, read from r's fields, and every smaller one keeps it
    there too.  The multiplicities are tried lazily from m down to 0, each
    residue r - mult g formed by one multiplication when its turn comes:
    no chain of subtractions is built, so a large m costs no more than a
    small one.
    """
    mask = (1 << width) - 1
    failed: set[tuple[int, int]] = set()

    def rec(i: int, r: int) -> Optional[dict[Vec, int]]:
        if not r:
            return {}
        if i >= len(gs) or (i, r) in failed:
            return None
        g = packs[i]
        for mult in range(min((r >> s & mask) // b for s, b in terms[i]), -1, -1):
            res = rec(i + 1, r - mult * g)
            if res is not None:
                if mult:
                    res[gs[i]] = mult
                return res
        failed.add((i, r))
        return None

    return rec(start, x)


class AffineSemigroup(object):
    """Semigroup generated by finitely many lattice points (zero dropped).

    `cone`, when given, is a prebuilt Cone of exactly these generators, trusted unchecked.
    """

    __slots__ = (
        "dim", "generators", "_cone", "_hilbert", "_saturated", "_full", "_minors",
        "_vertex_charts",
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
        # filled on first use by nash.vertex_charts, the one writer from
        # outside this class (a dict keyed by characteristic)
        self._vertex_charts = None

    @classmethod
    def from_hilbert_basis(
        cls, basis: Sequence[Sequence[int]], dim: int, cone: Optional[Cone] = None,
    ) -> "AffineSemigroup":
        """The semigroup generated by a known Hilbert basis, trusted unchecked.

        `cone`, as in the constructor, is a prebuilt Cone of the basis.
        """
        out = cls(basis, dim, cone=cone)
        out._hilbert = out.generators
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
        generators taken by decreasing degree, residues kept as packed
        facet values in fields wide enough for x and every generator.
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
        gs, rows = _facet_rows(c, self.generators)
        row = tuple(dot(n, v) for n in c.facet_normals)
        everything = [*rows, row]
        width, _, packs = _packing(everything, len(row), max(map(max, everything)))
        return _decompose(gs, _terms(rows, width), packs, width, packs.pop())

    def membership(self, x: Sequence[int]) -> bool:
        return self.decompose(x) is not None

    def __contains__(self, x: Sequence[int]) -> bool:
        return self.membership(x)

    def hilbert_basis(self) -> tuple[Vec, ...]:
        """The unique minimal generating set (pointed semigroups only).

        A generator is kept when the others do not decompose it; the sorted
        generators and their packed facet values are computed once for all
        tests.  A generator h that x - h leaves in the cone has lower degree
        than x, as equal facet values would force h == x, so x is decomposed
        over the generators after it in the order of _facet_rows only.  And
        x is kept at once when none of those lies below it on every facet
        (the guard test of _packing).  That prefilter is exact: any
        decomposition of x uses some generator h, and then the rest of the
        sum, x - h, lies in the cone.  Only the other generators run
        _decompose.
        """
        if self._hilbert is None:
            if not self.is_pointed:
                raise NotPointedError("Hilbert basis of a non-pointed semigroup")
            gs, rows = _facet_rows(self.cone, self.generators)
            bound = max((max(r) for r in rows), default=0)
            width, guards, packs = _packing(rows, len(self.cone.facet_normals), bound)
            terms = _terms(rows, width)
            kept = []
            for i, px in enumerate(packs):
                guarded = px | guards
                if not any(
                    (guarded - ph) & guards == guards for ph in packs[i + 1:]
                ) or _decompose(gs, terms, packs, width, px, i + 1) is None:
                    kept.append(gs[i])
            self._hilbert = tuple(sorted(kept))
        return self._hilbert

    def hilbert_minors(self) -> dict[int, int]:
        """The nonzero dim-minors of the Hilbert basis, keyed by position bitmask.

        Computed once by minor_table and kept: fingerprints and Nash charts
        both read it.  Its level k holds up to C(|H|, k) minors; past
        MAX_MINOR_SUBSETS on the largest level this raises ResourceLimitError.
        Exactly d elements have one d-subset, so there one det is the table.
        """
        if self._minors is None:
            h, d = self.hilbert_basis(), self.dim
            if len(h) == d:
                full = det(mat(h))
                self._minors = {(1 << d) - 1: full} if full else {}
            else:
                largest = comb(len(h), min(d, len(h) // 2))
                if largest > MAX_MINOR_SUBSETS:
                    raise ResourceLimitError(
                        f"the minor table of {len(h)} Hilbert basis elements in dimension {d} "
                        f"has a level of {largest} subsets, more than {MAX_MINOR_SUBSETS}"
                    )
                self._minors = minor_table(h, d)
        return self._minors

    @classmethod
    def from_cone(cls, c: Cone) -> "AffineSemigroup":
        """The saturated semigroup cone(c) intersect Z^d, sharing c as its cone.

        It is saturated, and generates Z^d exactly when c is full-dimensional,
        so both are recorded.
        """
        out = cls.from_hilbert_basis(saturation_hilbert_basis(c), c.dim, cone=c)
        out._saturated = True
        out._full = c.is_full_dimensional
        return out

    def saturate(self) -> "AffineSemigroup":
        return AffineSemigroup.from_cone(self.cone)

    def is_saturated(self) -> bool:
        if self._saturated is None:
            self._saturated = set(self.hilbert_basis()) == set(
                saturation_hilbert_basis(self.cone)
            )
        return self._saturated

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
