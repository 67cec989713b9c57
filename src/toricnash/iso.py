"""Unimodular equivalence of pointed affine semigroups.

Two semigroups are equivalent when some GL_d(Z) matrix maps one Hilbert
basis onto the other.  A Frame is a point set of a full-dimensional
pointed cone (a Hilbert basis, or the cone's extreme rays) in which each
point h has a GL(Z)-invariant signature: whether it lies on an extreme
ray, and its sorted facet values <n_f, h>.  The sorted multiset of
signatures, with the dimension, is a lookup key that buckets candidate
classes; first_map backtracks over signature-preserving assignments of an
independent d-subset to find an explicit certificate matrix, which can be
re-verified independently.  The fingerprint (counts, incidence profiles,
determinant multiset) names search nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from math import comb
from typing import Iterable, Optional, Sequence

from .cone import Cone, NotFullDimensionalError, NotPointedError
from .exactmath import (
    Mat,
    Vec,
    dot,
    identity,
    independent_indices,
    is_unimodular,
    mat,
    mat_apply,
    mat_mul,
    minor_table,
    primitive,
    solve,
)
from .semigroup import AffineSemigroup

# d-subset determinant multisets are skipped above this subset count so
# fingerprints of large Hilbert bases stay affordable.
_DET_SUBSET_CAP = 4000


def _encode_int(n: int) -> bytes:
    sign = b"-" if n < 0 else b"+"
    mag = abs(n)
    body = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "big")
    return sign + len(body).to_bytes(4, "big") + body


def _encode_ints(ns: Sequence[int]) -> bytes:
    # a run of equal entries (a sorted det multiset is mostly runs) is encoded once
    body = b"".join(_encode_int(n) * len(list(run)) for n, run in groupby(ns))
    return _encode_int(len(ns)) + body


@dataclass(frozen=True)
class Fingerprint:
    """GL_d(Z)-invariant summary of a pointed semigroup.

    Fields, in serialization order: ambient dimension, Hilbert basis size,
    extreme ray count, facet count, sorted per-element profiles
    (ray flag, facet incidence count), sorted per-facet profiles
    (rays on facet, Hilbert elements on facet), determinant source
    (0 = d-subsets of the Hilbert basis, 1 = d-subsets of the rays,
    2 = skipped), and the sorted |det| multiset.
    """

    dim: int
    hilbert_count: int
    ray_count: int
    facet_count: int
    element_profiles: tuple[tuple[int, int], ...]
    facet_profiles: tuple[tuple[int, int], ...]
    det_source: int
    det_multiset: tuple[int, ...]

    def to_bytes(self) -> bytes:
        out = [
            _encode_int(self.dim),
            _encode_int(self.hilbert_count),
            _encode_int(self.ray_count),
            _encode_int(self.facet_count),
            _encode_ints([e for pair in self.element_profiles for e in pair]),
            _encode_ints([e for pair in self.facet_profiles for e in pair]),
            _encode_int(self.det_source),
            _encode_ints(self.det_multiset),
        ]
        return b"".join(out)


def fingerprint(s: AffineSemigroup) -> Fingerprint:
    """The semigroup's fingerprint."""
    if not s.is_pointed:
        raise NotPointedError("fingerprint requires a pointed semigroup")
    h = s.hilbert_basis()
    c = s.cone
    rays = c.generators
    facets = c.facet_normals
    on_ray = set(rays)
    on_facet = [[dot(n, v) == 0 for n in facets] for v in h]  # |H| x |F|
    elem = tuple(sorted((int(primitive(v) in on_ray), sum(row)) for v, row in zip(h, on_facet)))
    fac = tuple(
        sorted(
            (sum(1 for r in rays if dot(n, r) == 0), sum(row[f] for row in on_facet))
            for f, n in enumerate(facets)
        )
    )
    d = s.dim
    if comb(len(h), d) <= _DET_SUBSET_CAP:
        source, subsets, table = 0, comb(len(h), d), s.hilbert_minors()
    elif comb(len(rays), d) <= _DET_SUBSET_CAP:
        source, subsets, table = 1, comb(len(rays), d), minor_table(rays, d)
    else:
        source, subsets, table = 2, 0, {}
    # the tables hold the nonzero minors only; the rest of the subsets give zeros
    dets = [0] * (subsets - len(table)) + sorted(map(abs, table.values()))
    return Fingerprint(
        dim=d,
        hilbert_count=len(h),
        ray_count=len(rays),
        facet_count=len(facets),
        element_profiles=elem,
        facet_profiles=fac,
        det_source=source,
        det_multiset=tuple(dets),
    )


Signature = tuple[int, tuple[int, ...]]


class Frame:
    """A point set of a full-dimensional pointed cone, read up to GL_d(Z).

    The signature of a point h is (1 if h lies on an extreme ray else 0,
    the sorted facet values <n_f, h>).  Facet normals are primitive and move
    by U^{-T} under x -> U x, and rays move by U, so every unimodular map
    between two frames keeps each point's signature, and equivalent frames
    have equal keys.  The base, the first independent d points with the
    determinant and adjugate of their matrix, is computed on first use.
    """

    def __init__(self, points: Sequence[Vec], c: Cone):
        rays = set(c.generators)
        self.points = tuple(points)
        self.of: dict[Vec, Signature] = {}  # point -> its signature
        self.by: dict[Signature, list[Vec]] = {}  # signature -> its points, in order
        for h in self.points:
            sig = (
                1 if primitive(h) in rays else 0,
                tuple(sorted(dot(n, h) for n in c.facet_normals)),
            )
            self.of[h] = sig
            self.by.setdefault(sig, []).append(h)
        self.key = (c.dim, tuple(sorted(self.of.values())))  # (dim, sorted signatures)

    @cached_property
    def base(self) -> tuple[tuple[Vec, ...], int, Mat]:
        """(base points, det, adj) with mat(base) . adj == det . I."""
        d = self.key[0]
        base = tuple(self.points[i] for i in independent_indices(self.points, d))
        det, adj = solve(mat(base), identity(d))
        return base, det, adj


def signatures(s: AffineSemigroup) -> Frame:
    """The frame of the semigroup's Hilbert basis.

    A lower-dimensional cone's facet normals are determined only up to its
    span equations, so its facet values are not invariant: such a semigroup
    raises NotFullDimensionalError.
    """
    if not s.is_pointed:
        raise NotPointedError("signatures require a pointed semigroup")
    if not s.cone.is_full_dimensional:
        raise NotFullDimensionalError(
            "unimodular equivalence is decided only for full-dimensional cones"
        )
    return Frame(s.hilbert_basis(), s.cone)


@dataclass(frozen=True)
class IsoCertificate:
    """A unimodular matrix that carries one Hilbert basis onto another."""

    matrix: Mat  # columns; acts on column vectors


def certificate_for_matrix(a: AffineSemigroup, m: Mat) -> IsoCertificate:
    """The certificate of m as a map out of a; the matrix is all it holds."""
    return IsoCertificate(m)


def carries(m: Mat, images: Iterable[Vec], b: set[Vec]) -> bool:
    """True iff the unimodular m maps distinct points onto the set b, given their images.

    The images are tested as they come, so a lazy iterable stops at the
    first miss, where most candidate maps fail.  Unimodular m is injective,
    so as many images as b has points make the images all of b.
    """
    count = 0
    for count, y in enumerate(images, 1):
        if y not in b:
            return False
    return count == len(b) and is_unimodular(m)


def verify_certificate(a: AffineSemigroup, b: AffineSemigroup, cert: IsoCertificate) -> bool:
    """True iff the square matrix carries H(a) onto H(b), applied lazily:
    a wrong map stops at its first image outside H(b)."""
    m = cert.matrix
    square = len(m) == a.dim and all(len(col) == a.dim for col in m)
    if a.dim != b.dim or not square:
        return False
    return carries(m, (mat_apply(m, h) for h in a.hilbert_basis()), set(b.hilbert_basis()))


def find_isomorphism(a: AffineSemigroup, b: AffineSemigroup) -> Optional[IsoCertificate]:
    """Search for a unimodular map with f(H(a)) == H(b).

    Equal Hilbert bases give the identity in any dimension; otherwise both
    semigroups must be full-dimensional (NotFullDimensionalError), and
    first_map searches the frames of their Hilbert bases.
    """
    if a.dim != b.dim:
        return None
    if not (a.is_pointed and b.is_pointed):
        raise NotPointedError("isomorphism search requires pointed semigroups")
    ha = a.hilbert_basis()
    hb = b.hilbert_basis()
    if len(ha) != len(hb):
        return None
    if set(ha) == set(hb):
        return certificate_for_matrix(a, identity(a.dim))
    m = first_map(signatures(a), signatures(b))
    return None if m is None else certificate_for_matrix(a, m)


def first_map(a: Frame, b: Frame) -> Optional[Mat]:
    """The first unimodular map that carries a's points onto b's, or None.

    Unequal keys short-circuit to None.  Completeness: any such map is
    determined by its values on a's base and keeps signatures, so the base's
    images are picked depth-first, all distinct, among b's points of the same
    signature, in b's order.  Each full pick fixes m = images . adj / det;
    the first m that is integral and carries a's points onto b's is returned.
    """
    if a.key != b.key:
        return None
    base, base_det, base_adj = a.base
    candidates = [b.by[a.of[v]] for v in base]
    target = set(b.points)
    d = len(base)

    def assemble(images: Sequence[Vec]) -> Optional[Mat]:
        numer = mat_mul(mat(images), base_adj)
        cols = []
        for col in numer:
            new = []
            for e in col:
                if e % base_det:
                    return None
                new.append(e // base_det)
            cols.append(tuple(new))
        m = tuple(cols)
        return m if carries(m, (mat_apply(m, x) for x in a.points), target) else None

    def backtrack(i: int, picked: list[Vec], used: set[Vec]) -> Optional[Mat]:
        if i == d:
            return assemble(picked)
        for w in candidates[i]:
            if w in used:
                continue
            picked.append(w)
            used.add(w)
            found = backtrack(i + 1, picked, used)
            if found is not None:
                return found
            picked.pop()
            used.remove(w)
        return None

    return backtrack(0, [], set())
