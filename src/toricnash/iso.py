"""Unimodular equivalence of pointed affine semigroups.

Two semigroups are equivalent when some GL_d(Z) matrix maps one Hilbert
basis onto the other.  Each Hilbert element h of a full-dimensional
semigroup has a GL(Z)-invariant signature: whether it lies on an extreme
ray, and its sorted facet values <n_f, h>.  The sorted multiset of
signatures, with the dimension, is a lookup key that buckets candidate
classes; a backtracking search over signature-preserving assignments of an
independent d-subset produces an explicit certificate matrix, which can be
re-verified independently.  The fingerprint (counts, incidence profiles,
determinant multiset) names search nodes.  Both are computed once per
semigroup and kept on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import comb
from typing import Callable, NamedTuple, Optional, Sequence

from .cone import NotFullDimensionalError, NotPointedError
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


def _element_profile(v: Vec, cone) -> tuple[int, int]:
    ray = 1 if primitive(v) in cone.generators else 0
    incidence = sum(1 for n in cone.facet_normals if dot(n, v) == 0)
    return (ray, incidence)


def fingerprint(s: AffineSemigroup) -> Fingerprint:
    """The semigroup's fingerprint, computed on first use and kept on it."""
    if s._fingerprint is None:
        s._fingerprint = _compute_fingerprint(s)
    return s._fingerprint


def _compute_fingerprint(s: AffineSemigroup) -> Fingerprint:
    if not s.is_pointed:
        raise NotPointedError("fingerprint requires a pointed semigroup")
    h = s.hilbert_basis()
    c = s.cone
    rays = c.generators
    facets = c.facet_normals
    elem = tuple(sorted(_element_profile(v, c) for v in h))
    fac = tuple(
        sorted(
            (
                sum(1 for r in rays if dot(n, r) == 0),
                sum(1 for v in h if dot(n, v) == 0),
            )
            for n in facets
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


class Signatures(NamedTuple):
    """Signatures of the Hilbert elements of a full-dimensional pointed semigroup.

    The signature of h is (1 if h lies on an extreme ray else 0, the sorted
    facet values <n_f, h>).  Facet normals are primitive and move by U^{-T}
    under x -> U x, and rays move by U, so every unimodular map between two
    semigroups preserves signatures, and equivalent semigroups have equal keys.
    """

    key: tuple[int, tuple[Signature, ...]]  # (dim, sorted multiset of signatures)
    of: dict[Vec, Signature]  # Hilbert element -> its signature
    by: dict[Signature, list[Vec]]  # signature -> its Hilbert elements, in sorted order


def signatures(s: AffineSemigroup) -> Signatures:
    """The semigroup's signatures, computed on first use and kept on it.

    A lower-dimensional cone's facet normals are determined only up to its
    span equations, so its facet values are not invariant: such a semigroup
    raises NotFullDimensionalError.
    """
    if s._signatures is None:
        if not s.is_pointed:
            raise NotPointedError("signatures require a pointed semigroup")
        c = s.cone
        if not c.is_full_dimensional:
            raise NotFullDimensionalError(
                "unimodular equivalence is decided only for full-dimensional cones"
            )
        rays = set(c.generators)
        of: dict[Vec, Signature] = {}
        by: dict[Signature, list[Vec]] = {}
        for h in s.hilbert_basis():
            sig = (
                1 if primitive(h) in rays else 0,
                tuple(sorted(dot(n, h) for n in c.facet_normals)),
            )
            of[h] = sig
            by.setdefault(sig, []).append(h)
        s._signatures = Signatures((s.dim, tuple(sorted(of.values()))), of, by)
    return s._signatures


@dataclass(frozen=True)
class IsoCertificate:
    """A unimodular matrix with the induced Hilbert basis bijection."""

    matrix: Mat  # columns; acts on column vectors
    mapping: tuple[tuple[Vec, Vec], ...]


def certificate_for_matrix(a: AffineSemigroup, m: Mat) -> IsoCertificate:
    mapping = tuple((h, mat_apply(m, h)) for h in a.hilbert_basis())
    return IsoCertificate(matrix=m, mapping=mapping)


def verify_certificate(a: AffineSemigroup, b: AffineSemigroup, cert: IsoCertificate) -> bool:
    """True iff the matrix is unimodular and maps H(a) onto H(b) bijectively.

    A non-empty declared mapping must be exactly the pairs (h, M h), h in H(a).
    """
    square = len(cert.matrix) == a.dim and all(len(col) == a.dim for col in cert.matrix)
    if a.dim != b.dim or not square:
        return False
    if not is_unimodular(cert.matrix):
        return False
    ha = a.hilbert_basis()
    hb = set(b.hilbert_basis())
    images = [mat_apply(cert.matrix, h) for h in ha]
    if len(ha) != len(hb) or set(images) != hb:
        return False
    pairs = set(zip(ha, images))
    return not cert.mapping or (len(cert.mapping) == len(pairs) and set(cert.mapping) == pairs)


def find_isomorphism(a: AffineSemigroup, b: AffineSemigroup) -> Optional[IsoCertificate]:
    """Search for a unimodular map with f(H(a)) == H(b).

    Equal Hilbert bases give the identity in any dimension; otherwise both
    semigroups must be full-dimensional (NotFullDimensionalError).  Unequal
    signature keys short-circuit to None.  Completeness: any such map is
    determined by its values on the first independent d-subset D of sorted
    H(a) and preserves signatures, so D's images are tried depth-first among
    the elements of H(b) with the same signature, in sorted order, and a
    valid certificate is found whenever one exists.
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
    sig_a, sig_b = signatures(a), signatures(b)
    if sig_a.key != sig_b.key:
        return None
    d = a.dim
    base = [ha[i] for i in independent_indices(ha, d)]
    base_det, base_adj = solve(mat(base), identity(d))
    hb_set = set(hb)

    def onto(m: Mat) -> bool:
        # images in H(b) and m unimodular, so m maps H(a) onto H(b) (equal sizes)
        return all(mat_apply(m, h) in hb_set for h in ha) and is_unimodular(m)

    m = first_base_map([sig_b.by[sig_a.of[v]] for v in base], base_det, base_adj, onto)
    return None if m is None else certificate_for_matrix(a, m)


def first_base_map(
    candidates: Sequence[Sequence[Vec]], base_det: int, base_adj: Mat,
    accept: Callable[[Mat], bool],
) -> Optional[Mat]:
    """The first accepted integral map of a base onto distinct candidate images.

    candidates[i] lists the allowed images of base element i.  Images are
    picked depth-first, in the listed order and all distinct; each full
    pick fixes m = images . adj(base) / det(base), with (base_det, base_adj)
    from solve(mat(base), identity(d)).  The first m that is integral and
    passes accept(m) is returned, None when there is none.
    """
    d = len(candidates)

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
        return m if accept(m) else None

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
