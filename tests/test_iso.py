import dataclasses
import itertools
import random
from math import comb

import pytest

from toricnash import fixtures, semigroup
from toricnash.cone import Cone, NotPointedError
from toricnash.exactmath import det, identity, mat, mat_apply, mat_mul
from toricnash.iso import (
    _DET_SUBSET_CAP,
    Fingerprint,
    IsoCertificate,
    certificate_for_matrix,
    find_isomorphism,
    fingerprint,
    invert_certificate,
    verify_certificate,
)
from toricnash.nash import blowup_step, chart
from toricnash.search import explore
from toricnash.semigroup import AffineSemigroup, saturation_hilbert_basis

from helpers import apply_matrix, random_pointed_gens, random_unimodular


def _twist(s, u):
    return AffineSemigroup([apply_matrix(u, g) for g in s.generators], s.dim)


def _random_saturated(rng, dim, count):
    gens = random_pointed_gens(rng, dim, count)
    return AffineSemigroup(saturation_hilbert_basis(Cone(gens, dim)), dim)


def test_fingerprint_unimodular_invariance():
    rng = random.Random(501)
    for _ in range(30):
        dim = rng.choice((2, 3))
        s = _random_saturated(rng, dim, dim + 2)
        u = random_unimodular(rng, dim)
        assert fingerprint(s) == fingerprint(_twist(s, u))
        assert fingerprint(s).digest() == fingerprint(_twist(s, u)).digest()


def test_fingerprint_separates_easy_cases():
    a = AffineSemigroup(((1, 0), (0, 1)), 2)
    b = AffineSemigroup(((1, 0), (1, 1), (1, 2)), 2)
    assert fingerprint(a) != fingerprint(b)


def test_fingerprint_requires_pointed():
    with pytest.raises(NotPointedError):
        fingerprint(AffineSemigroup(((1,), (-1,)), 1))


def test_fingerprint_bytes_roundtrip_determinism():
    s = AffineSemigroup(((1, 0), (1, 1), (1, 2)), 2)
    fp = fingerprint(s)
    assert fp.to_bytes() == fingerprint(s).to_bytes()
    assert isinstance(fp, Fingerprint)
    assert len(fp.digest()) == 16


def test_find_isomorphism_identity():
    s = AffineSemigroup(((1, 0), (1, 1), (1, 2)), 2)
    cert = find_isomorphism(s, s)
    assert cert is not None
    assert cert.matrix == identity(2)
    assert verify_certificate(s, s, cert)


def test_find_isomorphism_on_twists():
    rng = random.Random(502)
    for _ in range(25):
        dim = rng.choice((2, 3))
        s = _random_saturated(rng, dim, dim + 2)
        u = random_unimodular(rng, dim)
        t = _twist(s, u)
        cert = find_isomorphism(s, t)
        assert cert is not None
        assert verify_certificate(s, t, cert)
        for v, image in cert.mapping:
            assert mat_apply(cert.matrix, v) == image
        # symmetry: the reverse direction also succeeds
        back = find_isomorphism(t, s)
        assert back is not None and verify_certificate(t, s, back)


def test_certificate_inversion_and_composition():
    rng = random.Random(503)
    for _ in range(15):
        dim = rng.choice((2, 3))
        s = _random_saturated(rng, dim, dim + 2)
        u = random_unimodular(rng, dim)
        t = _twist(s, u)
        cert = find_isomorphism(s, t)
        inv = invert_certificate(t, cert)
        assert verify_certificate(t, s, inv)
        assert mat_mul(inv.matrix, cert.matrix) == identity(dim)
        # compose s -> t -> s
        composed = certificate_for_matrix(s, mat_mul(inv.matrix, cert.matrix))
        assert verify_certificate(s, s, composed)


def test_non_equivalent_pairs():
    a = AffineSemigroup(((1, 0), (0, 1)), 2)
    b = AffineSemigroup(((1, 0), (1, 1), (1, 2)), 2)
    assert find_isomorphism(a, b) is None
    c = AffineSemigroup(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3)
    assert find_isomorphism(a, c) is None  # dimension mismatch
    # same Hilbert count, different facet counts
    d = AffineSemigroup(saturation_hilbert_basis(Cone(((1, 0), (1, 3)), 2)), 2)
    e = AffineSemigroup(((1, 0), (1, 1), (0, 1), (2, 1)), 2)
    if len(d.hilbert_basis()) == len(e.hilbert_basis()):
        assert find_isomorphism(d, e) is None


def test_verify_certificate_rejects_bad_input():
    s = AffineSemigroup(((1, 0), (0, 1)), 2)
    good = find_isomorphism(s, s)
    doubled = tuple(tuple(2 * x for x in col) for col in good.matrix)
    assert not verify_certificate(s, s, IsoCertificate(doubled, good.mapping))
    swapped = IsoCertificate(good.matrix, tuple((v, (9, 9)) for v, _ in good.mapping))
    assert not verify_certificate(s, s, swapped)
    t = AffineSemigroup(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3)
    assert not verify_certificate(s, t, good)


def test_verify_certificate_rejects_forged_mapping():
    a = AffineSemigroup(((1, 0), (1, 1), (1, 2)), 2)
    good = certificate_for_matrix(a, identity(2))
    assert verify_certificate(a, a, good)
    assert verify_certificate(a, a, IsoCertificate(good.matrix, ()))
    extra = IsoCertificate(good.matrix, good.mapping + (((5, 5), (7, 7)),))
    assert not verify_certificate(a, a, extra)
    cut = IsoCertificate(good.matrix, good.mapping[:1])
    assert not verify_certificate(a, a, cut)
    repeated = IsoCertificate(good.matrix, good.mapping + good.mapping[:1])
    assert not verify_certificate(a, a, repeated)


@pytest.mark.parametrize(
    "matrix",
    [((1, 0, 0), (0, 1, 0)), ((1,), (0,)), ((1, 0), (0,)), ((1,), (0, 1))],
    ids=["3x2", "1x2", "ragged", "ragged-first"],
)
def test_verify_certificate_rejects_non_square_matrix(matrix):
    a = AffineSemigroup(((1, 0), (1, 1), (1, 2)), 2)
    assert not verify_certificate(a, a, IsoCertificate(matrix, ()))


def test_embedded_loop_pair():
    s = fixtures.source_semigroup()
    ch = chart(s, fixtures.chart_subset_vectors(), 3, normalize=False)
    cert = find_isomorphism(s, ch.chart_semigroup)
    assert cert is not None
    assert verify_certificate(s, ch.chart_semigroup, cert)
    fixture_cert = certificate_for_matrix(s, fixtures.LOOP_MATRIX)
    assert verify_certificate(s, ch.chart_semigroup, fixture_cert)


def test_fingerprint_mismatch_blocks_search():
    # hilbert-count mismatch returns before any backtracking
    a = AffineSemigroup(((1, 0), (0, 1)), 2)
    b = AffineSemigroup(((1, 0), (1, 1), (1, 2)), 2)
    assert fingerprint(a).hilbert_count != fingerprint(b).hilbert_count


# Reference for the cached minor table: one Bareiss determinant per subset.
def _per_subset_dets(vectors, d):
    return [det(mat(c)) for c in itertools.combinations(vectors, d)]


def _reference_fingerprint_bytes(s):
    h, rays, d = s.hilbert_basis(), s.cone.generators, s.dim
    if comb(len(h), d) <= _DET_SUBSET_CAP:
        source, dets = 0, _per_subset_dets(h, d)
    elif comb(len(rays), d) <= _DET_SUBSET_CAP:
        source, dets = 1, _per_subset_dets(rays, d)
    else:
        source, dets = 2, []
    fp = dataclasses.replace(
        fingerprint(s), det_source=source, det_multiset=tuple(sorted(map(abs, dets)))
    )
    return fp.to_bytes()


def _wide_semigroup():
    """Source 1: its 91 Hilbert elements make 4095 pairs, over the cap; its 2 rays make one."""
    return AffineSemigroup(saturation_hilbert_basis(Cone(((1, 0), (1, 90)), 2)), 2)


def _search_nodes(name, depth):
    cf = fixtures.BUILTIN_CONES[name]
    start = AffineSemigroup(saturation_hilbert_basis(Cone(cf.generators, cf.dim)), cf.dim)
    report = explore(start, cf.characteristic, max_depth=depth)
    return [(n.semigroup, cf.characteristic) for n in report.nodes.values()]


def test_minor_table_matches_per_subset_det():
    nodes = _search_nodes("B", 1) + _search_nodes("dim4char3", 2) + _search_nodes("reeves", 1)
    # every node of these searches, plus one semigroup whose determinants come from its rays
    nodes.append((_wide_semigroup(), 3))
    sources = set()
    for s, p in nodes:
        fp = fingerprint(s)
        assert fp.to_bytes() == _reference_fingerprint_bytes(s)
        sources.add(fp.det_source)
        h = s.hilbert_basis()
        subsets = zip(itertools.combinations(h, s.dim), _per_subset_dets(h, s.dim))
        assert tuple(ch.subset for ch in blowup_step(s, p)) == tuple(c for c, m in subsets if m % p)
    assert sources == {0, 1, 2}


def test_fingerprint_builds_no_minor_table_above_cap(monkeypatch):
    nodes = [s for s, _ in _search_nodes("B", 1)]
    big = [s for s in nodes if comb(len(s.hilbert_basis()), s.dim) > _DET_SUBSET_CAP]
    assert big

    def refuse(vectors, d):
        raise AssertionError("Hilbert basis minor table built above the cap")

    monkeypatch.setattr(semigroup, "minor_table", refuse)
    fresh = AffineSemigroup.from_hilbert_basis(big[0].hilbert_basis(), big[0].dim)
    assert fingerprint(fresh).det_source == 2
    assert fingerprint(_wide_semigroup()).det_source == 1
