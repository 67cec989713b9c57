import dataclasses
import functools
import itertools
import random
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricnash import fixtures, iso, semigroup
from toricnash.cone import Cone, NotFullDimensionalError, NotPointedError
from toricnash.exactmath import (
    det,
    dot,
    identity,
    independent_indices,
    is_unimodular,
    mat,
    mat_apply,
    mat_mul,
    primitive,
    solve,
)
from toricnash.iso import (
    _DET_SUBSET_CAP,
    Fingerprint,
    Frame,
    IsoCertificate,
    certificate_for_matrix,
    find_isomorphism,
    fingerprint,
    verify_certificate,
)
from toricnash.nash import blowup_step, chart, vertex_charts
from toricnash.search import _ClassIndex, explore, load_graph
from toricnash.semigroup import AffineSemigroup, saturation_hilbert_basis

from helpers import (
    CORPUS,
    apply_matrix,
    random_pointed_gens,
    random_unimodular,
    unimodular_matrices,
)


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
        assert fingerprint(s).to_bytes() == fingerprint(_twist(s, u)).to_bytes()


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
        d, adj = solve(cert.matrix, identity(dim))  # the inverse is adj / d, d = +-1
        inv = certificate_for_matrix(t, tuple(tuple(d * e for e in col) for col in adj))
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
    assert not verify_certificate(s, s, IsoCertificate(doubled))
    t = AffineSemigroup(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3)
    assert not verify_certificate(s, t, good)


def test_verify_certificate_applies_the_matrix_lazily(monkeypatch):
    """At most |H(a)| images, and none after the first one outside H(b)."""
    a = AffineSemigroup(((1, 0), (1, 1), (1, 2)), 2)
    applied = []
    monkeypatch.setattr(iso, "mat_apply", lambda m, v: applied.append(v) or mat_apply(m, v))
    for columns, verdict, images in [
        (identity(2), True, 3),
        (((1, -1), (0, 1)), False, 1),  # (1, 0) -> (1, -1) at once
        (((1, 1), (0, 1)), False, 3),  # (1, 2) -> (1, 3), the last image, is the miss
    ]:
        applied.clear()
        assert verify_certificate(a, a, IsoCertificate(columns)) is verdict
        assert len(applied) == images


@pytest.mark.parametrize(
    "matrix",
    [((1, 0, 0), (0, 1, 0)), ((1,), (0,)), ((1, 0), (0,)), ((1,), (0, 1))],
    ids=["3x2", "1x2", "ragged", "ragged-first"],
)
def test_verify_certificate_rejects_non_square_matrix(matrix):
    a = AffineSemigroup(((1, 0), (1, 1), (1, 2)), 2)
    assert not verify_certificate(a, a, IsoCertificate(matrix))


def test_embedded_loop_pair():
    s = fixtures.source_semigroup()
    ch = chart(s, fixtures.chart_subset_vectors(), 3, normalize=False)
    cert = find_isomorphism(s, ch.chart_semigroup)
    assert cert is not None
    assert verify_certificate(s, ch.chart_semigroup, cert)
    fixture_cert = certificate_for_matrix(s, fixtures.LOOP_MATRIX)
    assert verify_certificate(s, ch.chart_semigroup, fixture_cert)


def test_fingerprint_mismatch_blocks_search(monkeypatch):
    # same dimension and Hilbert count, different keys: None before any solve
    a = AffineSemigroup(((1, 0), (1, 1), (1, 2)), 2)
    b = AffineSemigroup(((1, 0), (1, 1), (0, 2)), 2)
    assert len(a.hilbert_basis()) == len(b.hilbert_basis()) == 3
    assert Frame(a.hilbert_basis(), a.cone).key != Frame(b.hilbert_basis(), b.cone).key

    def refuse(*args):
        raise AssertionError("solve ran although the signature keys differ")

    monkeypatch.setattr(iso, "solve", refuse)
    assert find_isomorphism(a, b) is None
    assert find_isomorphism(b, a) is None


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


def _per_entry_bytes(fp):
    """Fingerprint.to_bytes as first written: every integer encoded on its own."""

    def one(n):
        body = abs(n).to_bytes((abs(n).bit_length() + 7) // 8 or 1, "big")
        return (b"-" if n < 0 else b"+") + len(body).to_bytes(4, "big") + body

    def many(ns):
        return one(len(ns)) + b"".join(one(n) for n in ns)

    return b"".join([
        one(fp.dim), one(fp.hilbert_count), one(fp.ray_count), one(fp.facet_count),
        many([e for pair in fp.element_profiles for e in pair]),
        many([e for pair in fp.facet_profiles for e in pair]),
        one(fp.det_source), many(fp.det_multiset),
    ])


@pytest.mark.parametrize("name", ["B", "dim4char3", "reeves"])
def test_fingerprint_bytes_match_the_per_entry_encoding(name):
    report = load_graph(str(CORPUS / f"{name}.graph"))
    runs = 0
    for node in report.nodes.values():
        fp = fingerprint(node.semigroup)
        assert fp.to_bytes() == _per_entry_bytes(fp)
        runs += len(set(fp.det_multiset)) < len(fp.det_multiset)
    assert runs  # some multiset repeats entries, so runs are encoded


def _wide_semigroup():
    """Source 1: its 91 Hilbert elements make 4095 pairs, over the cap; its 2 rays make one."""
    return AffineSemigroup(saturation_hilbert_basis(Cone(((1, 0), (1, 90)), 2)), 2)


@functools.cache
def _search(name, depth):
    cf = fixtures.BUILTIN_CONES[name]
    start = AffineSemigroup(saturation_hilbert_basis(Cone(cf.generators, cf.dim)), cf.dim)
    return explore(start, cf.characteristic, max_depth=depth), cf.characteristic


def _search_nodes(name, depth):
    report, p = _search(name, depth)
    return [(n.semigroup, p) for n in report.nodes.values()]


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


# ---------------------------------------------------------------------------
# signatures against an independent recomputation, and the lower-dimensional case
# ---------------------------------------------------------------------------


def _on_extreme_ray(h, rays):
    """h is a positive multiple of one of the rays."""
    return any(
        dot(h, r) > 0 and all(h[i] * r[j] == h[j] * r[i] for i in range(len(h)) for j in range(len(h)))
        for r in rays
    )


def _reference_signatures(s):
    c = s.cone
    of = {
        h: (int(_on_extreme_ray(h, c.generators)), tuple(sorted(dot(n, h) for n in c.facet_normals)))
        for h in s.hilbert_basis()
    }
    by = {}
    for h in s.hilbert_basis():
        by.setdefault(of[h], []).append(h)
    return (s.dim, tuple(sorted(of.values()))), of, by


def test_signatures_match_reference():
    nodes = _search_nodes("B", 1) + _search_nodes("dim4char3", 2)
    nodes.append((AffineSemigroup(((2, 0), (3, 0), (0, 1), (1, 1)), 2), 0))  # two elements on one ray
    frames = [Frame(s.hilbert_basis(), s.cone) for s, _ in nodes]
    assert any(0 in (sig[0] for sig in f.of.values()) for f in frames)
    for (s, _), f in zip(nodes, frames):
        assert (f.key, f.of, f.by) == _reference_signatures(s)


def test_a_frame_refuses_a_cone_with_a_line_and_a_lower_dimensional_cone():
    with pytest.raises(NotPointedError):
        Frame([(1, 0), (-1, 0), (0, 1)], Cone([(1, 0), (-1, 0), (0, 1)], 2))
    flat = Cone([(1, 0, 0), (0, 1, 0)], 3)
    with pytest.raises(NotFullDimensionalError, match="only for full-dimensional cones"):
        Frame(flat.generators, flat)


def test_lower_dimensional_semigroups_are_refused():
    a = AffineSemigroup(((1, 0, 0), (0, 1, 0)), 3)
    b = AffineSemigroup(((1, 0, 0), (0, 0, 1)), 3)
    assert fingerprint(a) == fingerprint(b)  # equivalent by swapping e2 and e3
    with pytest.raises(NotFullDimensionalError):
        find_isomorphism(a, b)
    with pytest.raises(NotFullDimensionalError):
        find_isomorphism(b, a)
    # equal Hilbert bases are the identity in any dimension
    same = find_isomorphism(a, AffineSemigroup(((0, 1, 0), (1, 0, 0)), 3))
    assert same is not None and same.matrix == identity(3)


# ---------------------------------------------------------------------------
# differential gate: the former routine, fingerprint compare and profile filter
# ---------------------------------------------------------------------------


def _former_profile(v, cone):
    return (
        1 if primitive(v) in cone.generators else 0,
        sum(1 for n in cone.facet_normals if dot(n, v) == 0),
    )


def _former_find_isomorphism(a, b):
    """find_isomorphism as it was: candidates filtered by (ray flag, incidence count)."""
    if a.dim != b.dim:
        return None
    ha, hb = a.hilbert_basis(), b.hilbert_basis()
    if len(ha) != len(hb):
        return None
    if set(ha) == set(hb):
        return certificate_for_matrix(a, identity(a.dim))
    if fingerprint(a) != fingerprint(b):
        return None
    d = a.dim
    try:
        base = [ha[i] for i in independent_indices(ha, d)]
    except ValueError:
        return None
    profile_b = {w: _former_profile(w, b.cone) for w in hb}
    candidates = [[w for w in hb if profile_b[w] == _former_profile(v, a.cone)] for v in base]
    base_det, base_adj = solve(mat(base), identity(d))
    hb_set = set(hb)

    def assemble(images):
        numer = mat_mul(mat(images), base_adj)
        if any(e % base_det for col in numer for e in col):
            return None
        m = tuple(tuple(e // base_det for e in col) for col in numer)
        if not is_unimodular(m) or {mat_apply(m, h) for h in ha} != hb_set:
            return None
        return certificate_for_matrix(a, m)

    def backtrack(i, picked):
        if i == d:
            return assemble(picked)
        for w in candidates[i]:
            if w not in picked:
                found = backtrack(i + 1, picked + [w])
                if found is not None:
                    return found
        return None

    return backtrack(0, [])


def _assert_same_answer(a, b):
    new, old = find_isomorphism(a, b), _former_find_isomorphism(a, b)
    assert (new is None) == (old is None)
    if new is not None:
        assert new.matrix == old.matrix
        assert verify_certificate(a, b, new)
    return new


_GATE_SEARCHES = [("B", 2), ("dim4char3", 4), ("reeves", 3)]


@pytest.mark.parametrize("name, depth", _GATE_SEARCHES)
def test_differential_node_pairs(name, depth):
    report, _ = _search(name, depth)
    nodes = [report.nodes[k].semigroup for k in sorted(report.nodes)]
    for a, b in itertools.product(nodes, repeat=2):
        assert (_assert_same_answer(a, b) is not None) == (a is b)


@pytest.mark.parametrize("name, depth", _GATE_SEARCHES)
def test_differential_chart_targets(name, depth):
    report, p = _search(name, depth)
    cert_of = {(e.src, e.subset): (e.dst, e.certificate) for e in report.edges}
    checked = 0
    for key in sorted(report.nodes):
        if key in report.frontier or report.nodes[key].smooth:
            continue
        for subset, cone in vertex_charts(report.nodes[key].semigroup, p).items():
            target = AffineSemigroup.from_cone(cone)
            dst, matrix = cert_of[(key, subset)]
            cert = _assert_same_answer(target, report.nodes[dst].semigroup)
            assert cert.matrix == matrix
            checked += 1
    assert checked == len(report.edges)


@pytest.mark.parametrize("name, depth", _GATE_SEARCHES)
def test_cone_lookup_matches_semigroup_lookup(name, depth):
    """Every pointed chart of every unsmooth node, found by its cone alone.

    The reference saturates the chart and scans every node in filing order
    with find_isomorphism; the lookup by rays must name the same node with
    the same certificate matrix, which is the edge's for an expanded node,
    and must miss exactly when the reference does (charts of frontier
    nodes).  The lookup by Hilbert bases must name the same node.
    """
    report, p = _search(name, depth)
    index, plain, nodes = _ClassIndex(True), _ClassIndex(False), report.nodes
    for key, node in nodes.items():
        index.insert(node.semigroup, key)
        plain.insert(node.semigroup, key)
    cert_of = {(e.src, e.subset): (e.dst, e.certificate) for e in report.edges}
    hits = misses = 0
    for key in sorted(nodes):
        if nodes[key].smooth:
            continue
        for subset, cone in vertex_charts(nodes[key].semigroup, p).items():
            target = AffineSemigroup.from_cone(cone)
            want = next(
                ((k, c) for k in nodes if (c := find_isomorphism(target, nodes[k].semigroup))),
                (None, None),
            )
            got = index.locate(cone.generators, cone)
            assert got[0] == want[0] == plain.locate(target.hilbert_basis(), cone)[0]
            if want[0] is None:
                assert key in report.frontier
                misses += 1
                continue
            assert got[1] == want[1].matrix
            if key not in report.frontier:
                assert cert_of[(key, subset)] == got
            hits += 1
    assert hits >= len(report.edges) and misses


_full_dimensional_sources = st.integers(2, 5).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(st.tuples(*[st.integers(0, 2)] * d).filter(any), min_size=d, max_size=d + 1),
    )
)


@settings(max_examples=40)
@given(source=_full_dimensional_sources, data=st.data())
def test_differential_unimodular_images(source, data):
    d, gens = source
    c = Cone(gens, d)
    assume(c.is_full_dimensional)
    a = AffineSemigroup(saturation_hilbert_basis(c), d)
    u = data.draw(unimodular_matrices(d))
    b = AffineSemigroup([apply_matrix(u, h) for h in a.hilbert_basis()], d)
    assert _assert_same_answer(a, b) is not None
    assert _assert_same_answer(b, a) is not None
    # a sublattice of index 2 has the same cone and never an equivalent Hilbert basis
    doubled = AffineSemigroup([tuple(2 * x for x in h) for h in b.hilbert_basis()], d)
    assert _assert_same_answer(a, doubled) is None


def test_non_unimodular_map_between_equal_keys_is_refused():
    # (1,0) -> (2,0), (1,2) -> (0,2) preserves every signature, with determinant 2
    a = AffineSemigroup(((1, 0), (1, 2)), 2)
    b = AffineSemigroup(((2, 0), (0, 2)), 2)
    assert Frame(a.hilbert_basis(), a.cone).key == Frame(b.hilbert_basis(), b.cone).key
    assert find_isomorphism(a, b) is None
    assert _former_find_isomorphism(a, b) is None
