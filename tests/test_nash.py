import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricnash import fixtures, nash
from toricnash.cone import NotPointedError
from toricnash.exactmath import InvalidCharacteristic, add, det_p, mat, sub, vec
from toricnash.nash import blowup_step, chart, chart_generators, g_set, vertex_charts
from toricnash.search import explore, load_graph
from toricnash.semigroup import AffineSemigroup, NotFullLatticeError, saturation_hilbert_basis
from toricnash.cone import Cone

from helpers import (
    CORPUS,
    apply_matrix,
    random_pointed_gens,
    random_unimodular,
    sympy_det,
    unimodular_matrices,
)


def _source():
    return fixtures.source_semigroup()


def test_g_set_validates_subset():
    s = _source()
    h = s.hilbert_basis()
    with pytest.raises(ValueError):
        g_set(s, h[:4], h[0], 3)  # wrong size
    with pytest.raises(ValueError):
        g_set(s, h[:5], h[6], 3)  # element not in subset
    bad = (vec((9, 9, 9, 9, 9)),) + h[:4]
    with pytest.raises(ValueError):
        g_set(s, bad, h[0], 3)  # subset not inside the Hilbert basis


def test_g_set_needs_nonzero_det():
    s = _source()
    # h1,h2,h3,h4 and h9 = h1+h2+h4-? — pick a dependent five-subset instead
    h = {i: fixtures.hv(i) for i in range(1, 10)}
    dependent = tuple(sorted((h[2], h[4], h[6], h[8], h[9])))
    if det_p(dependent, 3) == 0:
        with pytest.raises(ValueError):
            g_set(s, dependent, dependent[0], 3)


def test_chart_blocks_match_displayed_union():
    s = _source()
    subset = fixtures.chart_subset_vectors()
    for a, block in fixtures.REPLACEMENT_BLOCKS.items():
        got = g_set(s, subset, fixtures.hv(a), 3)
        want = tuple(sorted(sub(fixtures.hv(g), fixtures.hv(a)) for g in block))
        assert got == want


def test_chart_structure():
    s = _source()
    subset = fixtures.chart_subset_vectors()
    ch = chart(s, subset, 3)
    assert ch.det_value == 2
    assert ch.characteristic == 3
    assert ch.pointed
    assert ch.subset == subset
    h = s.hilbert_basis()
    assert [h.index(v) for v in ch.subset] == sorted(h.index(v) for v in subset)
    # generators = Hilbert basis of the source plus every difference block
    assert set(ch.generators) == set(fixtures.expected_chart_generators())
    for h in s.hilbert_basis():
        assert h in ch.chart_semigroup
    assert ch.normalized_chart is not None
    assert set(ch.normalized_chart.generators) == set(fixtures.expected_chart_hilbert())


def test_chart_rejects_zero_det():
    s = _source()
    h = {i: fixtures.hv(i) for i in range(1, 10)}
    for subset in itertools.combinations(sorted(h.values()), 5):
        if det_p(subset, 3) == 0:
            with pytest.raises(ValueError):
                chart(s, subset, 3)
            break
    else:
        pytest.fail("no dependent subset found")


@pytest.mark.parametrize("p", [-3, 1, 4, 9])
def test_chart_and_g_set_reject_nonprime_characteristic(p):
    # the subset has determinant -1, so only the characteristic can be at fault
    s = _source()
    subset = fixtures.chart_subset_vectors()
    with pytest.raises(InvalidCharacteristic):
        chart(s, subset, p)
    with pytest.raises(InvalidCharacteristic):
        g_set(s, subset, subset[0], p)
    assert chart(s, subset, 2, normalize=False).det_value == 1


@pytest.mark.parametrize("p", [-3, 1, 4, 9])
def test_blowup_step_rejects_nonprime_characteristic(p):
    # every minor is 0 mod 1, so a bare filter would return no charts for p = 1
    with pytest.raises(InvalidCharacteristic):
        blowup_step(_source(), p)


def test_blowup_step_counts():
    s = _source()
    charts = blowup_step(s, 3)
    expected = sum(
        1
        for subset in itertools.combinations(s.hilbert_basis(), 5)
        if sympy_det(subset) % 3 != 0
    )
    assert len(charts) == expected == 83
    assert sum(1 for c in charts if c.pointed) == 21
    # lexicographic subset order, no duplicates
    subsets = [c.subset for c in charts]
    assert subsets == sorted(subsets)
    assert len(set(subsets)) == len(subsets)


def test_blowup_smooth_cone_trivial():
    s = AffineSemigroup(((1, 0), (0, 1)), 2)
    charts = blowup_step(s, 0)
    assert len(charts) == 1
    ch = charts[0]
    assert ch.pointed
    assert set(ch.generators) == {(1, 0), (0, 1)}
    assert ch.normalized_chart is not None
    assert set(ch.normalized_chart.generators) == {(1, 0), (0, 1)}


def test_blowup_requires_pointed_and_full_lattice():
    with pytest.raises(NotPointedError):
        blowup_step(AffineSemigroup(((1,), (-1,)), 1), 0)
    with pytest.raises(NotFullLatticeError):
        blowup_step(AffineSemigroup(((2, 0), (0, 2)), 2), 0)


def test_chart_and_g_set_require_full_lattice():
    s = AffineSemigroup(((2, 0), (0, 2), (1, 1)), 2)  # lattice of index 2
    with pytest.raises(NotFullLatticeError):
        blowup_step(s, 3)
    with pytest.raises(NotFullLatticeError):
        chart(s, [(2, 0), (0, 2)], 3)
    with pytest.raises(NotFullLatticeError):
        g_set(s, [(2, 0), (0, 2)], (2, 0), 3)


def test_nonpointed_charts_are_flagged():
    charts = blowup_step(_source(), 3)
    flags = {tuple(c.subset): c.pointed for c in charts}
    assert False in flags.values() and True in flags.values()
    for c in charts:
        if not c.pointed:
            assert c.normalized_chart is None
            assert not c.chart_semigroup.is_pointed


def test_blowup_skips_normalization_when_asked():
    charts = blowup_step(_source(), 3, normalized=False)
    assert all(c.normalized_chart is None for c in charts)


def test_chart_equivariance_under_unimodular_maps():
    # the construction commutes with lattice automorphisms
    rng = random.Random(401)
    for _ in range(10):
        gens = random_pointed_gens(rng, 2, 4)
        cone = Cone(gens, 2)
        s = AffineSemigroup(saturation_hilbert_basis(cone), 2)
        if not s.generates_full_lattice():
            continue
        u = random_unimodular(rng, 2)
        gens_u = [apply_matrix(u, g) for g in s.generators]
        su = AffineSemigroup(gens_u, 2)
        charts = blowup_step(s, 0, normalized=False)
        charts_u = blowup_step(su, 0, normalized=False)
        images = {frozenset(apply_matrix(u, g) for g in c.generators) for c in charts}
        assert {frozenset(c.generators) for c in charts_u} == images


def test_char_zero_and_prime_can_differ():
    s = _source()
    assert len(blowup_step(s, 0)) == len(blowup_step(s, 3)) == 83
    assert len(blowup_step(s, 2)) != 83  # the ±2 determinants vanish mod 2


# Reference: the definitions read directly -- one Bareiss determinant per
# (h, g) replacement and a full Cone for every pointedness verdict.
def _reference_g_set(s, a, h, p):
    idx = a.index(h)
    out = []
    for g in s.hilbert_basis():
        if g in a:
            continue
        cols = list(a)
        cols[idx] = g
        if det_p(tuple(cols), p) != 0:
            out.append(sub(g, h))
    return tuple(sorted(out))


def _assert_same_cone(got, ref):
    assert got.dim == ref.dim
    assert got.generators == ref.generators
    assert got.facet_normals == ref.facet_normals
    assert got.span_equations == ref.span_equations
    assert got.is_pointed == ref.is_pointed


def _assert_charts_match_reference(s, p):
    """blowup_step and the one-chart chart() against the reference, chart by chart.

    blowup_step must build no chart's replacement sets, generators or
    semigroup: the Newton polyhedron settles every verdict, and a pointed
    chart's normalization is the saturation of a Cone read off its edges,
    which must equal the Cone of the reference generators.
    """
    h = s.hilbert_basis()
    charts = iter(blowup_step(s, p))
    for a in itertools.combinations(h, s.dim):
        dp = det_p(mat(a), p)
        if dp == 0:
            continue
        ch = next(charts)
        assert not {"g_sets", "generators", "chart_semigroup"} & set(vars(ch))
        gsets = {v: _reference_g_set(s, a, v, p) for v in a}
        gens = tuple(sorted(set(h).union(*gsets.values())))
        cone = Cone(gens, s.dim)
        if cone.is_pointed:
            _assert_same_cone(ch.normalized_chart.cone, cone)
        single = chart(s, a, p, normalize=False)
        for c in (ch, single):
            assert c.subset == a
            assert [h.index(v) for v in c.subset] == sorted(h.index(v) for v in a)
            assert c.det_value == dp
            assert c.g_sets == gsets
            assert c.generators == gens
            assert c.chart_semigroup.generators == gens
            assert c.pointed == cone.is_pointed
        assert single.normalized_chart is None
        assert {v: g_set(s, a, v, p) for v in a} == gsets
        if cone.is_pointed:
            assert ch.normalized_chart.hilbert_basis() == saturation_hilbert_basis(cone)
        else:
            assert ch.normalized_chart is None
    assert next(charts, None) is None


@pytest.mark.parametrize("name, depth", [("B", 1), ("dim4char3", 2), ("reeves", 1)])
def test_charts_match_reference_on_search_nodes(name, depth):
    cf = fixtures.BUILTIN_CONES[name]
    start = AffineSemigroup(saturation_hilbert_basis(Cone(cf.generators, cf.dim)), cf.dim)
    report = explore(start, cf.characteristic, max_depth=depth)
    expanded = [n for n in report.nodes.values() if n.depth < depth and not n.smooth]
    assert expanded
    for node in expanded:
        _assert_charts_match_reference(node.semigroup, cf.characteristic)


@st.composite
def _pointed_full_lattice_semigroups(draw):
    """Saturations of full-dimensional orthant cones: pointed, spanning Z^d."""
    dim = draw(st.integers(2, 3))
    vector = st.tuples(*[st.integers(0, 3)] * dim).filter(any)
    cone = Cone(draw(st.lists(vector, min_size=dim, max_size=dim + 2)), dim)
    assume(cone.is_full_dimensional)
    return AffineSemigroup(saturation_hilbert_basis(cone), dim)


@given(_pointed_full_lattice_semigroups(), st.sampled_from((0, 2, 3, 5)))
def test_charts_match_reference_on_drawn_semigroups(s, p):
    _assert_charts_match_reference(s, p)


@given(_pointed_full_lattice_semigroups(), st.sampled_from((0, 2, 3, 5)), st.data())
def test_blowup_step_commutes_with_unimodular_maps(s, p, data):
    u = data.draw(unimodular_matrices(s.dim))

    def image(vectors):
        return tuple(sorted(apply_matrix(u, v) for v in vectors))

    moved = AffineSemigroup(image(s.hilbert_basis()), s.dim)
    assert moved.hilbert_basis() == image(s.hilbert_basis())
    charts = {image(c.subset): c for c in blowup_step(s, p)}
    moved_charts = blowup_step(moved, p)
    assert len(moved_charts) == len(charts)
    for mc in moved_charts:
        c = charts[mc.subset]
        # U and the column order change the determinant's sign only
        assert mc.det_value in {c.det_value, -c.det_value % p if p else -c.det_value}
        assert mc.g_sets == {apply_matrix(u, h): image(diffs) for h, diffs in c.g_sets.items()}
        assert mc.generators == image(c.generators)
        assert mc.pointed == c.pointed
        if c.pointed:
            assert mc.normalized_chart.hilbert_basis() == image(c.normalized_chart.hilbert_basis())
        else:
            assert mc.normalized_chart is None


# Differential gate for the Newton polyhedron: every chart's verdict, and its
# semigroup's Cone (read off the polyhedron's edges when the chart is
# pointed), against a plain Cone of its generators.
def _assert_newton_verdicts(s, p, normalized=True):
    for ch in blowup_step(s, p, normalized=normalized):
        ref = Cone(ch.generators, s.dim)
        assert ch.pointed == ref.is_pointed
        _assert_same_cone(ch.chart_semigroup.cone, ref)
        if ch.pointed:
            assert ref.is_full_dimensional
            if normalized:
                _assert_same_cone(ch.normalized_chart.cone, ref)


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
@pytest.mark.parametrize("name, depth", [("B", 1), ("dim4char3", 3), ("reeves", 2)])
def test_newton_verdicts_match_reference_on_search_nodes(name, depth, p):
    cf = fixtures.BUILTIN_CONES[name]
    start = AffineSemigroup(saturation_hilbert_basis(Cone(cf.generators, cf.dim)), cf.dim)
    report = explore(start, p, max_depth=depth)
    expanded = [n for n in report.nodes.values() if n.depth < depth and not n.smooth]
    assert expanded
    for node in expanded:
        _assert_newton_verdicts(node.semigroup, p)


@st.composite
def _pointed_sources(draw):
    """(semigroup, saturated) in d 2..5, spanning Z^d, moved by a GL_d(Z) map.

    The saturation of an orthant cone, or, unsaturated, the semigroup its
    Hilbert basis spans with some elements off the extreme rays left out.
    At most d + 6 Hilbert elements keep the number of charts in the hundreds.
    """
    dim = draw(st.sampled_from((2, 3, 4, 4, 5, 5)))
    vector = st.tuples(*[st.integers(0, 3)] * dim).filter(any)
    cone = Cone(draw(st.lists(vector, min_size=dim, max_size=dim + 2)), dim)
    assume(cone.is_full_dimensional)
    h = saturation_hilbert_basis(cone)
    assume(len(h) <= dim + 6)
    inner = [g for g in h if g not in cone.generators]
    left_out = draw(st.sets(st.sampled_from(inner))) if inner else set()
    s = AffineSemigroup([g for g in h if g not in left_out], dim)
    assume(s.generates_full_lattice())
    u = draw(unimodular_matrices(dim))
    return AffineSemigroup([apply_matrix(u, g) for g in s.generators], dim), not left_out


@settings(max_examples=80)
@given(_pointed_sources(), st.sampled_from((0, 2, 3, 5)))
def test_newton_verdicts_match_reference_on_drawn_sources(source, p):
    s, saturated = source
    _assert_newton_verdicts(s, p, normalized=saturated)


# Differential gate for the lone chart(), which reads its verdict and a
# pointed chart's cone from the source's cached vertex_charts: at every live
# subset, not only at vertices, against a plain Cone of the chart's generators.
def _assert_lone_charts_match_plain_cones(s, p):
    h = s.hilbert_basis()
    for members in itertools.combinations(range(len(h)), s.dim):
        subset = [h[i] for i in members]
        if not det_p(mat(subset), p):
            continue
        ch = chart(s, subset, p)
        ref = Cone(chart_generators(s, members, p), s.dim)
        assert ch.pointed == ref.is_pointed
        if ch.pointed:
            _assert_same_cone(ch.cone, ref)
            assert ch.normalized_chart.hilbert_basis() == saturation_hilbert_basis(ref)
        else:
            assert ch.cone is None and ch.normalized_chart is None


@pytest.mark.parametrize("name", ["B", "dim4char3", "reeves"])
def test_lone_charts_match_plain_cones_on_fixtures(name):
    cf = fixtures.BUILTIN_CONES[name]
    s = AffineSemigroup(saturation_hilbert_basis(Cone(cf.generators, cf.dim)), cf.dim)
    for p in (0, 2, 3, 5, 7):  # one semigroup for all p: what it keeps is kept per p
        _assert_lone_charts_match_plain_cones(s, p)


@settings(max_examples=60)
@given(_pointed_sources(), st.sampled_from((0, 2, 3, 5)))
def test_lone_charts_match_plain_cones_on_drawn_sources(source, p):
    _assert_lone_charts_match_plain_cones(source[0], p)


def _saturated(gens, dim):
    return AffineSemigroup(saturation_hilbert_basis(Cone(gens, dim)), dim)


def test_pointed_charts_with_non_simplicial_cones():
    # In characteristic 2 the Newton polyhedron of cone((1,0,0), (0,1,0),
    # (1,1,2)) has three vertices, and four edges meet at each of them.
    s = _saturated([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3)
    charts = {ch.subset: ch for ch in blowup_step(s, 2)}
    ch = charts[(0, 1, 0), (1, 0, 0), (1, 1, 1)]  # v_A = (2, 2, 1)
    assert ch.normalized_chart.cone.generators == ((0, 1, 0), (0, 1, 2), (1, 0, 0), (1, 0, 2))
    assert ch.normalized_chart.cone.facet_normals == ((0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 2, -1))
    assert all(len(c.normalized_chart.cone.generators) == 4 for c in charts.values())
    _assert_newton_verdicts(s, 2)


def test_chart_inside_an_edge_of_the_newton_polyhedron_is_not_pointed():
    # v_A = (1, 2, 2) is the midpoint of the bounded edge between the vertices
    # (1, 2, 1) and (1, 2, 3), whose primitive direction is (0, 0, 1).
    s = _saturated([(1, 0, 0), (0, 1, 0), (0, 1, 2)], 3)
    charts = {ch.subset: ch for ch in blowup_step(s, 0)}
    mid = charts[(0, 1, 0), (0, 1, 2), (1, 0, 0)]
    assert not mid.pointed and mid.normalized_chart is None
    assert not mid.chart_semigroup.is_pointed
    low = charts[(0, 1, 0), (0, 1, 1), (1, 0, 0)]  # v_A = (1, 2, 1)
    high = charts[(0, 1, 1), (0, 1, 2), (1, 0, 0)]  # v_A = (1, 2, 3)
    assert low.normalized_chart.cone.generators == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert high.normalized_chart.cone.generators == ((0, 0, -1), (0, 1, 2), (1, 0, 0))
    _assert_newton_verdicts(s, 0)


# Differential gate for the vertex filter: vertex_charts feeds K's double
# description only the live sums that are not the midpoint of two single
# exchanges, and must give the table built from every distinct live sum.
def _unfiltered_vertex_charts(s, p):
    step = nash._Step(s, p)
    sums = nash._live_sums(step.h, step.live())
    cones = nash._tangent_cones(sorted(sums), s.cone)
    return dict(sorted((nash._positions(sums[v]), cone) for v, cone in cones.items()))


def _same_charts(got, want):
    return list(got) == list(want) and all(
        (got[m].generators, got[m].facet_normals) == (want[m].generators, want[m].facet_normals)
        for m in want
    )


def _differential_sources(name):
    if name == "fixtures":
        return [_saturated(cf.generators, cf.dim) for cf in fixtures.BUILTIN_CONES.values()]
    return [n.semigroup for n in load_graph(str(CORPUS / f"{name}.graph")).nodes.values()]


@pytest.mark.parametrize("name", ["fixtures", "B", "dim4char3", "reeves"])
def test_vertex_charts_match_every_live_sum_on_fixtures_and_corpus_nodes(name):
    for s in _differential_sources(name):
        for p in (0, 2, 3, 5, 7):
            want = _unfiltered_vertex_charts(s, p)
            assert _same_charts(vertex_charts(s, p), want)


@settings(max_examples=60)
@given(_pointed_sources(), st.sampled_from((0, 2, 3, 5, 7)))
def test_vertex_charts_match_every_live_sum_on_drawn_sources(source, p):
    s = source[0]
    want = _unfiltered_vertex_charts(s, p)
    assert _same_charts(vertex_charts(s, p), want)


def test_a_filter_that_drops_a_vertex_fails_the_differential_test(monkeypatch):
    cf = fixtures.BUILTIN_CONES["B"]
    s = _saturated(cf.generators, cf.dim)
    want = _unfiltered_vertex_charts(s, 3)
    h = s.hilbert_basis()
    vertex = tuple(map(sum, zip(*(h[i] for i in next(iter(want))))))
    keep = nash._Step.vertex_candidates
    monkeypatch.setattr(
        nash._Step, "vertex_candidates", lambda step, sums: [v for v in keep(step, sums) if v != vertex]
    )
    assert not _same_charts(vertex_charts(s, 3), want)


def _midpoint_cases(s, p):
    """Check each dropped live sum on vectors; return the cases that drop them.

    A dropped v_B must be the midpoint of two distinct live sums B - i + j
    and B - k + l (or B - i + l and B - k + j) with h_i + h_k = h_j + h_l,
    each swap's determinant taken afresh; the cases are i = k, j = l and
    the general one.
    """
    step = nash._Step(s, p)
    sums = nash._live_sums(step.h, step.live())
    kept = step.vertex_candidates(sums)
    assert kept == sorted(set(kept)) and set(kept) <= set(sums)
    h = s.hilbert_basis()
    cases = set()
    for v in set(sums).difference(kept):
        inside = [h[i] for i in nash._positions(sums[v])]
        outside = [g for g in h if g not in inside]

        def swap(out, into):
            return [x for x in inside if x != out] + [into]

        found = set()
        for i, k in itertools.combinations_with_replacement(inside, 2):
            for j, l in itertools.combinations_with_replacement(outside, 2):
                if add(i, k) != add(j, l):
                    continue
                for a, b in ((j, l), (l, j)):
                    x, y = swap(i, a), swap(k, b)
                    if det_p(mat(x), p) and det_p(mat(y), p):
                        vx, vy = (tuple(map(sum, zip(*e))) for e in (x, y))
                        assert vx != vy and {vx, vy} <= set(sums)
                        assert add(vx, vy) == tuple(2 * c for c in v)
                        found.add("i = k" if i == k else "j = l" if j == l else "general")
        assert found, v
        cases |= found
    return cases


def test_every_dropped_sum_is_a_midpoint_in_each_case():
    cases = set()
    for cf in fixtures.BUILTIN_CONES.values():
        s = _saturated(cf.generators, cf.dim)
        for p in (0, 2, 3, 5, 7):
            cases |= _midpoint_cases(s, p)
    assert cases == {"i = k", "j = l", "general"}


@settings(max_examples=60)
@given(_pointed_sources(), st.sampled_from((0, 2, 3, 5, 7)))
def test_every_dropped_sum_is_a_midpoint_on_drawn_sources(source, p):
    _midpoint_cases(source[0], p)


def test_the_newton_cone_is_fed_few_points_on_a_short_search(monkeypatch):
    # every distinct live sum, 537 points in 10 double descriptions, went to K before the filter
    fed = []
    tangent_cones = nash._tangent_cones
    monkeypatch.setattr(
        nash, "_tangent_cones", lambda points, sigma: fed.append(len(points)) or tangent_cones(points, sigma)
    )
    cf = fixtures.BUILTIN_CONES["dim4char3"]
    report = explore(_saturated(cf.generators, cf.dim), 3, max_depth=3)
    assert (len(report.nodes), len(report.edges), len(fed)) == (24, 78, 10)
    assert sum(fed) <= 300
