import importlib
import itertools
import json
import pkgutil
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import toricnash
from toricnash.cone import (
    Cone,
    _triangulate_rays,
    double_description,
    dual_description,
)
from toricnash.exactmath import (
    DimensionMismatch,
    det,
    dot,
    hermite_form,
    identity,
    independent_indices,
    mat,
    mat_apply,
    neg,
    orthogonal_complement,
    primitive,
    solve,
    vec,
)
from toricnash.fixtures import BUILTIN_CONES
from toricnash.semigroup import AffineSemigroup, saturation_hilbert_basis

from helpers import (
    CORPUS,
    apply_matrix,
    embedded_pointed_cones,
    oracle_facets,
    random_pointed_gens,
    sympy_rank,
    unimodular_matrices,
)


def _interior(c, x):
    """Is x in the relative interior of c: on its span and off every facet?"""
    return c.contains(x) and all(dot(n, x) > 0 for n in c.facet_normals)


def test_quadrant():
    c = Cone(((1, 0), (0, 1)), 2)
    assert c.is_pointed and c.is_full_dimensional
    assert c.generators == ((0, 1), (1, 0))
    assert set(c.facet_normals) == {(0, 1), (1, 0)}
    assert c.span_equations == ()


def test_halfplane_has_lineality():
    c = Cone(((1, 0), (0, 1), (0, -1)), 2)
    assert not c.is_pointed
    assert c.is_full_dimensional
    assert c.contains((0, 1)) and c.contains((0, -1))
    assert set(c.facet_normals) == {(1, 0)}


def test_full_space_cone():
    c = Cone(((1, 0), (-1, 0), (0, 1), (0, -1)), 2)
    assert not c.is_pointed
    assert c.facet_normals == ()
    assert c.contains((-5, 7))


@pytest.mark.parametrize("point", [(1, 2, 3), (1,), ()])
def test_membership_rejects_wrong_length(point):
    c = Cone(((1, 0), (-1, 0), (0, 1), (0, -1)), 2)  # no normals, no equations
    with pytest.raises(DimensionMismatch):
        c.contains(point)


def test_low_dimensional_cone():
    # a ray inside 3-space: one span equation pair cuts it down
    c = Cone(((2, 4, 0),), 3)
    assert c.is_pointed
    assert not c.is_full_dimensional
    assert c.generators == ((1, 2, 0),)
    assert all(dot(eq, (1, 2, 0)) == 0 for eq in c.span_equations)
    assert sympy_rank(c.span_equations) == 2
    assert c.contains((3, 6, 0))
    assert not c.contains((1, 2, 1))
    assert not c.contains((-1, -2, 0))


def test_zero_cone():
    c = Cone((), 3)
    assert c.is_pointed
    assert c.generators == ()
    assert c.contains((0, 0, 0))
    assert not c.contains((1, 0, 0))


def test_facets_against_oracle():
    rng = random.Random(201)
    for _ in range(60):
        dim = rng.choice((2, 3))
        gens = random_pointed_gens(rng, dim, rng.randint(dim, dim + 3))
        c = Cone(gens, dim)
        assert set(c.facet_normals) == set(oracle_facets(gens))


def test_extreme_rays_minimal():
    rng = random.Random(202)
    for _ in range(40):
        dim = rng.choice((2, 3, 4))
        gens = random_pointed_gens(rng, dim, rng.randint(dim, dim + 4))
        c = Cone(gens, dim)
        prim = {primitive(g) for g in gens}
        assert set(c.generators) <= prim
        # dropping any extreme ray loses it
        for r in c.generators:
            rest = [g for g in c.generators if g != r]
            assert not Cone(rest, dim).contains(r)
        # and the extreme rays alone rebuild the same cone
        assert Cone(c.generators, dim) == c


def test_contains_generated_points():
    rng = random.Random(203)
    for _ in range(40):
        dim = rng.choice((2, 3))
        gens = random_pointed_gens(rng, dim, dim + 2)
        c = Cone(gens, dim)
        for _ in range(10):
            coeffs = [rng.randint(0, 4) for _ in gens]
            pt = vec(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim))
            assert c.contains(pt)
        interior = vec(sum(g[i] for g in c.generators) for i in range(dim))
        assert _interior(c, interior)
        for r in c.generators:
            if len(c.facet_normals) >= dim:  # rays sit on facets of pointed full cones
                assert not _interior(c, r)


def test_dual_description_consistency():
    rng = random.Random(205)
    for _ in range(40):
        dim = rng.choice((2, 3))
        gens = random_pointed_gens(rng, dim, dim + 2)
        # the cone, and its copy in the hyperplane x_(dim+1) = 0 of R^(dim+1),
        # each with a multiple of a generator and a zero vector added
        for vectors, eqs in ((gens, ()), ([(*g, 0) for g in gens], (identity(dim + 1)[-1],))):
            vectors = [*vectors, tuple(2 * x for x in vectors[0]), (0,) * len(vectors[0])]
            span_equations, facets = dual_description(vectors, len(vectors[0]))
            assert span_equations == eqs
            for n, tight in facets.items():
                assert primitive(n) == n and not any(dot(n, e) for e in eqs)
                assert all(dot(n, v) >= 0 for v in vectors)
                assert tight == sum(1 << j for j, v in enumerate(vectors) if not dot(n, v))
        assert {n[:dim] for n in facets} == set(dual_description(gens, dim)[1])


# --- differential gate: one double description against the former two ---


def _reference_dd_rays(constraints, dim):
    """The double description as it was before tight sets were inherited:
    every new ray's tight set is recomputed against all constraints so far."""
    base = [constraints[i] for i in independent_indices(constraints, dim)]
    ordered = base + [c for c in constraints if c not in base]

    def tight_mask(r, upto):
        return sum(1 << i for i in range(upto) if dot(ordered[i], r) == 0)

    d0, adj = solve(mat(tuple(zip(*base))), identity(dim))
    s = 1 if d0 > 0 else -1
    rays = [primitive(tuple(s * e for e in col)) for col in adj]
    tight = {r: tight_mask(r, dim) for r in rays}
    for k in range(dim, len(ordered)):
        vals = {r: dot(ordered[k], r) for r in rays}
        plus = [r for r in rays if vals[r] > 0]
        zero = [r for r in rays if vals[r] == 0]
        fresh = []
        for u in plus:
            for v in (r for r in rays if vals[r] < 0):
                common = tight[u] & tight[v]
                if any(tight[w] & common == common for w in rays if w not in (u, v)):
                    continue
                w = primitive(tuple(vals[u] * b - vals[v] * a for a, b in zip(u, v)))
                if w not in fresh:
                    fresh.append(w)
        rays = plus + zero + fresh
        tight = {r: tight_mask(r, k + 1) for r in rays}
    return tuple(sorted(set(rays)))


def _reference_dual_description(vectors, dim):
    vs = sorted({primitive(v) for v in vectors if any(v)})
    if not vs:
        return identity(dim), ()
    lin = orthogonal_complement(vs, dim)
    if not lin:
        return (), _reference_dd_rays(vs, dim)
    span_basis = orthogonal_complement(lin, dim)
    projected = [tuple(dot(v, w) for w in span_basis) for v in vs]
    rays_y = _reference_dd_rays(sorted(set(projected)), len(span_basis))
    return lin, tuple(sorted(primitive(mat_apply(mat(span_basis), y)) for y in rays_y))


def _reference_cone(generators, dim):
    """(generators, facet_normals, span_equations, is_pointed) the way Cone
    computed them with a second double description over its facets, which
    gave a lineality basis: the cone is pointed when that basis is empty."""
    prim = tuple(sorted({primitive(vec(g)) for g in generators if any(g)}))
    lin_dual, normals = _reference_dual_description(prim, dim)
    constraints = list(normals)
    for e in lin_dual:
        constraints += [e, tuple(-x for x in e)]
    lineality, rays = _reference_dual_description(constraints, dim)
    return (prim if lineality else rays), normals, lin_dual, not lineality


@st.composite
def _generator_lists(draw):
    """(dim, generators): dim 1..5, at most 9 vectors with entries in [-3, 3].

    Planted: a zero coordinate throughout (lower-dimensional), all entries
    made nonnegative (pointed), and lines g, -2g, duplicates, scaled copies
    and zero vectors; the list may be empty.
    """
    dim = draw(st.integers(1, 5))
    gens = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=6))
    if gens and dim > 1 and draw(st.booleans()):
        k = draw(st.integers(0, dim - 1))
        gens = [g[:k] + (0,) + g[k + 1 :] for g in gens]
    if draw(st.booleans()):
        gens = [tuple(map(abs, g)) for g in gens]
    for plant in draw(st.lists(st.sampled_from(("line", "dup", "scaled", "zero")), max_size=3)):
        if plant == "zero" or not gens:
            gens.append((0,) * dim)
            continue
        g = draw(st.sampled_from(gens))
        factor = {"line": -2, "dup": 1, "scaled": draw(st.integers(2, 3))}[plant]
        gens.append(tuple(factor * x for x in g))
    return dim, draw(st.permutations(gens))


@settings(max_examples=300)
@given(_generator_lists())
def test_cone_matches_two_pass_reference(drawn):
    dim, gens = drawn
    c = Cone(gens, dim)
    assert (c.generators, c.facet_normals, c.span_equations, c.is_pointed) == (
        _reference_cone(gens, dim)
    )


@given(_generator_lists(), st.data())
def test_unimodular_equivariance(drawn, data):
    dim, gens = drawn
    u = data.draw(unimodular_matrices(dim))
    c = Cone(gens, dim)
    cu = Cone([apply_matrix(u, g) for g in gens], dim)
    assert set(cu.generators) == {apply_matrix(u, r) for r in c.generators}
    assert len(cu.facet_normals) == len(c.facet_normals)
    assert len(cu.span_equations) == len(c.span_equations)
    assert (cu.is_pointed, cu.is_full_dimensional) == (c.is_pointed, c.is_full_dimensional)
    for line in orthogonal_complement([*c.facet_normals, *c.span_equations], dim):
        image = apply_matrix(u, line)
        assert cu.contains(image) and cu.contains(tuple(-x for x in image))
    points = [*gens, *c.generators, vec(sum(col) for col in zip((0,) * dim, *gens))]
    points.append(data.draw(st.tuples(*[st.integers(-3, 3)] * dim)))
    for x in points:
        image = apply_matrix(u, x)
        assert cu.contains(image) == c.contains(x)
        assert _interior(cu, image) == _interior(c, x)


def test_triangulate_2d_consecutive():
    c = Cone(((1, 0), (1, 1), (0, 1), (2, 1)), 2)
    pieces = _triangulate_rays(c)
    assert all(len(p) == 2 for p in pieces)
    assert len(pieces) == len(c.generators) - 1


def test_triangulate_properties():
    rng = random.Random(207)
    for _ in range(25):
        dim = rng.choice((2, 3, 4))
        gens = random_pointed_gens(rng, dim, dim + 3)
        c = Cone(gens, dim)
        pieces = _triangulate_rays(c)
        rays = set(c.generators)
        for p in pieces:
            assert len(p) == dim
            assert set(p) <= rays
            assert det(p) != 0
        cones = [Cone(p, dim) for p in pieces]
        # covering: sampled cone points land in some piece
        for _ in range(15):
            coeffs = [rng.randint(0, 3) for _ in gens]
            pt = vec(sum(a * g[i] for a, g in zip(coeffs, gens)) for i in range(dim))
            assert any(q.contains(pt) for q in cones)
        # interior disjointness, spot-checked at piece barycenters: no other
        # piece has all its facet values positive there
        for p, pc in zip(pieces, cones):
            bary = vec(sum(r[i] for r in p) for i in range(dim))
            others = sum(1 for q in cones if q is not pc and _interior(q, bary))
            assert others == 0


# Reference: the former pulling triangulation, with a fresh double
# description on every face it recurses into.
def _dd_triangulation(rays, dim):
    rays = tuple(sorted(rays))
    if len(rays) == sympy_rank(rays):
        return [rays]
    v0 = rays[0]
    _, normals = dual_description(rays, dim)
    out = []
    for n in normals:
        if dot(n, v0) <= 0:
            continue
        facet_rays = tuple(r for r in rays if dot(n, r) == 0)
        for piece in _dd_triangulation(facet_rays, dim):
            out.append(tuple(sorted(piece + (v0,))))
    return out


def _assert_triangulation_matches_reference(c):
    pieces = _triangulate_rays(c)
    want = _dd_triangulation(c.generators, c.dim)
    assert len(pieces) == len(set(pieces)) == len(want)
    assert set(pieces) == set(want)


@st.composite
def _cones_over_polytopes(draw):
    """Cones over lattice polytopes with vertices in {0, 1, 2}^(rank - 1), moved by GL_dim(Z).

    Such cones often have non-simplicial faces, which the pulling
    triangulation must recurse into.  Dim 2..5; some have rank below dim.
    """
    dim = draw(st.sampled_from((2, 3, 4, 5)))
    rank = dim - draw(st.sampled_from((0, 0, 1)))
    point = st.tuples(st.just(1), *[st.integers(0, 2)] * (rank - 1))
    gens = draw(st.lists(point, min_size=rank + 1, max_size=rank + 6, unique=True))
    assume(sympy_rank(gens) == rank)
    u = draw(unimodular_matrices(dim))
    return dim, [apply_matrix(u, g + (0,) * (dim - rank)) for g in gens]


@settings(max_examples=200)
@given(st.one_of(embedded_pointed_cones(extra=5), _cones_over_polytopes()))
def test_triangulation_matches_dd_reference(drawn):
    dim, gens = drawn
    _assert_triangulation_matches_reference(Cone(gens, dim))


def test_triangulation_matches_dd_reference_on_square_times_octahedron():
    # A facet square x triangle meets another facet in the face square x
    # vertex only: a 3-dimensional face with 4 rays that is not a facet of
    # the first, which only the maximality filter keeps out of the recursion.
    octahedron = [tuple(s * (j == i) for j in range(3)) for i in range(3) for s in (1, -1)]
    rays = [(1, a, b) + o for a in (0, 1) for b in (0, 1) for o in octahedron]
    _assert_triangulation_matches_reference(Cone(rays, 6))


@given(st.one_of(_generator_lists(), _cones_over_polytopes()))
def test_from_rays_and_facets_matches_cone(drawn):
    # the true extreme rays and facets, unsorted
    dim, gens = drawn
    c = Cone(gens, dim)
    assume(c.is_pointed and c.is_full_dimensional)
    f = Cone.from_rays_and_facets(c.generators[::-1], dim, c.facet_normals[::-1])
    assert (f.dim, f.generators, f.facet_normals) == (c.dim, c.generators, c.facet_normals)
    assert f.span_equations == c.span_equations == ()
    assert f.is_pointed and c.is_pointed


def test_cone_equality_hash():
    a = Cone(((1, 0), (0, 1)), 2)
    b = Cone(((0, 1), (1, 0), (1, 1), (2, 2)), 2)  # redundant generators
    assert a == b
    assert hash(a) == hash(b)
    assert a != Cone(((1, 0), (1, 2)), 2)


def test_cone_rejects_mixed_dimensions():
    with pytest.raises(Exception):
        Cone(((1, 0), (1, 0, 0)), 2)


def _tight_sets(constraints, rays):
    """Ray -> bitmask of the positions i with <constraints[i], ray> == 0."""
    return {r: sum(1 << i for i, c in enumerate(constraints) if dot(c, r) == 0) for r in rays}


@settings(max_examples=200)
@given(st.one_of(_generator_lists(), _cones_over_polytopes()))
def test_double_description_matches_reference_and_incidence(drawn):
    # any list spanning R^dim: zero vectors, multiples, repeats and lines included
    dim, constraints = drawn
    assume(sympy_rank(constraints) == dim)
    got = double_description(constraints, dim)
    assert tuple(sorted(got)) == _reference_dd_rays(constraints, dim)
    assert got == _tight_sets(constraints, got)


def test_double_description_refuses_constraints_that_do_not_span():
    # Cone reads this ValueError as "the generators are not full-dimensional"
    for constraints, dim in ([((1, 0, 0), (0, 1, 0), (1, 1, 0)), 3], [(), 2], [((0, 0),), 2]):
        with pytest.raises(ValueError):
            double_description(constraints, dim)


def _newton_cone_constraints(s, p):
    """K's generators as nash builds them: sigma's rays (0, r), then the sorted
    distinct sums (1, v) of the d-subsets of the Hilbert basis whose minor is
    live in characteristic p."""
    h = s.hilbert_basis()
    sums = set()
    for combo in itertools.combinations(h, s.dim):
        minor = det(mat(combo))
        if minor % p if p else minor:
            sums.add(tuple(map(sum, zip(*combo))))
    return [(0,) + r for r in s.cone.generators] + [(1,) + v for v in sorted(sums)]


def _saturated_builtin(name):
    cf = BUILTIN_CONES[name]
    return AffineSemigroup(saturation_hilbert_basis(Cone(cf.generators, cf.dim)), cf.dim)


@pytest.mark.parametrize(
    "name, p",
    [("B", 0), ("B", 2), ("B", 3), ("dim4char3", 3), ("reeves", 3)],
)
def test_double_description_on_newton_cones(name, p):
    # rays are made and dropped at most insertions here, unlike small random sets
    s = _saturated_builtin(name)
    constraints = _newton_cone_constraints(s, p)
    got = double_description(constraints, s.dim + 1)
    assert tuple(sorted(got)) == _reference_dd_rays(constraints, s.dim + 1)
    assert got == _tight_sets(constraints, got)


# --- differential gate: Cone against the dual description by projection ---


def _dual_description_cone(generators, dim):
    """(generators, facet_normals, span_equations, is_pointed) the way
    every Cone computed them before a full-dimensional pointed one skipped
    its Hermite forms: the dual description by projection onto a lattice
    basis of the span, whose orthogonal complement gives the span
    equations, then the orthogonal complement of the facets and span
    equations, the lineality space, empty exactly when the cone is
    pointed.  A generator of a pointed cone spans an extreme ray when the
    facets through it and the span equations have rank dim - 1."""
    prim = tuple(sorted({primitive(vec(g)) for g in generators if any(g)}))
    span_equations, normals = _reference_dual_description(prim, dim)
    constraints = sorted((*normals, *span_equations, *map(neg, span_equations)))
    lineality = orthogonal_complement(constraints, dim)
    if lineality:
        return prim, normals, span_equations, False
    rays = tuple(
        g for g in prim
        if sympy_rank([*(n for n in normals if not dot(n, g)), *span_equations]) == dim - 1
    )
    return rays, normals, span_equations, True


def _assert_matches_dual_description(generators, dim):
    c = Cone(generators, dim)
    assert (c.generators, c.facet_normals, c.span_equations, c.is_pointed) == (
        _dual_description_cone(generators, dim)
    )
    return c


@pytest.mark.parametrize("name", sorted(BUILTIN_CONES))
def test_fixture_cones_match_dual_description(name):
    cf = BUILTIN_CONES[name]
    c = _assert_matches_dual_description(cf.generators, cf.dim)
    _assert_matches_dual_description(saturation_hilbert_basis(c), cf.dim)


def test_hilbert_family_cones_match_dual_description():
    family = json.loads((CORPUS / "hilbert_family.json").read_text())
    assert len(family) == 120
    for cone in family:
        for gens in (cone["rays"], cone["hilbert"]):
            c = _assert_matches_dual_description([tuple(g) for g in gens], cone["dim"])
            assert c.is_pointed and c.is_full_dimensional


@st.composite
def _cones_of_each_kind(draw, kind):
    """(dim, generators) of a full-dimensional pointed cone, a full-dimensional
    cone with a line (some generator g with -g added), or a lower-dimensional one."""
    dim, gens = draw(embedded_pointed_cones())
    full = sympy_rank(gens) == dim
    assume(full == (kind != "lower"))
    if kind == "line":
        gens = gens + [neg(draw(st.sampled_from(gens)))]
    return dim, draw(st.permutations(gens))


@pytest.mark.parametrize("kind", ["pointed", "line", "lower"])
@settings(max_examples=80)
@given(data=st.data())
def test_drawn_cones_match_dual_description(kind, data):
    dim, gens = data.draw(_cones_of_each_kind(kind))
    c = _assert_matches_dual_description(gens, dim)
    assert (c.is_full_dimensional, c.is_pointed) == {
        "pointed": (True, True), "line": (True, False), "lower": (False, True)
    }[kind]


def _count_every_binding(monkeypatch, fn, calls):
    """Count fn's completed calls in calls[fn.__name__], at every binding of
    it in the package; return the modules that bind it."""

    def counted(*args):
        out = fn(*args)
        calls[fn.__name__] += 1
        return out

    modules = [
        importlib.import_module(f"toricnash.{info.name}")
        for info in pkgutil.iter_modules(toricnash.__path__)
    ]
    bound = [m for m in (toricnash, *modules) if vars(m).get(fn.__name__) is fn]
    for m in bound:
        monkeypatch.setattr(m, fn.__name__, counted)
    return bound


@pytest.mark.parametrize(
    "kind, generators, dim, work",
    [
        *[
            pytest.param("pointed", cf.generators, cf.dim, (0, 1), id=f"pointed-{name}")
            for name, cf in sorted(BUILTIN_CONES.items())
        ],
        pytest.param("line", ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)), 3, (0, 1), id="line"),
        pytest.param("lower", ((1, 0, 0), (1, 2, 0)), 3, (1, 1), id="lower"),
        pytest.param("lower-line", ((1, 0, 0), (-1, 0, 0), (0, 1, 0)), 3, (1, 1), id="lower-line"),
    ],
)
def test_hermite_forms_and_double_descriptions_per_kind_of_cone(
    monkeypatch, kind, generators, dim, work
):
    # a lower-dimensional cone's first double description stops, uncompleted,
    # on generators that do not span
    calls = {"hermite_form": 0, "double_description": 0}
    assert toricnash.exactmath in _count_every_binding(monkeypatch, hermite_form, calls)
    assert toricnash.cone in _count_every_binding(monkeypatch, double_description, calls)
    c = Cone(generators, dim)
    assert (c.is_full_dimensional, c.is_pointed) == {
        "pointed": (True, True),
        "line": (True, False),
        "lower": (False, True),
        "lower-line": (False, False),
    }[kind]
    assert (calls["hermite_form"], calls["double_description"]) == work
