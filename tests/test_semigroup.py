import functools
import itertools
import json
import random
import time
from operator import mul

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from toricnash.cone import Cone, NotPointedError, _triangulate_rays
from toricnash.exactmath import (
    add,
    det,
    dot,
    identity,
    is_zero,
    lattice_is_full,
    mat,
    mat_apply,
    minor_table,
    orthogonal_complement,
    scale,
    solve,
    sub,
    vec,
    zero_vec,
)
from toricnash import semigroup
from toricnash.fixtures import BUILTIN_CONES, LOOP_CHARACTERISTIC
from toricnash.nash import chart_generators, vertex_charts
from toricnash.search import load_graph
from toricnash.semigroup import (
    MAX_PARALLELEPIPED_POINTS,
    AffineSemigroup,
    ResourceLimitError,
    _cyclic_group,
    _packing,
    _parallelepiped_cosets,
    coordinates_in_basis,
    saturation_hilbert_basis,
)

from helpers import (
    CORPUS,
    apply_matrix,
    embedded_pointed_cones,
    has_opposite_primitives,
    oracle_hilbert_basis,
    random_pointed_gens,
    random_unimodular,
    unimodular_matrices,
)


def test_hilbert_basis_quadrant():
    assert saturation_hilbert_basis(Cone(((1, 0), (0, 1)), 2)) == ((0, 1), (1, 0))


def test_hilbert_basis_a2():
    # quotient-singularity cone: one interior irreducible appears
    got = saturation_hilbert_basis(Cone(((1, 0), (1, 2)), 2))
    assert set(got) == {(1, 0), (1, 1), (1, 2)}


def test_hilbert_basis_against_oracle():
    rng = random.Random(301)
    checked = 0
    while checked < 50:
        dim = rng.choice((2, 3))
        gens = random_pointed_gens(rng, dim, rng.randint(dim, dim + 2))
        cone = Cone(gens, dim)
        if not cone.is_full_dimensional:
            continue
        got = saturation_hilbert_basis(cone)
        assert sorted(got) == oracle_hilbert_basis(gens)
        checked += 1


def test_hilbert_basis_rejects_nonpointed():
    with pytest.raises(NotPointedError):
        saturation_hilbert_basis(Cone(((1, 0), (-1, 0), (0, 1)), 2))


def test_membership_and_decompose():
    s = AffineSemigroup(((1, 0), (1, 2)), 2)
    assert (2, 2) in s  # (1,0)+(1,2)
    assert (1, 1) not in s  # in the cone but not the semigroup
    assert (0, 0) in s
    assert (-1, 0) not in s
    d = s.decompose((3, 2))
    assert d is not None
    total = vec((0, 0))
    for g, k in d.items():
        assert k > 0 and g in ((1, 0), (1, 2))
        total = add(total, tuple(k * x for x in g))
    assert total == (3, 2)
    assert s.decompose((1, 1)) is None


def test_membership_requires_pointed():
    s = AffineSemigroup(((1, 0), (-1, 0)), 2)
    with pytest.raises(NotPointedError):
        (1, 0) in s


def test_membership_random_sums():
    rng = random.Random(302)
    for _ in range(20):
        dim = rng.choice((2, 3))
        gens = random_pointed_gens(rng, dim, dim + 1)
        s = AffineSemigroup(gens, dim)
        for _ in range(8):
            coeffs = [rng.randint(0, 3) for _ in s.generators]
            pt = vec(0 for _ in range(dim))
            for c, g in zip(coeffs, s.generators):
                pt = add(pt, tuple(c * x for x in g))
            assert pt in s


def test_hilbert_basis_minimal_generating_set():
    s = AffineSemigroup(((1, 0), (1, 1), (1, 2), (2, 1), (3, 4)), 2)
    h = s.hilbert_basis()
    assert set(h) == {(1, 0), (1, 1), (1, 2)}
    # a saturated semigroup reports the cone's Hilbert basis
    rng = random.Random(303)
    for _ in range(10):
        gens = random_pointed_gens(rng, 2, 4)
        cone = Cone(gens, 2)
        sat = AffineSemigroup(saturation_hilbert_basis(cone), 2)
        assert set(sat.hilbert_basis()) == set(saturation_hilbert_basis(cone))


def test_saturate_idempotent():
    rng = random.Random(304)
    for _ in range(15):
        dim = rng.choice((2, 3))
        gens = random_pointed_gens(rng, dim, dim + 2)
        s = AffineSemigroup(gens, dim)
        sat = s.saturate()
        sat2 = sat.saturate()
        assert set(sat.generators) == set(sat2.generators)
        assert sat.is_saturated()
        # saturation only adds elements
        for g in s.generators:
            assert g in sat


def test_is_saturated():
    assert AffineSemigroup(((1, 0), (0, 1)), 2).is_saturated()
    assert not AffineSemigroup(((1, 0), (1, 2)), 2).is_saturated()
    assert not AffineSemigroup(((2,), (3,)), 1).is_saturated()
    assert AffineSemigroup(((1,),), 1).is_saturated()


def test_generates_full_lattice():
    assert AffineSemigroup(((2,), (3,)), 1).generates_full_lattice()
    assert not AffineSemigroup(((2,),), 1).generates_full_lattice()
    assert AffineSemigroup(((1, 0), (1, 2), (1, 1)), 2).generates_full_lattice()
    assert not AffineSemigroup(((2, 0), (0, 2)), 2).generates_full_lattice()


@given(embedded_pointed_cones())
def test_from_cone_records_whether_it_spans_the_lattice(drawn):
    # a pointed cone's lattice points generate Z^d exactly when it is full-dimensional
    dim, gens = drawn
    c = Cone(gens, dim)
    s = AffineSemigroup.from_cone(c)
    assert s.generates_full_lattice() == lattice_is_full(s.hilbert_basis(), dim)
    assert s.generates_full_lattice() == c.is_full_dimensional


def test_semigroups_equal():
    assert AffineSemigroup(((1, 0), (0, 1)), 2).same_semigroup(
        AffineSemigroup(((1, 0), (0, 1), (1, 1), (2, 1)), 2)
    )
    # same cone, different semigroups
    assert not AffineSemigroup(((1,),), 1).same_semigroup(AffineSemigroup(((2,), (3,)), 1))
    assert not AffineSemigroup(((1, 0), (0, 1)), 2).same_semigroup(
        AffineSemigroup(((1, 0), (1, 2)), 2)
    )


def test_coordinates_in_basis():
    basis = ((1, 0, 0), (1, 2, 0), (0, 0, 3))
    assert coordinates_in_basis(basis, (2, 2, 3)) == (1, 1, 1)
    with pytest.raises(ValueError):
        coordinates_in_basis(basis, (0, 1, 0))  # rational, not integral coordinates
    with pytest.raises(ValueError):
        coordinates_in_basis(((1, 0, 0), (0, 1, 0)), (0, 0, 1))  # outside the span


def test_empty_semigroup_needs_dimension():
    s = AffineSemigroup((), 3)
    assert s.dim == 3
    assert (0, 0, 0) in s
    assert (1, 0, 0) not in s
    with pytest.raises(ValueError):
        AffineSemigroup(())


def test_structural_equality():
    a = AffineSemigroup(((1, 0), (1, 2)), 2)
    b = AffineSemigroup(((1, 2), (1, 0), (1, 0)), 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != AffineSemigroup(((1, 0), (1, 1), (1, 2)), 2)
    # structural inequality even when the semigroups coincide as sets
    c = AffineSemigroup(((1, 0), (0, 1)), 2)
    d = AffineSemigroup(((1, 0), (0, 1), (1, 1)), 2)
    assert c != d
    assert c.same_semigroup(d)


@st.composite
def _generator_sets(draw):
    """Nonzero vectors in dim 1..4, sometimes with a planted pair a*w, -b*w."""
    dim = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-3, 3)] * dim).filter(any)
    gens = draw(st.lists(vector, min_size=1, max_size=6))
    if draw(st.booleans()):
        w = draw(vector)
        a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        gens += [scale(a, w), scale(-b, w)]
    return dim, gens


@given(_generator_sets(), st.data())
def test_is_pointed_agrees_with_cone(drawn, data):
    dim, gens = drawn
    verdict = Cone(gens, dim).is_pointed
    assert AffineSemigroup(gens, dim).is_pointed == verdict
    if has_opposite_primitives(gens):
        assert not verdict
    u = data.draw(unimodular_matrices(dim))
    image = [apply_matrix(u, g) for g in gens]
    assert AffineSemigroup(image, dim).is_pointed == verdict


def test_planted_opposite_pair_with_unequal_multiples():
    # 2w and -3w, w = (1, -2, 1): a line through the cone
    s = AffineSemigroup(((2, -4, 2), (-3, 6, -3), (1, 0, 0), (0, 0, 1)), 3)
    assert not s.is_pointed
    assert not Cone(s.generators, 3).is_pointed


@pytest.mark.parametrize(
    "gens",
    [
        ((1, 0), (0, 1), (-1, -1)),  # positively spans the plane
        ((1, 2), (-1, 1), (0, -1), (3, 1)),
        ((1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)),  # a half-space
    ],
)
def test_nonpointed_without_opposite_pair(gens):
    assert not has_opposite_primitives(gens)
    dim = len(gens[0])
    assert not Cone(gens, dim).is_pointed
    assert not AffineSemigroup(gens, dim).is_pointed


def _coset_points(rays):
    """The points R k / n of _parallelepiped_cosets, given R's det and adjugate from
    solve, each checked to be integral."""
    n, group = _parallelepiped_cosets(*solve(mat(rays), identity(len(rays))))
    points = set()
    for k in group:
        nx = tuple(dot(row, k) for row in zip(*rays))
        assert all(a % n == 0 for a in nx)
        points.add(tuple(a // n for a in nx))
    return points


def _parallelepiped_points(rays, dim):
    """Parallelepiped points of any independent rays, through coordinates of their own span."""
    if not rays:
        return {zero_vec(dim)}
    span_basis = orthogonal_complement(orthogonal_complement(rays, dim), dim)
    coords = [coordinates_in_basis(span_basis, r) for r in rays]
    return {mat_apply(mat(span_basis), p) for p in _coset_points(coords)}


def _all_pairs_hilbert_basis(c):
    """The former reduction: drop a candidate x when x - h is in the cone for any other h."""
    cands = set(c.generators)
    for piece in _triangulate_rays(c):
        cands |= _parallelepiped_points(piece, c.dim)
    cands.discard(zero_vec(c.dim))
    ordered = sorted(cands)
    return tuple(x for x in ordered if not any(h != x and c.contains(sub(x, h)) for h in ordered))


@given(embedded_pointed_cones())
def test_hilbert_basis_matches_all_pairs_reduction(drawn):
    dim, gens = drawn
    cone = Cone(gens, dim)
    got = saturation_hilbert_basis(cone)
    assert got == _all_pairs_hilbert_basis(cone)
    assert list(got) == sorted(got)


@given(embedded_pointed_cones(), st.data())
def test_hilbert_basis_commutes_with_unimodular_maps(drawn, data):
    dim, gens = drawn
    u = data.draw(unimodular_matrices(dim))
    base = saturation_hilbert_basis(Cone(gens, dim))
    moved = saturation_hilbert_basis(Cone([apply_matrix(u, g) for g in gens], dim))
    assert moved == tuple(sorted(apply_matrix(u, h) for h in base))


def _grading(c):
    """The sum of c's facet normals: positive on every nonzero point of a pointed cone."""
    return vec(sum(n[i] for n in c.facet_normals) for i in range(c.dim))


def test_hilbert_basis_sorted_although_reduced_by_degree():
    cone = Cone(((-1, 1), (3, 2)), 2)
    got = saturation_hilbert_basis(cone)
    assert got == ((-1, 1), (0, 1), (1, 1), (3, 2))
    # the reduction walks the interior element (1, 1) first: it has the lowest degree
    grading = _grading(cone)
    assert sorted(got, key=lambda v: (dot(grading, v), v))[0] == (1, 1)


# Reference: the former decomposition, with residues kept as vectors and
# every candidate residue tested against the cone.
def _decompose_over(gens, x, prune, grading):
    if not prune.contains(x):
        return None
    top = dot(grading, x)
    gs = sorted((g for g in gens if dot(grading, g) <= top), key=lambda g: (-dot(grading, g), g))
    ls = [dot(grading, g) for g in gs]
    failed = set()

    def rec(i, r):
        if is_zero(r):
            return {}
        if i >= len(gs):
            return None
        key = (i, r)
        if key in failed:
            return None
        g, lg = gs[i], ls[i]
        budget = dot(grading, r) // lg
        for mult in range(budget, -1, -1):
            r2 = sub(r, scale(mult, g)) if mult else r
            if not prune.contains(r2):
                continue
            res = rec(i + 1, r2)
            if res is not None:
                if mult:
                    res = dict(res)
                    res[g] = mult
                return res
        failed.add(key)
        return None

    return rec(0, x)


def _reference_decompose(s, x):
    v = vec(x)
    return {} if is_zero(v) else _decompose_over(s.generators, v, s.cone, _grading(s.cone))


def _reference_hilbert_basis(s):
    grading = _grading(s.cone)
    return tuple(
        g
        for g in s.generators
        if _decompose_over([o for o in s.generators if o != g], g, s.cone, grading) is None
    )


@st.composite
def _semigroups_with_points(draw):
    """Semigroups on unsaturated generator sets, with points in, near and off them.

    Numerical semigroups in dimension 1, and generators of the orthant cones
    of embedded_pointed_cones (lower-dimensional ones included).  The points
    are a combination of the generators, that combination shifted by a small
    vector, and the small vector alone, which often lies off the cone or off
    its span.
    """
    if draw(st.booleans()):
        dim = 1
        gens = draw(st.lists(st.integers(2, 12).map(lambda n: (n,)), min_size=1, max_size=4))
    else:
        dim, gens = draw(embedded_pointed_cones(extra=4))
    coeffs = draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
    inside = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim))
    shift = draw(st.tuples(*[st.integers(-2, 2)] * dim))
    return AffineSemigroup(gens, dim), (inside, add(inside, shift), shift)


@given(_semigroups_with_points())
def test_decomposition_matches_former_search(drawn):
    s, points = drawn
    for x in points:
        got = s.decompose(x)
        assert got == _reference_decompose(s, x)
        if got is not None:
            total = zero_vec(s.dim)
            for g, m in got.items():
                total = add(total, scale(m, g))
            assert total == x
    assert s.hilbert_basis() == _reference_hilbert_basis(s)


def _brute_force_parallelepiped(rays):
    """Every lattice point x of the bounding box with 0 <= R^-1 x < 1, by sympy's adjugate."""
    m = sympy.Matrix([list(r) for r in rays]).T
    d = int(m.det())
    adj = [[int(a) for a in m.adjugate().row(i)] for i in range(m.rows)]
    box = [range(sum(min(x, 0) for x in row), sum(max(x, 0) for x in row) + 1) for row in zip(*rays)]
    out = set()
    for x in itertools.product(*box):
        coords = [sum(a * b for a, b in zip(row, x)) for row in adj]  # d * R^-1 x
        if all(0 <= t * (1 if d > 0 else -1) < abs(d) for t in coords):
            out.add(x)
    return out


@st.composite
def _lattice_bases(draw):
    """(|det| wanted or None, rays): a basis of Q^dim, dim 1..4, small entries.

    A third are unimodular and a third of index 2 (the first vector of a
    unimodular basis doubled, then sheared by the others); the rest are drawn.
    """
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from((1, 2, None)))
    if kind is None:
        rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=dim, max_size=dim))
        assume(sympy.Matrix(rays).det() != 0)
        return kind, rays
    cols = [[int(i == j) for i in range(dim)] for j in range(dim)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        if i != j:
            sign = draw(st.sampled_from((1, -1)))
            cols[i] = [a + sign * b for a, b in zip(cols[i], cols[j])]
    if kind == 2:
        cols[0] = [2 * a for a in cols[0]]
        for j in range(1, dim):
            if draw(st.booleans()):
                cols[0] = [a + b for a, b in zip(cols[0], cols[j])]
    return kind, [tuple(c) for c in draw(st.permutations(cols))]


@settings(max_examples=120)
@given(_lattice_bases())
def test_parallelepiped_points_match_brute_force(drawn):
    kind, rays = drawn
    assert kind in (None, abs(sympy.Matrix(rays).det()))
    want = _brute_force_parallelepiped(rays)
    assert len(want) == abs(sympy.Matrix(rays).det())  # one point per coset
    assert _coset_points(rays) == want


def test_a_parallelepiped_past_the_budget_is_refused_before_it_is_listed():
    # the search's ValueError guards (_node_is_smooth, _edge_checks_out) must let it through
    assert not issubclass(ResourceLimitError, ValueError)
    n = MAX_PARALLELEPIPED_POINTS
    assert len(_coset_points(((1, 0), (-1, n)))) == n
    with pytest.raises(ResourceLimitError, match=str(n + 1)):
        saturation_hilbert_basis(Cone(((1, 0), (-1, n + 1)), 2))


def _former_saturation(c):
    """saturation_hilbert_basis as it was with one solve(R, I) per simplicial piece."""
    rays = c.generators
    if not rays:
        return ()
    normals = c.facet_normals
    rows = [[dot(n, r) for n in normals] for r in rays]
    _, guards, packs = _packing(rows, len(normals), max(map(sum, zip(*rows))))
    packed = dict(zip(rays, packs))
    coords = {r: r for r in rays}
    if c.span_equations:
        span_basis = orthogonal_complement(c.span_equations, c.dim)
        coords = {r: coordinates_in_basis(span_basis, r) for r in rays}
    cands = dict.fromkeys(packs)
    for piece in _triangulate_rays(c):
        rays_matrix = mat([coords[r] for r in piece])
        n, group = _parallelepiped_cosets(*solve(rays_matrix, identity(len(piece))))
        piece_packs = [packed[r] for r in piece]
        for k in group:
            cands.setdefault(sum(map(mul, k, piece_packs)) // n, (piece, n, k))
    cands.pop(0, None)
    kept, kept_packed = list(rays), []
    for px in sorted(cands):
        point = cands[px]
        if point is None:
            kept_packed.append(px)
        elif not any(((px | guards) - ph) & guards == guards for ph in kept_packed):
            piece, n, k = point
            kept.append(tuple(sum(map(mul, row, k)) // n for row in zip(*piece)))
            kept_packed.append(px)
    return tuple(sorted(kept))


@functools.lru_cache(maxsize=None)
def _bench_cones():
    """Seeded GL_d(Z) images of the 120 hilbert_family cones, then every chart
    cone of the three corpus graphs."""
    rng = random.Random(3101)
    cones = []
    for entry in json.loads((CORPUS / "hilbert_family.json").read_text()):
        u = random_unimodular(rng, entry["dim"])
        cones.append(Cone([apply_matrix(u, tuple(r)) for r in entry["rays"]], entry["dim"]))
    for name in ("B", "dim4char3", "reeves"):
        report = load_graph(str(CORPUS / f"{name}.graph"))
        for node in report.nodes.values():
            cones.extend(vertex_charts(node.semigroup, report.characteristic).values())
    return tuple(cones)


def test_saturation_matches_the_former_per_piece_solve():
    cones = _bench_cones()
    assert len(cones) > 1000
    for c in cones:
        assert saturation_hilbert_basis(c) == _former_saturation(c)


def test_saturation_solves_at_most_once_per_cone(monkeypatch):
    # the pieces after the first take their adjugates by exchange, and a
    # unimodular simplicial cone is settled by one det
    calls = []
    real = semigroup.solve
    monkeypatch.setattr(semigroup, "solve", lambda *args: calls.append(args) or real(*args))
    unimodular = several = 0
    for c in _bench_cones():
        calls.clear()
        saturation_hilbert_basis(c)
        rays = c.generators
        if len(rays) == c.dim and abs(det(mat(rays))) == 1:
            unimodular += 1
            assert not calls
        else:
            assert len(calls) == 1
        several += len(_triangulate_rays(c)) > 1
    assert unimodular > 100 and several > 400


def _coset_order(rays, x):
    """The least m >= 1 with m x in the lattice the rays span."""
    inv = sympy.Matrix([list(r) for r in rays]).T.inv()
    coords = inv * sympy.Matrix(list(x))
    return int(sympy.ilcm(*(sympy.Rational(c).q for c in coords)))


@pytest.mark.parametrize(
    "rays",
    [
        ((2, 0, 0), (0, 2, 0), (0, 0, 1)),  # Z/2 x Z/2
        ((2, 0, 0), (0, 2, 0), (0, 0, 2)),  # (Z/2)^3
        ((2, 2, 0), (0, 2, 2), (2, 0, 2)),  # Z/2 x Z/2 x Z/4
        ((2, 2, 0, 1), (0, 2, 2, 0), (2, 0, 2, -1), (1, -1, 0, 3)),  # Z/2 x Z/28
    ],
)
def test_a_coset_group_with_several_generators_gives_every_point(rays):
    n = abs(int(sympy.Matrix([list(r) for r in rays]).det()))
    got = _coset_points(rays)
    assert len(got) == n
    assert got == _brute_force_parallelepiped(rays)
    # no coset has order n, so no single adjugate column generates the group
    assert max(_coset_order(rays, x) for x in got) < n


def _first_column(rays):
    """(n, s): |det R| and R's first adjugate column mod n, the generator
    whose cyclic group _parallelepiped_cosets lists in closed form."""
    dval, adj = solve(mat(rays), identity(len(rays)))
    n = abs(dval)
    return n, [a % n for a in adj[0]]


@pytest.mark.parametrize(
    "rays, order",
    [
        (((1, 0), (0, 2)), 1),  # e_1 is in the lattice: the first column is 0 mod n
        (((1, 0, 0), (0, 3, 0), (0, 0, 2)), 1),
        (((0, 1), (5, -1)), 5),  # the first column generates the whole group Z/5
        (((1, 1, 0), (0, 1, 1), (1, 0, 3)), 4),  # and Z/4
        (((2, 0), (0, 4)), 2),  # Z/2 x Z/4: the first column generates a subgroup of order 2
        (((4, 0), (0, 2)), 4),  # and one of order 4
        (((2, 0, 0), (0, 4, 0), (0, 0, 3)), 2),  # Z/2 x Z/12
    ],
)
def test_the_first_coset_factor_is_listed_in_closed_form(rays, order):
    n, first = _first_column(rays)
    multiples = {tuple(j * a % n for a in first) for j in range(n)}
    assert len(multiples) == order
    got = _cyclic_group(first, n)
    assert len(got) == order  # each element once
    assert set(got) == multiples
    assert _coset_points(rays) == _brute_force_parallelepiped(rays)


@settings(max_examples=60)
@given(_lattice_bases())
def test_the_first_coset_factor_lists_each_multiple_once(drawn):
    _, rays = drawn
    n, first = _first_column(rays)
    got = _cyclic_group(first, n)
    assert len(got) == len(set(got))
    assert set(got) == {tuple(j * a % n for a in first) for j in range(n)}


@pytest.mark.parametrize(
    "n",
    [2**k + e for k in (4, 10, 16) for e in (-1, 0, 1)] + [MAX_PARALLELEPIPED_POINTS],
)
def test_facet_values_at_the_edge_of_a_packed_field(n):
    # each facet's values on the two rays are 0 and n, so a packed field holds
    # n.bit_length() bits and a guard: all ones at 2^k - 1, one bit at 2^k
    cone = Cone(((1, 0), (-1, n)), 2)
    assert [sum(dot(f, r) for r in cone.generators) for f in cone.facet_normals] == [n, n]
    assert saturation_hilbert_basis(cone) == ((-1, n), (0, 1), (1, 0))


def test_a_large_multiplicity_is_taken_at_once():
    # the multiplicity is read from the residue's fields, not reached by
    # subtracting the generator a million times
    s = AffineSemigroup(((1, 0), (0, 1)), 2)
    start = time.perf_counter()
    assert s.decompose((10**6, 1)) == {(1, 0): 10**6, (0, 1): 1}
    assert time.perf_counter() - start < 0.05


def _facet_tuple_decompose(s, x):
    """The decomposition before packing: the same search, residues kept as
    tuples of facet values.  Unlike _reference_decompose it stays fast when
    a multiplicity is large."""
    v = vec(x)
    if is_zero(v):
        return {}
    normals = s.cone.facet_normals
    if not s.cone.contains(v):
        return None
    rows = {g: tuple(dot(n, g) for n in normals) for g in s.generators}
    gs = sorted(s.generators, key=lambda g: (-sum(rows[g]), g))
    failed = set()

    def rec(i, r):
        if not any(r):
            return {}
        if i >= len(gs) or (i, r) in failed:
            return None
        row = rows[gs[i]]
        for mult in range(min(a // b for a, b in zip(r, row) if b), -1, -1):
            res = rec(i + 1, tuple(a - mult * b for a, b in zip(r, row)))
            if res is not None:
                if mult:
                    res[gs[i]] = mult
                return res
        failed.add((i, r))
        return None

    return rec(0, tuple(dot(n, v) for n in normals))


@pytest.mark.parametrize("n", [2**k + e for k in (4, 10, 16) for e in (-1, 0, 1)])
def test_decomposition_at_the_edge_of_a_packed_field(n):
    # quadrant generators, so facet values are coordinates: a field holds
    # n.bit_length() bits and a guard, all ones at 2^k - 1, one bit at 2^k
    s = AffineSemigroup(((2, 0), (0, 2), (1, 1), (n, 1)), 2)
    assert s.cone.facet_normals == ((0, 1), (1, 0))
    for x in ((n, 1), (n + 2, 1), (n, n), (n - 1, n + 1), (1, n), (n, 0)):
        got = s.decompose(x)
        assert got == _facet_tuple_decompose(s, x)
        if got is not None:
            assert tuple(map(sum, zip(*(scale(m, g) for g, m in got.items())))) == x
    assert s.hilbert_basis() == _reference_hilbert_basis(s)


@pytest.mark.parametrize(
    "gens",
    [
        BUILTIN_CONES["smooth3"].generators,
        ((1, 0), (1, 2)),  # index 2: one nonzero minor, not a unit
        ((1, 0, 0), (1, 1, 0), (1, 2, 0)),  # coplanar: no nonzero minor
    ],
    ids=["smooth3", "a2-generators", "coplanar"],
)
def test_minors_of_exactly_d_elements_match_the_minor_table(gens):
    s = AffineSemigroup(gens, len(gens[0]))
    assert len(s.hilbert_basis()) == s.dim
    assert s.hilbert_minors() == minor_table(s.hilbert_basis(), s.dim)


def test_minors_of_unimodular_bases_match_the_minor_table():
    rng = random.Random(35)
    for dim in (1, 2, 3, 4, 5, 6, 9):
        s = AffineSemigroup(random_unimodular(rng, dim), dim)
        assert len(s.hilbert_basis()) == dim
        assert s.hilbert_minors() == minor_table(s.hilbert_basis(), dim)
        assert list(map(abs, s.hilbert_minors().values())) == [1]


@pytest.mark.parametrize("name", ["B", "dim4char3", "reeves"])
def test_hilbert_basis_of_fixture_chart_generators(name):
    # chart generator sets are not saturated and hold many reducible
    # generators, so both the prefilter and the search run on them
    cf = BUILTIN_CONES[name]
    s = AffineSemigroup(saturation_hilbert_basis(Cone(cf.generators, cf.dim)), cf.dim)
    p = LOOP_CHARACTERISTIC
    for members in vertex_charts(s, p):
        chart = AffineSemigroup(chart_generators(s, members, p), s.dim)
        assert chart.hilbert_basis() == _reference_hilbert_basis(chart)


@st.composite
def _generators_with_planted_sums(draw):
    """Generators of embedded_pointed_cones plus sums g1 + g2 of drawn pairs."""
    dim, gens = draw(embedded_pointed_cones(extra=3))
    pairs = st.tuples(st.sampled_from(gens), st.sampled_from(gens))
    planted = [add(a, b) for a, b in draw(st.lists(pairs, min_size=1, max_size=3))]
    return dim, gens, planted


@given(_generators_with_planted_sums())
def test_hilbert_basis_drops_planted_sums(drawn):
    dim, gens, planted = drawn
    s = AffineSemigroup(gens + planted, dim)
    got = s.hilbert_basis()
    assert got == _reference_hilbert_basis(s)
    assert not set(planted) & set(got)
