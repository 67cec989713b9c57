import random

import pytest

from toricnash.cone import Cone, NotPointedError, dual_description
from toricnash.exactmath import det, dot, primitive, rank_of_vectors, vec

from helpers import oracle_facets, random_pointed_gens, random_unimodular, apply_matrix


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
    assert len(c.lineality_basis) == 1
    assert primitive(c.lineality_basis[0]) in ((0, 1), (0, -1))
    assert set(c.facet_normals) == {(1, 0)}


def test_full_space_cone():
    c = Cone(((1, 0), (-1, 0), (0, 1), (0, -1)), 2)
    assert c.facet_normals == ()
    assert len(c.lineality_basis) == 2
    assert c.contains((-5, 7))


def test_low_dimensional_cone():
    # a ray inside 3-space: one span equation pair cuts it down
    c = Cone(((2, 4, 0),), 3)
    assert c.is_pointed
    assert not c.is_full_dimensional
    assert c.generators == ((1, 2, 0),)
    assert all(dot(eq, (1, 2, 0)) == 0 for eq in c.span_equations)
    assert rank_of_vectors(c.span_equations) == 2
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
        assert c.interior_contains(interior)
        for r in c.generators:
            if len(c.facet_normals) >= dim:  # rays sit on facets of pointed full cones
                assert not c.interior_contains(r)


def test_positive_grading():
    rng = random.Random(204)
    for _ in range(30):
        dim = rng.choice((2, 3, 4))
        gens = random_pointed_gens(rng, dim, dim + 2)
        c = Cone(gens, dim)
        grading = c.positive_grading()
        assert all(dot(grading, g) > 0 for g in gens)
    with pytest.raises(NotPointedError):
        Cone(((1, 0), (-1, 0)), 2).positive_grading()


def test_dual_description_consistency():
    rng = random.Random(205)
    for _ in range(40):
        dim = rng.choice((2, 3))
        gens = random_pointed_gens(rng, dim, dim + 2)
        lin, rays = dual_description(gens, dim)
        assert lin == ()  # dual of a full-dimensional cone is pointed
        assert all(dot(n, g) >= 0 for n in rays for g in gens)


def test_unimodular_equivariance():
    rng = random.Random(206)
    for _ in range(25):
        dim = rng.choice((2, 3))
        gens = random_pointed_gens(rng, dim, dim + 2)
        u = random_unimodular(rng, dim)
        c = Cone(gens, dim)
        cu = Cone([apply_matrix(u, g) for g in gens], dim)
        assert set(cu.generators) == {apply_matrix(u, r) for r in c.generators}
        assert len(cu.facet_normals) == len(c.facet_normals)
        assert cu.is_pointed == c.is_pointed


def test_triangulate_2d_consecutive():
    c = Cone(((1, 0), (1, 1), (0, 1), (2, 1)), 2)
    pieces = c.triangulate()
    assert all(len(p.generators) == 2 for p in pieces)
    assert len(pieces) == len(c.generators) - 1


def test_triangulate_properties():
    rng = random.Random(207)
    for _ in range(25):
        dim = rng.choice((2, 3, 4))
        gens = random_pointed_gens(rng, dim, dim + 3)
        c = Cone(gens, dim)
        pieces = c.triangulate()
        rays = set(c.generators)
        for p in pieces:
            assert len(p.generators) == dim
            assert set(p.generators) <= rays
            assert det(p.generators) != 0
        # covering: sampled cone points land in some piece
        for _ in range(15):
            coeffs = [rng.randint(0, 3) for _ in gens]
            pt = vec(sum(a * g[i] for a, g in zip(coeffs, gens)) for i in range(dim))
            assert any(p.contains(pt) for p in pieces)
        # interior disjointness, spot-checked at piece barycenters
        for p in pieces:
            bary = vec(sum(r[i] for r in p.generators) for i in range(dim))
            others = sum(1 for q in pieces if q is not p and q.interior_contains(bary))
            assert others == 0


def test_triangulate_requires_pointed_fulldim():
    with pytest.raises(NotPointedError):
        Cone(((1, 0), (-1, 0), (0, 1)), 2).triangulate()
    with pytest.raises(ValueError):
        Cone(((1, 0, 0), (0, 1, 0)), 3).triangulate()


def test_cone_equality_hash():
    a = Cone(((1, 0), (0, 1)), 2)
    b = Cone(((0, 1), (1, 0), (1, 1), (2, 2)), 2)  # redundant generators
    assert a == b
    assert hash(a) == hash(b)
    assert a != Cone(((1, 0), (1, 2)), 2)


def test_cone_rejects_mixed_dimensions():
    with pytest.raises(Exception):
        Cone(((1, 0), (1, 0, 0)), 2)
