import itertools
import random
from functools import reduce
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from toricnash.exactmath import (
    DimensionMismatch,
    InvalidCharacteristic,
    add,
    adjugate,
    content,
    det,
    det_p,
    dot,
    exchange,
    hermite_form,
    identity,
    independent_indices,
    is_unimodular,
    is_zero,
    kernel_basis,
    lattice_is_full,
    mat,
    mat_apply,
    mat_mul,
    minor_table,
    neg,
    orthogonal_complement,
    primitive,
    scale,
    solve,
    solve_integral,
    sub,
    vec,
)

from helpers import random_unimodular, sympy_adjugate, sympy_det, sympy_rank


def _random_cols(rng, n, lo=-9, hi=9):
    return mat(tuple(vec(rng.randint(lo, hi) for _ in range(n)) for _ in range(n)))


def test_det_small_cases():
    assert det(identity(4)) == 1
    assert det(mat(((2, 0), (0, 3)))) == 6
    # swapping two columns flips the sign
    assert det(mat(((0, 1), (1, 0)))) == -1
    assert det(mat(((1, 2), (2, 4)))) == 0


def test_det_against_sympy():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = _random_cols(rng, n)
        assert det(m) == sympy_det(m)


def test_det_larger_entries():
    rng = random.Random(102)
    for _ in range(25):
        m = _random_cols(rng, 6, -50, 50)
        assert det(m) == sympy_det(m)


def test_det_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        det(((1, 0), (0, 1), (1, 1)))


def _minor_cases(rng):
    """Seeded vector lists for every n in 0..9 and d in 0..5, with a zero
    row and with repeated vectors among them."""
    for n in range(10):
        for d in range(6):
            vs = [vec(rng.randint(-4, 4) for _ in range(d)) for _ in range(n)]
            yield vs
            if n and d:
                k = rng.randrange(d)
                yield [v[:k] + (0,) + v[k + 1 :] for v in vs]  # row k is zero
                yield vs[: (n + 1) // 2] + vs[: n // 2]  # the first half again


def _maximal_minors(vs, d):
    """minor_table as a dense tuple: det(mat(c)) for every c in
    itertools.combinations(vs, d), in that order, zeros included."""
    table = minor_table(vs, d)
    masks = (sum(1 << i for i in c) for c in itertools.combinations(range(len(vs)), d))
    return tuple(table.get(m, 0) for m in masks)


def test_maximal_minors_against_sympy():
    rng = random.Random(131)
    for vs in _minor_cases(rng):
        d = len(vs[0]) if vs else 0
        want = tuple(sympy_det(c) if c else 1 for c in itertools.combinations(vs, d))
        assert _maximal_minors(vs, d) == want


def test_minor_table_keys_nonzero_minors_by_position_mask():
    rng = random.Random(133)
    for vs in _minor_cases(rng):
        d = len(vs[0]) if vs else 0
        want = {}
        for c in itertools.combinations(range(len(vs)), d):
            m = det(mat([vs[i] for i in c])) if c else 1
            if m:
                want[sum(1 << i for i in c)] = m
        assert minor_table(vs, d) == want
    with pytest.raises(DimensionMismatch):
        minor_table([(1, 0), (0, 1, 0)], 2)


def test_maximal_minors_edge_cases():
    assert _maximal_minors([], 0) == (1,)
    assert _maximal_minors([(), ()], 0) == (1,)
    assert _maximal_minors([], 2) == ()
    assert _maximal_minors([(1, 2)], 2) == ()  # n < d
    assert _maximal_minors([(1, 0), (0, 1), (1, 1)], 2) == (1, 1, -1)
    with pytest.raises(DimensionMismatch):
        _maximal_minors([(1, 0), (0, 1, 0)], 2)


def test_maximal_minors_gl_property():
    # minors of U.H are det(U) times those of H, subset by subset
    rng = random.Random(132)
    for _ in range(40):
        d = rng.randint(1, 5)
        vs = [vec(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(d, 9))]
        u = random_unimodular(rng, d)
        moved = [mat_apply(u, v) for v in vs]
        assert _maximal_minors(moved, d) == tuple(det(u) * m for m in _maximal_minors(vs, d))


def test_det_p_reduction():
    rng = random.Random(103)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = _random_cols(rng, n)
        d = det(m)
        assert det_p(m, 0) == d
        for p in (2, 3, 5, 7):
            v = det_p(m, p)
            assert 0 <= v < p
            assert (v - d) % p == 0


def test_det_p_rejects_composites():
    m = identity(2)
    for bad in (4, 6, 9, 1, -3):
        with pytest.raises(InvalidCharacteristic):
            det_p(m, bad)


def test_adjugate_identity_properties():
    rng = random.Random(104)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = _random_cols(rng, n, -6, 6)
        adj = adjugate(m)
        assert adj == sympy_adjugate(m)
        d = det(m)
        scaled = tuple(vec(d if i == j else 0 for i in range(n)) for j in range(n))
        assert mat_mul(m, adj) == scaled
        assert mat_mul(adj, m) == scaled


def test_solve_against_sympy():
    rng = random.Random(111)
    singular = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        m = _random_cols(rng, n, -6, 6)
        if rng.random() < 0.3 and n > 1:  # plant a dependent column
            cols = list(m)
            cols[rng.randrange(n)] = tuple(2 * e - f for e, f in zip(cols[0], cols[-1]))
            m = mat(cols)
        rhs = [vec(rng.randint(-9, 9) for _ in range(n)) for _ in range(rng.randint(0, 4))]
        d, table = solve(m, rhs)
        assert d == sympy_det(m)
        if d == 0:
            singular += 1
            assert table is None
            assert adjugate(m) == sympy_adjugate(m)  # the cofactor path
        else:
            assert table == tuple(mat_apply(sympy_adjugate(m), b) for b in rhs)
    assert singular > 10
    assert solve((), ((),)) == (1, ((),))
    with pytest.raises(DimensionMismatch):
        solve(identity(2), ((1, 2, 3),))


@st.composite
def _column_exchanges(draw):
    """(columns of a nonsingular m, j, x).  Half the time x combines the columns
    other than j, so that m with column j replaced by x is singular."""
    n = draw(st.integers(2, 6))
    entries = st.integers(-6, 6)
    cols = [tuple(draw(entries) for _ in range(n)) for _ in range(n)]
    assume(sympy_det(cols) != 0)
    j = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        coeffs = [0 if i == j else draw(st.integers(-2, 2)) for i in range(n)]
        x = tuple(sum(c * col[r] for c, col in zip(coeffs, cols)) for r in range(n))
    else:
        x = tuple(draw(entries) for _ in range(n))
    return cols, j, x


@settings(max_examples=200)
@given(_column_exchanges())
@example(([(1, 0), (0, 1)], 0, (0, 3)))  # a singular result
@example(([(2, 1, 0), (0, 3, 1), (1, 0, 5)], 2, (4, 2, 0)))  # twice column 0
def test_exchange_matches_sympy(drawn):
    cols, j, x = drawn
    d, adj = solve(mat(cols), identity(len(cols)))
    replaced = cols[:j] + [x] + cols[j + 1:]
    assert exchange(d, adj, j, x) == (sympy_det(replaced), sympy_adjugate(replaced))


def _greedy_reference(vectors):
    """Earliest-first selection with one hermite_form rank per candidate."""
    kept = []
    for i, v in enumerate(vectors):
        h, _ = hermite_form(mat([vectors[j] for j in kept] + [v]))
        if sum(1 for c in h if any(c)) > len(kept):
            kept.append(i)
    return kept


def test_independent_indices_against_reference():
    rng = random.Random(112)
    for _ in range(150):
        dim = rng.randint(1, 5)
        vs = [vec(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(0, 8))]
        if len(vs) > 2:  # plant a combination of earlier vectors
            vs.insert(rng.randrange(2, len(vs)), tuple(3 * a - b for a, b in zip(vs[0], vs[1])))
        full = _greedy_reference(vs)
        assert len(full) == sympy_rank(vs)
        assert independent_indices(vs, len(full)) == full
        want = rng.randint(0, dim)
        if want <= len(full):
            assert independent_indices(vs, want) == full[:want]
        else:
            with pytest.raises(ValueError):
                independent_indices(vs, want)


def test_solve_integral_roundtrip():
    rng = random.Random(105)
    solved = 0
    for _ in range(80):
        n = rng.randint(1, 4)
        m = _random_cols(rng, n, -5, 5)
        if det(m) == 0:
            continue
        x = vec(rng.randint(-7, 7) for _ in range(n))
        b = mat_apply(m, x)
        assert solve_integral(m, b) == x
        solved += 1
    assert solved > 30


def test_solve_integral_none_cases():
    assert solve_integral(mat(((2, 0), (0, 2))), (1, 0)) is None  # no integral solution
    # singular matrices are out of contract even when solvable
    assert solve_integral(mat(((1, 1), (1, 1))), (1, 0)) is None
    assert solve_integral(mat(((1, 1), (1, 1))), (1, 1)) is None


def test_hermite_form_shape():
    rng = random.Random(106)
    for _ in range(80):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = tuple(vec(rng.randint(-6, 6) for _ in range(rows)) for _ in range(cols))
        h, t = hermite_form(m)
        assert is_unimodular(t)
        assert mat_mul(m, t) == h
        # pivot structure: nonzero columns first, positive pivots on
        # strictly increasing rows, entries left of each pivot reduced
        pivot_rows = []
        for j, col in enumerate(h):
            nz = [i for i, x in enumerate(col) if x]
            if not nz:
                assert all(not any(c) for c in h[j:])
                break
            i = nz[0]
            assert col[i] > 0
            pivot_rows.append(i)
            for k in range(j):
                assert 0 <= h[k][i] < col[i]
        assert pivot_rows == sorted(pivot_rows)
        assert len(set(pivot_rows)) == len(pivot_rows)


def test_hermite_form_canonical():
    rng = random.Random(107)
    for _ in range(40):
        m = tuple(vec(rng.randint(-6, 6) for _ in range(3)) for _ in range(4))
        h, _ = hermite_form(m)
        h2, _ = hermite_form(h)
        assert h2 == h
    # column operations do not change the form
    for _ in range(40):
        m = tuple(vec(rng.randint(-5, 5) for _ in range(3)) for _ in range(3))
        u = random_unimodular(rng, 3)
        assert hermite_form(m)[0] == hermite_form(mat_mul(m, u))[0]


def test_kernel_basis():
    rng = random.Random(108)
    import sympy

    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = tuple(vec(rng.randint(-4, 4) for _ in range(rows)) for _ in range(cols))
        ker = kernel_basis(m)
        for k in ker:
            assert mat_apply(m, k) == vec(0 for _ in range(rows))
        sm = sympy.Matrix([[m[j][i] for j in range(cols)] for i in range(rows)])
        assert len(ker) == cols - sm.rank()
        if ker:
            assert sympy_rank(ker) == len(ker)


def test_kernel_is_saturated():
    # (2,4) has kernel generated by (2,-1), not (4,-2)
    ker = kernel_basis(((2,), (4,)))
    assert len(ker) == 1
    assert content(ker[0]) == 1


def test_orthogonal_complement():
    comp = orthogonal_complement(((1, 0, 0),), 3)
    assert sympy_rank(comp) == 2
    assert all(dot(v, (1, 0, 0)) == 0 for v in comp)
    # complement of complement recovers the saturated span
    span = orthogonal_complement(comp, 3)
    assert sympy_rank(span) == 1
    assert primitive(span[0]) in ((1, 0, 0), (-1, 0, 0))
    assert orthogonal_complement((), 3) == identity(3)


def test_lattice_is_full():
    assert lattice_is_full(identity(3), 3)
    assert lattice_is_full(((1, 0), (1, 1), (3, 5)), 2)
    assert not lattice_is_full(((2, 0), (0, 1)), 2)
    assert not lattice_is_full(((1, 0, 0), (0, 1, 0)), 3)
    # vectors (2,) and (3,) generate Z
    assert lattice_is_full(((2,), (3,)), 1)


def test_is_unimodular():
    rng = random.Random(109)
    for _ in range(40):
        u = random_unimodular(rng, rng.randint(1, 5))
        assert is_unimodular(u)
        assert not is_unimodular(tuple(vec(2 * x for x in col) for col in u)) or len(u) == 0


def test_primitive_and_content():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((-3, 0)) == (-1, 0)
    assert content((4, 6)) == 2
    assert content((0, 0, 0)) == 0


@pytest.mark.parametrize("op", [dot, add, sub], ids=lambda f: f.__name__)
@pytest.mark.parametrize("u, v", [((1, 2), (1, 2, 3)), ((), (4,)), ((0, 0, 0), ())])
def test_vector_helpers_reject_unequal_lengths(op, u, v):
    # checked up front: zip and map would silently drop the longer tail
    for a, b in ((u, v), (v, u)):
        with pytest.raises(DimensionMismatch):
            op(a, b)


_ENTRIES = st.one_of(st.integers(-5, 5), st.integers(-(2**70), 2**70))


@given(st.data())
def test_vector_helpers_match_comprehensions(data):
    n = data.draw(st.integers(0, 6))
    vector = st.one_of(st.tuples(*[_ENTRIES] * n), st.just((0,) * n))
    u, v = data.draw(vector), data.draw(vector)
    k = data.draw(st.one_of(_ENTRIES, st.booleans()))
    raw = data.draw(st.lists(st.one_of(_ENTRIES, st.booleans()), max_size=6))
    assert vec(raw) == tuple(int(e) for e in raw)
    assert all(type(e) is int for e in vec(raw))  # bools come out as ints
    assert is_zero(u) == all(e == 0 for e in u)
    assert neg(u) == tuple(-e for e in u)
    assert scale(k, u) == tuple(k * e for e in u)
    assert dot(u, v) == sum(a * b for a, b in zip(u, v))
    assert add(u, v) == tuple(a + b for a, b in zip(u, v))
    assert sub(u, v) == tuple(a - b for a, b in zip(u, v))
    g = reduce(gcd, u, 0)
    assert content(u) == g
    assert primitive(u) == (u if g <= 1 else tuple(e // g for e in u))


def test_matmul_det_consistency():
    rng = random.Random(110)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = _random_cols(rng, n, -5, 5)
        b = _random_cols(rng, n, -5, 5)
        assert det(mat_mul(a, b)) == det(a) * det(b)
