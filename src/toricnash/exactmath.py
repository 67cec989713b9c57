"""Exact integer linear algebra on small dense matrices.

Vectors are tuples of Python ints (arbitrary precision), ordered
lexicographically.  Matrices are tuples of column vectors of equal length.
Everything here is pure and hashable, so results can be cached and shared
freely.
"""

from __future__ import annotations

import operator
from itertools import repeat
from math import gcd
from operator import mul
from typing import Iterable, Optional, Sequence

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]  # columns


class DimensionMismatch(ValueError):
    """Operand shapes do not line up."""


class InvalidCharacteristic(ValueError):
    """Characteristic must be zero or a prime."""


def vec(entries: Iterable[int]) -> Vec:
    return tuple(map(int, entries))


def zero_vec(dim: int) -> Vec:
    return (0,) * dim


def is_zero(v: Vec) -> bool:
    return not any(v)


def dot(u: Vec, v: Vec) -> int:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def add(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatch(f"add: {len(u)} vs {len(v)}")
    return tuple(map(operator.add, u, v))


def sub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatch(f"sub: {len(u)} vs {len(v)}")
    return tuple(map(operator.sub, u, v))


def neg(v: Vec) -> Vec:
    return tuple(map(operator.neg, v))


def scale(k: int, v: Vec) -> Vec:
    return tuple(map(mul, repeat(k), v))


def content(v: Vec) -> int:
    return gcd(*v)


def primitive(v: Vec) -> Vec:
    """v divided by the gcd of its entries; the zero vector stays zero."""
    g = content(v)
    if g <= 1:
        return tuple(v)
    return tuple(map(operator.floordiv, v, repeat(g)))


def mat(columns: Iterable[Iterable[int]]) -> Mat:
    cols = tuple(vec(c) for c in columns)
    if cols:
        n = len(cols[0])
        for c in cols:
            if len(c) != n:
                raise DimensionMismatch("matrix columns of unequal length")
    return cols


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n))


def mat_apply(m: Mat, x: Vec) -> Vec:
    """m applied to x, i.e. the combination sum_j x_j * column_j."""
    if len(m) != len(x):
        raise DimensionMismatch(f"apply: {len(m)} columns vs {len(x)} coefficients")
    if not m:
        return ()
    out = [0] * len(m[0])
    for coeff, col in zip(x, m):
        if coeff:
            for i, e in enumerate(col):
                out[i] += coeff * e
    return tuple(out)


def mat_mul(a: Mat, b: Mat) -> Mat:
    return tuple(mat_apply(a, col) for col in b)


def det(m: Mat) -> int:
    """Determinant by fraction-free Bareiss elimination (exact)."""
    n = len(m)
    if n == 0:
        return 1
    if len(m[0]) != n:
        raise DimensionMismatch(f"det of a {len(m[0])}x{n} matrix")
    # work on rows
    a = [[m[j][i] for j in range(n)] for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            aik = row_i[k]
            for j in range(k + 1, n):
                # exact division: Bareiss invariant keeps this integral
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def minor_table(vectors: Sequence[Vec], d: int) -> dict[int, int]:
    """The nonzero d-minors of the vectors, keyed by the bitmask of positions.

    Bit i of a key stands for vectors[i]; the value is det(mat(c)) for the
    subset c in increasing position order.  One pass for all of them: the
    k x k minors on the first k coordinates of every k-subset come from the
    (k-1)-minors by Laplace expansion along row k.  Each nonzero (k-1)-minor
    of columns T is pushed into T + {i} for every column i outside T with a
    nonzero entry in row k, negated when an odd number of members of T come
    after i.
    """
    for v in vectors:
        if len(v) != d:
            raise DimensionMismatch(f"minor_table: vector of length {len(v)}, not {d}")
    n = len(vectors)
    if d > n:
        return {}
    level = {0: 1}
    for k in range(d):
        # last column first, so passing a member of T flips the sign
        row = [(1 << i, vectors[i][k]) for i in reversed(range(n))]
        nxt: dict[int, int] = {}
        for t, m in level.items():
            flip = False
            for bit, e in row:
                if t & bit:
                    flip = not flip
                elif e:
                    s = t | bit
                    nxt[s] = nxt.get(s, 0) + (-e * m if flip else e * m)
        level = {s: m for s, m in nxt.items() if m}
    return level


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


# the largest characteristic accepted; trial division decides it in milliseconds
MAX_CHARACTERISTIC = 2**31 - 1


def check_characteristic(p: int) -> None:
    """Raise InvalidCharacteristic unless p is zero or a prime up to MAX_CHARACTERISTIC.

    The bound is tested first, so a huge p is refused before trial division.
    """
    if p > MAX_CHARACTERISTIC:
        raise InvalidCharacteristic(
            f"characteristic {p} is above the largest supported, {MAX_CHARACTERISTIC}"
        )
    if p and not is_prime(p):
        raise InvalidCharacteristic(f"characteristic {p} is neither zero nor prime")


def det_p(m: Mat, p: int) -> int:
    """det(m) for p = 0, otherwise det(m) mod p in the canonical range [0, p).

    p must be zero or prime.
    """
    check_characteristic(p)
    return det(m) % p if p else det(m)


def is_unimodular(m: Mat) -> bool:
    return abs(det(m)) == 1


def solve(m: Mat, rhs: Sequence[Vec]) -> tuple[int, Optional[Mat]]:
    """(det(m), adj(m) . rhs) from one fraction-free Gauss-Jordan pass.

    rhs is a sequence of columns, and the second item holds one column per
    right-hand side b: adj(m) b == det(m) m^-1 b, so its i-th entry is the
    Cramer determinant of m with column i replaced by b.  The second item
    is None when m is singular.
    """
    n = len(m)
    if n and len(m[0]) != n:
        raise DimensionMismatch(f"solve with a {len(m[0])}x{n} matrix")
    for b in rhs:
        if len(b) != n:
            raise DimensionMismatch(f"solve: right-hand side of length {len(b)}, not {n}")
    # rows of [m | rhs]
    a = [[col[i] for col in m] + [b[i] for b in rhs] for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0, None
        row_k = a[k]
        pivot = row_k[k]
        for i in range(n):
            if i != k:
                aik = a[i][k]
                # exact division: every entry stays a minor of [m | rhs];
                # column k clears and the earlier diagonal becomes pivot
                a[i] = [(pivot * x - aik * y) // prev for x, y in zip(a[i], row_k)]
        prev = pivot
    # now a == [prev * I | prev * m^-1 rhs] with prev == sign * det(m)
    return sign * prev, tuple(tuple(sign * row[n + j] for row in a) for j in range(len(rhs)))


def exchange(d: int, adj: Mat, j: int, x: Vec) -> tuple[int, Mat]:
    """(det, adj) of m with column j replaced by x, from d = det(m) != 0 and adj(m).

    With y = adj x, the new determinant is y_j (Cramer).  Row j of the
    adjugate is unchanged, and every other row i becomes
    (y_j adj_i - y_i adj_j) / d.  That is Sherman-Morrison with the
    denominators cleared; the division is exact, since the new adjugate
    is integral, and the rule holds when y_j = 0 too.
    """
    y = mat_apply(adj, x)
    yj = y[j]
    out = []
    for col in adj:
        cj = col[j]
        new = [(yj * a - cj * b) // d for a, b in zip(col, y)]
        new[j] = cj
        out.append(tuple(new))
    return yj, tuple(out)


def _minor(m: Mat, drop_row: int, drop_col: int) -> Mat:
    return tuple(
        tuple(col[i] for i in range(len(col)) if i != drop_row)
        for j, col in enumerate(m)
        if j != drop_col
    )


def adjugate(m: Mat) -> Mat:
    """Adjugate: m * adj(m) == adj(m) * m == det(m) * identity."""
    adj = solve(m, identity(len(m)))[1]
    if adj is not None:
        return adj
    # singular: adj[i][j] = cofactor C_ji = (-1)^(i+j) det(minor dropping row j, col i)
    n = len(m)
    return tuple(
        tuple((-1) ** (i + j) * det(_minor(m, j, i)) for i in range(n)) for j in range(n)
    )


def solve_integral(m: Mat, target: Vec) -> Optional[Vec]:
    """The unique rational solution of m x = target if it is integral.

    None when m is singular or the solution has a non-integer entry.
    """
    d, x = solve(m, (target,))
    if x is None or any(e % d for e in x[0]):
        return None
    return tuple(e // d for e in x[0])


def hermite_form(m: Mat) -> tuple[Mat, Mat]:
    """Column Hermite normal form.

    Returns (H, T) with T unimodular and m . T == H.  Nonzero columns of H
    come first; the first nonzero entry (pivot) of each is positive, pivot
    rows strictly increase left to right, and in a pivot's row every entry
    to its left lies in [0, pivot).
    """
    ncols = len(m)
    if ncols == 0:
        return (), ()
    nrows = len(m[0])
    cols = [list(c) for c in m]
    t = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]

    def colop_sub(dst: int, src: int, q: int) -> None:
        if q == 0:
            return
        cd, cs = cols[dst], cols[src]
        for i in range(nrows):
            cd[i] -= q * cs[i]
        td, ts = t[dst], t[src]
        for i in range(ncols):
            td[i] -= q * ts[i]

    def colswap(a: int, b: int) -> None:
        cols[a], cols[b] = cols[b], cols[a]
        t[a], t[b] = t[b], t[a]

    def colneg(a: int) -> None:
        cols[a] = [-e for e in cols[a]]
        t[a] = [-e for e in t[a]]

    pivot = 0
    for row in range(nrows):
        if pivot >= ncols:
            break
        live = [j for j in range(pivot, ncols) if cols[j][row] != 0]
        if not live:
            continue
        # chip away with gcd column operations until one nonzero remains
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][row]))
            base = live[0]
            rest = []
            for j in live[1:]:
                q = cols[j][row] // cols[base][row]
                colop_sub(j, base, q)
                if cols[j][row] != 0:
                    rest.append(j)
            live = [base] + rest
        j = live[0]
        if j != pivot:
            colswap(pivot, j)
        if cols[pivot][row] < 0:
            colneg(pivot)
        p = cols[pivot][row]
        for j in range(pivot):
            q = cols[j][row] // p
            colop_sub(j, pivot, q)
        pivot += 1

    h = tuple(tuple(c) for c in cols)
    tt = tuple(tuple(c) for c in t)
    return h, tt


def independent_indices(vectors: Sequence[Vec], want: int) -> list[int]:
    """Positions of the first `want` vectors of the earliest linearly
    independent subsequence, greedily.

    A vector is kept when it is independent of those kept before it; the
    kept ones are held in fraction-free echelon form, so each candidate
    costs one reduction.  Stop once `want` are kept; raise ValueError if
    the vectors have smaller rank.
    """
    kept: list[int] = []
    echelon: list[tuple[int, Vec]] = []  # (pivot position, reduced vector)
    for idx, v in enumerate(vectors):
        if len(kept) == want:
            break
        w = v
        for piv, e in echelon:
            if w[piv]:
                w = tuple(e[piv] * x - w[piv] * y for x, y in zip(w, e))
        if is_zero(w):
            continue
        w = primitive(w)
        echelon.append((next(i for i, x in enumerate(w) if x), w))
        kept.append(idx)
    if len(kept) < want:
        raise ValueError("vectors do not span the requested rank")
    return kept


def kernel_basis(m: Mat) -> tuple[Vec, ...]:
    """Basis of {x : m x = 0} over Z; saturated since T is unimodular."""
    h, t = hermite_form(m)
    return tuple(sorted(t[j] for j in range(len(h)) if is_zero(h[j])))


def orthogonal_complement(vectors: Sequence[Vec], dim: int) -> tuple[Vec, ...]:
    """Saturated lattice basis of {x in Z^dim : <v, x> = 0 for all v}."""
    vs = [v for v in vectors if not is_zero(v)]
    if not vs:
        return identity(dim)
    for v in vs:
        if len(v) != dim:
            raise DimensionMismatch("orthogonal_complement: wrong vector length")
    # columns of the constraint matrix x -> (<v_i, x>)_i
    constraint = tuple(tuple(v[j] for v in vs) for j in range(dim))
    return kernel_basis(constraint)


def lattice_is_full(vectors: Sequence[Vec], dim: int) -> bool:
    """Do the vectors generate all of Z^dim as a group?"""
    vs = [v for v in vectors if not is_zero(v)]
    if not vs:
        return dim == 0
    h, _ = hermite_form(mat(vs))
    nonzero = [c for c in h if not is_zero(c)]
    if len(nonzero) != dim:
        return False
    return tuple(nonzero) == identity(dim)
