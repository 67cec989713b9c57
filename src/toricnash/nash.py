"""Nash blowup charts of a pointed affine semigroup, any characteristic.

A chart is indexed by a d-subset A of the Hilbert basis H with det_p(A) != 0.
For h in A its replacement set holds g - h over the other Hilbert elements g
whose swap for h keeps that determinant nonzero, a lookup into the cached
table of d-minors of H; the chart semigroup is generated by H and those sets.

Its cone sigma + cone{g - h} depends on A only through v_A = sum of A: live
subsets are the bases of the matroid of H over F_p, whose base polytope has
tangent cones spanned by single exchanges (Gelfand, Goresky, MacPherson and
Serganova 1987).  So it is the tangent cone at v_A of the Newton polyhedron
P = conv{v_B : B live} + sigma, whose normal fan gives the normalized Nash
blowup (Atanasov, Lopez, Perry, Proudfoot and Thaddeus, Exp. Math. 2011).  A
chart is pointed exactly when v_A is a vertex.  Its cone's facets are then
the facets of P through v_A, and its extreme rays are P's edge directions at
v_A, so the chart's Cone is built with Cone.from_rays_and_facets and never
needs the chart's generators.  All of it comes from one double description
of the homogenized cone over P: its tight sets give P's vertices, edges and
facets by bitmask ANDs, with no Cone built for P.

Everything here depends on the source and p only, so one _Step per source
and characteristic, built and checked once by _step and kept on the source,
is what every chart is read through.  Its vertex_charts is the one path
through P, fed only the live sums that _Step.vertex_candidates keeps.  A
normalized chart is cone intersect Z^d, so its class is its cone's class: a
search needs nothing else from a step.
"""

from __future__ import annotations

from functools import cached_property
from operator import add
from typing import Optional, Sequence

from .exactmath import Vec, check_characteristic, primitive, sub, vec
from .semigroup import AffineSemigroup, NotFullLatticeError
from .cone import Cone, NotPointedError, double_description, face_meet, ray_incidence


class BlowupChart:
    """One chart of a step, held as positions in the source's sorted Hilbert basis.

    Its det and cone are read from the step.  g_sets, generators and
    chart_semigroup are computed on first use.  A pointed chart's cone, the
    tangent cone of the Newton polyhedron at v_A, is shared by
    chart_semigroup; a non-pointed chart has cone None.
    """

    def __init__(self, step: _Step, members: tuple[int, ...]):
        self._step = step
        self._members = members  # subset positions, increasing
        self.det_value = step.det(members)  # det_p of the subset matrix
        self.cone: Optional[Cone] = step.vertex_charts.get(members)
        self.pointed = self.cone is not None
        self.normalized_chart: Optional[AffineSemigroup] = None

    @property
    def subset(self) -> tuple[Vec, ...]:
        """The chosen d Hilbert elements, sorted."""
        return tuple(self._step.h[i] for i in self._members)

    @cached_property
    def g_sets(self) -> dict[Vec, tuple[Vec, ...]]:
        """h -> sorted replacement differences g - h."""
        return self._step.g_sets(self._members)

    @cached_property
    def generators(self) -> tuple[Vec, ...]:
        """The Hilbert basis together with all replacement sets, sorted."""
        return tuple(sorted(set(self._step.h).union(*self.g_sets.values())))

    @cached_property
    def chart_semigroup(self) -> AffineSemigroup:
        return AffineSemigroup(self.generators, self._step.cone.dim, cone=self.cone)


def _det_p(minor: int, p: int) -> int:
    """The minor in characteristic p; nonzero exactly when the subset is live."""
    return minor % p if p else minor


class _Step:
    """One blowup step: the cone, Hilbert basis and minor table of a source, and p.

    The source must be pointed and generate Z^d, so its cone is
    full-dimensional.  _step builds one per source and characteristic and
    keeps it on the source; it holds nothing that refers back to the source.
    """

    def __init__(self, s: AffineSemigroup, p: int):
        check_characteristic(p)
        if not s.is_pointed:
            raise NotPointedError("blowup requires a pointed semigroup")
        if not s.generates_full_lattice():
            raise NotFullLatticeError("blowup requires generators spanning Z^d as a group")
        self.p = p
        self.cone = s.cone
        self.h = s.hilbert_basis()
        self.minors = s.hilbert_minors()  # nonzero minors only, keyed by bitmask

    def det(self, members: tuple[int, ...]) -> int:
        """det_p of the subset matrix, which must not vanish."""
        m = _det_p(self.minors.get(sum(1 << i for i in members), 0), self.p)
        if not m:
            raise ValueError("chart subset has vanishing determinant in this characteristic")
        return m

    def live(self) -> list[int]:
        """Bitmasks of the live subsets: the nonzero minors that stay nonzero mod p."""
        p = self.p
        return [mask for mask, minor in self.minors.items() if _det_p(minor, p)]

    def g_sets(self, members: tuple[int, ...]) -> dict[Vec, tuple[Vec, ...]]:
        """h -> sorted replacement differences g - h, per member h: g runs over
        the outside Hilbert elements whose swap for h keeps a live minor."""
        self.det(members)  # the subset itself must be live
        mask = sum(1 << i for i in members)
        h, minors, p = self.h, self.minors, self.p
        outside = [j for j in range(len(h)) if not mask >> j & 1]
        return {
            h[i]: tuple(sorted(sub(h[j], h[i]) for j in outside
                               if _det_p(minors.get(mask ^ 1 << i | 1 << j, 0), p)))
            for i in members
        }

    def vertex_candidates(self, sums: dict[Vec, int]) -> list[Vec]:
        """The sorted live sums v_B that are not a midpoint of two single exchanges.

        With i, k in B and j, l outside it, h_i + h_k = h_j + h_l makes v_B
        the midpoint of v_B - h_i + h_j and v_B - h_k + h_l, distinct since
        the h are, so v_B is no vertex when both exchanges are live (or
        B - i + l and B - k + j are).  P is pointed, so it is the convex hull
        of its vertices plus sigma: dropping such points leaves K, the cone
        over P, with the same facets, extreme rays and tight sets.  Pairs
        with equal sums are disjoint, so one pass over the pairs of H groups
        every (i, k) with its (j, l).
        """
        h, minors, p = self.h, self.minors, self.p
        by_sum: dict[Vec, list[tuple[int, int]]] = {}
        for a in range(len(h)):
            for b in range(a, len(h)):
                by_sum.setdefault(tuple(map(add, h[a], h[b])), []).append((a, b))
        partners = {
            pair: [q for q in pairs if q != pair]
            for pairs in by_sum.values() if len(pairs) > 1 for pair in pairs
        }

        def live(mask: int) -> int:
            return _det_p(minors.get(mask, 0), p)

        def midpoint(mask: int) -> bool:
            inside = _positions(mask)
            for x, i in enumerate(inside):
                for k in inside[x:]:
                    for j, l in partners.get((i, k), ()):
                        if mask & (1 << j | 1 << l):
                            continue
                        out_i, out_k = mask ^ 1 << i, mask ^ 1 << k
                        if (live(out_i | 1 << j) and live(out_k | 1 << l)
                                or live(out_i | 1 << l) and live(out_k | 1 << j)):
                            return True
            return False

        return sorted(v for v, mask in sums.items() if not midpoint(mask))

    @cached_property
    def vertex_charts(self) -> dict[tuple[int, ...], Cone]:
        """Subset positions -> chart cone for every pointed chart, in lexicographic subset order.

        One double description settles them all, and no BlowupChart,
        generator or saturation is formed.  A vertex v is the sum of exactly
        one live subset: if B != B' both summed to v, the symmetric exchange
        axiom would give b in B - B' and b' in B' - B with B - b + b' and
        B' - b' + b live, whose sums v + b' - b and v + b - b' average to v.
        Keys are increasing positions: a permuted subset has no entry.
        """
        sums = _live_sums(self.h, self.live())
        cones = _tangent_cones(self.vertex_candidates(sums), self.cone)
        return dict(sorted((_positions(sums[v]), cone) for v, cone in cones.items()))

    def chart(self, members: tuple[int, ...], normalize: bool) -> BlowupChart:
        """The chart at the given positions; normalizing saturates a pointed chart's cone."""
        ch = BlowupChart(self, members)
        if ch.pointed and normalize:
            ch.normalized_chart = AffineSemigroup.from_cone(ch.cone)
        return ch


def _step(s: AffineSemigroup, p: int) -> _Step:
    """The blowup step of s in characteristic p, built and checked once and kept on s."""
    steps = s._steps = s._steps or {}
    if p not in steps:
        steps[p] = _Step(s, p)
    return steps[p]


def _tangent_cones(points: Sequence[Vec], sigma: Cone) -> dict[Vec, Cone]:
    """Vertex v of P = conv(points) + sigma -> the tangent cone of P at v.

    The homogenized cone K over P is generated by the rays (0, r) of sigma
    and the points (1, v); it is never built as a Cone.  One double
    description over those generators gives K's facets, each with its
    tight set, a bitmask over the generators: these are the columns of K's
    incidence, and nothing after the double description takes a dot
    product.  A facet (c, n) of K is <n, x> >= -c, or t >= 0, which no
    point lies on; n is primitive when the facet holds a lattice point v,
    since gcd(n) divides c = -<n, v>.  The extreme rays of K are the (0, r)
    and the (1, v) with v a vertex of P.  The tangent cone's facets are the
    n of the facets through (1, v).  Its extreme rays are P's edge
    directions at v, one per ray w of K adjacent to (1, v): v' - v made
    primitive for w = (1, v'), r for w = (0, r).  Rays of K are adjacent
    when they share at least dim(sigma) - 1 facets and no third ray lies on
    all of those (Fukuda and Prodon 1996); a point that is not a vertex may
    lie on them, inside the edge.
    """
    d = sigma.dim
    gens = [(0,) + r for r in sigma.generators] + [(1,) + v for v in points]
    tight = double_description(gens, d + 1)
    normals, columns = list(tight), list(tight.values())
    rows, extreme = ray_incidence(columns, len(gens))
    everything = (1 << len(gens)) - 1
    rays = [b for b in range(len(gens)) if extreme >> b & 1]
    cones = {}
    for a in rays:
        if not gens[a][0]:
            continue
        v = gens[a][1:]
        edges = []
        for b in rays:
            common = rows[a] & rows[b]
            if b != a and common.bit_count() >= d - 1 and (
                face_meet(columns, common, everything) & extreme == 1 << a | 1 << b
            ):
                w = gens[b]
                edges.append(primitive(sub(w[1:], v)) if w[0] else w[1:])
        facets = [n[1:] for n, c in zip(normals, columns) if c >> a & 1]
        cones[v] = Cone.from_rays_and_facets(edges, d, facets)
    return cones


def _members(s: AffineSemigroup, subset: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Positions of a chart subset in the sorted Hilbert basis, validated."""
    a = {vec(x) for x in subset}
    if len(a) != s.dim or len(subset) != s.dim:
        raise ValueError(f"chart subset must contain {s.dim} distinct elements")
    pos = {v: i for i, v in enumerate(s.hilbert_basis())}
    for x in a:
        if x not in pos:
            raise ValueError(f"{x} is not a Hilbert basis element")
    return tuple(sorted(pos[x] for x in a))


def g_set(
    s: AffineSemigroup, subset: Sequence[Sequence[int]], h: Sequence[int], p: int
) -> tuple[Vec, ...]:
    """Replacement differences g - h for one member h of the chart subset."""
    members = _members(s, subset)
    hv = vec(h)
    if hv not in {vec(x) for x in subset}:
        raise ValueError(f"{hv} is not in the chart subset")
    return _step(s, p).g_sets(members)[hv]


def chart(
    s: AffineSemigroup,
    subset: Sequence[Sequence[int]],
    p: int,
    normalize: bool = True,
) -> BlowupChart:
    """The blowup chart of s at the given Hilbert subset; ValueError if its minor vanishes.

    The chart is pointed exactly when the subset sums to a vertex of the
    Newton polyhedron.
    """
    members = _members(s, subset)
    return _step(s, p).chart(members, normalize)


def _positions(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _live_sums(h: Sequence[Vec], masks: Sequence[int]) -> dict[Vec, int]:
    """v_B -> a mask B with that sum, for every distinct sum of the given masks.

    v_B is the sum of the part of H under the low half of B's bits and the
    part under the high half.  Each half is summed once, on first use, into
    a table indexed by its bits, so a table never holds more entries than
    there are masks.
    """
    half = len(h) // 2
    low_bits = (1 << half) - 1
    zero = (0,) * len(h[0])
    low: dict[int, Vec] = {}
    high: dict[int, Vec] = {}
    sums: dict[Vec, int] = {}
    for mask in masks:
        a, b = mask & low_bits, mask >> half
        va = low.get(a)
        if va is None:
            va = low[a] = tuple(map(sum, zip(zero, *(h[i] for i in _positions(a)))))
        vb = high.get(b)
        if vb is None:
            vb = high[b] = tuple(map(sum, zip(zero, *(h[half + i] for i in _positions(b)))))
        sums[tuple(map(add, va, vb))] = mask
    return sums


def vertex_charts(s: AffineSemigroup, p: int) -> dict[tuple[int, ...], Cone]:
    """Subset positions -> chart cone for every pointed chart of s (_Step.vertex_charts)."""
    return _step(s, p).vertex_charts


def blowup_step(s: AffineSemigroup, p: int, normalized: bool = True) -> tuple[BlowupChart, ...]:
    """All charts of one blowup step, in lexicographic subset order.

    Charts with a non-pointed semigroup are kept and flagged; their
    normalization is not computed, and no chart's replacement sets are
    formed here.
    """
    step = _step(s, p)
    return tuple(step.chart(m, normalized) for m in sorted(map(_positions, step.live())))
