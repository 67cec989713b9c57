"""Nash blowup charts of a pointed affine semigroup, any characteristic.

A chart is indexed by a d-subset A of the Hilbert basis H whose determinant
is nonzero in the ground characteristic.  For h in A the replacement set
collects g - h over the leftover Hilbert elements g whose substitution into
h's column keeps that determinant nonzero; the chart semigroup is generated
by H together with all replacement sets.

Charts are worked out in index space, as lookups into the semigroup's
cached table of the d-minors of H, keyed by bitmasks of positions.
Substituting g for h in A gives, up to sign, the minor of (A - {h}) + {g},
so each replacement pair is one lookup.  Pointedness has an index-space
certificate too: every element of H and every difference H[j] - H[i] gets
the id of its primitive vector, and a chart whose ids include two opposite
ones contains a line (|b| u + |a| v == 0 for the nonzero entries a of u and
b of v in one coordinate).  Vectors, the chart semigroup and its Cone are
built only for charts this certificate does not settle, or on request.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .exactmath import InvalidCharacteristic, Vec, is_prime, neg, primitive, sub, vec
from .semigroup import AffineSemigroup, NotFullLatticeError
from .cone import NotPointedError


class BlowupChart:
    """One chart, held as positions in the source's sorted Hilbert basis.

    `_replacements[k]` lists the positions g of the leftover Hilbert elements
    that may replace the k-th subset member h; g_sets, generators and
    chart_semigroup are built from them on first use.  The step that builds
    the chart sets `pointed` and, when asked, `normalized_chart`.
    """

    def __init__(
        self,
        source: AffineSemigroup,
        characteristic: int,
        members: tuple[int, ...],
        det_value: int,
        replacements: tuple[tuple[int, ...], ...],
    ):
        self.source = source
        self.characteristic = characteristic
        self._members = members  # subset positions, increasing
        self.det_value = det_value  # det_p of the subset matrix
        self._replacements = replacements
        self.pointed = False
        self.normalized_chart: Optional[AffineSemigroup] = None

    @property
    def subset(self) -> tuple[Vec, ...]:
        """The chosen d Hilbert elements, sorted."""
        h = self.source.hilbert_basis()
        return tuple(h[i] for i in self._members)

    def subset_indices(self) -> tuple[int, ...]:
        """0-based positions of the subset inside the sorted Hilbert basis."""
        return self._members

    @cached_property
    def g_sets(self) -> dict[Vec, tuple[Vec, ...]]:
        """h -> sorted replacement differences g - h."""
        h = self.source.hilbert_basis()
        return {
            h[i]: _differences(h, i, js) for i, js in zip(self._members, self._replacements)
        }

    @cached_property
    def generators(self) -> tuple[Vec, ...]:
        """The Hilbert basis together with all replacement sets, sorted."""
        return tuple(sorted(set(self.source.hilbert_basis()).union(*self.g_sets.values())))

    @cached_property
    def chart_semigroup(self) -> AffineSemigroup:
        return AffineSemigroup(self.generators, self.source.dim, inner=self.source.cone)


def _differences(h: Sequence[Vec], i: int, js: Sequence[int]) -> tuple[Vec, ...]:
    return tuple(sorted(sub(h[j], h[i]) for j in js))


def _live(minor: int, p: int) -> bool:
    """Is the minor nonzero in characteristic p?"""
    return bool(minor % p if p else minor)


class _Step:
    """Index-space data shared by the charts of one semigroup in characteristic p.

    Class ids are handed out on first use: the source's Hilbert elements at
    once, each difference H[j] - H[i] when a chart first holds it, so a lone
    chart() pays only for its own.  `_opposite[c]` is the id of the negative
    of class c, or -1 while it has none.  The source must be pointed and
    generate Z^d, so its cone is full-dimensional and seeds every chart's.
    """

    def __init__(self, s: AffineSemigroup, p: int):
        if p and not is_prime(p):
            raise InvalidCharacteristic(f"characteristic {p} is neither zero nor prime")
        if not s.is_pointed:
            raise NotPointedError("blowup requires a pointed semigroup")
        if not s.generates_full_lattice():
            raise NotFullLatticeError("blowup requires generators spanning Z^d as a group")
        self.s, self.p = s, p
        self.h = s.hilbert_basis()
        self.minors = s.hilbert_minors()  # nonzero minors only, keyed by bitmask
        self._ids: dict[Vec, int] = {}
        self._opposite: list[int] = []
        self._h_ids = [self._class_id(v) for v in self.h]
        self._pair_ids: dict[tuple[int, int], int] = {}  # (i, j) -> class of H[j] - H[i]

    def _class_id(self, v: Vec) -> int:
        u = primitive(v)
        c = self._ids.get(u)
        if c is None:
            c = self._ids[u] = len(self._opposite)
            o = self._ids.get(neg(u), -1)
            self._opposite.append(o)
            if o >= 0:
                self._opposite[o] = c
        return c

    def replacements(self, members: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Per member i, the outside positions j whose swap for i keeps a live minor."""
        mask = sum(1 << i for i in members)
        minors, p = self.minors, self.p
        if not _live(minors.get(mask, 0), p):
            raise ValueError("chart subset has vanishing determinant in this characteristic")
        outside = [j for j in range(len(self.h)) if not mask >> j & 1]
        return tuple(
            tuple(j for j in outside if _live(minors.get(mask ^ 1 << i | 1 << j, 0), p))
            for i in members
        )

    def _has_opposite_classes(
        self, members: tuple[int, ...], replacements: tuple[tuple[int, ...], ...]
    ) -> bool:
        """The certificate: do the chart's generators hold two opposite classes?

        H itself holds none, since the source is pointed.
        """
        h, ids, opposite = self.h, self._pair_ids, self._opposite
        seen = set(self._h_ids)
        for i, js in zip(members, replacements):
            for j in js:
                c = ids.get((i, j))
                if c is None:
                    c = ids[i, j] = self._class_id(sub(h[j], h[i]))
                if opposite[c] in seen:
                    return True
                seen.add(c)
        return False

    def chart(self, members: tuple[int, ...], normalize: bool) -> BlowupChart:
        reps = self.replacements(members)
        m = self.minors[sum(1 << i for i in members)]
        ch = BlowupChart(self.s, self.p, members, m % self.p if self.p else m, reps)
        if not self._has_opposite_classes(members, reps):
            ch.pointed = ch.chart_semigroup.cone.is_pointed
            if ch.pointed and normalize:
                ch.normalized_chart = ch.chart_semigroup.saturate()
        return ch


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
    basis = s.hilbert_basis()
    hv = vec(h)
    i = basis.index(hv) if hv in basis else -1
    if i not in members:
        raise ValueError(f"{hv} is not in the chart subset")
    reps = _Step(s, p).replacements(members)
    return _differences(basis, i, reps[members.index(i)])


def chart(
    s: AffineSemigroup,
    subset: Sequence[Sequence[int]],
    p: int,
    normalize: bool = True,
) -> BlowupChart:
    """The blowup chart of s at the given Hilbert subset."""
    members = _members(s, subset)
    return _Step(s, p).chart(members, normalize)


def blowup_step(s: AffineSemigroup, p: int, normalized: bool = True) -> tuple[BlowupChart, ...]:
    """All charts of one blowup step, in lexicographic subset order.

    Charts with a non-pointed semigroup are kept and flagged; their
    normalization is not computed.  The subset family itself does not
    depend on the normalized flag; it is read from the semigroup's cached
    minor table, which a search has already filled by fingerprinting.
    """
    step = _Step(s, p)
    n = len(step.h)
    subsets = sorted(
        tuple(i for i in range(n) if mask >> i & 1)
        for mask, minor in step.minors.items()
        if _live(minor, p)
    )
    return tuple(step.chart(members, normalized) for members in subsets)
