"""Nash blowup charts of a pointed affine semigroup, any characteristic.

A chart is indexed by a d-subset A of the Hilbert basis whose determinant
is nonzero in the ground characteristic.  For h in A the replacement set
collects g - h over the leftover Hilbert elements g whose substitution into
h's column keeps that determinant nonzero; the chart semigroup is generated
by the Hilbert basis together with all replacement sets.

The whole replacement table comes from one exact solve.  By Cramer's rule,
replacing column i of A by g gives det = (adj(A) g)_i, so one fraction-free
elimination of A against all leftover Hilbert elements, reduced mod p,
decides every (h, g) pair at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .exactmath import InvalidCharacteristic, Vec, is_prime, mat, solve, sub, vec
from .semigroup import AffineSemigroup, NotFullLatticeError
from .cone import NotPointedError


@dataclass
class BlowupChart:
    source: AffineSemigroup
    characteristic: int
    subset: tuple[Vec, ...]  # the chosen d Hilbert elements, sorted
    det_value: int  # det_p of the subset matrix
    g_sets: dict[Vec, tuple[Vec, ...]]  # h -> sorted replacement differences
    generators: tuple[Vec, ...]  # Hilbert basis union all replacement sets
    chart_semigroup: AffineSemigroup
    pointed: bool
    normalized_chart: Optional[AffineSemigroup] = None

    def subset_indices(self) -> tuple[int, ...]:
        """0-based positions of the subset inside the sorted Hilbert basis."""
        h = self.source.hilbert_basis()
        return tuple(h.index(a) for a in self.subset)


def _validated_subset(s: AffineSemigroup, subset: Sequence[Sequence[int]]) -> tuple[Vec, ...]:
    a = tuple(sorted(vec(x) for x in subset))
    if len(set(a)) != s.dim:
        raise ValueError(f"chart subset must contain {s.dim} distinct elements")
    basis = set(s.hilbert_basis())
    for x in a:
        if x not in basis:
            raise ValueError(f"{x} is not a Hilbert basis element")
    return a


def _check_characteristic(p: int) -> None:
    if p and not is_prime(p):
        raise InvalidCharacteristic(f"characteristic {p} is neither zero nor prime")


def _g_sets(
    s: AffineSemigroup, a: tuple[Vec, ...], p: int
) -> tuple[int, dict[Vec, tuple[Vec, ...]]]:
    """det_p of a validated subset and the replacement set of each member."""
    _check_characteristic(p)
    rest = [g for g in s.hilbert_basis() if g not in a]
    det_a, table = solve(mat(a), rest)
    dp = det_a % p if p else det_a
    if dp == 0:
        raise ValueError("chart subset has vanishing determinant in this characteristic")
    return dp, {
        h: tuple(sorted(sub(g, h) for g, col in zip(rest, table) if (col[i] % p if p else col[i])))
        for i, h in enumerate(a)
    }


def g_set(
    s: AffineSemigroup, subset: Sequence[Sequence[int]], h: Sequence[int], p: int
) -> tuple[Vec, ...]:
    """Replacement differences g - h for one member h of the chart subset."""
    a = _validated_subset(s, subset)
    hv = vec(h)
    if hv not in a:
        raise ValueError(f"{hv} is not in the chart subset")
    return _g_sets(s, a, p)[1][hv]


def chart(
    s: AffineSemigroup,
    subset: Sequence[Sequence[int]],
    p: int,
    normalize: bool = True,
) -> BlowupChart:
    """The blowup chart of s at the given Hilbert subset."""
    a = _validated_subset(s, subset)
    dp, gsets = _g_sets(s, a, p)
    gens = set(s.hilbert_basis())
    for diffs in gsets.values():
        gens.update(diffs)
    gens_sorted = tuple(sorted(gens))
    sa = AffineSemigroup(gens_sorted, s.dim)
    pointed = sa.is_pointed
    normalized = sa.saturate() if (pointed and normalize) else None
    return BlowupChart(
        source=s,
        characteristic=p,
        subset=a,
        det_value=dp,
        g_sets=gsets,
        generators=gens_sorted,
        chart_semigroup=sa,
        pointed=pointed,
        normalized_chart=normalized,
    )


def blowup_step(s: AffineSemigroup, p: int, normalized: bool = True) -> tuple[BlowupChart, ...]:
    """All charts of one blowup step, in lexicographic subset order.

    Charts with a non-pointed semigroup are kept and flagged; their
    normalization is not computed.  The subset family itself does not
    depend on the normalized flag; it is read from the semigroup's cached
    minor table, which a search has already filled by fingerprinting.
    """
    _check_characteristic(p)
    if not s.is_pointed:
        raise NotPointedError("blowup requires a pointed semigroup")
    if not s.generates_full_lattice():
        raise NotFullLatticeError("blowup requires generators spanning Z^d as a group")
    subsets = itertools.combinations(s.hilbert_basis(), s.dim)
    return tuple(
        chart(s, combo, p, normalize=normalized)
        for combo, m in zip(subsets, s.hilbert_minors())
        if (m % p if p else m)
    )
