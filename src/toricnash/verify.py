"""Machine verification of the embedded five-dimensional loop example.

Every numerical claim about the fixture data is recomputed here from
first principles: the Hilbert basis, the replacement-determinant table,
the chart generator blocks, the displayed decompositions, the loop
certificate, and the search results.  `run_all_checks` returns a ledger
of named pass/fail results with witnesses; the overrides exist so tests
can force controlled failures (corrupted data must be caught, not
silently absorbed).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import fixtures
from .exactmath import Mat, Vec, add, det, det_p, dot, is_unimodular, mat_apply, sub, vec
from .iso import certificate_for_matrix, find_isomorphism, verify_certificate
from .nash import chart, g_set
from .search import explore, verify_report_cycles
from .semigroup import AffineSemigroup, saturation_hilbert_basis


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.witness}"


@dataclass
class VerificationLedger:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> Optional[CheckResult]:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def render(self, machine: bool = False) -> str:
        if machine:
            lines = [
                "check {} {} {}".format(c.name, "pass" if c.passed else "fail", c.witness)
                for c in self.checks
            ]
            lines.append("overall {}".format("pass" if self.passed else "fail"))
        else:
            lines = [c.line() for c in self.checks]
            lines.append(
                "overall: {} ({} of {} checks passed)".format(
                    "PASS" if self.passed else "FAIL",
                    sum(1 for c in self.checks if c.passed),
                    len(self.checks),
                )
            )
        return "\n".join(lines)


def _check(name: str, fn: Callable[[], tuple[bool, str]]) -> CheckResult:
    try:
        ok, witness = fn()
    except Exception as exc:  # a crash is a failing check, not a crash of the ledger
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
    return CheckResult(name, ok, witness)


def run_all_checks(
    p: int = fixtures.LOOP_CHARACTERISTIC,
    expected_hilbert: Optional[Sequence[Vec]] = None,
    certificate_matrix: Optional[Mat] = None,
) -> VerificationLedger:
    """Recompute every fixture claim; overrides are for negative controls."""
    expected_h = tuple(
        vec(v) for v in (expected_hilbert if expected_hilbert is not None else fixtures.H_VECTORS)
    )
    cert_matrix = certificate_matrix if certificate_matrix is not None else fixtures.LOOP_MATRIX

    source = fixtures.source_semigroup()
    cone = source.cone
    subset_vectors = fixtures.chart_subset_vectors()
    checks: list[CheckResult] = []

    # checks 4-8 read one chart; a build that raises fails each of them on its own
    @functools.cache
    def loop_chart():
        return chart(source, subset_vectors, p, normalize=True)

    # 1. pointedness via the all-ones functional
    def c1() -> tuple[bool, str]:
        ones = vec([1] * 5)
        values = tuple(dot(ones, h) for h in fixtures.H_VECTORS)
        ok = (
            cone.is_pointed
            and cone.is_full_dimensional
            and values[:5] == (1, 1, 1, 1, 1)
            and all(v >= 2 for v in values[5:])
        )
        return ok, f"grading values {values}, pointed={cone.is_pointed}"

    checks.append(_check("pointed-with-grading", c1))

    # 2. Hilbert basis recomputed from the cone, plus the unimodular cover
    def c2() -> tuple[bool, str]:
        computed = saturation_hilbert_basis(cone)
        ok = set(computed) == set(expected_h)
        dets = []
        inside = True
        for subset in fixtures.COVER_SUBSETS:
            cols = tuple(fixtures.hv(i) for i in subset)
            dets.append(abs(det(cols)))
            if not all(cone.contains(v) for v in cols):
                inside = False
        cover_ok = all(d == 1 for d in dets) and inside
        witness = f"|H|={len(computed)}, matches={ok}, cover |det|s={tuple(dets)}"
        return ok and cover_ok, witness

    checks.append(_check("hilbert-basis-and-cover", c2))

    # 3. the twenty replacement determinants and their zero pattern
    def c3() -> tuple[bool, str]:
        ordered = tuple(fixtures.hv(i) for i in fixtures.CHART_SUBSET)
        base = det_p(ordered, p)
        base_ok = base == 2
        zeros = set()
        complement = [i for i in range(1, 10) if i not in fixtures.CHART_SUBSET]
        # each determinant taken directly, as the paper states it, so this
        # check does not share the minor table that nash's g-sets read
        for pos, a in enumerate(fixtures.CHART_SUBSET):
            for g in complement:
                cols = list(ordered)
                cols[pos] = fixtures.hv(g)
                if det_p(tuple(cols), p) == 0:
                    zeros.add((a, g))
        ok = base_ok and zeros == set(fixtures.DET_ZERO_PAIRS)
        witness = f"det={base}, zeros at {sorted(zeros)} (expected {sorted(fixtures.DET_ZERO_PAIRS)})"
        return ok, witness

    checks.append(_check("replacement-determinant-table", c3))

    # 4. per-element difference blocks and the full chart generator set
    def c4() -> tuple[bool, str]:
        sizes = []
        ok = True
        for a, block in fixtures.REPLACEMENT_BLOCKS.items():
            got = g_set(source, subset_vectors, fixtures.hv(a), p)
            want = tuple(sorted(sub(fixtures.hv(g), fixtures.hv(a)) for g in block))
            sizes.append(len(got))
            if got != want:
                ok = False
        ch = loop_chart()
        expected_gens = fixtures.expected_chart_generators()
        if tuple(ch.generators) != expected_gens:
            ok = False
        return ok, f"block sizes {tuple(sizes)}, generator count {len(ch.generators)}"

    checks.append(_check("chart-difference-blocks", c4))

    # 5. displayed decompositions, the coincident difference, completeness
    def c5() -> tuple[bool, str]:
        held = 0
        for target, t1, t2 in fixtures.DECOMPOSITION_TERMS:
            lhs = fixtures.term_vector(target)
            rhs = add(fixtures.term_vector(t1), fixtures.term_vector(t2))
            if lhs == rhs:
                held += 1
        ta, tb = fixtures.COINCIDENT_TERMS
        coincide = fixtures.term_vector(ta) == fixtures.term_vector(tb)
        ch = loop_chart()
        basis = set(fixtures.expected_chart_hilbert())
        targets = {fixtures.term_vector(t) for t, _, _ in fixtures.DECOMPOSITION_TERMS}
        covered = basis | targets | {fixtures.term_vector(fixtures.COINCIDENT_TERMS[0])}
        complete = set(ch.generators) == covered
        terms_closed = all(
            fixtures.term_vector(t) in covered
            for _, t1, t2 in fixtures.DECOMPOSITION_TERMS
            for t in (t1, t2)
        )
        ok = held == len(fixtures.DECOMPOSITION_TERMS) and coincide and complete and terms_closed
        return ok, (
            f"{held}/{len(fixtures.DECOMPOSITION_TERMS)} identities, coincidence={coincide}, "
            f"chart generators covered={complete}"
        )

    checks.append(_check("decomposition-identities", c5))

    # 6. the nine listed vectors generate the whole chart semigroup
    def c6() -> tuple[bool, str]:
        ch = loop_chart()
        listed = AffineSemigroup(fixtures.expected_chart_hilbert(), 5)
        ok = listed.same_semigroup(ch.chart_semigroup)
        return ok, f"mutual membership over {len(ch.generators)} and {len(listed.generators)} generators"

    checks.append(_check("chart-semigroup-generated", c6))

    # 7. the loop matrix is a certificate, matching all nine listed images
    def c7() -> tuple[bool, str]:
        ch = loop_chart()
        uni = is_unimodular(cert_matrix)
        images_ok = True
        for i, term in enumerate(fixtures.LOOP_IMAGE_TERMS, start=1):
            got = mat_apply(cert_matrix, fixtures.hv(i))
            if got != fixtures.term_vector(term):
                images_ok = False
        cert = certificate_for_matrix(source, cert_matrix)
        valid = verify_certificate(source, ch.chart_semigroup, cert)
        indep = find_isomorphism(source, ch.chart_semigroup)
        indep_ok = indep is not None and verify_certificate(source, ch.chart_semigroup, indep)
        ok = uni and images_ok and valid and indep_ok
        return ok, (
            f"unimodular={uni}, images match={images_ok}, certificate valid={valid}, "
            f"independent search found one={indep_ok}"
        )

    checks.append(_check("loop-certificate", c7))

    # 8. the chart semigroup is pointed and saturated
    def c8() -> tuple[bool, str]:
        ch = loop_chart()
        sa = ch.chart_semigroup
        pointed = sa.is_pointed
        saturated = sa.is_saturated()
        same = ch.normalized_chart is not None and set(
            ch.normalized_chart.hilbert_basis()
        ) == set(sa.hilbert_basis())
        return pointed and saturated and same, (
            f"pointed={pointed}, saturated={saturated}, normalization unchanged={same}"
        )

    checks.append(_check("chart-pointed-saturated", c8))

    # 9. one-step loop found by the search itself
    def c9() -> tuple[bool, str]:
        report = explore(source, p, max_depth=1, max_nodes=1000, cycle_lengths=(1,))
        lengths = report.cycle_lengths_found()
        sound = verify_report_cycles(report)
        ok = 1 in lengths and sound
        return ok, (
            f"cycle lengths {sorted(lengths)}, nodes={report.nodes_explored}, "
            f"certificates re-verified={sound}"
        )

    checks.append(_check("one-step-loop-search", c9))

    # 10. the same chart also loops without normalization
    def c10() -> tuple[bool, str]:
        report = explore(
            source, p, max_depth=1, max_nodes=1000, cycle_lengths=(1,), normalized=False
        )
        ok = 1 in report.cycle_lengths_found() and verify_report_cycles(report)
        return ok, f"non-normalized cycle lengths {sorted(report.cycle_lengths_found())}"

    checks.append(_check("non-normalized-loop", c10))

    # 11. each binomial relation balances over the nine generators
    def c11() -> tuple[bool, str]:
        balanced = 0
        for expo_a, expo_b in fixtures.BINOMIAL_BALANCES:
            lhs = vec([0] * 5)
            rhs = vec([0] * 5)
            for i in range(9):
                if expo_a[i]:
                    lhs = add(lhs, tuple(expo_a[i] * x for x in fixtures.hv(i + 1)))
                if expo_b[i]:
                    rhs = add(rhs, tuple(expo_b[i] * x for x in fixtures.hv(i + 1)))
            if lhs == rhs:
                balanced += 1
        ok = balanced == len(fixtures.BINOMIAL_BALANCES)
        return ok, f"{balanced}/{len(fixtures.BINOMIAL_BALANCES)} relations balance"

    checks.append(_check("binomial-balances", c11))

    return VerificationLedger(checks)


def run_lineage_check(max_depth: int = 5, max_nodes: int = 200_000) -> CheckResult:
    """Long-running: the four-dimensional loop cone appears within depth
    `max_depth` of the index-five simplex cone's normalized Nash blowups.
    It first appears at depth five, hence the default; depth four finds no
    equivalent node.  Excluded from `run_all_checks`; reachable through the
    CLI flag.
    """

    def body() -> tuple[bool, str]:
        start = AffineSemigroup(
            saturation_hilbert_basis(_cone_from(fixtures.REEVES_COLUMNS, 4)), 4
        )
        target = AffineSemigroup(
            saturation_hilbert_basis(_cone_from(fixtures.DIM4_CHAR3_COLUMNS, 4)), 4
        )
        report = explore(
            start,
            fixtures.LOOP_CHARACTERISTIC,
            max_depth=max_depth,
            max_nodes=max_nodes,
            cycle_lengths=(),
        )
        for key, node in report.nodes.items():
            cert = find_isomorphism(target, node.semigroup)
            if cert is not None:
                return True, f"equivalent node {key} at depth {node.depth}"
        return False, f"no equivalent node among {report.nodes_explored} ({report.termination})"

    return _check("lineage-from-simplex-cone", body)


def _cone_from(columns: Sequence[Vec], dim: int):
    from .cone import Cone

    return Cone(columns, dim)
