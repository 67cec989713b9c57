"""Acceptance run: one test per numbered criterion.

Every test recomputes its claim from scratch with exact integers, prints
a single pass/fail line (shown with `pytest -s`), and enforces the
stated runtime budget.  Criterion 7 runs the search at the default
depth/node limits with early halt once the length-1 cycle is certified.
"""

import random
import time

from helpers import oracle_hilbert_basis, random_pointed_gens, random_unimodular

from toricnash import fixtures
from toricnash.cone import Cone
from toricnash.exactmath import add, det_p, identity, is_unimodular, mat_apply, mat_mul, solve, vec
from toricnash.iso import (
    certificate_for_matrix,
    find_isomorphism,
    fingerprint,
    verify_certificate,
)
from toricnash.nash import blowup_step, chart, g_set
from toricnash.search import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_NODES,
    TERMINATION_CYCLE,
    explore,
    verify_report_cycles,
)
from toricnash.semigroup import AffineSemigroup, saturation_hilbert_basis
from toricnash.verify import run_all_checks

P = fixtures.LOOP_CHARACTERISTIC


def _report(num: int, budget: float, started: float, ok: bool, detail: str) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} ({elapsed:.2f}s): {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def _loop_chart(normalize: bool = False):
    return chart(fixtures.source_semigroup(), fixtures.chart_subset_vectors(), P, normalize)


def test_criterion_01_hilbert_basis_of_source_cone():
    t = time.perf_counter()
    computed = set(saturation_hilbert_basis(Cone(fixtures.B_COLUMNS, 5)))
    ninth = (1, 1, 0, 1, -1)
    ok = computed == set(fixtures.H_VECTORS) and ninth in computed
    _report(1, 5.0, t, ok, f"basis has {len(computed)} elements, ninth={ninth}")


def test_criterion_02_replacement_determinant_table():
    t = time.perf_counter()
    ordered = tuple(fixtures.hv(i) for i in fixtures.CHART_SUBSET)
    base = det_p(ordered, P)
    zeros = set()
    nonzeros = 0
    complement = [i for i in range(1, 10) if i not in fixtures.CHART_SUBSET]
    for pos, a in enumerate(fixtures.CHART_SUBSET):
        for g in complement:
            cols = list(ordered)
            cols[pos] = fixtures.hv(g)
            if det_p(tuple(cols), P) == 0:
                zeros.add((a, g))
            else:
                nonzeros += 1
    ok = base == 2 and zeros == set(fixtures.DET_ZERO_PAIRS) and nonzeros == 15
    _report(2, 1.0, t, ok, f"det={base}, {len(zeros)} zeros / {nonzeros} nonzeros, zeros={sorted(zeros)}")


def test_criterion_03_chart_generator_union():
    t = time.perf_counter()
    source = fixtures.source_semigroup()
    subset = fixtures.chart_subset_vectors()
    sizes = []
    blocks_ok = True
    for a, block in fixtures.REPLACEMENT_BLOCKS.items():
        got = g_set(source, subset, fixtures.hv(a), P)
        want = tuple(sorted(tuple(x - y for x, y in zip(fixtures.hv(g), fixtures.hv(a))) for g in block))
        sizes.append(len(got))
        if got != want:
            blocks_ok = False
    gens = _loop_chart().generators
    ok = blocks_ok and tuple(sizes) == (4, 3, 2, 4, 2) and tuple(gens) == fixtures.expected_chart_generators()
    _report(3, 1.0, t, ok, f"block sizes {tuple(sizes)}, {len(gens)} distinct generators")


def test_criterion_04_decompositions_and_generation():
    t = time.perf_counter()
    held = sum(
        1
        for target, a, b in fixtures.DECOMPOSITION_TERMS
        if fixtures.term_vector(target) == add(fixtures.term_vector(a), fixtures.term_vector(b))
    )
    ca, cb = fixtures.COINCIDENT_TERMS
    coincide = fixtures.term_vector(ca) == fixtures.term_vector(cb)
    listed = AffineSemigroup(fixtures.expected_chart_hilbert(), 5)
    generated = listed.same_semigroup(_loop_chart().chart_semigroup)
    ok = held == len(fixtures.DECOMPOSITION_TERMS) and coincide and generated
    _report(
        4, 5.0, t, ok,
        f"{held}/{len(fixtures.DECOMPOSITION_TERMS)} displayed identities, "
        f"coincident difference={coincide}, listed elements generate chart={generated}",
    )


def test_criterion_05_loop_certificate_and_independent_search():
    t = time.perf_counter()
    source = fixtures.source_semigroup()
    chart_s = _loop_chart().chart_semigroup
    uni = is_unimodular(fixtures.LOOP_MATRIX)
    images = all(
        mat_apply(fixtures.LOOP_MATRIX, fixtures.hv(i)) == fixtures.term_vector(term)
        for i, term in enumerate(fixtures.LOOP_IMAGE_TERMS, start=1)
    )
    valid = verify_certificate(source, chart_s, certificate_for_matrix(source, fixtures.LOOP_MATRIX))
    found = find_isomorphism(source, chart_s)
    independent = found is not None and verify_certificate(source, chart_s, found)
    ok = uni and images and valid and independent
    _report(
        5, 30.0, t, ok,
        f"unimodular={uni}, 9/9 images={images}, certificate valid={valid}, "
        f"search found its own certificate={independent}",
    )


def test_criterion_06_chart_pointed_saturated_nonnormalized_loop():
    t = time.perf_counter()
    ch = _loop_chart(normalize=True)
    sa = ch.chart_semigroup
    pointed = sa.is_pointed
    saturated = sa.is_saturated()
    unchanged = ch.normalized_chart is not None and set(ch.normalized_chart.hilbert_basis()) == set(
        sa.hilbert_basis()
    )
    report = explore(
        fixtures.source_semigroup(), P, max_depth=1, max_nodes=1000,
        cycle_lengths=(1,), normalized=False,
    )
    raw_loop = 1 in report.cycle_lengths_found() and verify_report_cycles(report)
    ok = pointed and saturated and unchanged and raw_loop
    _report(
        6, 5.0, t, ok,
        f"pointed={pointed}, saturated={saturated}, normalization fixes chart={unchanged}, "
        f"loop without normalization={raw_loop}",
    )


def test_criterion_07_search_reports_one_step_loop():
    t = time.perf_counter()
    report = explore(
        fixtures.source_semigroup(), P,
        max_depth=DEFAULT_MAX_DEPTH, max_nodes=DEFAULT_MAX_NODES,
        cycle_lengths=(1,), halt_on_cycle=True,
    )
    lengths = report.cycle_lengths_found()
    sound = verify_report_cycles(report)
    ok = 1 in lengths and sound and report.termination == TERMINATION_CYCLE
    _report(
        7, 300.0, t, ok,
        f"cycle lengths {sorted(lengths)} at default limits (halted on first cycle), "
        f"certificates re-verified={sound}",
    )


def test_criterion_08_two_step_loop_in_dimension_four():
    t = time.perf_counter()
    cone = Cone(fixtures.DIM4_CHAR3_COLUMNS, 4)
    start = AffineSemigroup(saturation_hilbert_basis(cone), 4)
    report = explore(start, P, max_depth=2, max_nodes=DEFAULT_MAX_NODES, cycle_lengths=(1, 2))
    lengths = report.cycle_lengths_found()
    two_cycles = [c for c in report.cycles if c.length == 2]
    through_start = any(report.start_key in c.node_keys for c in two_cycles)
    one_at_start = any(
        c.length == 1 and report.start_key in c.node_keys for c in report.cycles
    )
    sound = verify_report_cycles(report)
    ok = 2 in lengths and through_start and not one_at_start and sound
    _report(
        8, 1800.0, t, ok,
        f"cycle lengths {sorted(lengths)} within depth 2, period-2 loop through start={through_start}, "
        f"no period-1 loop at start={not one_at_start}, certificates re-verified={sound}",
    )


def test_criterion_09_binomial_balances():
    t = time.perf_counter()
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
    doubled_ninth = add(fixtures.hv(9), fixtures.hv(9))
    sample = doubled_ninth == add(add(fixtures.hv(3), fixtures.hv(4)), fixtures.hv(6)) == (2, 2, 0, 2, -2)
    ok = balanced == len(fixtures.BINOMIAL_BALANCES) == 10 and sample
    _report(9, 1.0, t, ok, f"{balanced}/10 balances hold, worked sample={sample}")


def test_criterion_10_property_suites():
    t = time.perf_counter()
    rng = random.Random(20260826)

    oracle_ok = 0
    for _ in range(50):
        dim = rng.choice((2, 3))
        gens = random_pointed_gens(rng, dim, rng.randint(dim, dim + 3))
        computed = set(saturation_hilbert_basis(Cone(gens, dim)))
        if computed == set(oracle_hilbert_basis(gens)):
            oracle_ok += 1

    idempotent = 0
    for _ in range(10):
        dim = rng.choice((2, 3))
        s = AffineSemigroup(random_pointed_gens(rng, dim, dim + 2), dim)
        once = s.saturate()
        twice = once.saturate()
        if set(once.hilbert_basis()) == set(twice.hilbert_basis()) and once.is_saturated():
            idempotent += 1

    trivial = 0
    for _ in range(5):
        dim = rng.choice((2, 3))
        twist = random_unimodular(rng, dim)
        s = AffineSemigroup(twist, dim)
        charts = blowup_step(s, P)
        if len(charts) == 1 and charts[0].chart_semigroup.same_semigroup(s):
            trivial += 1

    base = AffineSemigroup(
        saturation_hilbert_basis(Cone(fixtures.DIM4_CHAR3_COLUMNS, 4)), 4
    )
    fp = fingerprint(base)
    invariant = 0
    for _ in range(30):
        m = random_unimodular(rng, 4)
        twisted = AffineSemigroup(tuple(mat_apply(m, g) for g in base.generators), 4)
        if fingerprint(twisted) == fp:
            invariant += 1

    m1 = random_unimodular(rng, 4)
    m2 = random_unimodular(rng, 4)
    sem_b = AffineSemigroup(tuple(mat_apply(m1, g) for g in base.generators), 4)
    sem_c = AffineSemigroup(tuple(mat_apply(m2, g) for g in sem_b.generators), 4)
    ab = find_isomorphism(base, sem_b)
    bc = find_isomorphism(sem_b, sem_c)
    symmetric = False
    if ab is not None:
        d, adj = solve(ab.matrix, identity(4))  # the inverse is adj / d, d = +-1
        inverse = tuple(tuple(d * e for e in col) for col in adj)
        symmetric = verify_certificate(sem_b, base, certificate_for_matrix(sem_b, inverse))
    composed = (
        ab is not None
        and bc is not None
        and verify_certificate(
            base, sem_c, certificate_for_matrix(base, mat_mul(bc.matrix, ab.matrix))
        )
    )

    ok = (
        oracle_ok == 50
        and idempotent == 10
        and trivial == 5
        and invariant == 30
        and symmetric
        and composed
    )
    _report(
        10, 120.0, t, ok,
        f"oracle agreement {oracle_ok}/50, saturation idempotent {idempotent}/10, "
        f"smooth charts trivial {trivial}/5, fingerprint invariant {invariant}/30, "
        f"certificate inverse={symmetric}, composition={composed}",
    )


def test_criterion_11_negative_controls():
    t = time.perf_counter()
    corrupted = list(fixtures.H_VECTORS)
    corrupted[8] = (1, 1, 0, 1, 1)
    bad_basis = run_all_checks(expected_hilbert=corrupted)
    catches_basis = (
        not bad_basis.passed
        and next(c for c in bad_basis.checks if not c.passed).name == "hilbert-basis-and-cover"
    )

    ordered = tuple(fixtures.hv(i) for i in fixtures.CHART_SUBSET)
    base5 = det_p(ordered, 5)
    zeros5 = set()
    complement = [i for i in range(1, 10) if i not in fixtures.CHART_SUBSET]
    for pos, a in enumerate(fixtures.CHART_SUBSET):
        for g in complement:
            cols = list(ordered)
            cols[pos] = fixtures.hv(g)
            if det_p(tuple(cols), 5) == 0:
                zeros5.add((a, g))
    # every tabulated zero vanishes over the integers and every nonzero has
    # |det| < 5, so mod 5 the zero set is unchanged and the control trips on
    # the unit determinant instead (2 mod 3 vs 4 mod 5)
    wrong_char = run_all_checks(p=5)
    catches_char = (
        base5 == 4
        and zeros5 == set(fixtures.DET_ZERO_PAIRS)
        and not wrong_char.passed
        and next(c for c in wrong_char.checks if not c.passed).name == "replacement-determinant-table"
    )

    source = fixtures.source_semigroup()
    chart_s = _loop_chart().chart_semigroup
    doubled = tuple(tuple(2 * x for x in col) for col in fixtures.LOOP_MATRIX)
    catches_matrix = not is_unimodular(doubled) and not verify_certificate(
        source, chart_s, certificate_for_matrix(source, doubled)
    )

    ok = catches_basis and catches_char and catches_matrix
    _report(
        11, 60.0, t, ok,
        f"corrupted basis caught={catches_basis}, wrong characteristic caught={catches_char} "
        f"(mod-5 unit det {base5}, zero set unchanged), non-unimodular matrix caught={catches_matrix}",
    )
