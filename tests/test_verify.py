import os

import pytest

from toricnash import verify
from toricnash.fixtures import H_VECTORS, LOOP_MATRIX
from toricnash.nash import chart
from toricnash.verify import CheckResult, run_all_checks, run_lineage_check

EXPECTED_NAMES = [
    "pointed-with-grading",
    "hilbert-basis-and-cover",
    "replacement-determinant-table",
    "chart-difference-blocks",
    "decomposition-identities",
    "chart-semigroup-generated",
    "loop-certificate",
    "chart-pointed-saturated",
    "one-step-loop-search",
    "non-normalized-loop",
    "binomial-balances",
]


@pytest.fixture(scope="module")
def ledger():
    return run_all_checks()


def test_all_checks_pass(ledger):
    assert ledger.passed
    assert all(c.passed for c in ledger.checks)


def test_check_names_and_order(ledger):
    assert [c.name for c in ledger.checks] == EXPECTED_NAMES


def test_render_human(ledger):
    text = ledger.render()
    lines = text.splitlines()
    assert len(lines) == 12
    assert all(l.startswith("[PASS] ") for l in lines[:-1])
    assert lines[-1] == "overall: PASS (11 of 11 checks passed)"


def test_render_machine(ledger):
    text = ledger.render(machine=True)
    lines = text.splitlines()
    assert lines[-1] == "overall pass"
    for c, l in zip(ledger.checks, lines):
        assert l.startswith(f"check {c.name} pass ")


def test_check_result_line():
    assert CheckResult("x", True, "w").line() == "[PASS] x: w"
    assert CheckResult("x", False, "w").line() == "[FAIL] x: w"


def test_corrupted_hilbert_basis_detected():
    bad = list(H_VECTORS)
    bad[8] = (1, 1, 0, 1, 1)  # flip the sign that makes h9 interesting
    ledger = run_all_checks(expected_hilbert=bad)
    assert not ledger.passed
    assert next(c for c in ledger.checks if not c.passed).name == "hilbert-basis-and-cover"


def test_wrong_characteristic_detected():
    ledger = run_all_checks(p=5)
    assert not ledger.passed
    first = next(c for c in ledger.checks if not c.passed)
    assert first.name == "replacement-determinant-table"
    assert "det=4" in first.witness


def test_doubled_certificate_detected():
    doubled = tuple(tuple(2 * x for x in col) for col in LOOP_MATRIX)
    ledger = run_all_checks(certificate_matrix=doubled)
    failed = [c.name for c in ledger.checks if not c.passed]
    assert failed == ["loop-certificate"]


def test_crash_becomes_failure_not_exception():
    # a 2x2 matrix cannot act on 5-vectors; the check must fail, not raise
    ledger = run_all_checks(certificate_matrix=((1, 0), (0, 1)))
    bad = [c for c in ledger.checks if not c.passed]
    assert [c.name for c in bad] == ["loop-certificate"]
    assert bad[0].witness.startswith("raised ")


def test_a_chart_that_raises_fails_each_chart_check(monkeypatch):
    calls = []

    def broken_chart(*args, **kwargs):
        calls.append(args)
        raise ValueError("no chart")

    monkeypatch.setattr(verify, "chart", broken_chart)
    ledger = run_all_checks()
    bad = [(c.name, c.witness) for c in ledger.checks if not c.passed]
    assert bad == [(name, "raised ValueError: no chart") for name in EXPECTED_NAMES[3:8]]
    assert len(calls) == 5  # a failed build is not kept


def test_chart_checks_build_one_chart(monkeypatch):
    calls = []

    def counted_chart(*args, **kwargs):
        calls.append(args)
        return chart(*args, **kwargs)

    monkeypatch.setattr(verify, "chart", counted_chart)
    assert run_all_checks().passed
    assert len(calls) == 1


def test_lineage_check_wiring():
    # shallow limits: exercises the plumbing without the long search
    result = run_lineage_check(max_depth=1, max_nodes=50)
    assert result.name == "lineage-from-simplex-cone"
    assert "node" in result.witness


@pytest.mark.skipif(
    not os.environ.get("TORICNASH_RUN_LINEAGE"),
    reason="set TORICNASH_RUN_LINEAGE=1 to run the long ancestry search",
)
def test_lineage_full_depth():
    result = run_lineage_check()
    assert result.passed, result.witness
