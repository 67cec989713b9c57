"""A short traced run of each benchmark workload exits 0 with every answer right.

The tracer wraps the program's functions and observes their results, so a
change can pass the suite and still fail an operation, or give a wrong
answer, under the tracer.  The runs use a copy of bench/ beside a link to
src/, so they leave no file under bench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    top = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", ".out")
    shutil.copytree(ROOT / "bench", top / "bench", ignore=ignore)
    (top / "src").symlink_to(ROOT / "src")
    return top


@pytest.mark.parametrize("workload", ["search", "certify", "hilbert"])
def test_a_traced_run_is_correct(checkout, workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "91",
         "--seconds", "0.2", "--trace", "1"],
        cwd=checkout, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "certify":
        # a pass loads three graphs and checks their cycles; the ledgers check more
        # cycles, so a function hidden from the tracer by a rebinding reads 0 here
        assert metrics["search.load_graph.calls"] == 3
        assert metrics["search.verify_report_cycles.calls"] >= 3
        # every isomorphism query of the ledgers has an answer, and one corrupted
        # control certificate per corpus graph is rejected
        calls = metrics["iso.find_isomorphism.calls"]
        assert metrics["iso.find_isomorphism.found"] == calls > 0
        assert metrics["iso.verify_certificate.rejected"] == 3
    if workload == "search":
        # the start's lattice test; every node built from a cone knows it spans Z^d
        assert metrics["exactmath.hermite_form.calls"] == 1
    if workload == "hilbert":  # every cone is full-dimensional and pointed
        assert metrics["exactmath.hermite_form.calls"] == 0
        # each Cone runs one dual description, and the tracer counts its facets
        assert metrics["cone.dual_description.calls"] == metrics["cone.Cone.calls"] > 0
        assert metrics["cone.dual_description.rays"] > 0
