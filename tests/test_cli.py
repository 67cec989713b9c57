import hashlib
import importlib
import inspect
import os
import random
import subprocess
import sys
import time
from pathlib import Path

try:
    import fcntl
except ImportError:  # not on every platform
    fcntl = None

import pytest

from toricnash import cli, exactmath, search, semigroup
from toricnash.cli import EXIT_MATH, EXIT_OK, EXIT_PIPE, EXIT_RESOURCE, EXIT_USAGE, build_parser, main
from toricnash.conefile import MAX_DIMENSION
from toricnash.exactmath import MAX_CHARACTERISTIC
from toricnash.iso import certificate_for_matrix, find_isomorphism, verify_certificate
from toricnash.nash import chart
from toricnash.search import load_graph, verify_report_cycles

from helpers import CORPUS, FORGED_B_NODES, forge_node, redundant_start_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_builtin_b(capsys):
    code, out, _ = run(capsys, "hilbert", "builtin:B")
    lines = out.strip().splitlines()
    assert code == EXIT_OK
    assert len(lines) == 9
    assert lines[-1] == "1 1 0 1 -1"
    assert lines[0] == "1 0 0 0 0"


def test_hilbert_stops_at_the_parallelepiped_budget(tmp_path, capsys):
    # cone((1, 0), (-1, N)) has index N but a 3-element Hilbert basis
    small, large = tmp_path / "small.cone", tmp_path / "large.cone"
    small.write_text("dim 2\n1 0\n-1 20000\n")
    large.write_text("dim 2\n1 0\n-1 200000\n")
    code, out, _ = run(capsys, "hilbert", str(small))
    assert (code, out) == (EXIT_OK, "1 0\n-1 20000\n0 1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "hilbert", str(large))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err.startswith("toricnash: ") and "200000" in err
    assert err.count("\n") == 1


def test_a_cone_file_past_the_dimension_bound_exits_3(tmp_path, capsys):
    # a bare `dim d` line builds a cone over 2d constraints: refused before any is built
    path = tmp_path / "wide.cone"
    path.write_text("dim 200\n")
    for command in ("hilbert", "blowup", "search"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err.startswith(f"toricnash: {path}: line 1: dimension 200 ")
        assert str(MAX_DIMENSION) in err and err.count("\n") == 1
    path.write_text(f"dim {MAX_DIMENSION}\n")
    assert run(capsys, "hilbert", str(path))[:2] == (EXIT_OK, "")


def test_blowup_and_search_stop_at_the_minor_table_budget(capsys, monkeypatch):
    # B has 9 Hilbert elements in dimension 5: the largest level holds C(9, 4) = 126 subsets
    monkeypatch.setattr(semigroup, "MAX_MINOR_SUBSETS", 125)
    for argv in (("blowup", "builtin:B"), ("search", "builtin:B", "--max-depth", "1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err.startswith("toricnash: the minor table of 9 Hilbert basis elements")
        assert "126" in err and err.count("\n") == 1
    monkeypatch.setattr(semigroup, "MAX_MINOR_SUBSETS", 126)
    assert run(capsys, "blowup", "builtin:B")[0] == EXIT_OK


def _general_position_wide_cone() -> str:
    """N^25 x C in Z^28, C the cone over the lattice pentagon
    conv{(0,0), (1,0), (2,1), (1,2), (0,1)} at height 1, moved by 60 random
    row additions: 30 rays, 31 Hilbert elements, and C(31, 28) = 4,495 subsets,
    over the fingerprint's cap, so the fingerprint reads the ray table."""
    pentagon = [(0, 0, 1), (1, 0, 1), (2, 1, 1), (1, 2, 1), (0, 1, 1)]
    rays = [tuple(int(i == j) for j in range(28)) for i in range(25)]
    rays += [(0,) * 25 + r for r in pentagon]
    u = [[int(i == j) for j in range(28)] for i in range(28)]
    rng = random.Random(1)
    for _ in range(60):
        i, j = rng.sample(range(28), 2)
        u[i] = [a + b for a, b in zip(u[i], u[j])]
    moved = [[sum(a * x for a, x in zip(row, r)) for row in u] for r in rays]
    return "dim 28\n" + "".join(" ".join(map(str, r)) + "\n" for r in moved)


def test_a_cone_with_a_huge_minor_table_exits_3(tmp_path):
    # 372 Hilbert elements in dimension 4: C(372, 4) = 785,115,765 minors.  In
    # dimension 28 the fingerprint's table of 30 rays has a level of
    # C(30, 15) = 155,117,520 subsets.  The child gets 1 GiB of address space,
    # so a missing budget fails the test instead of filling the machine's memory.
    resource = pytest.importorskip("resource")
    path, wide = tmp_path / "big.cone", tmp_path / "wide.cone"
    path.write_text("dim 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n313 1 246 369\n")
    wide.write_text(_general_position_wide_cone())

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for argv, want, count in (
        (("hilbert", path), EXIT_OK, None),
        (("blowup", path), EXIT_RESOURCE, "785115765"),
        (("search", path), EXIT_RESOURCE, "785115765"),
        (("search", wide, "--max-depth", "1"), EXIT_RESOURCE, "155117520"),
    ):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "toricnash", *map(str, argv)], capture_output=True,
            text=True, env=_module_env(), timeout=60, preexec_fn=limit,
        )
        assert done.returncode == want, done.stderr
        if want == EXIT_RESOURCE:
            assert time.perf_counter() - start < 10
            assert done.stdout == ""
            assert count in done.stderr and done.stderr.count("\n") == 1
        else:
            assert len(done.stdout.splitlines()) == 372


def test_hilbert_identity_cone(capsys):
    code, out, _ = run(capsys, "hilbert", "builtin:smooth3")
    assert code == EXIT_OK
    assert out.strip().splitlines() == ["1 0 0", "0 1 0", "0 0 1"]


def test_hilbert_a2(capsys):
    code, out, _ = run(capsys, "hilbert", "builtin:a2")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 3


def test_hilbert_from_file(tmp_path, capsys):
    p = tmp_path / "c.cone"
    p.write_text("dim 2\n1 0\n1 2\n")
    code, out, _ = run(capsys, "hilbert", str(p))
    assert code == EXIT_OK
    assert out.strip().splitlines() == ["1 0", "1 2", "1 1"]


def test_hilbert_nonpointed_exits_math(tmp_path, capsys):
    p = tmp_path / "c.cone"
    p.write_text("dim 2\n1 0\n-1 0\n0 1\n")
    code, _, err = run(capsys, "hilbert", str(p))
    assert code == EXIT_MATH
    assert "pointed" in err


def test_parse_error_exits_usage(tmp_path, capsys):
    p = tmp_path / "c.cone"
    p.write_text("dim 2\n1 zebra\n")
    code, _, err = run(capsys, "hilbert", str(p))
    assert code == EXIT_USAGE
    assert "line 2" in err


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "hilbert", "builtin:nope")
    assert code == EXIT_USAGE
    assert "unknown builtin" in err


def test_blowup_contains_loop_chart(capsys):
    code, out, _ = run(capsys, "blowup", "builtin:B", "--char", "3")
    assert code == EXIT_OK
    assert "chart {1,2,4,5,6} det 2 pointed yes" in out
    assert out.count("chart {") == 83


def test_blowup_smooth_trivial(capsys):
    code, out, _ = run(capsys, "blowup", "builtin:smooth3", "--char", "0")
    assert code == EXIT_OK
    assert out.count("chart {") == 1
    assert "pointed yes" in out


def test_blowup_reeves_chart_count(capsys):
    code, out, _ = run(capsys, "blowup", "builtin:reeves", "--char", "0")
    assert code == EXIT_OK
    assert out.count("chart {") == 35


def test_blowup_bad_characteristic(capsys):
    code, _, err = run(capsys, "blowup", "builtin:smooth3", "--char", "6")
    assert code == EXIT_USAGE
    assert "characteristic" in err.lower()


def test_char_defaults_to_cone_file_value(capsys):
    # builtin:B carries char 3; the loop chart appears without --char
    code, out, _ = run(capsys, "blowup", "builtin:B")
    assert code == EXIT_OK
    assert "chart {1,2,4,5,6} det 2 pointed yes" in out


def test_search_limits_default_to_those_of_explore():
    args = build_parser().parse_args(["search", "builtin:B"])
    params = inspect.signature(search.explore).parameters
    assert args.max_depth == params["max_depth"].default
    assert args.max_nodes == params["max_nodes"].default


def test_search_loop_found(capsys):
    code, out, _ = run(
        capsys, "search", "builtin:B", "--max-depth", "1", "--cycles", "1"
    )
    assert code == EXIT_OK
    assert "cycle length 1: found" in out
    assert "nodes 14" in out


def test_search_smooth_none(capsys):
    code, out, _ = run(capsys, "search", "builtin:smooth3", "--cycles", "1,2")
    assert code == EXIT_OK
    assert "cycle length 1: none" in out
    assert "cycle length 2: none" in out
    assert "nodes 1" in out


def test_search_two_cycle_in_dim4(capsys):
    code, out, _ = run(
        capsys, "search", "builtin:dim4char3", "--max-depth", "2", "--cycles", "1,2"
    )
    assert code == EXIT_OK
    assert "cycle length 1: none" in out
    assert "cycle length 2: found" in out


def test_search_node_limit_exit(capsys):
    code, out, _ = run(
        capsys, "search", "builtin:B", "--max-depth", "3", "--max-nodes", "5"
    )
    assert code == EXIT_RESOURCE
    assert "termination node-limit" in out


def test_search_save_and_load(tmp_path, capsys):
    path = str(tmp_path / "g.txt")
    code, out1, _ = run(
        capsys, "search", "builtin:B", "--max-depth", "1", "--save", path
    )
    assert code == EXIT_OK
    assert os.path.exists(path)
    code, out2, _ = run(capsys, "search", "--load", path, "--max-depth", "1")
    assert code == EXIT_OK
    assert "cycle length 1: found" in out2


def test_search_resumes_a_graph_saved_at_the_node_limit(tmp_path, capsys):
    cut, whole = tmp_path / "cut.graph", tmp_path / "whole.graph"
    code, _, _ = run(
        capsys, "search", "builtin:B", "--max-depth", "2", "--max-nodes", "10", "--save", str(cut)
    )
    assert code == EXIT_RESOURCE
    code, resumed, _ = run(
        capsys, "search", "--load", str(cut), "--max-depth", "2", "--save", str(cut)
    )
    assert code == EXIT_OK
    code, unbroken, _ = run(capsys, "search", "builtin:B", "--max-depth", "2", "--save", str(whole))
    assert code == EXIT_OK
    assert resumed == unbroken
    assert cut.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize(
    "extra, message",
    [
        (("--char", "5"), "--char 5 differs from {path}, which has characteristic 3"),
        (("--no-normalized",), "--no-normalized differs from {path}, which was searched normalized"),
        (("builtin:a2",), "a cone argument cannot be given with --load"),
    ],
    ids=["char", "mode", "cone"],
)
def test_search_load_refuses_an_option_the_file_fixes(tmp_path, capsys, extra, message):
    path = str(tmp_path / "b.graph")
    assert run(capsys, "search", "builtin:B", "--max-depth", "1", "--save", path)[0] == EXIT_OK
    code, out, err = run(capsys, "search", "--load", path, "--max-depth", "1", *extra)
    assert (code, out, err) == (EXIT_USAGE, "", f"toricnash: {message.format(path=path)}\n")


def test_search_load_refuses_normalized_on_a_plain_graph(tmp_path, capsys):
    path = str(tmp_path / "b.graph")
    argv = ("search", "builtin:B", "--max-depth", "1", "--no-normalized")
    assert run(capsys, *argv, "--save", path)[0] == EXIT_OK
    code, out, err = run(capsys, "search", "--load", path, "--max-depth", "1", "--normalized")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"toricnash: --normalized differs from {path}, which was searched not normalized\n"


def test_search_load_accepts_the_values_the_file_has(tmp_path, capsys):
    path = str(tmp_path / "b.graph")
    code, saved, _ = run(capsys, "search", "builtin:B", "--max-depth", "1", "--save", path)
    assert code == EXIT_OK
    for extra in ((), ("--char", "3"), ("--normalized",), ("--char", "3", "--normalized")):
        assert run(capsys, "search", "--load", path, "--max-depth", "1", *extra) == (
            EXIT_OK, saved, ""
        )


def test_search_save_into_a_missing_directory_is_refused_before_the_search(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "explore", lambda *a, **k: pytest.fail("the search ran"))
    path = tmp_path / "missing" / "x.graph"
    code, out, err = run(capsys, "search", "builtin:a2", "--max-depth", "1", "--save", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"toricnash: cannot write {path}: no directory {path.parent}\n"
    monkeypatch.setattr(os, "access", lambda *a, **k: False)
    path = tmp_path / "x.graph"
    code, out, err = run(capsys, "search", "builtin:a2", "--max-depth", "1", "--save", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"toricnash: cannot write {path}: directory {tmp_path} is not writable\n"


def test_search_save_onto_a_directory_is_refused_before_the_search(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "explore", lambda *a, **k: pytest.fail("the search ran"))
    target = tmp_path / "dd"
    target.mkdir()
    code, out, err = run(capsys, "search", "builtin:a2", "--max-depth", "1", "--save", str(target))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"toricnash: cannot write {target}: it is a directory\n"
    assert os.listdir(target) == []


def test_search_save_that_fails_late_exits_1_and_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    # the directory is writable, but the rename of the temp file onto the target fails
    def refuse(src, dst):
        raise OSError(f"cannot rename {src}")

    monkeypatch.setattr(os, "replace", refuse)
    folder = tmp_path / "out"
    folder.mkdir()
    target = folder / "g.graph"
    code, out, err = run(capsys, "search", "builtin:a2", "--max-depth", "1", "--save", str(target))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"toricnash: cannot write {target}: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["out"] and os.listdir(folder) == []


@pytest.mark.parametrize("d", [23, 32])
def test_a_smooth_start_of_high_dimension_is_one_node(tmp_path, capsys, d):
    # d Hilbert elements have one d-subset: no minor-table level is counted
    path = tmp_path / "orthant.cone"
    path.write_text(f"dim {d}\n" + "".join(
        " ".join(str(int(i == j)) for j in range(d)) + "\n" for i in range(d)
    ))
    start = time.perf_counter()
    code, out, err = run(capsys, "search", str(path))
    assert time.perf_counter() - start < 10.0
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1:4] == ["nodes 1", "edges 0", "termination exhausted"]


def test_a_graph_node_above_the_dimension_cap_exits_3_before_any_semigroup(
    tmp_path, capsys, monkeypatch
):
    def identity_graph(d):
        path = tmp_path / f"id{d}.graph"
        flat = " ".join(str(int(i == j)) for i in range(d) for j in range(d))
        path.write_text(f"meta 0 1 depth-limit S-0\nnode S-0 0 1 {d} {d} {flat}\n")
        return str(path)

    fits = identity_graph(MAX_DIMENSION)
    code, out, err = run(capsys, "search", "--load", fits, "--max-depth", "1")
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1:4] == ["nodes 1", "edges 0", "termination exhausted"]
    d = MAX_DIMENSION + 1
    too_big = identity_graph(d)
    monkeypatch.setattr(
        semigroup.AffineSemigroup, "__init__", lambda *a, **k: pytest.fail("a semigroup was built")
    )
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "--load", too_big, "--max-depth", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err == f"toricnash: line 2: node S-0 has dimension {d}, more than {MAX_DIMENSION}\n"


def _forge_certificate(path, pick, forge):
    """Rewrite the certificate of the one edge record that pick(fields)
    selects, in place, by forge(list of rows of int entries)."""
    with open(path) as fh:
        records = [line.split() for line in fh.read().splitlines()]
    picked = [r for r in records if r[0] == "edge" and pick(r)]
    assert len(picked) == 1
    parts = picked[0]
    d = int(parts[4])
    rows = [[int(x) for x in parts[5 + r * d : 5 + (r + 1) * d]] for r in range(d)]
    forge(rows)
    parts[5:] = [str(x) for row in rows for x in row]
    lines = [" ".join(r) for r in records]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _swap_rows(rows):
    assert rows[0] != rows[1]
    rows[0], rows[1] = rows[1], rows[0]


def _double_first_column(rows):
    for row in rows:
        row[0] *= 2


def test_search_load_rejects_forged_cycle_certificate(tmp_path, capsys):
    path = str(tmp_path / "g.txt")
    code, saved, _ = run(capsys, "search", "builtin:B", "--max-depth", "1", "--save", path)
    assert code == EXIT_OK
    code, out, _ = run(capsys, "search", "--load", path, "--max-depth", "1")
    assert code == EXIT_OK
    assert out == saved  # an honest file reloads to the same report
    _forge_certificate(path, lambda r: r[1] == r[2], _swap_rows)  # the one-step loop
    code, out, err = run(capsys, "search", "--load", path, "--max-depth", "1")
    assert code == EXIT_MATH
    assert "node 89f996bf9b7b-0 does not check out" in err
    assert "found" not in out


def test_search_load_rejects_a_forged_edge_off_every_cycle(tmp_path, capsys):
    # neither a cycle edge nor the only edge that reaches its smooth target
    path = tmp_path / "B.graph"
    path.write_text((CORPUS / "B.graph").read_text())
    _forge_certificate(
        path, lambda r: r[1:4] == ["89f996bf9b7b-0", "9067582a63d1-0", "2,4,5,7,8"], _swap_rows
    )
    code, out, err = run(capsys, "search", "--load", str(path), "--max-depth", "2")
    assert code == EXIT_MATH
    assert out == ""
    assert err.startswith(f"toricnash: {path}: node 9067582a63d1-0 does not check out")
    assert err.count("\n") == 1


def test_search_load_rejects_a_certificate_with_a_doubled_column(tmp_path, capsys):
    # the doubled column makes the certificate's determinant 2
    path = tmp_path / "B.graph"
    path.write_text((CORPUS / "B.graph").read_text())
    _forge_certificate(
        path,
        lambda r: r[1:4] == ["89f996bf9b7b-0", "9067582a63d1-0", "2,4,5,7,8"],
        _double_first_column,
    )
    code, out, err = run(capsys, "search", "--load", str(path), "--max-depth", "2")
    assert code == EXIT_MATH
    assert out == ""
    assert err.startswith(f"toricnash: {path}: node 9067582a63d1-0 does not check out")


def test_search_load_rejects_a_loop_whose_certificate_is_not_unimodular(tmp_path, capsys):
    # The A1 singularity cone((1, 0), (1, 2)) has Hilbert basis (1, 0), (1, 1),
    # (1, 2).  Its chart at the first two is the smooth cone((0, 1), (1, 0)),
    # and M = [[1, 1], [0, 2]] maps that chart's rays onto the node's rays:
    # only |det M| = 2 tells this claimed one-step loop from a true one.
    path = tmp_path / "g.txt"
    path.write_text("meta 0 1 exhausted a\nnode a 0 0 2 3 1 0 1 1 1 2\nedge a a 0,1 2 1 1 0 2\n")
    code, out, err = run(capsys, "search", "--load", str(path))
    assert code == EXIT_MATH
    assert "found" not in out
    assert err.startswith(f"toricnash: {path}: node a does not check out")


@pytest.mark.parametrize(
    "data, message",
    [
        (b"meta 3 1 exhausted a\nnode a 0 0 1 1 1\nbogus\n", "line 3: unknown record kind 'bogus'"),
        (b"meta 3 1 exhausted ghost\nnode a 0 0 1 1 1\n", "line 1: start key ghost names no node"),
        (b"meta 4 1 exhausted a\nnode a 0 0 1 1 1\n", "line 1: characteristic 4 is neither zero"),
        (b"", "line 1: missing meta record"),
        (b"meta 3 1 exhausted a\nnode a 0 0 -1 -1 1\n", "line 2: node a has dimension -1"),
        (b"meta 3 1 exhausted a\nnode a 0 0 0 0\n", "line 2: node a has dimension 0"),
        (  # fewer generators than a full-dimensional node has; the cone alone would take seconds
            b"meta 3 1 exhausted a\nnode a 0 0 400 0\n",
            "line 2: node a has dimension 400 and 0 generators",
        ),
        (
            b"meta 3 1 exhausted a\nnode a 0 0 3 2 1 0 0 0 1 0\n",
            "line 2: node a has dimension 3 and 2 generators",
        ),
        (b"meta 3 1 exhausted a\n\xc3\xa9\n", "not an ASCII graph file"),
        (
            b"meta 3 1 depth-limit a\nnode a 0 0 1 1 1\nfrontier a\nfrontier a\n",
            "line 4: duplicate frontier record a",
        ),
        (
            b"meta 0 1 exhausted a\nnode a 0 0 2 3 1 0 1 1 1 2\n"
            b"edge a a 0,1 2 1 0 0 1\nedge a a 0,1 2 1 0 0 1\n",
            "line 4: duplicate edge record from a at subset 0,1",
        ),
        (  # a permuted copy of the first edge
            b"meta 0 1 exhausted a\nnode a 0 0 2 3 1 0 1 1 1 2\n"
            b"edge a a 0,1 2 1 0 0 1\nedge a a 1,0 2 1 0 0 1\n",
            "line 4: edge subset (1, 0) is not 2 increasing indices in [0, 3)",
        ),
        (b"meta 3 7 exhausted a\nnode a 0 0 1 1 1\n", "line 1: malformed meta record: flag '7'"),
        (b"meta 3 1 exhausted a\nnode a 0 9 1 1 1\n", "line 2: malformed node record: flag '9'"),
        (b"meta 3 1 exhausted a\nnode a -3 0 1 1 1\n", "line 1: start node a has depth -3, not 0"),
        (b"meta 3 1 garbage a\nnode a 0 0 1 1 1\n", "line 1: unknown termination 'garbage'"),
        (b"meta 3 1 exhausted a 0\nnode a 0 0 1 1 1\n", "line 1: a meta record has 4 fields"),
        (
            b"meta 3 1 depth-limit a\nnode a 0 0 1 1 1\nfrontier a 0\n",
            "line 3: a frontier record has 1 field",
        ),
        (
            b"meta 3 1 exhausted a\nnode a 0 0 1 1 1\nnode b -1 0 1 1 1\n",
            "line 3: node b has negative depth -1",
        ),
        (
            b"meta 0 1 exhausted a\nnode a 0 0 2 3 1 0 1 1 1 2\nedge a a 0,1 2 1 0 0\n",
            "line 3: expected 4 matrix entries",
        ),
        (
            b"meta 3 1 depth-limit a\nnode a 0 0 1 1 1\nfrontier ghost\n",
            "line 3: frontier references a missing node ghost",
        ),
    ],
)
def test_search_load_rejects_malformed_graph(tmp_path, capsys, data, message):
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    code, out, err = run(capsys, "search", "--load", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"toricnash: {path}: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("key, forge", FORGED_B_NODES)
def test_search_load_rejects_forged_node(tmp_path, capsys, key, forge):
    path = tmp_path / "B.graph"
    path.write_text((CORPUS / "B.graph").read_text())
    code, _, _ = run(capsys, "search", "--load", str(path), "--max-depth", "1")
    assert code == EXIT_OK  # the corpus graph itself loads
    forge_node(path, key, forge)
    code, out, err = run(capsys, "search", "--load", str(path), "--max-depth", "1")
    assert code == EXIT_MATH
    assert out == ""
    assert err.startswith(f"toricnash: {path}: node {key} ")
    assert err.count("\n") == 1


def test_search_load_rejects_an_inflated_depth(tmp_path, capsys):
    # a frontier node one edge from the start claims depth 3, two levels too deep
    path = tmp_path / "B.graph"
    code, _, _ = run(capsys, "search", "builtin:B", "--max-depth", "1", "--save", str(path))
    assert code == EXIT_OK
    text = path.read_text()
    assert "\nnode 00b61433dbb2-0 1 " in text and "\nfrontier 00b61433dbb2-0\n" in text
    path.write_text(text.replace("\nnode 00b61433dbb2-0 1 ", "\nnode 00b61433dbb2-0 3 "))
    code, out, err = run(capsys, "search", "--load", str(path), "--max-depth", "2")
    assert code == EXIT_MATH
    assert out == ""
    assert err.startswith(f"toricnash: {path}: node 00b61433dbb2-0 does not check out")
    assert err.count("\n") == 1


def test_search_load_files_each_node_once_and_checks_each_edge_once(capsys, monkeypatch):
    calls = {"insert": 0, "edge": 0}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)

        return counted

    insert = search._ClassIndex.insert
    monkeypatch.setattr(search._ClassIndex, "insert", counting("insert", insert))
    monkeypatch.setattr(search, "_edge_checks_out", counting("edge", search._edge_checks_out))
    path = str(CORPUS / "B.graph")
    code, _, _ = run(capsys, "search", "--load", path, "--max-depth", "1")
    assert code == EXIT_OK
    report = load_graph(path)
    assert calls == {"insert": len(report.nodes), "edge": len(report.edges)} == {
        "insert": 14, "edge": 21
    }


def test_search_load_rejects_a_second_node_of_one_class(tmp_path, capsys):
    # a copy of the start node at depth 1 takes the one-step loop's edge; it
    # checks out as a node, and every edge checks out, but the loop is hidden
    path = tmp_path / "B.graph"
    lines = []
    for line in (CORPUS / "B.graph").read_text().splitlines():
        parts = line.split()
        if parts[:2] == ["edge", "89f996bf9b7b-0"] and parts[2] == "89f996bf9b7b-0":
            parts[2] = "zz0000000000-0"
        lines.append(" ".join(parts))
        if parts[:2] == ["node", "89f996bf9b7b-0"]:
            lines.append(" ".join(["node", "zz0000000000-0", "1", *parts[3:]]))
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "search", "--load", str(path), "--max-depth", "1")
    assert code == EXIT_MATH
    assert out == ""
    assert err.startswith(f"toricnash: {path}: node zz0000000000-0 does not check out")
    assert "equivalent to another node" in err
    assert err.count("\n") == 1


def test_search_load_rejects_an_extra_edge_whose_subset_is_no_vertex(tmp_path, capsys):
    # the subset 0,1,2,3,8 of the start's Hilbert basis is live, but its chart is not pointed
    path = tmp_path / "B.graph"
    path.write_text(
        (CORPUS / "B.graph").read_text()
        + "edge 89f996bf9b7b-0 3e7d67a0eb7a-0 0,1,2,3,8 5 1 0 0 0 0 0 1 0 0 0 0 0 1 0 0 0 0 0 1 0 0 0 0 0 1\n"
    )
    code, out, err = run(capsys, "search", "--load", str(path), "--max-depth", "1")
    assert code == EXIT_MATH
    assert out == ""
    assert err.startswith(f"toricnash: {path}: node 3e7d67a0eb7a-0 does not check out")
    assert err.count("\n") == 1


def test_search_load_rejects_a_plain_graph_whose_start_generates_a_sublattice(tmp_path, capsys):
    # (1, 0) and (1, 2) generate a sublattice of index 2, so no blowup step
    # starts there: the claimed one-step loop's edge has no chart to check
    path = tmp_path / "g.txt"
    path.write_text("meta 0 0 exhausted S-0\nnode S-0 0 0 2 2 1 0 1 2\nedge S-0 S-0 0,1 2 1 0 0 1\n")
    report = load_graph(str(path))
    assert report.cycle_lengths_found() == {1}
    assert not verify_report_cycles(report)
    code, out, err = run(capsys, "search", "--load", str(path))
    assert code == EXIT_MATH
    assert out == ""
    assert err.startswith(f"toricnash: {path}: node S-0 does not check out")
    assert err.count("\n") == 1


def test_search_load_rejects_cycle_edge_with_vanishing_minor(tmp_path, capsys):
    path = tmp_path / "g.txt"
    code, _, _ = run(capsys, "search", "builtin:B", "--max-depth", "1", "--save", str(path))
    assert code == EXIT_OK
    # the loop edge's subset swapped for 0,1,2,5,8, whose minor vanishes mod 3
    text = path.read_text()
    loop = next(
        line for line in text.splitlines()
        if line.split()[0] == "edge" and line.split()[1] == line.split()[2]
    )
    path.write_text(text.replace(loop, loop.replace(" 0,1,3,4,8 ", " 0,1,2,5,8 ")))
    code, out, err = run(capsys, "search", "--load", str(path), "--max-depth", "1")
    assert code == EXIT_MATH
    assert "node 89f996bf9b7b-0 does not check out" in err
    assert "found" not in out


@pytest.mark.parametrize("command", ["search", "blowup"])
def test_cone_not_spanning_the_lattice_exits_usage(tmp_path, capsys, command):
    p = tmp_path / "c.cone"
    p.write_text("dim 3\n1 0 0\n0 1 0\n")
    code, out, err = run(capsys, command, str(p))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("toricnash: ") and "Z^d" in err
    assert err.count("\n") == 1


def test_search_requires_cone_or_load(capsys):
    code, _, err = run(capsys, "search")
    assert code == EXIT_USAGE
    assert "cone argument" in err


def test_search_bad_cycle_list(capsys):
    code, _, err = run(capsys, "search", "builtin:smooth3", "--cycles", "0")
    assert code == EXIT_USAGE


def test_search_repeated_cycle_lengths_print_once(capsys):
    want = run(capsys, "search", "builtin:B", "--max-depth", "1", "--cycles", "1,2")
    assert want[1].count("cycle length 1: ") == 1
    assert run(capsys, "search", "builtin:B", "--max-depth", "1", "--cycles", "1,1,2") == want


@pytest.mark.parametrize(
    "argv, message",
    [
        (("hilbert", "{tmp}/missing.cone"), "cannot read {tmp}/missing.cone: "),
        (("search", "--load", "{tmp}/missing.graph"), "cannot read {tmp}/missing.graph: "),
        (("search", "builtin:B", "--max-depth", "0"), "limits must be positive"),
        (("search", "builtin:B", "--cycles", "1,x"), "bad cycle list '1,x'"),
        (("blowup", "{tmp}/x.cone"), "{tmp}/x.cone: line 2: characteristic is not an integer"),
    ],
)
def test_usage_errors_exit_1_with_one_line(tmp_path, capsys, argv, message):
    (tmp_path / "x.cone").write_text("dim 2\nchar x\n1 0\n0 1\n")
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("toricnash: " + message.format(tmp=tmp_path))
    assert err.count("\n") == 1


def test_search_halt_on_cycle(capsys):
    code, out, _ = run(
        capsys, "search", "builtin:B", "--cycles", "1", "--halt-on-cycle"
    )
    assert code == EXIT_OK
    assert "termination cycle-found" in out
    assert "cycle length 1: found" in out


def test_iso_commands(capsys):
    code, out, _ = run(capsys, "iso", "builtin:a2", "builtin:a2")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "equivalent"
    code, out, _ = run(capsys, "iso", "builtin:a2", "builtin:smooth3")
    assert code == EXIT_OK
    assert out.strip() == "not equivalent"


def test_iso_lower_dimensional_cones_exit_math(tmp_path, capsys):
    a, b = tmp_path / "a.cone", tmp_path / "b.cone"
    a.write_text("dim 3\n1 0 0\n0 1 0\n")
    b.write_text("dim 3\n1 0 0\n0 0 1\n")
    code, out, err = run(capsys, "iso", str(a), str(b))
    assert code == EXIT_MATH
    assert out == ""
    assert "full-dimensional" in err
    code, out, _ = run(capsys, "iso", str(a), str(a))
    assert code == EXIT_OK
    assert out.splitlines() == ["equivalent", "1 0 0", "0 1 0", "0 0 1"]


def test_verify_paper(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == EXIT_OK
    assert "overall: PASS (11 of 11 checks passed)" in out


def test_verify_paper_machine_format(capsys):
    code, out, _ = run(capsys, "verify-paper", "--machine")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[-1] == "overall pass"
    assert all(l.split()[2] == "pass" for l in lines[:-1] if l.startswith("check "))
    assert sum(1 for l in lines if l.startswith("check ")) == 11


def test_verify_paper_wrong_char_fails(capsys):
    code, out, _ = run(capsys, "verify-paper", "--char", "5")
    assert code == EXIT_MATH
    assert "FAIL" in out


@pytest.mark.parametrize("char", ["4", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify-paper",),
        ("blowup", "builtin:B"),
        ("search", "builtin:B"),
        ("search", "builtin:smooth3"),  # a smooth start has no chart to compute
    ],
)
def test_characteristic_neither_zero_nor_prime_is_a_usage_error(capsys, argv, char):
    code, out, err = run(capsys, *argv, "--char", char)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"toricnash: characteristic {char} is neither zero nor prime\n"


def _refuse_trial_division_past_the_bound(monkeypatch):
    """Make is_prime, wherever the package binds it, fail at once on a p past
    MAX_CHARACTERISTIC, where trial division would take years."""
    real = exactmath.is_prime

    def guarded(p):
        assert p <= MAX_CHARACTERISTIC, f"trial division ran on {p}"
        return real(p)

    for module in (exactmath, search):
        if getattr(module, "is_prime", None) is real:
            monkeypatch.setattr(module, "is_prime", guarded)


@pytest.mark.parametrize("entry", ["verify-paper", "blowup", "search", "search --load"])
def test_a_characteristic_past_the_bound_is_refused_at_once(tmp_path, capsys, monkeypatch, entry):
    _refuse_trial_division_past_the_bound(monkeypatch)
    p = 10**30 + 57
    message = f"characteristic {p} is above the largest supported, {MAX_CHARACTERISTIC}\n"
    cone, graph = tmp_path / "a2.cone", tmp_path / "B.graph"
    cone.write_text(f"dim 2\nchar {p}\n1 0\n1 2\n")
    graph.write_text((CORPUS / "B.graph").read_text().replace("meta 3 ", f"meta {p} ", 1))
    argv, prefix = {
        "verify-paper": (("verify-paper", "--char", str(p)), ""),
        "blowup": (("blowup", str(cone)), ""),
        "search": (("search", "builtin:B", "--char", str(p)), ""),
        "search --load": (("search", "--load", str(graph)), f"{graph}: line 1: "),
    }[entry]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (EXIT_USAGE, "", f"toricnash: {prefix}{message}")


def test_the_largest_characteristic_is_accepted(capsys):
    # 2^31 - 1 is prime, and B's depth-1 graph there is its graph at p = 0
    code, out, _ = run(capsys, "search", "builtin:B", "--max-depth", "1", "--char", "2147483647")
    assert code == EXIT_OK
    assert out == run(capsys, "search", "builtin:B", "--max-depth", "1", "--char", "0")[1]
    assert out.splitlines()[1:3] == ["nodes 14", "edges 21"]
    assert "cycle length 1: found" in out


def test_deterministic_stdout(capsys):
    _, out1, _ = run(capsys, "blowup", "builtin:B", "--char", "3")
    _, out2, _ = run(capsys, "blowup", "builtin:B", "--char", "3")
    assert out1 == out2
    _, s1, _ = run(capsys, "search", "builtin:B", "--max-depth", "1")
    _, s2, _ = run(capsys, "search", "builtin:B", "--max-depth", "1")
    assert s1 == s2


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("blowup", "builtin:B", "--char", "3"), "08440f3f7e8c"),
        (("blowup", "builtin:B", "--char", "3", "--no-normalized"), "71d047c2a095"),
        (("blowup", "builtin:reeves", "--char", "0"), "5aa9fb4b38d0"),
        (("blowup", "builtin:dim4char3", "--char", "3"), "ddbdf3b9c132"),
    ],
)
def test_blowup_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == digest


# plain searches: each chart's points are the Hilbert basis of its chart semigroup
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("builtin:B", "--char", "2147483647", "--max-depth", "2"), "c8935c960d6e"),
        (("builtin:dim4char3", "--max-depth", "3", "--cycles", "1,2"), "fb849200740d"),
        (("builtin:reeves", "--max-depth", "2"), "321c45b82709"),
    ],
)
def test_plain_search_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "search", *argv, "--no-normalized")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == digest


def test_a_symmetric_target_keeps_the_cone_map_certificate(tmp_path, capsys):
    """B at p = 2, depth 3: the target b64fbb8a6e50-0 has cone automorphisms, so
    the inverse cone map stored on this edge is not find_isomorphism's matrix.
    Both certify the saturated chart, and stdout is as it was."""
    path = tmp_path / "B2.graph"
    code, out, _ = run(
        capsys, "search", "builtin:B", "--char", "2", "--max-depth", "3", "--save", str(path)
    )
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == "fcc3835e49cb"
    text = path.read_text().rstrip("\n")
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == "d2f85c01e3bd"
    report = load_graph(str(path))
    edge = next(
        e for e in report.edges
        if (e.src, e.dst, e.subset) == ("2e384b317b6d-0", "b64fbb8a6e50-0", (2, 4, 5, 6, 10))
    )
    src, dst = report.nodes[edge.src].semigroup, report.nodes[edge.dst].semigroup
    h = src.hilbert_basis()
    target = chart(src, tuple(h[i] for i in edge.subset), 2, True).normalized_chart
    searched = find_isomorphism(target, dst).matrix
    assert searched != edge.certificate
    for m in (edge.certificate, searched):
        assert verify_certificate(target, dst, certificate_for_matrix(target, m))


def test_search_load_rejects_a_start_whose_basis_is_not_minimal(tmp_path, capsys):
    # B's Hilbert basis plus the sum of two of its elements, as a --no-normalized start
    path = tmp_path / "S.graph"
    redundant_start_graph(path)
    code, out, err = run(capsys, "search", "--load", str(path), "--max-depth", "1")
    assert code == EXIT_MATH
    assert out == ""
    assert err.startswith(f"toricnash: {path}: node S-0 does not check out")
    assert err.count("\n") == 1


def test_search_load_rejects_a_smooth_frontier_node(tmp_path, capsys):
    path = tmp_path / "B.graph"
    code, _, _ = run(
        capsys, "search", "builtin:B", "--char", "3", "--max-depth", "1", "--save", str(path)
    )
    assert code == EXIT_OK
    with open(path, "a", encoding="ascii") as fh:
        fh.write("frontier 9067582a63d1-0\n")
    code, out, err = run(capsys, "search", "--load", str(path), "--max-depth", "2")
    assert code == EXIT_MATH
    assert out == ""
    assert err.startswith(f"toricnash: {path}: node 9067582a63d1-0 ")
    assert "smooth and on the frontier" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE


def _module_env():
    """The environment for `python -m toricnash` run from this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_python_m_runs_the_cli(capsys):
    done = subprocess.run(
        [sys.executable, "-m", "toricnash", "verify-paper", "--machine"],
        capture_output=True, text=True, env=_module_env(), timeout=120,
    )
    code, out, err = run(capsys, "verify-paper", "--machine")
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err) == (EXIT_OK, out, "")


def test_importing_the_main_module_runs_nothing(capsys, monkeypatch):
    # tools that import every module of the package must not start the CLI
    monkeypatch.setattr(sys, "argv", ["not-toricnash", "no-such-command"])
    monkeypatch.delitem(sys.modules, "toricnash.__main__", raising=False)
    importlib.import_module("toricnash.__main__")
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(
    not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs a pipe that can be made smaller"
)
def test_closed_stdout_exits_quietly():
    # a one-page pipe, closed after one line, while most of the 35 kB chart list is unwritten
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(read_fd, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "toricnash", "blowup", "builtin:B", "--char", "3"],
        stdout=write_fd, stderr=subprocess.PIPE, env=_module_env(),
    )
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as out:
        first = out.readline()
    _, err = proc.communicate(timeout=120)
    assert first == b"chart {1,2,3,4,5} det 1 pointed yes\n"
    assert (proc.returncode, err) == (EXIT_PIPE, b"")
