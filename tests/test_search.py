import errno
import functools
import hashlib
import os
import random
import types
import typing
from typing import Optional, Sequence

import pytest
from hypothesis import assume, given, settings, strategies as st

import toricnash.cone as cone_module
from toricnash import fixtures, iso, nash, search, semigroup
from toricnash.cone import Cone, NotFullDimensionalError, NotPointedError
from toricnash.exactmath import (
    Mat,
    Vec,
    dot,
    identity,
    independent_indices,
    is_unimodular,
    mat,
    mat_apply,
    mat_mul,
    solve,
)
from toricnash.iso import (
    Frame,
    carries,
    certificate_for_matrix,
    find_isomorphism,
    fingerprint,
    verify_certificate,
)
from toricnash.search import (
    TERMINATION_CYCLE,
    TERMINATION_DEPTH,
    TERMINATION_EXHAUSTED,
    TERMINATION_NODES,
    CycleRecord,
    GraphCheckError,
    GraphEdge,
    GraphFormatError,
    GraphNode,
    _ClassIndex,
    explore,
    find_cycles,
    load_graph,
    save_graph,
    verify_report_cycles,
    verify_report_nodes,
)
from toricnash.semigroup import (
    AffineSemigroup,
    NotFullLatticeError,
    NotSaturatedError,
    saturation_hilbert_basis,
)

from helpers import (
    CORPUS,
    FORGED_B_NODES,
    apply_matrix,
    forge_node,
    random_unimodular,
    redundant_start_graph,
    reference_chart_generators,
    unimodular_matrices,
)


def _saturated(columns, dim):
    return AffineSemigroup.from_hilbert_basis(saturation_hilbert_basis(Cone(columns, dim)), dim)


def test_smooth_start_is_single_node():
    s = AffineSemigroup(((1, 0), (0, 1)), 2)
    r = explore(s, 0, cycle_lengths=(1, 2))
    assert r.nodes_explored == 1
    assert r.edges == []
    assert r.cycles == []
    assert r.termination == TERMINATION_EXHAUSTED
    assert r.nodes[r.start_key].smooth


def test_a2_resolves_in_one_step():
    s = _saturated(((1, 0), (1, 2)), 2)
    r = explore(s, 0, cycle_lengths=(1, 2))
    assert r.nodes_explored == 2
    assert r.termination == TERMINATION_EXHAUSTED
    assert r.cycles == []
    smooth = [n for n in r.nodes.values() if n.smooth]
    assert len(smooth) == 1 and smooth[0].depth == 1


def test_loop_example_depth_one():
    s = fixtures.source_semigroup()
    r = explore(s, 3, max_depth=1, cycle_lengths=(1,))
    assert r.nodes_explored == 14
    assert len(r.edges) == 21
    assert r.cycle_lengths_found() == {1}
    assert r.termination == TERMINATION_DEPTH
    assert verify_report_cycles(r)
    loop = [c for c in r.cycles if c.length == 1]
    assert loop and loop[0].node_keys == (r.start_key,)


def test_halt_on_cycle_stops_early():
    s = fixtures.source_semigroup()
    r = explore(s, 3, cycle_lengths=(1,), halt_on_cycle=True)
    assert r.termination == TERMINATION_CYCLE
    assert 1 in r.cycle_lengths_found()
    assert verify_report_cycles(r)


def test_node_limit():
    s = fixtures.source_semigroup()
    r = explore(s, 3, max_depth=3, max_nodes=5, cycle_lengths=(1,))
    assert r.termination == TERMINATION_NODES
    assert r.nodes_explored <= 5


def test_four_dimensional_two_cycle():
    s = _saturated(fixtures.DIM4_CHAR3_COLUMNS, 4)
    r = explore(s, 3, max_depth=2, cycle_lengths=(1, 2))
    assert 2 in r.cycle_lengths_found()
    assert 1 not in r.cycle_lengths_found()
    two = [c for c in r.cycles if c.length == 2]
    assert any(r.start_key in c.node_keys for c in two)
    assert verify_report_cycles(r)


def test_no_false_merging():
    # distinct node classes really are pairwise non-equivalent
    s = fixtures.source_semigroup()
    r = explore(s, 3, max_depth=1, cycle_lengths=(1,))
    keys = sorted(r.nodes)[:6]
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            assert find_isomorphism(r.nodes[a].semigroup, r.nodes[b].semigroup) is None


def test_explore_validates_start():
    with pytest.raises(NotPointedError):
        explore(AffineSemigroup(((1,), (-1,)), 1), 0)
    with pytest.raises(NotSaturatedError):
        explore(AffineSemigroup(((1, 0), (1, 1), (1, 3)), 2), 0)
    with pytest.raises(NotSaturatedError):  # (1, 0) lies in the cone, not in the semigroup
        explore(AffineSemigroup(((2, 0), (0, 2)), 2), 0)
    with pytest.raises(NotFullLatticeError):  # saturated, but of lower rank
        explore(_saturated(((1, 0, 0), (0, 1, 0)), 3), 0)
    for error in (NotPointedError, NotSaturatedError, NotFullLatticeError):
        assert issubclass(error, ValueError)  # library callers catching ValueError still do
    with pytest.raises(ValueError):
        explore(AffineSemigroup(((1, 0), (0, 1)), 2), 0, cycle_lengths=(0,))


def test_find_cycles_on_hand_built_graph():
    s = AffineSemigroup(((1, 0), (0, 1)), 2)
    nodes = {k: GraphNode(k, s, 0, False) for k in ("a", "b", "c")}
    ident = identity(2)
    edges = [
        GraphEdge("a", "a", (0,), ident),
        GraphEdge("a", "b", (1,), ident),
        GraphEdge("b", "a", (0,), ident),
        GraphEdge("b", "a", (2,), ident),  # parallel edge collapses
        GraphEdge("b", "c", (0,), ident),
        GraphEdge("c", "b", (0,), ident),
    ]
    cycles = find_cycles(nodes, edges, (1, 2))
    assert [(c.length, c.node_keys) for c in cycles] == [
        (1, ("a",)),
        (2, ("a", "b")),
        (2, ("b", "c")),
    ]
    assert find_cycles(nodes, edges, (2,)) == [
        CycleRecord(2, ("a", "b"), cycles[1].certificates),
        CycleRecord(2, ("b", "c"), cycles[2].certificates),
    ]
    assert find_cycles(nodes, edges, ()) == []
    three = find_cycles(nodes, edges, (3,))
    assert three == []  # no simple 3-cycle in this graph


def test_save_load_roundtrip(tmp_path):
    s = fixtures.source_semigroup()
    r = explore(s, 3, max_depth=1, cycle_lengths=(1,))
    path = str(tmp_path / "graph.txt")
    save_graph(r, path)
    r2 = load_graph(path)
    assert set(r2.nodes) == set(r.nodes)
    assert r2.start_key == r.start_key
    assert r2.termination == r.termination
    assert r2.characteristic == 3 and r2.normalized
    assert sorted(r2.frontier) == sorted(r.frontier)
    assert [(e.src, e.dst, e.subset, e.certificate) for e in r2.edges] == [
        (e.src, e.dst, e.subset, e.certificate) for e in r.edges
    ]
    for k in r.nodes:
        assert r2.nodes[k].depth == r.nodes[k].depth
        assert r2.nodes[k].smooth == r.nodes[k].smooth
        assert set(r2.nodes[k].semigroup.hilbert_basis()) == set(
            r.nodes[k].semigroup.hilbert_basis()
        )
    assert {c.length for c in r2.cycles} >= {1}


def test_resume_matches_fresh_run(tmp_path):
    s = _saturated(fixtures.DIM4_CHAR3_COLUMNS, 4)
    shallow = explore(s, 3, max_depth=1, cycle_lengths=(1, 2))
    path = str(tmp_path / "g.txt")
    save_graph(shallow, path)
    resumed = explore(
        s, 3, max_depth=2, max_nodes=10_000, cycle_lengths=(1, 2), state=load_graph(path)
    )
    fresh = explore(s, 3, max_depth=2, max_nodes=10_000, cycle_lengths=(1, 2))
    assert set(resumed.nodes) == set(fresh.nodes)
    assert {(e.src, e.dst, e.subset, e.certificate) for e in resumed.edges} == {
        (e.src, e.dst, e.subset, e.certificate) for e in fresh.edges
    }
    assert resumed.cycle_lengths_found() == fresh.cycle_lengths_found() == {2}


@pytest.fixture
def one_fingerprint(monkeypatch):
    """Every semigroup gets the same fingerprint, so keys differ only by their counter."""
    fp = fingerprint(AffineSemigroup(((1, 0), (0, 1)), 2))
    monkeypatch.setattr(search, "fingerprint", lambda s: fp)
    return hashlib.sha256(fp.to_bytes()).hexdigest()[:12]


def test_class_index_numbers_keys_per_fingerprint(one_fingerprint):
    index = _ClassIndex(False)
    classes = [
        _saturated(((1, 0), (0, 1)), 2),
        _saturated(((1, 0), (1, 2)), 2),
        _saturated(((1, 0), (1, 3)), 2),
    ]
    keys = [index.insert(s) for s in classes]
    assert keys == [f"{one_fingerprint}-{i}" for i in range(3)]
    moved = AffineSemigroup([apply_matrix(((1, 1), (0, 1)), v) for v in classes[2].generators], 2)
    found, cert = index.locate(moved.hilbert_basis(), moved.cone)
    assert found == keys[2]
    assert verify_certificate(moved, classes[2], certificate_for_matrix(moved, cert))


def _run_in_stages(tmp_path, stages):
    """Search B (p = 3) once per (max_depth, max_nodes) stage, each stage resuming
    the graph that the one before saved; the saved bytes of every stage."""
    path = tmp_path / "staged.graph"
    state, saved = None, []
    for max_depth, max_nodes in stages:
        report = explore(
            fixtures.source_semigroup(), 3, max_depth=max_depth, max_nodes=max_nodes, state=state
        )
        save_graph(report, str(path))
        saved.append(path.read_bytes())
        state = load_graph(str(path))
        assert verify_report_nodes(state) is None
    return saved


def _cut_short(saved):
    """Frontier keys of a saved graph that already have out-edges."""
    records = [line.split() for line in saved.decode().splitlines()]
    return {r[1] for r in records if r[0] == "frontier"} & {r[1] for r in records if r[0] == "edge"}


@pytest.mark.parametrize("depth, node_limits", [(2, (10,)), (3, (10, 60)), (3, (10, 30))])
def test_resume_after_the_node_limit_matches_an_unbroken_run(tmp_path, depth, node_limits):
    stages = [(depth, n) for n in node_limits] + [(depth, search.DEFAULT_MAX_NODES)]
    saved = _run_in_stages(tmp_path, stages)
    assert saved[0].startswith(b"meta 3 1 node-limit ")
    assert _cut_short(saved[0])  # the node being expanded kept its edges so far
    assert saved[-1] == _run_in_stages(tmp_path, stages[-1:])[0]


def test_a_shallower_resume_keeps_the_cut_node_for_a_deeper_one(tmp_path):
    saved = _run_in_stages(
        tmp_path, [(2, 20), (1, search.DEFAULT_MAX_NODES), (2, search.DEFAULT_MAX_NODES)]
    )
    assert saved[0].startswith(b"meta 3 1 node-limit ")
    assert _cut_short(saved[0]) == _cut_short(saved[1]) != set()  # depth 1 leaves it cut
    assert saved[-1] == _run_in_stages(tmp_path, [(2, search.DEFAULT_MAX_NODES)])[0]


def test_resume_continues_key_numbering(tmp_path, one_fingerprint):
    s = _saturated(fixtures.DIM4_CHAR3_COLUMNS, 4)
    fresh = explore(s, 3, max_depth=2, cycle_lengths=(1, 2))
    assert list(fresh.nodes) == [f"{one_fingerprint}-{i}" for i in range(len(fresh.nodes))]
    path = str(tmp_path / "g.txt")
    save_graph(explore(s, 3, max_depth=1, cycle_lengths=(1, 2)), path)
    resumed = explore(s, 3, max_depth=2, cycle_lengths=(1, 2), state=load_graph(path))
    assert resumed.nodes.keys() == fresh.nodes.keys()
    assert [(e.src, e.dst, e.subset, e.certificate) for e in resumed.edges] == [
        (e.src, e.dst, e.subset, e.certificate) for e in fresh.edges
    ]


def _counting_fingerprints(monkeypatch) -> list:
    """Patch search.fingerprint to record each semigroup it names; the list."""
    named = []
    monkeypatch.setattr(search, "fingerprint", lambda s: named.append(s) or fingerprint(s))
    return named


@pytest.mark.parametrize("name", ["B", "dim4char3", "reeves"])
def test_checking_a_graph_fingerprints_no_node(monkeypatch, name):
    report = load_graph(str(CORPUS / f"{name}.graph"))
    named = _counting_fingerprints(monkeypatch)
    index = search._checked_index(report)
    assert named == []
    assert sorted(index.frames) == sorted(report.nodes)


def test_resume_fingerprints_only_the_nodes_it_creates(tmp_path, monkeypatch):
    path = str(tmp_path / "g.txt")
    save_graph(explore(fixtures.source_semigroup(), 3, max_depth=1), path)
    state = load_graph(path)
    named = _counting_fingerprints(monkeypatch)
    resumed = explore(state.nodes[state.start_key].semigroup, 3, max_depth=2, state=state)
    new = resumed.nodes.keys() - state.nodes.keys()
    assert len(named) == len(new) > 0
    assert {id(s) for s in named} == {id(resumed.nodes[k].semigroup) for k in new}


def test_keys_stay_distinct_when_fingerprint_digests_share_a_prefix(monkeypatch):
    class OnePrefix:
        def __init__(self, data):
            self.digest = hashlib.sha256(data).hexdigest()

        def hexdigest(self):
            return "0" * 12 + self.digest[12:]

    monkeypatch.setattr(search, "hashlib", types.SimpleNamespace(sha256=OnePrefix))
    report = explore(fixtures.source_semigroup(), 3, max_depth=1)
    assert sorted(report.nodes) == sorted(f"{'0' * 12}-{i}" for i in range(14))
    assert len(report.edges) == 21
    assert {k for e in report.edges for k in (e.src, e.dst)} <= report.nodes.keys()
    assert verify_report_nodes(report) is None


def test_class_index_refuses_a_cone_with_a_line():
    with pytest.raises(NotPointedError):
        _ClassIndex(True).insert(AffineSemigroup(((1, 0), (-1, 0), (0, 1)), 2), "k")


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("key", [None, "k"])
def test_class_index_refuses_what_a_frame_refuses_before_it_fingerprints(
    monkeypatch, normalized, key
):
    monkeypatch.setattr(search, "fingerprint", lambda s: pytest.fail("fingerprinted"))
    index = _ClassIndex(normalized)
    with pytest.raises(NotPointedError):
        index.insert(AffineSemigroup(((1, 0), (-1, 0), (0, 1)), 2), key)
    with pytest.raises(NotFullDimensionalError):
        index.insert(AffineSemigroup(((1, 0, 0), (0, 1, 0)), 3), key)
    assert index.frames == {} and index.buckets == {}


def test_resume_rejects_mismatched_state(tmp_path):
    s = fixtures.source_semigroup()
    r = explore(s, 3, max_depth=1, cycle_lengths=(1,))
    with pytest.raises(ValueError):
        explore(s, 5, state=r)
    with pytest.raises(ValueError):
        explore(s, 3, normalized=False, state=r)


def test_load_rejects_malformed_files(tmp_path):
    cases = {
        "dup-meta": "meta 3 1 exhausted k\nmeta 3 1 exhausted k\n",
        "dup-node": (
            "meta 3 1 exhausted a\n"
            "node a 0 0 2 2 1 0 0 1\n"
            "node a 0 0 2 2 1 0 0 1\n"
        ),
        "bad-entries": "meta 3 1 exhausted a\nnode a 0 0 2 2 1 0 0\n",
        "bad-kind": "meta 3 1 exhausted a\nblob x\n",
        "missing-node": (
            "meta 3 1 exhausted a\n"
            "node a 0 0 2 2 1 0 0 1\n"
            "edge a ghost 0 2 1 0 0 1\n"
        ),
        "headless": "node a 0 0 2 2 1 0 0 1\n",
        "ghost-start": "meta 3 1 exhausted ghost\nnode a 0 0 2 2 1 0 0 1\n",
        "not-ascii": "meta 3 1 exhausted a\n\u00e9\n",
        "dup-frontier": (
            "meta 3 1 depth-limit a\n"
            "node a 0 0 2 2 1 0 0 1\n"
            "frontier a\n"
            "frontier a\n"
        ),
        "bad-termination": "meta 3 1 garbage a\nnode a 0 0 2 2 1 0 0 1\n",
        "meta-trailing": "meta 3 1 exhausted a b\nnode a 0 0 2 2 1 0 0 1\n",
        "frontier-trailing": (
            "meta 3 1 depth-limit a\n"
            "node a 0 0 2 2 1 0 0 1\n"
            "frontier a a\n"
        ),
        "negative-depth": (
            "meta 3 1 exhausted a\n"
            "node a 0 0 2 2 1 0 0 1\n"
            "node b -1 0 2 2 1 0 0 1\n"
        ),
        "negative-dimension": "meta 3 1 exhausted a\nnode a 0 0 -1 -1 1\n",
        "zero-dimension": "meta 3 1 exhausted a\nnode a 0 0 0 0\n",
    }
    for name, text in cases.items():
        p = tmp_path / f"{name}.txt"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(GraphFormatError):
            load_graph(str(p))


def test_load_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    with pytest.raises(GraphFormatError, match="^line 1: missing meta record$"):
        load_graph(str(p))


def test_graph_format_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("meta 3 1 exhausted a\nnode a 0 0 2 2 1 0 0\n")
    with pytest.raises(GraphFormatError) as err:
        load_graph(str(p))
    assert "line 2" in str(err.value)


@pytest.fixture(scope="module")
def b_graph_lines(tmp_path_factory):
    """The depth-one graph of the paper's example, saved, as a list of lines."""
    path = tmp_path_factory.mktemp("graph") / "B.graph"
    save_graph(explore(fixtures.source_semigroup(), 3, max_depth=1), str(path))
    return path.read_text().splitlines()


def _loop_edge_line(lines):
    """Index of the one-step loop edge, the chart at subset 0,1,3,4,8."""
    for i, line in enumerate(lines):
        parts = line.split()
        if parts[0] == "edge" and parts[1] == parts[2] and parts[3] == "0,1,3,4,8":
            return i
    raise AssertionError("the graph has no loop edge at subset 0,1,3,4,8")


@pytest.mark.parametrize(
    "subset, dim",
    [
        ("0,1,2,3,99", "5"),  # index past the Hilbert basis
        ("0,0,1,2,3", "5"),  # repeated index
        ("0,1,2", "5"),  # too few indices
        ("-1,0,1,2,3", "5"),  # negative index
        ("0,1,3,4,8", "4"),  # certificate of the wrong dimension
    ],
)
def test_load_rejects_bad_edge_records(tmp_path, b_graph_lines, subset, dim):
    lines = list(b_graph_lines)
    i = _loop_edge_line(lines)
    parts = lines[i].split()
    entries = parts[5 : 5 + int(dim) ** 2]
    lines[i] = " ".join(parts[:3] + [subset, dim] + entries)
    path = tmp_path / "bad.graph"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GraphFormatError) as err:
        load_graph(str(path))
    assert f"line {i + 1}:" in str(err.value)


def test_save_graph_failure_keeps_previous_file(tmp_path, monkeypatch):
    report = explore(fixtures.source_semigroup(), 3, max_depth=1)
    path = tmp_path / "graph.txt"
    save_graph(report, str(path))
    before = path.read_bytes()

    class DiskFull:
        """A text file with room for half the graph; the write after that fails."""

        def __init__(self, fh):
            self.fh, self.room = fh, len(before) // 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            if len(text) > self.room:
                self.fh.write(text[: self.room])
                raise OSError(errno.ENOSPC, "no space left on device")
            self.room -= len(text)
            return self.fh.write(text)

    monkeypatch.setattr(search, "open", lambda *a, **k: DiskFull(open(*a, **k)), raising=False)
    with pytest.raises(OSError):
        save_graph(report, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["graph.txt"]


def test_class_index_annotations_resolve():
    hints = typing.get_type_hints(_ClassIndex.locate)
    assert hints == {
        "points": Sequence[Vec], "c": Cone, "return": tuple[Optional[str], Optional[Mat]]
    }
    hints = typing.get_type_hints(_ClassIndex.insert)
    assert hints == {"s": AffineSemigroup, "key": Optional[str], "return": str}


_full_dimensional_cones = st.integers(2, 4).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(st.tuples(*[st.integers(-1, 3)] * d).filter(any), min_size=d, max_size=d + 2),
    )
)


@given(source=_full_dimensional_cones, data=st.data())
def test_cone_lookup_finds_a_unimodular_image(source, data):
    d, gens = source
    c = Cone(gens, d)
    assume(c.is_pointed and c.is_full_dimensional)
    orthant, node = _saturated(identity(d), d), AffineSemigroup.from_cone(c)
    index = _ClassIndex(True)
    keys = [index.insert(s) for s in (orthant, node)]
    nodes = {k: GraphNode(k, s, 0, False) for k, s in zip(keys, (orthant, node))}
    want = keys[0] if find_isomorphism(node, orthant) else keys[1]  # the first filed wins
    u = data.draw(unimodular_matrices(d))
    moved = Cone([apply_matrix(u, r) for r in c.generators], d)
    found, cert = index.locate(moved.generators, moved)
    assert found == want
    chart = AffineSemigroup.from_cone(moved)
    assert verify_certificate(chart, nodes[found].semigroup, certificate_for_matrix(chart, cert))


def test_cone_lookup_misses_cones_with_equal_keys():
    # the cyclic quotients 1/5(1,1) and 1/5(1,2): every ray has facet values {0, 5}
    a, b = Cone(((0, 1), (5, -1)), 2), Cone(((0, 1), (5, -2)), 2)
    assert Frame(a.generators, a).key == Frame(b.generators, b).key
    index, plain = _ClassIndex(True), _ClassIndex(False)
    key = index.insert(AffineSemigroup.from_cone(a))
    assert plain.insert(AffineSemigroup.from_cone(a)) == key
    assert index.buckets[Frame(b.generators, b).key] == [key]
    assert index.locate(b.generators, b) == (None, None)
    assert plain.locate(AffineSemigroup.from_cone(b).hilbert_basis(), b) == (None, None)
    assert index.locate(a.generators, a)[0] == key


class _FormerConeIndex:
    """The cone lookup before iso.Frame, kept as the reference for a normalized locate.

    Each node files its rays' sorted facet values and, once, its first
    independent d rays with their determinant and adjugate; a chart's bucket
    is (dim, sorted ray signatures), the node's base rays go depth-first to
    chart rays of equal signature, the first integral map that carries the
    node's rays onto the chart's is accepted, and its inverse is returned.
    """

    def __init__(self):
        self.buckets, self.entries = {}, {}

    @staticmethod
    def _signatures(c):
        return {r: tuple(sorted(dot(n, r) for n in c.facet_normals)) for r in c.generators}

    def insert(self, c, key):
        sig = self._signatures(c)
        base = [c.generators[i] for i in independent_indices(c.generators, c.dim)]
        det, adj = solve(mat(base), identity(c.dim))
        self.entries[key] = (c.generators, [sig[r] for r in base], det, adj)
        self.buckets.setdefault((c.dim, tuple(sorted(sig.values()))), []).append(key)

    def locate_cone(self, c):
        sig = self._signatures(c)
        by = {}
        for r in c.generators:
            by.setdefault(sig[r], []).append(r)
        for key in self.buckets.get((c.dim, tuple(sorted(sig.values()))), []):
            rays, base_sigs, det, adj = self.entries[key]
            v = self._first_base_map([by[b] for b in base_sigs], det, adj, rays, set(c.generators))
            if v is not None:
                sign, inv = solve(v, identity(c.dim))
                return key, tuple(tuple(sign * e for e in col) for col in inv)
        return None, None

    @staticmethod
    def _first_base_map(candidates, det, adj, rays, target):
        def backtrack(picked):
            if len(picked) == len(candidates):
                numer = mat_mul(mat(picked), adj)
                if any(e % det for col in numer for e in col):
                    return None
                m = tuple(tuple(e // det for e in col) for col in numer)
                return m if carries(m, [mat_apply(m, r) for r in rays], target) else None
            for w in candidates[len(picked)]:
                if w not in picked and (found := backtrack(picked + [w])) is not None:
                    return found
            return None

        return backtrack([])


# B at p = 2 reaches nodes with cone automorphisms, where
# a lookup from chart to node would find another certificate
@pytest.mark.parametrize(
    "name, p, depth", [("B", 3, 2), ("dim4char3", 3, 3), ("reeves", 3, 2), ("B", 2, 2)]
)
def test_cone_lookup_matches_the_former_lookup(name, p, depth):
    cf = fixtures.BUILTIN_CONES[name]
    report = explore(_saturated(cf.generators, cf.dim), p, max_depth=depth)
    index, former = _ClassIndex(True), _FormerConeIndex()
    for key, node in report.nodes.items():
        index.insert(node.semigroup, key)
        former.insert(node.semigroup.cone, key)
    hits = misses = 0
    for key, node in report.nodes.items():
        if node.smooth:
            continue
        for cone in nash.vertex_charts(node.semigroup, p).values():
            got = index.locate(cone.generators, cone)
            assert got == former.locate_cone(cone)
            hits += got[0] is not None
            misses += got[0] is None
    assert hits >= len(report.edges) and misses


class _FormerPlainIndex:
    """The non-normalized lookup before one lookup served both modes, kept as
    the reference for a plain locate.

    Nodes are bucketed by the key of their ray frame; a chart semigroup is
    looked up in its cone's bucket, and the first node in filing order that
    find_isomorphism(chart, node) maps it onto is returned with that
    certificate's matrix.
    """

    def __init__(self):
        self.buckets, self.nodes = {}, {}

    def insert(self, s, key):
        self.nodes[key] = s
        self.buckets.setdefault(Frame(s.cone.generators, s.cone).key, []).append(key)

    def locate(self, s):
        for key in self.buckets.get(Frame(s.cone.generators, s.cone).key, []):
            cert = find_isomorphism(s, self.nodes[key])
            if cert is not None:
                return key, cert.matrix
        return None, None


@pytest.mark.parametrize(
    "name, p, depth", [("B", 2, 2), ("B", 3, 2), ("dim4char3", 3, 3), ("reeves", 3, 2)]
)
def test_plain_lookup_matches_the_former_lookup(name, p, depth):
    """Every chart of every unsmooth node of a search without normalizing:
    locate, from node to chart, gives the former lookup's node and matrix."""
    cf = fixtures.BUILTIN_CONES[name]
    report = explore(_saturated(cf.generators, cf.dim), p, max_depth=depth, normalized=False)
    index, former = _ClassIndex(False), _FormerPlainIndex()
    for key, node in report.nodes.items():
        index.insert(node.semigroup, key)
        former.insert(node.semigroup, key)
    hits = misses = 0
    for key, node in report.nodes.items():
        if node.smooth:
            continue
        for subset, cone in nash.vertex_charts(node.semigroup, p).items():
            gens = reference_chart_generators(node.semigroup.hilbert_basis(), subset, p)
            got = index.locate(search._chart_points(node.semigroup, subset, cone, p, False), cone)
            assert got == former.locate(AffineSemigroup(gens, cf.dim, cone=cone))
            hits += got[0] is not None
            misses += got[0] is None
    assert hits >= len(report.edges) and misses


def test_a_smooth_node_on_the_frontier_does_not_check_out(tmp_path):
    cf = fixtures.BUILTIN_CONES["B"]
    path = tmp_path / "B.graph"
    save_graph(explore(_saturated(cf.generators, cf.dim), 3, max_depth=1), str(path))
    report = load_graph(str(path))
    assert verify_report_nodes(report) is None
    assert report.nodes["9067582a63d1-0"].smooth
    with open(path, "a", encoding="ascii") as fh:
        fh.write("frontier 9067582a63d1-0\n")
    report = load_graph(str(path))
    assert verify_report_nodes(report) == "9067582a63d1-0"
    with pytest.raises(ValueError, match="9067582a63d1-0"):
        explore(report.nodes[report.start_key].semigroup, 3, max_depth=2, state=report)


def test_resume_checks_that_every_node_is_saturated():
    s = AffineSemigroup.from_hilbert_basis(((1, 0), (1, 1), (1, 3)), 2)  # (1, 2) is missing

    def state(normalized):
        return search.SearchReport(
            3, normalized, {"a": GraphNode("a", s, 0, False)}, [], [], ["a"], "", "a"
        )

    with pytest.raises(GraphCheckError, match="^node a does not check out"):
        explore(s, 3, max_depth=1, normalized=True, state=state(True))
    assert explore(s, 3, max_depth=1, normalized=False, state=state(False)).edges


def test_resume_checks_that_the_start_lists_its_hilbert_basis(tmp_path):
    # no in-edge vouches for the start, so a redundant element is caught in both modes
    path = tmp_path / "S.graph"
    redundant_start_graph(path)
    report = load_graph(str(path))
    assert not report.normalized
    assert verify_report_nodes(report) == "S-0"
    report.normalized = True
    assert verify_report_nodes(report) == "S-0"


def _explore_summary(s, p, depth):
    report = explore(s, p, max_depth=depth, cycle_lengths=(1, 2))
    depths = sorted(n.depth for n in report.nodes.values())
    return len(report.nodes), len(report.edges), depths, report.termination, sorted(
        c.length for c in report.cycles
    )


@functools.cache
def _builtin_summary(name, depth):
    cf = fixtures.BUILTIN_CONES[name]
    basis = saturation_hilbert_basis(Cone(cf.generators, cf.dim))
    return basis, _explore_summary(AffineSemigroup(basis, cf.dim), cf.characteristic, depth)


@pytest.mark.parametrize("name, depth", [("B", 1), ("dim4char3", 2)])
@settings(max_examples=8)  # one explore per example
@given(data=st.data())
def test_explore_commutes_with_unimodular_maps(name, depth, data):
    cf = fixtures.BUILTIN_CONES[name]
    basis, want = _builtin_summary(name, depth)
    assert want[-1]  # the loop is there to be found
    u = data.draw(unimodular_matrices(cf.dim))
    moved = AffineSemigroup([apply_matrix(u, v) for v in basis], cf.dim)
    assert _explore_summary(moved, cf.characteristic, depth) == want


@pytest.mark.skipif(
    not os.environ.get("TORICNASH_RUN_CLOSURE"),
    reason="set TORICNASH_RUN_CLOSURE=1 to run the full class graph of B (about 8 s)",
)
def test_closure_of_b_in_characteristic_3():
    report = explore(fixtures.source_semigroup(), 3, max_depth=100, cycle_lengths=(1, 2, 3, 4))
    assert report.termination == TERMINATION_EXHAUSTED
    assert (len(report.nodes), len(report.edges)) == (75, 1265)
    assert sorted(c.length for c in report.cycles) == [1]


# sha256[:12] of the newline-joined graph lines: a change that only makes the
# search faster must leave every byte of the saved graph as it is, certificates
# included.  A hit stores the inverse of the first cone map that the lookup
# finds, so a change to the order in which it tries rays may change the
# certificate into a target whose cone has automorphisms (B at p = 2, depth 3,
# in test_cli), but none of the edges pinned here.  The "plain" graphs are
# searched without normalizing.
def _pin(name, p, depth, normalized, digest):
    mode = "" if normalized else "plain-"
    return pytest.param(name, p, depth, normalized, digest, id=f"{name}-{p}-{depth}-{mode}{digest}")


@pytest.mark.parametrize(
    "name, p, depth, normalized, digest",
    [
        _pin("dim4char3", 3, 4, True, "f15a8f41f0e2"),
        _pin("B", 5, 2, True, "c94b580652dc"),
        _pin("B", 2, 2, True, "5451a5faf37d"),
        _pin("B", 3, 2, False, "0c560c107eb6"),
        _pin("dim4char3", 3, 3, False, "f5adb2ee4ee9"),
    ],
)
def test_saved_graphs_are_pinned(name, p, depth, normalized, digest):
    cf = fixtures.BUILTIN_CONES[name]
    start = _saturated(cf.generators, cf.dim)
    lines = search._graph_lines(explore(start, p, max_depth=depth, normalized=normalized))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12] == digest


def test_a_search_runs_no_isomorphism_search(monkeypatch):
    def refuse(a, b):
        raise AssertionError("a class lookup searched for an isomorphism")

    assert not hasattr(search, "find_isomorphism")
    monkeypatch.setattr(iso, "find_isomorphism", refuse)
    cf = fixtures.BUILTIN_CONES["dim4char3"]
    for depth, normalized, digest in [(4, True, "f15a8f41f0e2"), (3, False, "f5adb2ee4ee9")]:
        start = _saturated(cf.generators, cf.dim)
        lines = search._graph_lines(explore(start, 3, max_depth=depth, normalized=normalized))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12] == digest


@pytest.mark.parametrize("name", ["B", "dim4char3", "reeves"])
def test_corpus_graph_nodes_check_out(name):
    report = load_graph(str(CORPUS / f"{name}.graph"))
    assert report.nodes
    assert verify_report_nodes(report) is None


@pytest.mark.parametrize("key, forge", FORGED_B_NODES)
def test_verify_report_nodes_rejects_forged_nodes(tmp_path, key, forge):
    path = tmp_path / "B.graph"
    path.write_text((CORPUS / "B.graph").read_text())
    forge_node(path, key, forge)
    report = load_graph(str(path))  # the forgery is well-formed
    assert verify_report_cycles(report)  # and no cycle edge exposes it
    _assert_refused(report, key)


# In-memory forged reports: each builder returns (report, the key it forges).
def _a_copy_of_the_start_takes_the_loop(normalized):
    # a copy of the start at depth 1 takes the one-step loop's edge and hides the loop
    s = fixtures.source_semigroup()
    report = explore(s, 3, max_depth=1, normalized=normalized)
    assert verify_report_nodes(report) is None
    assert report.cycle_lengths_found() == {1}
    copy = AffineSemigroup.from_hilbert_basis(s.hilbert_basis(), s.dim)
    report.nodes["zz"] = GraphNode("zz", copy, 1, False)
    loop = next(e for e in report.edges if e.src == e.dst)
    loop.dst = "zz"
    return report, "zz"


def _a_lower_dimensional_node(normalized):
    # saturated and reached by no edge, as a start may be, but no search node
    s = AffineSemigroup.from_hilbert_basis(((1, 0),), 2)
    nodes = {"a": GraphNode("a", s, 0, False)}
    return search.SearchReport(0, normalized, nodes, [], [], [], "", "a"), "a"


def _a_basis_with_a_line():
    s = AffineSemigroup.from_hilbert_basis(((1, 0), (-1, 0), (0, 1)), 2)
    nodes = {"a": GraphNode("a", s, 0, False)}
    return search.SearchReport(3, True, nodes, [], [], [], "", "a"), "a"


def _a_node_with_no_parent_edge_from_below():
    smooth = _saturated(((1, 0), (0, 1)), 2)
    nodes = {"a": GraphNode("a", smooth, 0, True), "b": GraphNode("b", smooth, 1, True)}
    return search.SearchReport(0, True, nodes, [], [], [], "", "a"), "b"


def _a_loop_whose_certificate_is_not_unimodular():
    # the chart of the A1 singularity at (1, 0), (1, 1) is smooth, and
    # M = [[1, 1], [0, 2]] maps its rays (0, 1), (1, 0) onto the node's rays
    a1 = _saturated(((1, 0), (1, 2)), 2)
    nodes = {"a": GraphNode("a", a1, 0, False)}
    edges = [GraphEdge("a", "a", (0, 1), ((1, 0), (1, 2)))]  # columns
    cycles = find_cycles(nodes, edges, (1,))
    return search.SearchReport(0, True, nodes, edges, cycles, [], "", "a"), "a"


def _a_smooth_node_on_the_frontier():
    report = load_graph(str(CORPUS / "B.graph"))
    assert report.nodes["9067582a63d1-0"].smooth
    report.frontier.append("9067582a63d1-0")
    return report, "9067582a63d1-0"


def _a_loop_at_a_permuted_subset():
    # chart() sorts the Hilbert elements it is given, the subset table does not;
    # load_graph would reject the file save_graph writes for this report
    report = explore(fixtures.source_semigroup(), 3, max_depth=1)
    loop = next(e for e in report.edges if e.src == e.dst)
    loop.subset = loop.subset[::-1]
    assert _edge_rule_through_chart(report, loop)
    return report, loop.dst


def _a_ghost(where):
    if where == "start":  # nothing else names a node, so nothing else checks out or fails
        return search.SearchReport(3, True, {}, [], [], [], "", "ghost"), "ghost"
    report = explore(fixtures.source_semigroup(), 3, max_depth=1)
    if where == "edge":
        report.edges.append(GraphEdge(report.start_key, "ghost", (0, 1, 2, 3, 4), identity(5)))
    else:
        report.frontier.append("ghost")
    return report, "ghost"


def _an_inflated_depth():
    # a frontier node one edge from the start claims depth 3; its parent edge still checks out
    report = explore(fixtures.source_semigroup(), 3, max_depth=1)
    key = report.frontier[0]
    assert report.nodes[key].depth == 1
    report.nodes[key].depth = 3
    return report, key


FORGED_REPORTS = [
    pytest.param(_a_loop_whose_certificate_is_not_unimodular, id="non-unimodular-loop"),
    pytest.param(lambda: _a_copy_of_the_start_takes_the_loop(True), id="start-copy"),
    pytest.param(lambda: _a_copy_of_the_start_takes_the_loop(False), id="start-copy-plain"),
    pytest.param(lambda: _a_lower_dimensional_node(True), id="lower-dimensional"),
    pytest.param(lambda: _a_lower_dimensional_node(False), id="lower-dimensional-plain"),
    pytest.param(_a_basis_with_a_line, id="basis-with-a-line"),
    pytest.param(_a_node_with_no_parent_edge_from_below, id="no-parent-edge"),
    pytest.param(_a_smooth_node_on_the_frontier, id="smooth-on-the-frontier"),
    pytest.param(_a_loop_at_a_permuted_subset, id="permuted-subset"),
    pytest.param(lambda: _a_ghost("edge"), id="ghost-edge-end"),
    pytest.param(lambda: _a_ghost("frontier"), id="ghost-frontier-key"),
    pytest.param(lambda: _a_ghost("start"), id="ghost-start"),
    pytest.param(_an_inflated_depth, id="inflated-depth"),
]


def _assert_refused(report, key):
    """The verifier names the forged node, and a search will not resume from it."""
    assert verify_report_nodes(report) == key
    start = fixtures.source_semigroup()  # a resume does not read it
    with pytest.raises(GraphCheckError) as exc:
        explore(start, report.characteristic, max_depth=2, normalized=report.normalized,
                state=report)
    assert exc.value.key == key


@pytest.mark.parametrize("forge", FORGED_REPORTS)
def test_a_forged_report_is_refused_by_the_verifier_and_by_a_resume(forge):
    _assert_refused(*forge())


@pytest.mark.parametrize("normalized", [True, False])
def test_verify_report_nodes_rejects_a_second_node_of_one_class(normalized):
    report, key = _a_copy_of_the_start_takes_the_loop(normalized)
    assert find_cycles(report.nodes, report.edges, (1,)) == []
    assert all(search._edge_checks_out(report, e) for e in report.edges)  # every edge holds
    assert verify_report_nodes(report) == key


@pytest.mark.parametrize("normalized", [True, False])
def test_verify_report_nodes_rejects_a_lower_dimensional_node(normalized):
    report, key = _a_lower_dimensional_node(normalized)
    assert verify_report_nodes(report) == key


def test_verify_report_nodes_rejects_a_basis_with_a_line():
    report, key = _a_basis_with_a_line()
    assert verify_report_nodes(report) == key


def test_verify_report_nodes_needs_a_parent_edge_below_each_node():
    report, key = _a_node_with_no_parent_edge_from_below()
    assert verify_report_nodes(report) == key  # true, smooth, and reached by no edge
    report.nodes["a"].depth = 2  # a start off depth 0 does not check out, and a comes first
    assert verify_report_nodes(report) == "a"


def _counting(calls, name, f):
    def counted(*args):
        calls[name] += 1
        return f(*args)

    return counted


def test_rederiving_every_edge_takes_one_double_description_per_source(monkeypatch):
    report = load_graph(str(CORPUS / "dim4char3.graph"))
    assert report.normalized
    for node in report.nodes.values():
        assert node.semigroup.is_saturated()  # builds every node's cone, as the node checks do
    calls = {"dd": 0, "saturation": 0}
    for module in (cone_module, nash):  # Cone() reaches it through dual_description
        monkeypatch.setattr(
            module, "double_description", _counting(calls, "dd", module.double_description)
        )
    monkeypatch.setattr(
        semigroup,
        "saturation_hilbert_basis",
        _counting(calls, "saturation", semigroup.saturation_hilbert_basis),
    )
    assert all(search._edge_checks_out(report, e) for e in report.edges)
    assert calls == {"dd": len({e.src for e in report.edges}), "saturation": 0}


def test_node_is_smooth():
    assert search._node_is_smooth(AffineSemigroup(((1, 0), (0, 1)), 2))
    assert not search._node_is_smooth(AffineSemigroup(((1, 0), (1, 1), (1, 2)), 2))
    # spans Z^2 but misses (1,2) inside its cone: three Hilbert elements
    assert not search._node_is_smooth(AffineSemigroup(((1, 0), (1, 1), (1, 3)), 2))
    # a free semigroup of index 4 in Z^2: two Hilbert elements of determinant 4
    assert not search._node_is_smooth(AffineSemigroup(((2, 0), (0, 2)), 2))
    # a line has no Hilbert basis
    assert not search._node_is_smooth(AffineSemigroup(((1,), (-1,)), 1))


def test_node_smoothness_invariant_under_unimodular_maps():
    rng = random.Random(305)
    for _ in range(10):
        u = random_unimodular(rng, 3)
        gens = [apply_matrix(u, g) for g in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        assert search._node_is_smooth(AffineSemigroup(gens, 3))


def test_judging_a_smooth_node_saturates_nothing(monkeypatch):
    # d Hilbert elements of determinant +-1 settle smoothness: no saturation test runs
    smooth = [
        n.semigroup
        for name in ("B", "dim4char3")
        for n in load_graph(str(CORPUS / f"{name}.graph")).nodes.values()
        if n.smooth
    ]
    cf = fixtures.BUILTIN_CONES["a2"]
    report = explore(_saturated(cf.generators, cf.dim), 0, normalized=False)
    smooth += [n.semigroup for n in report.nodes.values() if n.smooth]
    assert len(smooth) >= 3
    calls = {"saturation": 0}
    monkeypatch.setattr(
        semigroup,
        "saturation_hilbert_basis",
        _counting(calls, "saturation", semigroup.saturation_hilbert_basis),
    )
    assert all(search._node_is_smooth(s) for s in smooth)
    assert calls["saturation"] == 0


def test_verify_report_nodes_checks_each_edge_once(monkeypatch):
    report = load_graph(str(CORPUS / "B.graph"))
    calls = {"edge": 0}
    monkeypatch.setattr(
        search, "_edge_checks_out", _counting(calls, "edge", search._edge_checks_out)
    )
    assert verify_report_nodes(report) is None
    assert calls["edge"] == len(report.edges)


def _forged_certificates(m):
    """The certificate, two columns swapped, one entry moved, one column doubled."""
    cols = [list(c) for c in m]
    swapped = [cols[1], cols[0]] + cols[2:]
    moved = [[x + (i == j == 0) for i, x in enumerate(c)] for j, c in enumerate(cols)]
    doubled = [[2 * x for x in cols[0]]] + cols[1:]
    return [m] + [tuple(map(tuple, f)) for f in (swapped, moved, doubled)]


@pytest.mark.parametrize("name", ["B", "dim4char3", "reeves"])
def test_edge_check_matches_the_hilbert_basis_check(name):
    # the ray match on the target's cone against verify_certificate on the
    # saturation of a plain Cone of the chart's generators
    report = load_graph(str(CORPUS / f"{name}.graph"))
    p = report.characteristic
    verdicts = []
    for e in report.edges:
        src, dst = report.nodes[e.src].semigroup, report.nodes[e.dst].semigroup
        gens = reference_chart_generators(src.hilbert_basis(), e.subset, p)
        target = AffineSemigroup.from_cone(Cone(gens, src.dim))
        for m in _forged_certificates(e.certificate):
            want = verify_certificate(target, dst, certificate_for_matrix(target, m))
            assert search._edge_checks_out(report, GraphEdge(e.src, e.dst, e.subset, m)) == want
            verdicts.append(want)
    assert verdicts.count(True) >= len(report.edges)  # the stored certificates, at least


def _edge_rule_through_chart(report, e):
    """The edge check as it read before the subset table: the public chart()
    at the subset's Hilbert elements, then sorted ray images onto the
    target's rays (normalized) or verify_certificate (not normalized)."""
    src, dst = report.nodes[e.src].semigroup, report.nodes[e.dst].semigroup
    h = src.hilbert_basis()
    if not all(0 <= i < len(h) for i in e.subset):
        return False
    try:
        ch = nash.chart(src, [h[i] for i in e.subset], report.characteristic, normalize=False)
    except ValueError:
        return False
    if not ch.pointed:
        return False
    m, d = e.certificate, src.dim
    if not report.normalized:
        target = ch.chart_semigroup
        return verify_certificate(target, dst, certificate_for_matrix(target, m))
    return (
        len(m) == d
        and all(len(col) == d for col in m)
        and is_unimodular(m)
        and dst.is_saturated()
        and sorted(mat_apply(m, r) for r in ch.cone.generators) == list(dst.cone.generators)
    )


@pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "plain"])
@pytest.mark.parametrize("name, depth", [("B", 2), ("dim4char3", 3), ("reeves", 2)])
def test_edge_check_matches_the_check_through_chart(name, depth, normalized):
    cf = fixtures.BUILTIN_CONES[name]
    start = _saturated(cf.generators, cf.dim)
    report = explore(start, 3, max_depth=depth, normalized=normalized)
    for e in report.edges:
        assert search._edge_checks_out(report, e) and _edge_rule_through_chart(report, e)
        moved = _forged_certificates(e.certificate)[2]  # one entry off
        forged = GraphEdge(e.src, e.dst, e.subset, moved)
        assert search._edge_checks_out(report, forged) == _edge_rule_through_chart(report, forged)


def test_a_cycle_target_short_of_an_inner_hilbert_element_does_not_check_out():
    # dim4char3's two-cycle runs 9390d412551c-0 -> f9064a538e52-0 -> back.  The
    # dropped element lies on no extreme ray, so the target's cone, and with it the
    # ray match of every edge into it, is unchanged: only its saturation check fails.
    report = load_graph(str(CORPUS / "dim4char3.graph"))
    assert [c.node_keys for c in report.cycles] == [("9390d412551c-0", "f9064a538e52-0")]
    assert verify_report_cycles(report)
    node = report.nodes["f9064a538e52-0"]
    s, dropped = node.semigroup, (1, 2, 2, 0)
    assert dropped in s.hilbert_basis() and dropped not in s.cone.generators
    thin = AffineSemigroup.from_hilbert_basis([g for g in s.hilbert_basis() if g != dropped], 4)
    assert thin.cone == s.cone
    report.nodes[node.key] = GraphNode(node.key, thin, node.depth, node.smooth)
    assert not verify_report_cycles(report)


def test_an_edge_subset_past_the_source_basis_does_not_check_out():
    # B's start 89f996bf9b7b-0 is its own one-cycle, and its edges take subsets of
    # its 9 Hilbert elements up to index 8.  Dropping an inner element in memory
    # leaves 8, so index 8 points past the basis: that edge must read as failed.
    report = load_graph(str(CORPUS / "B.graph"))
    node = report.nodes["89f996bf9b7b-0"]
    s, dropped = node.semigroup, (1, 1, 0, 1, -1)
    assert dropped in s.hilbert_basis() and dropped not in s.cone.generators
    thin = AffineSemigroup.from_hilbert_basis([g for g in s.hilbert_basis() if g != dropped], 5)
    report.nodes[node.key] = GraphNode(node.key, thin, node.depth, node.smooth)
    assert any(8 in e.subset for e in report.edges if e.src == node.key)
    assert not verify_report_cycles(report)
    assert verify_report_nodes(report) is not None


def test_a_loop_whose_certificate_is_not_unimodular_does_not_check_out():
    report, key = _a_loop_whose_certificate_is_not_unimodular()
    a1 = report.nodes[key].semigroup
    assert [c.length for c in report.cycles] == [1]
    assert nash.chart(a1, a1.hilbert_basis()[:2], 0).cone.generators == ((0, 1), (1, 0))
    assert not verify_report_cycles(report)
    assert verify_report_nodes(report) == key


def _closing_edge_skipped(report):
    pairs = {(e.src, e.dst) for e in report.edges}
    e = next(e for e in report.edges if e.src != e.dst and (e.dst, e.src) not in pairs)
    return CycleRecord(2, (e.src, e.dst), (e.certificate,))


def _length_disagrees(report):
    two = next(c for c in report.cycles if c.length == 2)
    return CycleRecord(5, two.node_keys, two.certificates)


def _empty_record(report):
    return CycleRecord(0, (), ())


def _a_key_that_names_no_node(report):
    two = next(c for c in report.cycles if c.length == 2)
    del report.nodes[two.node_keys[1]]
    return two


@pytest.mark.parametrize(
    "forge", [_closing_edge_skipped, _length_disagrees, _empty_record, _a_key_that_names_no_node]
)
def test_a_forged_cycle_record_does_not_check_out(forge):
    report = explore(_saturated(fixtures.DIM4_CHAR3_COLUMNS, 4), 3, max_depth=2, cycle_lengths=(1, 2))
    assert report.cycles and verify_report_cycles(report)
    report.cycles = [forge(report)]
    assert verify_report_cycles(report) is False
