"""Graph search over semigroups reachable by normalized Nash blowup.

Nodes are unimodular-equivalence classes of pointed semigroups, each kept
as the first representative discovered; edges remember the chart subset
and a certificate matrix onto the target representative.  Breadth-first
expansion stops at the depth or node limits; smooth nodes are leaves.  A
cycle of length k is a simple directed cycle in the class graph, i.e. a
chart at depth k from some node isomorphic to that node.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .exactmath import (
    InvalidCharacteristic, Mat, Vec, check_characteristic, identity, is_unimodular, mat, mat_apply,
    solve, vec,
)
from .iso import Frame, carries, fingerprint, first_map
from .cone import Cone, NotFullDimensionalError, NotPointedError
from .nash import chart_generators, vertex_charts
from .semigroup import AffineSemigroup, NotFullLatticeError, NotSaturatedError

DEFAULT_MAX_DEPTH = 4
DEFAULT_MAX_NODES = 10_000

TERMINATION_EXHAUSTED = "exhausted"
TERMINATION_DEPTH = "depth-limit"
TERMINATION_NODES = "node-limit"
TERMINATION_CYCLE = "cycle-found"
_TERMINATIONS = (TERMINATION_EXHAUSTED, TERMINATION_DEPTH, TERMINATION_NODES, TERMINATION_CYCLE)


class GraphFormatError(ValueError):
    """Bad persisted graph; the message carries the offending line number."""


class GraphCheckError(ValueError):
    """A well-formed search graph whose node `key` does not check out."""

    def __init__(self, key: str):
        super().__init__(
            f"node {key} does not check out: its basis, its depth, its smooth flag or the "
            "chart or certificate of an edge into it is wrong, it is smooth and on the frontier, "
            "it is not pointed and full-dimensional, or it is equivalent to another node"
        )
        self.key = key


@dataclass
class GraphNode:
    key: str
    semigroup: AffineSemigroup
    depth: int
    smooth: bool


@dataclass
class GraphEdge:
    src: str
    dst: str
    subset: tuple[int, ...]  # 0-based indices into sorted H(source representative)
    certificate: Mat  # maps the saturated chart onto the target representative


@dataclass
class CycleRecord:
    length: int
    node_keys: tuple[str, ...]  # visiting order; node_keys[0] is lex-least
    certificates: tuple[Mat, ...]  # one per edge, aligned with node_keys


@dataclass
class SearchReport:
    characteristic: int
    normalized: bool
    nodes: dict[str, GraphNode]
    edges: list[GraphEdge]
    cycles: list[CycleRecord]
    frontier: list[str]  # unexpanded non-smooth node keys
    termination: str
    start_key: str

    @property
    def nodes_explored(self) -> int:
        return len(self.nodes)

    def cycle_lengths_found(self) -> set[int]:
        return {c.length for c in self.cycles}


def _node_is_smooth(s: AffineSemigroup) -> bool:
    """Exactly d Hilbert elements of determinant +-1, or False where the Hilbert
    basis raises.  Such elements generate Z^d and their cone meets Z^d in
    exactly their semigroup, so no lattice or saturation test is needed."""
    try:
        h = s.hilbert_basis()
        return len(h) == s.dim and is_unimodular(mat(h))
    except ValueError:
        return False


def _node_is_saturated(s: AffineSemigroup) -> bool:
    try:
        return s.is_saturated()
    except ValueError:  # a cone with a line has no Hilbert basis
        return False


def _points(s: AffineSemigroup, normalized: bool) -> tuple[Vec, ...]:
    """The points that name the class of the node s: its cone's primitive extreme
    rays when normalized (s is its cone intersect Z^d), else its Hilbert basis."""
    return s.cone.generators if normalized else s.hilbert_basis()


def _chart_points(
    src: AffineSemigroup, subset: tuple[int, ...], cone: Cone, p: int, normalized: bool
) -> tuple[Vec, ...]:
    """The points that name the class of src's chart at subset; nothing is saturated."""
    if normalized:
        return cone.generators
    return AffineSemigroup(chart_generators(src, subset, p), src.dim, cone=cone).hilbert_basis()


class _ClassIndex:
    """Node keys bucketed by the key of their frame.

    A node's frame is iso.Frame(_points(s), s.cone), built when it is filed.
    locate takes a chart's points and cone: first_map(node frame, chart
    frame) finds the first V in GL_d(Z) that carries the node's points onto
    the chart's, so V maps the node onto the chart, and V^{-1} is the
    certificate.  The first equivalent node in filing order is found; if it
    has automorphisms, the certificate inverts the first V in the order of
    its base, in both modes.  A fresh node key is P-n, P the first 12 hex
    digits of sha256(fingerprint bytes) and n the least index with P-n not
    yet filed, so only nodes filed without a key are fingerprinted.
    """

    def __init__(self, normalized: bool) -> None:
        self.normalized = normalized
        self.buckets: dict[tuple, list[str]] = {}
        self.frames: dict[str, Frame] = {}

    def locate(self, points: Sequence[Vec], c: Cone) -> tuple[Optional[str], Optional[Mat]]:
        """The node of the class the points name, with a certificate onto it;
        c, their cone, must be pointed and full-dimensional."""
        chart = Frame(points, c)
        for key in self.buckets.get(chart.key, []):
            v = first_map(self.frames[key], chart)
            if v is not None:
                det, adj = solve(v, identity(c.dim))  # det is +-1, so V^{-1} = det . adj
                return key, tuple(tuple(det * e for e in col) for col in adj)
        return None, None

    def insert(self, s: AffineSemigroup, key: Optional[str] = None) -> str:
        """File s as a node, under the given key or a fresh one; return the key."""
        c = s.cone
        if not c.is_pointed:
            raise NotPointedError("a search node must be pointed")
        if not c.is_full_dimensional:
            raise NotFullDimensionalError("a search node must be full-dimensional")
        if key is None:
            prefix = hashlib.sha256(fingerprint(s).to_bytes()).hexdigest()[:12]
            n = 0
            while f"{prefix}-{n}" in self.frames:
                n += 1
            key = f"{prefix}-{n}"
        frame = self.frames[key] = Frame(_points(s, self.normalized), c)
        self.buckets.setdefault(frame.key, []).append(key)
        return key


def explore(
    start: AffineSemigroup,
    p: int,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_nodes: int = DEFAULT_MAX_NODES,
    cycle_lengths: Iterable[int] = (1,),
    normalized: bool = True,
    halt_on_cycle: bool = False,
    state: Optional[SearchReport] = None,
) -> SearchReport:
    """Breadth-first class graph from a saturated pointed start semigroup.

    Nodes are expanded in (depth, key) order from one heap; a node leaves
    the frontier once all of its charts are recorded.  With halt_on_cycle
    the walk stops after the first whole node that completes some requested
    cycle length; otherwise it runs to exhaustion or to the depth/node
    limits.  A node that the node limit cuts short stays on the frontier
    with the out-edges it has so far.  A chart is looked up by _chart_points;
    a new node is its cone's saturation when normalized, else the semigroup
    of its Hilbert basis.  An edge stores the identity into a new node, else
    the certificate that _ClassIndex.locate returns.  Passing
    a report as `state` resumes its frontier, and `start` is not read: the
    characteristic and mode must match, else ValueError, and the report
    must pass _checked_index, else GraphCheckError; the search goes on with
    the index that check fills.  A frontier node with out-edges has them
    dropped and redone when it is expanded.  A start that is not pointed,
    not saturated or does not span Z^d raises NotPointedError,
    NotSaturatedError or NotFullLatticeError, and a p that is neither zero
    nor prime InvalidCharacteristic; all are ValueErrors.
    """
    check_characteristic(p)
    wanted = sorted(set(int(k) for k in cycle_lengths))
    if any(k < 1 for k in wanted):
        raise ValueError("cycle lengths must be positive")

    if state is None:
        if not start.is_pointed:
            raise NotPointedError("search requires a pointed start semigroup")
        if not start.is_saturated():
            raise NotSaturatedError("search requires a saturated start semigroup")
        if not start.generates_full_lattice():
            raise NotFullLatticeError("search requires a start semigroup spanning Z^d")
        index = _ClassIndex(normalized)
        start_key = index.insert(start)
        nodes = {start_key: GraphNode(start_key, start, 0, _node_is_smooth(start))}
        edges: list[GraphEdge] = []
        frontier = [] if nodes[start_key].smooth else [start_key]
    else:
        if state.characteristic != p or state.normalized != normalized:
            raise ValueError("resume state does not match the requested search")
        index = _checked_index(state)
        nodes = dict(state.nodes)
        edges = list(state.edges)
        frontier = list(state.frontier)
        start_key = state.start_key
    # a frontier node with out-edges was cut short by the node limit
    cut_short = {e.src for e in edges}.intersection(frontier)
    heap = [(nodes[k].depth, k) for k in frontier]
    heapq.heapify(heap)

    termination = TERMINATION_EXHAUSTED
    while heap and heap[0][0] < max_depth:
        depth, key = heap[0]  # new nodes are one level deeper, so this stays the head
        if key in cut_short:
            edges = [e for e in edges if e.src != key]
        source = nodes[key].semigroup
        for subset, cone in vertex_charts(source, p).items():
            points = _chart_points(source, subset, cone, p, normalized)
            found, cert = index.locate(points, cone)
            if found is None:
                if len(nodes) >= max_nodes:
                    termination = TERMINATION_NODES
                    break
                if normalized:
                    target = AffineSemigroup.from_cone(cone)
                else:
                    target = AffineSemigroup.from_hilbert_basis(points, source.dim, cone=cone)
                found = index.insert(target)
                nodes[found] = GraphNode(found, target, depth + 1, _node_is_smooth(target))
                cert = identity(target.dim)
                if not nodes[found].smooth:
                    heapq.heappush(heap, (depth + 1, found))
            edges.append(GraphEdge(key, found, subset, cert))
        if termination == TERMINATION_NODES:
            break
        heapq.heappop(heap)
        if halt_on_cycle and wanted and find_cycles(nodes, edges, wanted):
            termination = TERMINATION_CYCLE
            break
    if termination == TERMINATION_EXHAUSTED and heap:
        termination = TERMINATION_DEPTH

    return SearchReport(
        characteristic=p,
        normalized=normalized,
        nodes=nodes,
        edges=edges,
        cycles=find_cycles(nodes, edges, wanted),
        frontier=sorted(k for _, k in heap),
        termination=termination,
        start_key=start_key,
    )


def find_cycles(
    nodes: dict[str, GraphNode], edges: Sequence[GraphEdge], lengths: Iterable[int]
) -> list[CycleRecord]:
    """Simple directed cycles of the requested lengths, one per node orbit.

    Each cycle is reported once, anchored at its lexicographically least
    node key; parallel edges contribute a single deterministic
    representative (the lex-least chart subset).
    """
    wanted = sorted(set(int(k) for k in lengths))
    if not wanted:
        return []
    best_edge: dict[tuple[str, str], GraphEdge] = {}
    for e in edges:
        cur = best_edge.get((e.src, e.dst))
        if cur is None or e.subset < cur.subset:
            best_edge[(e.src, e.dst)] = e
    adj: dict[str, list[str]] = {}
    for src, dst in best_edge:
        adj.setdefault(src, []).append(dst)
    found: list[CycleRecord] = []
    maxlen = max(wanted)

    def walk(anchor: str, path: list[str]) -> None:
        """Extend the path, whose nodes follow the anchor in key order, by one edge."""
        for nxt in adj.get(path[-1], []):
            if nxt == anchor and len(path) in wanted:
                ring = path + [anchor]
                certs = tuple(best_edge[a, b].certificate for a, b in zip(ring, ring[1:]))
                found.append(CycleRecord(len(path), tuple(path), certs))
            elif nxt > anchor and nxt not in path and len(path) < maxlen:
                walk(anchor, path + [nxt])

    for anchor in nodes:
        walk(anchor, [anchor])
    found.sort(key=lambda c: (c.length, c.node_keys))
    return found


def _edge_checks_out(report: SearchReport, e: GraphEdge) -> bool:
    """Look the edge's chart up in its source's vertex_charts, as explore made
    it, and check that its certificate carries the chart's points onto its
    target's, as _chart_points and _points name them.

    A subset with no entry (a vanishing minor, no vertex, not increasing or
    out of range) does not check out.  In normalized mode the target must be
    saturated: then it and the chart are their cones intersect Z^d, and M
    maps the one onto the other exactly when it carries rays onto rays.
    """
    src, dst = report.nodes[e.src].semigroup, report.nodes[e.dst].semigroup
    members, p, m, d = tuple(e.subset), report.characteristic, e.certificate, src.dim
    try:
        cone = vertex_charts(src, p).get(members)
    except ValueError:  # a source that is no blowup source
        return False
    if cone is None or len(m) != d or any(len(col) != d for col in m):
        return False
    if report.normalized and not _node_is_saturated(dst):
        return False
    points = _chart_points(src, members, cone, p, report.normalized)
    target = set(_points(dst, report.normalized))
    return carries(m, (mat_apply(m, x) for x in points), target)


def verify_report_cycles(report: SearchReport) -> bool:
    """Re-derive each cycle edge's chart and check its certificate.

    A cycle checks out when its length, its node count and its certificate
    count agree and are positive, every key names a node, and each edge of
    the closed ring, the last node back to the first included, is a report
    edge with that certificate that checks out.
    """
    for cyc in report.cycles:
        keys = list(cyc.node_keys)
        if not cyc.length == len(keys) == len(cyc.certificates) >= 1:
            return False
        if any(k not in report.nodes for k in keys):
            return False
        for a, b, cert_matrix in zip(keys, keys[1:] + keys[:1], cyc.certificates):
            edge = next(
                (e for e in report.edges if (e.src, e.dst, e.certificate) == (a, b, cert_matrix)),
                None,
            )
            if edge is None or not _edge_checks_out(report, edge):
                return False
    return True


def _checked_index(report: SearchReport) -> _ClassIndex:
    """The _ClassIndex of a report whose nodes and edges all check out.

    Else GraphCheckError names the first node, in key order, that does not
    check out, or the target of the first edge, in report order, that does
    not; an edge end, frontier key or start key that names no node comes
    first.  A node in normalized mode is saturated: its basis is the
    Hilbert basis of its cone's saturation.  Its smooth flag must match a
    recomputation, and a smooth node, a leaf, is not on the frontier.
    No in-edge vouches for the start, so in both modes its listed basis
    must be the Hilbert basis of the semigroup it generates; the test runs
    once the start is filed, and so pointed and full-dimensional.
    Depths are breadth-first: the start's is 0, every other node's is 1 +
    the least depth among the sources of its in-edges, and an in-edge from
    one level up checks out, as a saturated basis can still be the wrong
    semigroup (drop an extreme ray).  By induction on depth, every node is
    a chart of a chart of ... the start.  Each node is filed in the index,
    once; one that hits a node filed before it, or cannot be filed, does
    not check out, as a duplicate could take a cycle's last edge and hide
    the cycle.  Then every edge is re-derived and its certificate checked.
    """
    frontier = set(report.frontier)
    ends = [k for e in report.edges for k in (e.src, e.dst)]
    for key in ends + report.frontier + [report.start_key]:
        if key not in report.nodes:
            raise GraphCheckError(key)
    index = _ClassIndex(report.normalized)
    # one verdict per edge: the edge pass does not check a parent edge again
    checks_out = functools.cache(lambda i: _edge_checks_out(report, report.edges[i]))
    least: dict[str, int] = {}  # key -> the least depth of a source of its in-edges
    parents: dict[str, list[int]] = {}  # key -> its in-edges from one level up
    for i, e in enumerate(report.edges):
        up = report.nodes[e.src].depth
        least[e.dst] = min(least.get(e.dst, up), up)
        if up == report.nodes[e.dst].depth - 1:
            parents.setdefault(e.dst, []).append(i)
    for key in sorted(report.nodes):
        node = report.nodes[key]
        s = node.semigroup
        if report.normalized and not _node_is_saturated(s):
            raise GraphCheckError(key)
        if _node_is_smooth(s) != node.smooth or (node.smooth and key in frontier):
            raise GraphCheckError(key)
        try:
            found, _ = index.locate(_points(s, report.normalized), s.cone)
            if found is None:
                index.insert(s, key)
        except ValueError:  # not a pointed, full-dimensional semigroup
            found = key
        if found is not None:
            raise GraphCheckError(key)
        if key == report.start_key:
            minimal = AffineSemigroup(s.generators, s.dim, cone=s.cone).hilbert_basis()
            placed = node.depth == 0 and s.generators == minimal
        else:
            up = parents.get(key, ())
            placed = least.get(key) == node.depth - 1 and any(map(checks_out, up))
        if not placed:
            raise GraphCheckError(key)
    for i, e in enumerate(report.edges):
        if not checks_out(i):
            raise GraphCheckError(e.dst)
    return index


def verify_report_nodes(report: SearchReport) -> Optional[str]:
    """The key of the first node that does not check out by _checked_index's
    rules, which explore(state=report) also applies; None if all check out."""
    try:
        _checked_index(report)
    except GraphCheckError as exc:
        return exc.key
    return None


# ---------------------------------------------------------------------------
# persistence: one self-contained record per line
#
#   meta <characteristic> <normalized 0|1> <termination> <start-key>
#   node <key> <depth> <smooth 0|1> <dim> <ngens> <gen entries row-major>
#   edge <src> <dst> <subset indices increasing, comma-joined> <dim> <matrix row-major>
#   frontier <key>
#
# A flag is 0 or 1, the start node has depth 0, a node has at least <dim>
# generators, and no two edges share a source and a subset.
# ---------------------------------------------------------------------------


def _graph_lines(report: SearchReport) -> Iterator[str]:
    yield "meta {} {} {} {}".format(
        report.characteristic,
        1 if report.normalized else 0,
        report.termination,
        report.start_key,
    )
    for key in sorted(report.nodes):
        n = report.nodes[key]
        gens = n.semigroup.hilbert_basis()  # minimal, so reloads stay canonical
        flat = " ".join(str(e) for g in gens for e in g)
        yield f"node {key} {n.depth} {1 if n.smooth else 0} {n.semigroup.dim} {len(gens)} {flat}".rstrip()
    for e in report.edges:
        subset = ",".join(str(i) for i in e.subset)
        dim = len(e.certificate)
        flat = " ".join(str(x) for col in zip(*e.certificate) for x in col)
        yield f"edge {e.src} {e.dst} {subset} {dim} {flat}"
    for key in report.frontier:
        yield f"frontier {key}"


def save_graph(report: SearchReport, path: str) -> None:
    """Write the graph to a temp file beside `path`, then rename it over `path`.

    A run that dies mid-write leaves the previous file as it was; a failed
    write also removes the temp file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            for line in _graph_lines(report):
                fh.write(line + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _check_edge(lineno: int, e: GraphEdge, nodes: dict[str, GraphNode]) -> None:
    """An edge joins two nodes of the same dimension d at a subset of d
    increasing positions in the source's Hilbert basis, by a d x d certificate."""
    if e.src not in nodes or e.dst not in nodes:
        raise GraphFormatError(f"line {lineno}: edge {e.src}->{e.dst} references a missing node")
    src, dst = nodes[e.src].semigroup, nodes[e.dst].semigroup
    d, n = src.dim, len(src.hilbert_basis())
    increasing = list(e.subset) == sorted(set(e.subset))
    if not (len(e.subset) == d and increasing and all(0 <= i < n for i in e.subset)):
        raise GraphFormatError(
            f"line {lineno}: edge subset {e.subset} is not {d} increasing indices in [0, {n})"
        )
    if len(e.certificate) != d or dst.dim != d:
        raise GraphFormatError(
            f"line {lineno}: certificate dimension {len(e.certificate)} does not match "
            f"node dimensions {d} and {dst.dim}"
        )


def _flag(token: str) -> bool:
    if token not in ("0", "1"):
        raise ValueError(f"flag {token!r} is not 0 or 1")
    return token == "1"


def load_graph(path: str) -> SearchReport:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"not an ASCII graph file: {exc}") from None
    nodes: dict[str, GraphNode] = {}
    edges: list[GraphEdge] = []
    node_lines: dict[str, int] = {}  # key -> line number of its node record
    frontier: dict[str, int] = {}  # key -> line number of its frontier record
    edge_lines: dict[tuple[str, tuple[int, ...]], int] = {}  # (src, subset) -> line number
    meta: Optional[tuple[int, bool, str, str, int]] = None  # last: the meta line number
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "meta":
                if meta is not None:
                    raise GraphFormatError(f"line {lineno}: duplicate meta record")
                if len(parts) != 5:
                    raise GraphFormatError(f"line {lineno}: a meta record has 4 fields")
                if parts[3] not in _TERMINATIONS:
                    raise GraphFormatError(f"line {lineno}: unknown termination {parts[3]!r}")
                meta = (int(parts[1]), _flag(parts[2]), parts[3], parts[4], lineno)
            elif kind == "node":
                key, depth, smooth = parts[1], int(parts[2]), _flag(parts[3])
                dim, ngens = int(parts[4]), int(parts[5])
                if key in nodes:
                    raise GraphFormatError(f"line {lineno}: duplicate node key {key}")
                # a search node is full-dimensional, so it has dim generators or
                # more: checking a record costs time polynomial in its length
                if not 1 <= dim <= ngens:
                    raise GraphFormatError(
                        f"line {lineno}: node {key} has dimension {dim} and {ngens} generators"
                    )
                entries = [int(x) for x in parts[6:]]
                if len(entries) != dim * ngens:
                    raise GraphFormatError(
                        f"line {lineno}: expected {dim * ngens} generator entries"
                    )
                gens = [vec(entries[i * dim : (i + 1) * dim]) for i in range(ngens)]
                s = AffineSemigroup.from_hilbert_basis(gens, dim)
                nodes[key] = GraphNode(key, s, depth, smooth)
                node_lines[key] = lineno
            elif kind == "edge":
                src, dst = parts[1], parts[2]
                subset = tuple(int(x) for x in parts[3].split(",")) if parts[3] else ()
                if (src, subset) in edge_lines:
                    raise GraphFormatError(
                        f"line {lineno}: duplicate edge record from {src} at subset {parts[3]}"
                    )
                edge_lines[src, subset] = lineno
                dim = int(parts[4])
                entries = [int(x) for x in parts[5:]]
                if len(entries) != dim * dim:
                    raise GraphFormatError(f"line {lineno}: expected {dim * dim} matrix entries")
                cols = tuple(
                    tuple(entries[r * dim + c] for r in range(dim)) for c in range(dim)
                )
                edges.append(GraphEdge(src, dst, subset, cols))
            elif kind == "frontier":
                if len(parts) != 2:
                    raise GraphFormatError(f"line {lineno}: a frontier record has 1 field")
                if parts[1] in frontier:
                    raise GraphFormatError(f"line {lineno}: duplicate frontier record {parts[1]}")
                frontier[parts[1]] = lineno
            else:
                raise GraphFormatError(f"line {lineno}: unknown record kind {kind!r}")
        except GraphFormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise GraphFormatError(f"line {lineno}: malformed {kind} record: {exc}") from None
    if meta is None:
        raise GraphFormatError("line 1: missing meta record")
    for lineno, e in zip(edge_lines.values(), edges):
        _check_edge(lineno, e, nodes)
    for key, lineno in frontier.items():
        if key not in nodes:
            raise GraphFormatError(f"line {lineno}: frontier references a missing node {key}")
    p, normalized, termination, start_key, meta_line = meta
    try:
        check_characteristic(p)
    except InvalidCharacteristic as exc:
        raise GraphFormatError(f"line {meta_line}: {exc}") from None
    if start_key not in nodes:
        raise GraphFormatError(f"line {meta_line}: start key {start_key} names no node")
    if nodes[start_key].depth:  # every other depth is checked against a parent edge
        raise GraphFormatError(
            f"line {meta_line}: start node {start_key} has depth {nodes[start_key].depth}, not 0"
        )
    for key, lineno in node_lines.items():
        depth = nodes[key].depth
        if depth < 0:
            raise GraphFormatError(f"line {lineno}: node {key} has negative depth {depth}")
    report = SearchReport(
        characteristic=p,
        normalized=normalized,
        nodes=nodes,
        edges=edges,
        cycles=[],
        frontier=sorted(frontier),
        termination=termination,
        start_key=start_key,
    )
    report.cycles = find_cycles(nodes, edges, _RELOAD_CYCLE_LENGTHS)
    return report


# cycles are recomputed on load; lengths past the default depth add nothing
_RELOAD_CYCLE_LENGTHS = (1, 2, 3, 4)
