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
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .exactmath import (
    Mat,
    Vec,
    check_characteristic,
    identity,
    independent_indices,
    is_prime,
    is_unimodular,
    mat,
    mat_apply,
    solve,
    vec,
)
from .iso import (
    certificate_for_matrix,
    find_isomorphism,
    fingerprint,
    first_base_map,
    verify_certificate,
)
from .cone import Cone, NotFullDimensionalError, NotPointedError
from .nash import chart, chart_generators, vertex_charts
from .semigroup import AffineSemigroup, NotFullLatticeError, NotSaturatedError

DEFAULT_MAX_DEPTH = 4
DEFAULT_MAX_NODES = 10_000

TERMINATION_EXHAUSTED = "exhausted"
TERMINATION_DEPTH = "depth-limit"
TERMINATION_NODES = "node-limit"
TERMINATION_CYCLE = "cycle-found"


class GraphFormatError(ValueError):
    """Bad persisted graph; the message carries the offending line number."""


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
    try:
        return s.is_smooth()
    except ValueError:
        return False


def _node_is_saturated(s: AffineSemigroup) -> bool:
    try:
        return s.is_saturated()
    except ValueError:  # a cone with a line has no Hilbert basis
        return False


RaySignature = tuple[int, ...]


class _ConeEntry(NamedTuple):
    """What a lookup by cone needs of a node, computed once when it is filed."""

    rays: tuple[Vec, ...]  # the node's primitive extreme rays, sorted
    base: tuple[RaySignature, ...]  # signatures of its first independent d rays
    det: int  # det of those rays as columns
    adj: Mat  # their adjugate: rays . adj == det . I


def _ray_signatures(c: Cone) -> dict[Vec, RaySignature]:
    """Each primitive extreme ray r of a pointed cone -> its sorted facet values <n_f, r>."""
    return {r: tuple(sorted(sum(map(mul, n, r)) for n in c.facet_normals)) for r in c.generators}


def _cone_key(c: Cone, sig: dict[Vec, RaySignature]) -> tuple:
    return c.dim, tuple(sorted(sig.values()))


class _ClassIndex:
    """Node keys bucketed by cone key, and the per-fingerprint key counters.

    A node's cone key is the dimension with the sorted multiset of its ray
    signatures, a ray's signature being its sorted facet values.  Primitive
    facet normals move by U^{-T} under x -> U x and rays by U, so a
    unimodular map between two cones keeps every ray's signature and
    equivalent cones share a key, as iso.signatures argues for Hilbert
    elements.  The key is computed once, when a node is filed; so are the
    node's first independent d rays with their adjugate and determinant.

    locate_cone finds the node of a saturated chart from its cone alone.  A
    normalized chart is cone intersect Z^d, so it is equivalent to a
    (saturated) node exactly when some V in GL_d(Z) maps the node's cone
    onto the chart's.  Such a V permutes primitive extreme rays and keeps
    their signatures, so it is found by sending the node's base rays to
    chart rays of equal signature, V = images . adj / det, and keeping V
    when it is integral, maps every node ray to a chart ray and has
    |det V| = 1.  The two cones have one key, so equally many rays, and V
    maps H(node) onto H(chart): V^{-1}, for the first V in base-ray order,
    is the certificate, with nothing saturated or searched.  locate compares
    semigroups with find_isomorphism, for non-normalized search; equivalent
    semigroups have equivalent cones, so it scans the same bucket.  Either
    way the first equivalent node in filing order is found.  A node key is
    the first 12 hex digits of sha256(fingerprint bytes) and the node's
    index among the nodes with that fingerprint, so only new nodes are
    fingerprinted.
    """

    def __init__(self) -> None:
        self.buckets: dict[tuple, list[str]] = {}
        self.cones: dict[str, _ConeEntry] = {}
        self.counts: dict[bytes, int] = {}

    def locate(
        self, s: AffineSemigroup, nodes: dict[str, GraphNode]
    ) -> tuple[Optional[str], Optional[Mat]]:
        c = s.cone
        for key in self.buckets.get(_cone_key(c, _ray_signatures(c)), []):
            cert = find_isomorphism(s, nodes[key].semigroup)
            if cert is not None:
                return key, cert.matrix
        return None, None

    def locate_cone(self, c: Cone) -> tuple[Optional[str], Optional[Mat]]:
        """The node equivalent to the saturation of c, with a certificate onto it.

        Every node must be saturated; c must be pointed and full-dimensional.
        """
        sig = _ray_signatures(c)
        by: dict[RaySignature, list[Vec]] = {}
        for r in c.generators:
            by.setdefault(sig[r], []).append(r)
        rays = set(c.generators)

        def onto(m: Mat) -> bool:  # entry is the node being tried
            return all(mat_apply(m, r) in rays for r in entry.rays) and is_unimodular(m)

        for key in self.buckets.get(_cone_key(c, sig), []):
            entry = self.cones[key]
            v = first_base_map([by[b] for b in entry.base], entry.det, entry.adj, onto)
            if v is not None:
                det, adj = solve(v, identity(c.dim))  # det is +-1, so V^{-1} = det . adj
                return key, tuple(tuple(det * e for e in col) for col in adj)
        return None, None

    def insert(self, s: AffineSemigroup, key: Optional[str] = None) -> str:
        """File s as a node, under the given key or a fresh one; return the key."""
        fp = fingerprint(s).to_bytes()  # raises NotPointedError for a cone with a line
        c = s.cone
        if not c.is_full_dimensional:
            raise NotFullDimensionalError("a search node must be full-dimensional")
        n = self.counts.get(fp, 0)
        self.counts[fp] = n + 1
        if key is None:
            key = f"{hashlib.sha256(fp).hexdigest()[:12]}-{n}"
        sig = _ray_signatures(c)
        base = [c.generators[i] for i in independent_indices(c.generators, s.dim)]
        det, adj = solve(mat(base), identity(s.dim))
        self.cones[key] = _ConeEntry(c.generators, tuple(sig[r] for r in base), det, adj)
        self.buckets.setdefault(_cone_key(c, sig), []).append(key)
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
    with the out-edges it has so far.  An edge stores the identity into a
    new node, else the certificate its _ClassIndex lookup returns.  Passing
    a loaded report as `state` resumes its frontier; its characteristic and
    mode must match, and a frontier node that already has out-edges has
    them dropped and redone when it is expanded.  A start that is not
    pointed, not saturated or does not span Z^d raises NotPointedError,
    NotSaturatedError or NotFullLatticeError, all ValueErrors.  So does a
    resume state with an unsaturated node in normalized mode, or with a
    frontier node flagged smooth (NotSaturatedError, ValueError), and a p
    that is neither zero nor prime (InvalidCharacteristic).
    """
    check_characteristic(p)
    wanted = sorted(set(int(k) for k in cycle_lengths))
    if any(k < 1 for k in wanted):
        raise ValueError("cycle lengths must be positive")

    index = _ClassIndex()
    if state is None:
        if not start.is_pointed:
            raise NotPointedError("search requires a pointed start semigroup")
        if not start.is_saturated():
            raise NotSaturatedError("search requires a saturated start semigroup")
        if not start.generates_full_lattice():
            raise NotFullLatticeError("search requires a start semigroup spanning Z^d")
        start_key = index.insert(start)
        nodes = {start_key: GraphNode(start_key, start, 0, _node_is_smooth(start))}
        edges: list[GraphEdge] = []
        frontier = [] if nodes[start_key].smooth else [start_key]
    else:
        if state.characteristic != p or state.normalized != normalized:
            raise ValueError("resume state does not match the requested search")
        nodes = dict(state.nodes)
        edges = list(state.edges)
        frontier = list(state.frontier)
        start_key = state.start_key
        for key, node in nodes.items():
            # locate_cone trusts every node to be saturated (the check is cached)
            if normalized and not node.semigroup.is_saturated():
                raise NotSaturatedError(f"node {key} of the resume state is not saturated")
            index.insert(node.semigroup, key)
        for key in frontier:
            if nodes[key].smooth:
                raise ValueError(f"frontier node {key} of the resume state is flagged smooth")
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
        for subset, cone in vertex_charts(source, p):
            if normalized:
                target = None  # saturated only if it starts a new node
                found, cert = index.locate_cone(cone)
            else:
                target = AffineSemigroup(chart_generators(source, subset, p), source.dim, cone=cone)
                found, cert = index.locate(target, nodes)
            if found is None:
                if len(nodes) >= max_nodes:
                    termination = TERMINATION_NODES
                    break
                if target is None:
                    target = AffineSemigroup.from_cone(cone)
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
    for (src, dst) in best_edge:
        adj.setdefault(src, []).append(dst)
    for v in adj.values():
        v.sort()

    found: list[CycleRecord] = []
    seen: set[tuple[str, ...]] = set()
    maxlen = max(wanted)
    keys = sorted(nodes)

    def walk(anchor: str, path: list[str]) -> None:
        cur = path[-1]
        for nxt in adj.get(cur, []):
            if nxt == anchor and len(path) in wanted:
                tup = tuple(path)
                if tup not in seen:
                    seen.add(tup)
                    certs = []
                    cyc = path + [anchor]
                    for a, b in zip(cyc, cyc[1:]):
                        certs.append(best_edge[(a, b)].certificate)
                    found.append(
                        CycleRecord(length=len(path), node_keys=tup, certificates=tuple(certs))
                    )
            if nxt <= anchor or nxt in path:
                continue
            if len(path) < maxlen:
                walk(anchor, path + [nxt])

    for anchor in keys:
        walk(anchor, [anchor])
    found.sort(key=lambda c: (c.length, c.node_keys))
    return found


def _edge_checks_out(report: SearchReport, e: GraphEdge) -> bool:
    """Re-derive the edge's chart from its source and check its certificate onto its target.

    In normalized mode nothing is saturated.  A normalized chart is its cone
    intersect Z^d, and so is a saturated target, so M maps the one onto the
    other (verify_certificate's verdict) exactly when M is square and
    unimodular, the target is saturated (a cached check) and M maps the
    chart's primitive extreme rays onto the target's, as in locate_cone.
    """
    src, dst = report.nodes[e.src].semigroup, report.nodes[e.dst].semigroup
    h = src.hilbert_basis()
    if not all(0 <= i < len(h) for i in e.subset):  # a report built in memory, unchecked
        return False
    try:
        ch = chart(src, tuple(h[i] for i in e.subset), report.characteristic, normalize=False)
    except ValueError:  # a vanishing minor, or a source that is no blowup source
        return False
    if not ch.pointed:
        return False
    m = e.certificate
    if not report.normalized:
        target = ch.chart_semigroup
        return verify_certificate(target, dst, certificate_for_matrix(target, m))
    d = src.dim
    return (
        len(m) == d
        and all(len(col) == d for col in m)
        and is_unimodular(m)
        and _node_is_saturated(dst)
        and sorted(mat_apply(m, r) for r in ch.cone.generators) == list(dst.cone.generators)
    )


def verify_report_cycles(report: SearchReport) -> bool:
    """Re-derive each cycle edge's chart and check its certificate."""
    for cyc in report.cycles:
        ring = list(cyc.node_keys) + [cyc.node_keys[0]]
        for a, b, cert_matrix in zip(ring, ring[1:], cyc.certificates):
            edge = next(
                (e for e in report.edges if (e.src, e.dst, e.certificate) == (a, b, cert_matrix)),
                None,
            )
            if edge is None or not _edge_checks_out(report, edge):
                return False
    return True


def verify_report_nodes(report: SearchReport) -> Optional[str]:
    """The first node, in key order, that does not check out, else the target of
    the first edge, in report order, that does not; None if all check out.

    In normalized mode a node is saturated, so its basis must be the
    Hilbert basis of the saturation of its cone.  In both modes its smooth
    flag must match a recomputation.  A saturated basis can still be the
    wrong semigroup (drop an extreme ray and the rest is the saturation of
    a smaller cone), so every node but the start must also be the target
    of a checked edge from a node of lower depth.  By induction on depth,
    every node is then a chart of a chart of ... the start.  A smooth node
    is a leaf, so one on the frontier does not check out either.  Then
    every edge is re-derived from its source and its certificate checked.
    """
    frontier = set(report.frontier)
    # one verdict per edge: the edge pass does not check a parent edge again
    checks_out = functools.cache(lambda i: _edge_checks_out(report, report.edges[i]))
    parents: dict[str, list[int]] = {}
    for i, e in enumerate(report.edges):
        if report.nodes[e.src].depth < report.nodes[e.dst].depth:
            parents.setdefault(e.dst, []).append(i)
    for key in sorted(report.nodes):
        node = report.nodes[key]
        if report.normalized and not _node_is_saturated(node.semigroup):
            return key
        if _node_is_smooth(node.semigroup) != node.smooth or (node.smooth and key in frontier):
            return key
        if key != report.start_key and not any(map(checks_out, parents.get(key, ()))):
            return key
    for i, e in enumerate(report.edges):
        if not checks_out(i):
            return e.dst
    return None


# ---------------------------------------------------------------------------
# persistence: one self-contained record per line
#
#   meta <characteristic> <normalized 0|1> <termination> <start-key>
#   node <key> <depth> <smooth 0|1> <dim> <ngens> <gen entries row-major>
#   edge <src> <dst> <subset indices increasing, comma-joined> <dim> <matrix row-major>
#   frontier <key>
#
# A flag is 0 or 1, the start node has depth 0, and no two edges share a
# source and a subset.
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
                meta = (int(parts[1]), _flag(parts[2]), parts[3], parts[4], lineno)
            elif kind == "node":
                key, depth, smooth, dim, ngens = (
                    parts[1],
                    int(parts[2]),
                    _flag(parts[3]),
                    int(parts[4]),
                    int(parts[5]),
                )
                if key in nodes:
                    raise GraphFormatError(f"line {lineno}: duplicate node key {key}")
                entries = [int(x) for x in parts[6:]]
                if len(entries) != dim * ngens:
                    raise GraphFormatError(
                        f"line {lineno}: expected {dim * ngens} generator entries"
                    )
                gens = [vec(entries[i * dim : (i + 1) * dim]) for i in range(ngens)]
                s = AffineSemigroup.from_hilbert_basis(gens, dim)
                nodes[key] = GraphNode(key, s, depth, smooth)
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
        if nodes or edges or frontier:
            raise GraphFormatError("line 1: missing meta record")
        return SearchReport(0, True, {}, [], [], [], TERMINATION_EXHAUSTED, "")
    for lineno, e in zip(edge_lines.values(), edges):
        _check_edge(lineno, e, nodes)
    for key, lineno in frontier.items():
        if key not in nodes:
            raise GraphFormatError(f"line {lineno}: frontier references a missing node {key}")
    p, normalized, termination, start_key, meta_line = meta
    if p and not is_prime(p):
        raise GraphFormatError(f"line {meta_line}: characteristic {p} is neither zero nor prime")
    if start_key not in nodes:
        raise GraphFormatError(f"line {meta_line}: start key {start_key} names no node")
    if nodes[start_key].depth:  # every other depth is checked against a parent edge
        raise GraphFormatError(
            f"line {meta_line}: start node {start_key} has depth {nodes[start_key].depth}, not 0"
        )
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
