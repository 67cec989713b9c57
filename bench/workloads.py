"""The three benchmark workloads, built on the public toricnash API only.

A workload is set up once from the corpus and the seed, then runs passes.
A pass times each operation on its own and checks every answer after the
operation's clock has stopped. The answer digest of a pass is the same for
every seed, because the seed only changes the inputs by GL_d(Z) maps whose
effect the digest undoes or ignores; it is compared with the reference in
corpus/references.json.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
import traceback
from pathlib import Path

import toricnash as tn

from hostspeed import bareiss

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
SUMS = "SHA256SUMS"
REFERENCES = "references.json"

# Entries of a seeded U stay small: a product of a few elementary row
# operations. More steps make larger entries and measurably slower runs.
UNIMODULAR_STEPS = 4

# (graph file, characteristic, nodes, edges) of the committed certify graphs
GRAPHS = (
    ("B.graph", 3, 14, 21),
    ("dim4char3.graph", 3, 36, 210),
    ("reeves.graph", 3, 68, 269),
)


class CorpusError(Exception):
    """A corpus file is missing or does not match its committed sha256."""


class Corpus:
    def __init__(self, directory: Path = CORPUS_DIR, check_references: bool = True) -> None:
        self.dir = directory
        sums = self.text(SUMS)
        for line in sums.splitlines():
            want, name = line.split()
            if name == REFERENCES and not check_references:
                continue
            try:
                got = hashlib.sha256((self.dir / name).read_bytes()).hexdigest()
            except OSError as exc:
                raise CorpusError(str(exc)) from None
            if got != want:
                raise CorpusError(f"{name}: sha256 {got} does not match {want}")
        self.references = json.loads(self.text(REFERENCES)) if check_references else {}

    def path(self, name: str) -> Path:
        return self.dir / name

    def text(self, name: str) -> str:
        try:
            return (self.dir / name).read_text(encoding="ascii")
        except OSError as exc:
            raise CorpusError(str(exc)) from None


def digest(answer) -> str:
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()[:16]


def unimodular(rng: random.Random, dim: int, steps: int = UNIMODULAR_STEPS, signs=(1, -1)):
    """A seeded GL_dim(Z) matrix and its inverse, both as lists of rows."""
    u = [[int(i == j) for j in range(dim)] for i in range(dim)]
    inv = [row[:] for row in u]
    for _ in range(steps):
        i, j = rng.sample(range(dim), 2)
        s = rng.choice(signs)
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]  # u <- (I + s e_i e_j^T) u
        for row in inv:  # inv <- inv (I - s e_i e_j^T)
            row[j] -= s * row[i]
    return u, inv


def apply(rows, v) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in rows)


def is_isomorphism(columns, ha, hb) -> bool:
    """Independent check that the matrix (given by columns) maps ha onto hb."""
    rows = list(zip(*columns))
    return abs(bareiss(rows)) == 1 and sorted(apply(rows, h) for h in ha) == sorted(hb)


class Pass:
    """The timed operations of one pass and the verdicts on their answers."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.spans: list[tuple[str, float, float]] = []
        self.attempted = 0
        self.failed = 0

    def run(self, kind: str, what: str, call, check):
        """Time call(); an exception or a false check(answer) fails the operation."""
        out = None
        try:
            if self.tracer is not None:
                self.tracer.active = True
            a = time.perf_counter()
            try:
                out = call()
            finally:
                b = time.perf_counter()
                if self.tracer is not None:
                    self.tracer.active = False
                self.spans.append((kind, a, b))
            ok = bool(check(out))
        except Exception:  # a crash is a failed operation; the pass goes on
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {what}", file=sys.stderr)
        return out


class Workload:
    """Set up from the corpus and the seed; pass k runs on inputs drawn for (seed, k).

    The program's cost depends on coordinates, so one seeded GL_d(Z) image
    can be a few percent cheaper or dearer than another. Fresh inputs per
    pass make the median over passes average over several images.
    """

    name = ""
    latency_kinds: tuple[str, ...] = ()  # operations whose latencies are reported

    def __init__(self, corpus: Corpus, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.reference = corpus.references.get(self.name)
        self.load(corpus, out_dir)
        self.first = self.inputs(0)  # drawing inputs is part of set-up

    def rng(self, k: int, item="") -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}:{item}")

    def run_pass(self, p: Pass, k: int) -> str:
        """Run pass k and return the digest of its answers."""
        return self.run(p, self.first if k == 0 else self.inputs(k))

    def load(self, corpus: Corpus, out_dir: Path) -> None:
        raise NotImplementedError

    def inputs(self, k: int):
        raise NotImplementedError

    def run(self, p: Pass, inputs) -> str:
        raise NotImplementedError


class Search(Workload):
    """Period-two loop hunt from a seeded GL_4(Z) conjugate of the dim4char3 start."""

    name = "search"  # one operation per pass; the pass time is its latency

    def load(self, corpus: Corpus, out_dir: Path) -> None:
        cf = tn.parse_cone_file(corpus.text("dim4char3.cone"))  # its Hilbert basis
        self.dim = cf.dim
        self.hilbert = cf.generators
        self.graph_path = out_dir / "search.graph"

    def inputs(self, k: int):
        u, _ = unimodular(self.rng(k), self.dim)
        return tuple(sorted(apply(u, h) for h in self.hilbert))

    def _explore_and_save(self, start):
        report = tn.explore(
            tn.AffineSemigroup(start, self.dim), 3, max_depth=4, cycle_lengths=(1, 2)
        )
        tn.save_graph(report, str(self.graph_path))
        return report

    def _check(self, report) -> bool:
        kinds = [line.split(" ", 1)[0] for line in self.graph_path.read_text().splitlines()]
        return (
            len(report.nodes) == 36
            and len(report.edges) == 210
            and report.termination == "depth-limit"
            and [c.length for c in report.cycles] == [2]
            and kinds.count("node") == 36
            and kinds.count("edge") == 210
        )

    def run(self, p: Pass, start) -> str:
        report = p.run("explore", "explore + save_graph",
                       lambda: self._explore_and_save(start), self._check)
        if report is None:
            return ""
        # GL_4(Z)-invariant: counts, termination, cycle lengths, fingerprint multiset
        return digest({
            "nodes": len(report.nodes),
            "edges": len(report.edges),
            "termination": report.termination,
            "cycles": sorted(c.length for c in report.cycles),
            "fingerprints": sorted(
                tn.fingerprint(n.semigroup).to_bytes().hex() for n in report.nodes.values()
            ),
        })


class Certify(Workload):
    """The checking side: ledgers, committed graphs, every edge re-derived, isomorphisms."""

    name = "certify"
    # every per-edge and per-node check: 621 a pass, so p50 and p90 steady
    latency_kinds = ("edge", "control", "iso")

    def load(self, corpus: Corpus, out_dir: Path) -> None:
        self.graphs = []
        for name, _, _, _ in GRAPHS:
            lines = [line.split() for line in corpus.text(name).splitlines()]
            nodes = [line for line in lines if line[0] == "node"]
            self.graphs.append({
                "name": name,
                "path": str(corpus.path(name)),
                "keys": [line[1] for line in nodes],
                "dim": int(nodes[0][4]),
                "edges": sum(1 for line in lines if line[0] == "edge"),
            })

    def inputs(self, k: int):
        out = []
        for g in self.graphs:
            rng, dim = self.rng(k, g["name"]), g["dim"]
            out.append({
                "corrupt_edge": rng.randrange(g["edges"]),
                "corrupt_entry": (rng.randrange(dim), rng.randrange(dim)),
                "corrupt_delta": rng.choice((1, -1)),
                "u": {key: unimodular(rng, dim)[0] for key in g["keys"]},
            })
        return out

    @staticmethod
    def _corrupted(matrix, entry, delta, ha, hb):
        """The certificate with one entry moved, skipping moves that leave it valid."""
        d = len(matrix)
        r0, c0 = entry
        for k in range(d * d):
            r, c = (r0 + k // d) % d, (c0 + k) % d
            cols = [list(col) for col in matrix]
            cols[c][r] += delta
            bad = tuple(tuple(col) for col in cols)
            if not is_isomorphism(bad, ha, hb):
                return bad
        raise RuntimeError("no corruption of this certificate is invalid")

    def run(self, p: Pass, inputs) -> str:
        answer = {}
        led = p.run("ledger", "run_all_checks() passes 11/11", tn.run_all_checks,
                    lambda led: led.passed and len(led.checks) == 11)
        led5 = p.run("ledger", "run_all_checks(p=5) fails, 10/11",
                     lambda: tn.run_all_checks(p=5),
                     lambda led: not led.passed and sum(c.passed for c in led.checks) == 10)
        answer["ledger"] = [c.passed for c in led.checks] if led else None
        answer["ledger_p5"] = [c.passed for c in led5.checks] if led5 else None

        reports = {}
        for (name, p_char, n_nodes, n_edges), g in zip(GRAPHS, self.graphs):
            reports[name] = p.run(
                "load_graph", f"load_graph {name}", lambda g=g: tn.load_graph(g["path"]),
                lambda r, n=n_nodes, m=n_edges, c=p_char: (
                    len(r.nodes) == n and len(r.edges) == m and r.characteristic == c
                ),
            )
        for name, rep in reports.items():
            ok = p.run("cycles", f"verify_report_cycles {name}",
                       lambda rep=rep: tn.verify_report_cycles(rep), lambda ok: ok)
            answer[name] = {
                "nodes": len(rep.nodes) if rep else None,
                "edges": len(rep.edges) if rep else None,
                "cycles": sorted(c.length for c in rep.cycles) if rep else None,
                "cycles_verified": ok,
            }

        for g, draw in zip(self.graphs, inputs):
            rep = reports[g["name"]]
            verified = 0
            for i, edge in enumerate(rep.edges if rep else ()):
                out = p.run("edge", f"{g['name']} edge {i}",
                            lambda e=edge, r=rep: self._derive(r, e),
                            lambda out, e=edge, r=rep: self._edge_ok(r, e, out))
                verified += bool(out and out[2])
                if i == draw["corrupt_edge"] and out is not None:
                    answer[g["name"]]["control_rejected"] = self._control(
                        p, g["name"], draw, rep, edge, out[1]
                    )
            answer[g["name"]]["edges_verified"] = verified

        for g, draw in zip(self.graphs, inputs):
            rep = reports[g["name"]]
            found = 0
            for key, node in sorted(rep.nodes.items()) if rep else ():
                u = draw["u"][key]
                h = node.semigroup.hilbert_basis()
                moved = tuple(sorted(apply(u, v) for v in h))
                out = p.run("iso", f"{g['name']} isomorphism {key}",
                            lambda m=moved, s=node.semigroup: self._isomorphism(m, s),
                            lambda out, m=moved, h=h: (
                                out[0] is not None and out[1]
                                and is_isomorphism(out[0].matrix, m, h)
                            ))
                found += bool(out and out[1])
            answer[g["name"]]["isomorphisms_verified"] = found
        return digest(answer)

    @staticmethod
    def _derive(rep, edge):
        src = rep.nodes[edge.src].semigroup
        h = src.hilbert_basis()
        ch = tn.chart(src, [h[i] for i in edge.subset], rep.characteristic,
                      normalize=rep.normalized)
        target = ch.normalized_chart if rep.normalized else ch.chart_semigroup
        cert = tn.certificate_for_matrix(target, edge.certificate)
        return ch.pointed, target, tn.verify_certificate(target, rep.nodes[edge.dst].semigroup, cert)

    @staticmethod
    def _edge_ok(rep, edge, out) -> bool:
        pointed, target, ok = out
        return pointed and ok and is_isomorphism(
            edge.certificate, target.hilbert_basis(), rep.nodes[edge.dst].semigroup.hilbert_basis()
        )

    def _control(self, p: Pass, name, draw, rep, edge, target) -> bool:
        dst = rep.nodes[edge.dst].semigroup
        bad = self._corrupted(edge.certificate, draw["corrupt_entry"], draw["corrupt_delta"],
                              target.hilbert_basis(), dst.hilbert_basis())
        verdict = p.run(
            "control", f"{name} corrupted certificate is rejected",
            lambda: tn.verify_certificate(target, dst, tn.certificate_for_matrix(target, bad)),
            lambda ok: ok is False,
        )
        return verdict is False

    @staticmethod
    def _isomorphism(moved, s):
        a = tn.AffineSemigroup(moved, s.dim)
        cert = tn.find_isomorphism(a, s)
        return cert, cert is not None and tn.verify_certificate(a, s, cert)


# The cost of saturation_hilbert_basis depends on coordinates (candidates
# are reduced in lexicographic order), so a strong U makes the cost of the
# 120 cones differ by seed: 0.17 of the median between quartiles with four
# signed steps, 0.06 with two positive ones, which also keep the family in
# the positive orthant it was drawn from.
HILBERT_STEPS = 2


class Hilbert(Workload):
    """Seeded GL_d(Z) images of 120 committed cones: parse, Cone, Hilbert basis."""

    name = "hilbert"
    latency_kinds = ("hilbert",)

    def load(self, corpus: Corpus, out_dir: Path) -> None:
        self.family = json.loads(corpus.text("hilbert_family.json"))

    def inputs(self, k: int):
        cases = []
        for i, cone in enumerate(self.family):
            rng = self.rng(k, i)
            u, inv = unimodular(rng, cone["dim"], HILBERT_STEPS, signs=(1,))
            gens = [apply(u, r) for r in cone["rays"]]
            rng.shuffle(gens)
            text = f"# cone {i} of the hilbert workload\ndim {cone['dim']}\nname c{i}\n" + "".join(
                " ".join(str(x) for x in g) + "\n" for g in gens
            )
            expected = tuple(sorted(apply(u, h) for h in cone["hilbert"]))
            cases.append((i, text, expected, inv))
        self.rng(k).shuffle(cases)
        return cases

    @staticmethod
    def _hilbert_basis(text):
        cf = tn.parse_cone_file(text)
        return tn.saturation_hilbert_basis(tn.Cone(cf.generators, cf.dim))

    def run(self, p: Pass, cases) -> str:
        answers = {}
        for i, text, expected, inv in cases:
            hb = p.run("hilbert", f"hilbert basis of cone {i}",
                       lambda t=text: self._hilbert_basis(t),
                       lambda hb, e=expected: tuple(sorted(hb)) == e)
            if hb is not None:
                answers[i] = sorted(apply(inv, h) for h in hb)
        return digest([answers.get(i) for i in range(len(cases))])


def family_digest(family) -> str:
    """The hilbert reference: the family's own bases, as a pass maps its answers back."""
    return digest([sorted(tuple(h) for h in cone["hilbert"]) for cone in family])


WORKLOADS = {"search": Search, "certify": Certify, "hilbert": Hilbert}
