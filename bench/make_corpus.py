"""Regenerate bench/corpus from the program itself; run once, then commit.

    PYTHONPATH=src python3 bench/make_corpus.py

Writes, with the public toricnash API:
  dim4char3.cone       the saturated dim4char3 start (its Hilbert basis),
                       which the search workload conjugates by a seeded U
  B.graph              explore(B, p=3, max_depth=1) via save_graph
  dim4char3.graph      explore(dim4char3, p=3, max_depth=4, cycles (1, 2))
  reeves.graph         explore(reeves, p=3, max_depth=3)
  hilbert_family.json  120 random cones with entries in [0, max entry], 30 of
                       each (dim, rays, max entry) shape and all generators
                       extreme, with their Hilbert bases
  references.json      the answer digest of each workload
  SHA256SUMS           sha256 of every file above; the benchmark refuses a
                       corpus that does not match it

It takes about a minute on a 2-vCPU host. The benchmark does not run it.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import toricnash as tn
from toricnash.fixtures import BUILTIN_CONES

import workloads

HILBERT_SHAPES = ((3, 5, 6), (4, 6, 4), (5, 6, 3), (5, 7, 3))  # (dim, rays, max entry)
CONES_PER_SHAPE = 30
FAMILY_SEED = 20260417

GRAPH_RUNS = {  # graph file -> (builtin cone, max_depth, cycle lengths)
    "B.graph": ("B", 1, (1,)),
    "dim4char3.graph": ("dim4char3", 4, (1, 2)),
    "reeves.graph": ("reeves", 3, (1,)),
}


def saturated(name: str) -> tn.AffineSemigroup:
    cf = BUILTIN_CONES[name]
    return tn.AffineSemigroup(tn.saturation_hilbert_basis(tn.Cone(cf.generators, cf.dim)), cf.dim)


def hilbert_family() -> list[dict]:
    rng = random.Random(FAMILY_SEED)
    family = []
    for dim, rays, bound in HILBERT_SHAPES:
        made = 0
        while made < CONES_PER_SHAPE:
            gens = [tuple(rng.randint(0, bound) for _ in range(dim)) for _ in range(rays)]
            cone = tn.Cone(gens, dim)
            if not (cone.is_pointed and cone.is_full_dimensional) or len(cone.generators) != rays:
                continue
            family.append({
                "dim": dim,
                "rays": [list(r) for r in cone.generators],
                "hilbert": [list(h) for h in tn.saturation_hilbert_basis(cone)],
            })
            made += 1
    return family


def write_sums(out: Path) -> None:
    names = sorted(p.name for p in out.iterdir() if p.name != workloads.SUMS)
    lines = [f"{hashlib.sha256((out / n).read_bytes()).hexdigest()}  {n}" for n in names]
    (out / workloads.SUMS).write_text("\n".join(lines) + "\n", encoding="ascii")


def main() -> int:
    out = workloads.CORPUS_DIR
    out.mkdir(exist_ok=True)

    start = saturated("dim4char3")
    (out / "dim4char3.cone").write_text(tn.render_cone_file(tn.ConeFile(
        dim=start.dim, generators=start.generators, name="dim4char3", characteristic=3
    )), encoding="ascii")

    for path, (name, depth, cycles) in GRAPH_RUNS.items():
        report = tn.explore(saturated(name), 3, max_depth=depth, cycle_lengths=cycles)
        tn.save_graph(report, str(out / path))
        print(f"{path}: {len(report.nodes)} nodes, {len(report.edges)} edges", file=sys.stderr)

    family = hilbert_family()
    (out / "hilbert_family.json").write_text(json.dumps(family) + "\n", encoding="ascii")

    (out / workloads.REFERENCES).write_text("{}\n", encoding="ascii")
    write_sums(out)
    corpus = workloads.Corpus(out, check_references=False)
    references = {"hilbert": workloads.family_digest(family)}
    with tempfile.TemporaryDirectory(dir=out.parent) as tmp:
        for name in ("search", "certify"):
            p = workloads.Pass()
            references[name] = workloads.WORKLOADS[name](corpus, 0, Path(tmp)).run_pass(p, 0)
            if p.failed:
                print(f"{name}: {p.failed} of {p.attempted} checks failed", file=sys.stderr)
                return 1
    (out / workloads.REFERENCES).write_text(
        json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="ascii"
    )
    write_sums(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
