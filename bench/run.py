"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload {search,certify,hilbert} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from the checkout's src/. The
workload itself runs in fresh single-threaded child processes of this
script. With --trace 0 the last line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, plus the
tracing overhead against an untraced run of the same length. The line
before it records the run environment and the raw measurements. The exit
code is 0 only when every answer was right; a missing program or corpus
exits with 2 and prints no result. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"  # save_graph writes here while a run lasts

WORKLOAD_NAMES = ("search", "certify", "hilbert")
SETUP_PROBES = 5  # extra processes that only set up; setup_s is the median
SETUP_SETTLE_S = 0.5  # host-speed samples a set-up probe takes after it is ready
TIME_LIMIT_S = 170  # the whole command, children included


def percentiles(samples_ms: list[float]) -> tuple[float, float]:
    """p50, and p90 when at least ten samples lie beyond it, else the maximum."""
    p50 = statistics.median(samples_ms)
    if len(samples_ms) >= 100:
        return p50, statistics.quantiles(samples_ms, n=10)[8]
    return p50, max(samples_ms)


# ---------------------------------------------------------------------------
# child process: one workload, set up once, passes until --seconds have run
# ---------------------------------------------------------------------------


def child(args) -> int:
    from hostspeed import HostSpeed, pin_to_one_cpu

    speed = HostSpeed(pin_to_one_cpu())
    speed.start()
    try:
        return measure(args, speed)
    finally:
        speed.stop()


def measure(args, speed) -> int:
    import workloads

    tracer = None
    if args.child == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        try:
            corpus = workloads.Corpus()
        except workloads.CorpusError as exc:
            print(f"corpus refused: {exc}", file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload](corpus, args.seed, out_dir)
        ready = time.perf_counter()
        result = {}
        passes = []
        if args.child == "setup":
            speed.settle(SETUP_SETTLE_S)
        else:
            end = ready + args.seconds
            while True:
                p = workloads.Pass(tracer)
                if tracer is not None:
                    tracer.reset()
                answer = workload.run_pass(p, len(passes))
                passes.append((p, answer, tracer.snapshot() if tracer is not None else None))
                if time.perf_counter() >= end:
                    break
            speed.settle()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    result["setup_s"] = speed.reference_seconds(args.spawned_at, ready)
    result["setup_raw_s"] = ready - args.spawned_at
    result["passes"] = [
        summarize_pass(p, answer, layers, workload, speed) for p, answer, layers in passes
    ]
    result["reference"] = workload.reference
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["speed_samples"] = len(speed.durations)
    print(json.dumps(result))
    return 0


def summarize_pass(p, answer, layers, workload, speed) -> dict:
    first, last = p.spans[0][1], p.spans[-1][2]
    factor = speed.speed(first, last)
    out = {
        "wall_s": sum(speed.reference_seconds(a, b) for _, a, b in p.spans),
        "wall_raw_s": sum(b - a for _, a, b in p.spans),
        "speed": factor,
        "attempted": p.attempted,
        "failed": p.failed,
        "answer": answer,
    }
    if workload.latency_kinds:
        out["latency_ms"] = [
            1000 * speed.reference_seconds(a, b) for kind, a, b in p.spans
            if kind in workload.latency_kinds
        ]
    if layers is not None:
        # self times at reference speed, like every other time reported
        out["layers"] = {
            k: v * factor if k.endswith(".self_s") else v for k, v in layers.items()
        }
    return out


# ---------------------------------------------------------------------------
# parent process: spawn children, check answers, print the metrics
# ---------------------------------------------------------------------------


class ChildFailed(Exception):
    pass


def spawn(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    spawned_at = time.perf_counter()  # same CLOCK_MONOTONIC as the child's
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--spawned-at", repr(spawned_at),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child ran past the time limit") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def answers_right(run: dict) -> bool:
    return run["reference"] is not None and all(
        p["failed"] == 0 and p["answer"] == run["reference"] for p in run["passes"]
    )


def counts(runs: list[dict]) -> tuple[int, int]:
    """(attempted, failed); a pass whose answer digest differs adds one failure."""
    attempted = failed = 0
    for run in runs:
        for p in run["passes"]:
            attempted += p["attempted"] + 1
            failed += p["failed"] + (p["answer"] != run["reference"])
    return attempted, failed


def median_of(run: dict, key: str) -> float:
    return statistics.median(p[key] for p in run["passes"])


def end_to_end(args, deadline: float) -> tuple[dict, list[dict], dict]:
    setups = [spawn(args, "setup", deadline) for _ in range(SETUP_PROBES)]
    run = spawn(args, "plain", deadline)
    setups.append(run)
    if run["passes"][0].get("latency_ms") is None:  # search: a pass is one operation
        latency = [1000 * p["wall_s"] for p in run["passes"]]
    else:  # pooled over the passes
        latency = [ms for p in run["passes"] for ms in p["latency_ms"]]
    p50, p90 = percentiles(latency)
    attempted, failed = counts([run])
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (median_of(run, "wall_s"), "s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "ops_ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    detail = {
        "passes": len(run["passes"]),
        "latency_samples": len(latency),
        "setup_raw_s": [s["setup_raw_s"] for s in setups],
        "setup_s": [s["setup_s"] for s in setups],
        "wall_raw_s": [p["wall_raw_s"] for p in run["passes"]],
        "wall_s": [p["wall_s"] for p in run["passes"]],
        "host_speed": [p["speed"] for p in run["passes"]],
        "speed_samples": run["speed_samples"],
        "answers": [p["answer"] for p in run["passes"]],
        "reference": run["reference"],
    }
    return metrics, [run], detail


def per_layer(args, deadline: float) -> tuple[dict, list[dict], dict]:
    from tracer import metric_names

    plain = spawn(args, "plain", deadline)
    traced = spawn(args, "traced", deadline)
    # Counts come from pass 0, whose inputs depend on the seed alone, so they
    # repeat exactly; self times are the median over the passes.
    first = traced["passes"][0]["layers"]
    metrics = {
        name: (
            statistics.median(p["layers"][name] for p in traced["passes"])
            if name.endswith(".self_s") else first[name],
            unit,
        )
        for name, unit in metric_names()
    }
    # pass k has the same inputs in both runs
    overhead = [t["wall_s"] - u["wall_s"] for t, u in zip(traced["passes"], plain["passes"])]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    detail = {
        "passes": [len(plain["passes"]), len(traced["passes"])],
        "wall_s": [median_of(plain, "wall_s"), median_of(traced, "wall_s")],
        "answers": [[p["answer"] for p in r["passes"]] for r in (plain, traced)],
        "reference": plain["reference"],
    }
    return metrics, [plain, traced], detail


def git_sha() -> str | None:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None  # not a git checkout


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "toricnash").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def parent(args) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "toricnash" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'toricnash'} is missing", file=sys.stderr)
        return 2
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": os.getloadavg(),
    }
    try:
        metrics, runs, detail = (per_layer if args.trace else end_to_end)(args, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    env["loadavg_end"] = os.getloadavg()
    attempted, failed = counts(runs)
    correct = all(answers_right(r) for r in runs)
    print(json.dumps({"env": env, "detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "plain", "traced"), help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
