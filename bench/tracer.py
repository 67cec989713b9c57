"""Per-layer counts and self times, installed from outside the program.

Each traced function is replaced by a wrapper at every binding a toricnash
module holds (`from .exactmath import det` leaves copies in `cone`, `iso`,
`semigroup` and others); methods and the `Cone` constructor are wrapped
on their class. Calls are aggregated into a count and a self time per
function instead of one span each: `det` alone runs about 430,000 times
in one `search` pass. A function's self time is its time minus the time
of the traced functions it calls. Leaf helpers (`dot`, `sub`, `vec`) are
not wrapped, so their time counts in their caller.

The wrappers only record while `active` is set, which the benchmark does
around each timed operation, so answer checks between operations are not
counted.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import time

# module -> functions; "Class.method" is wrapped on the class, and a bare
# class name wraps its constructor.
TRACED = {
    "exactmath": (
        "det", "det_p", "adjugate", "hermite_form", "is_unimodular", "solve_integral",
        "kernel_basis",
    ),
    "cone": ("Cone", "dual_description"),
    "semigroup": (
        "saturation_hilbert_basis", "AffineSemigroup.hilbert_basis", "AffineSemigroup.saturate",
    ),
    "nash": ("chart", "blowup_step", "g_set"),
    "iso": ("fingerprint", "find_isomorphism", "verify_certificate"),
    "search": ("explore", "find_cycles", "save_graph", "load_graph", "verify_report_cycles"),
    "verify": ("run_all_checks",),
    "conefile": ("parse_cone_file",),
}


def _save_graph_path(args, kwargs):
    return kwargs["path"] if "path" in kwargs else args[1]


# extra counters, taken from a call's arguments and result
OBSERVED = {
    "cone.dual_description": ("rays", lambda args, kwargs, out: len(out[1])),
    "nash.chart": ("pointed", lambda args, kwargs, out: int(out.pointed)),
    "semigroup.saturation_hilbert_basis": ("elements", lambda args, kwargs, out: len(out)),
    "iso.find_isomorphism": ("found", lambda args, kwargs, out: int(out is not None)),
    "iso.verify_certificate": ("rejected", lambda args, kwargs, out: int(not out)),
    "search.save_graph": (
        "bytes", lambda args, kwargs, out: os.path.getsize(_save_graph_path(args, kwargs))
    ),
}

# ratio name -> (numerator counter, denominator counter), both of one function
RATIOS = {
    "nash.chart.pointed_ratio": ("nash.chart.pointed", "nash.chart.calls"),
    "iso.find_isomorphism.found_ratio": ("iso.find_isomorphism.found", "iso.find_isomorphism.calls"),
}


def metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric the tracer reports."""
    out = []
    for module, names in TRACED.items():
        for name in names:
            base = f"{module}.{name}"
            out += [(f"{base}.calls", "count"), (f"{base}.self_s", "s")]
            if base in OBSERVED:
                stat = OBSERVED[base][0]
                out.append((f"{base}.{stat}", "bytes" if stat == "bytes" else "count"))
    out += [(name, "ratio") for name in RATIOS]
    return out


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds, observed count]
        self._child_time = [0.0]  # one accumulator per open traced call, plus the root

    def reset(self) -> None:
        for s in self.stats.values():
            s[0], s[1], s[2] = 0, 0.0, 0

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        observe = OBSERVED[name][1] if name in OBSERVED else None
        child_time = self._child_time
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            child_time.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = child_time.pop()
                child_time[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - inner
            if observe is not None:
                stats[2] += observe(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every TRACED function at all of its bindings in the toricnash package."""
        import toricnash

        modules = [toricnash] + [
            importlib.import_module(f"toricnash.{m.name}")
            for m in pkgutil.iter_modules(toricnash.__path__)
        ]
        for module_name, names in TRACED.items():
            home = importlib.import_module(f"toricnash.{module_name}")
            for name in names:
                metric = f"{module_name}.{name}"
                cls_name, _, method = name.partition(".")
                if method or isinstance(getattr(home, cls_name), type):
                    cls = getattr(home, cls_name)
                    attr = method or "__init__"
                    setattr(cls, attr, self._wrap(metric, getattr(cls, attr)))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(metric, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, self_s, observed) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if name in OBSERVED:
                out[f"{name}.{OBSERVED[name][0]}"] = observed
        for ratio, (num, den) in RATIOS.items():
            out[ratio] = out[num] / out[den] if out[den] else 0.0
        return out
