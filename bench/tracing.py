"""Span and counter tracing of the ifhv modules, installed from outside.

`Tracer.install` wraps the public functions of every ifhv module and a few
methods, then rebinds each wrapped function under every name it is looked up
by: a module that did `from .ifs import multiply` holds its own reference,
so patching `ifs.multiply` alone would miss it. `uninstall` restores every
binding. Nothing inside the package is edited.

Layer-boundary functions record a span (name, start, end, parent). Hot leaf
functions, called up to millions of times per pass, only bump counters, so
that tracing does not swamp the work it measures. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = (
    "ifs", "distances", "hypervolume", "hvas", "mcdm",
    "ranking", "report", "robustness", "problemfile", "fixtures", "cli",
)

# Called per element or per alternative; counted, never spanned.
COUNT_ONLY = {
    "ifs.hesitancy", "ifs.score", "ifs.accuracy", "ifs.compare", "ifs.multiply",
    "ifs.ifa_aggregate", "ifs.select_extremes", "hypervolume.hv_point",
    "distances.sample_simplex", "distances.get_measure", "distances.available_measures",
    "report.render",
}

# The chunk size mc_oracle uses in this version of the package; the peak
# broadcast it allocates is computed from it, not measured.
MC_CHUNK = 250_000

HV_SHAPES = ("k200_m3", "k60_m4", "k12_m6", "k2000_m3")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("problemfile.parse_s", "s"),
    ("hvas.build_weighted_s", "s"),
    ("hvas.build_weighted_calls", "count"),
    ("hvas.score_s", "s"),
    ("hypervolume.hv_net_s", "s"),
    ("ifs.ifn_created", "count"),
    ("mcdm.topsis_s", "s"),
    ("mcdm.vikor_s", "s"),
    ("mcdm.codas_s", "s"),
    ("distances.evaluate_calls", "count"),
    ("ranking.build_s", "s"),
    ("report.emit_s", "s"),
    ("report.bytes", "bytes"),
    ("robustness.audit_s", "s"),
    ("robustness.samples_evaluated", "count"),
    ("robustness.samples_used", "count"),
    ("robustness.useful_ratio", "ratio"),
    ("distances.pair_many_calls", "count"),
    ("distances.pair_many_elems", "count"),
    ("distances.check_axioms_s", "s"),
    *((f"hypervolume.hv_set_s.{shape}", "s") for shape in HV_SHAPES),
    ("hypervolume.mc_oracle_s", "s"),
    ("hypervolume.mc_bytes_computed", "bytes"),
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _points_shape(points) -> tuple[int, int]:
    return len(points), len(points[0]) if len(points) else 0


class Tracer:
    """Spans and counters for one traced pass; `reset` between passes."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []  # (restore, owner, key, original)

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, fn, name: str):
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            tracer.counters[name + ".calls"] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result, record[2] - record[1])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name: str):
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counters[name + ".calls"] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result, 0.0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_item(self, table: dict, key, value) -> None:
        self._undo.append((dict.__setitem__, table, key, table[key]))
        table[key] = value

    def install(self) -> None:
        """Wrap the package's public functions and rebind every lookup name."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        package = sys.modules["ifhv"]
        modules = [importlib.import_module(f"ifhv.{name}") for name in MODULES]
        replacements: dict[int, object] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                wrap = self._counted if name in COUNT_ONLY else self._spanned
                replacements[id(value)] = wrap(value, name)
        for namespace in [package, *modules]:
            for attr, value in list(vars(namespace).items()):
                if id(value) in replacements and inspect.isfunction(value):
                    self._rebind(namespace, attr, replacements[id(value)])
                elif isinstance(value, dict):  # dispatch tables such as mcdm._COMPARATORS
                    for key, item in list(value.items()):
                        if id(item) in replacements and inspect.isfunction(item):
                            self._rebind_item(value, key, replacements[id(item)])

        distances = sys.modules["ifhv.distances"]
        measure_cls = distances.DistanceMeasure
        for method in ("evaluate", "pair_many", "evaluate_many"):
            name = f"distances.{method}"
            self._rebind(measure_cls, method, self._counted(getattr(measure_cls, method), name))

        ifn_cls = sys.modules["ifhv.ifs"].IFN
        original_post_init = ifn_cls.__post_init__
        tracer = self

        def post_init(ifn_self):
            tracer.counters["ifs.ifn_created"] += 1
            original_post_init(ifn_self)

        self._rebind(ifn_cls, "__post_init__", post_init)

    def uninstall(self) -> None:
        while self._undo:
            restore, owner, key, value = self._undo.pop()
            restore(owner, key, value)

    # -- per-pass metrics ---------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer values for the pass recorded since the last reset."""
        inclusive: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        exclusive: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            inclusive[name] += end - start
            exclusive[name] += end - start - child_time[index]
        c = self.counters
        evaluated = c["robustness.samples_evaluated"]
        out = {
            "problemfile.parse_s": inclusive["problemfile.parse_problem"],
            "hvas.build_weighted_s": inclusive["hvas.build_weighted_matrix"],
            "hvas.build_weighted_calls": c["hvas.build_weighted_matrix.calls"],
            "hvas.score_s": inclusive["hvas.score_details"],
            "hypervolume.hv_net_s": inclusive["hypervolume.hv_net"],
            "ifs.ifn_created": c["ifs.ifn_created"],
            "mcdm.topsis_s": exclusive["mcdm.topsis"],
            "mcdm.vikor_s": exclusive["mcdm.vikor"],
            "mcdm.codas_s": exclusive["mcdm.codas"],
            "distances.evaluate_calls": c["distances.evaluate.calls"],
            "ranking.build_s": inclusive["ranking.build_ranking"],
            "report.emit_s": inclusive["report.emit_report"],
            "report.bytes": c["report.bytes"],
            "robustness.audit_s": inclusive["robustness.audit"],
            "robustness.samples_evaluated": evaluated,
            "robustness.samples_used": c["robustness.samples_used"],
            "robustness.useful_ratio": c["robustness.samples_used"] / evaluated if evaluated else 0.0,
            "distances.pair_many_calls": c["distances.pair_many.calls"],
            "distances.pair_many_elems": c["distances.pair_many.elems"],
            "distances.check_axioms_s": inclusive["distances.check_axioms"],
            "hypervolume.mc_oracle_s": inclusive["hypervolume.mc_oracle"],
            "hypervolume.mc_bytes_computed": c["hypervolume.mc_bytes_computed"],
            "cli.import_s": c["cli.import_s"],
            "cli.self_s": sum(v for k, v in exclusive.items() if k.startswith("cli.")),
        }
        for shape in HV_SHAPES:
            key = f"hypervolume.hv_set_s.{shape}"
            out[key] = c[key]
        return out

    def merge(self, spans: list[list], counters: dict[str, float]) -> None:
        """Add a child process's spans and counters to this pass."""
        offset = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])
        for key, value in counters.items():
            if key == "hypervolume.mc_bytes_computed":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value


# -- hooks: counters derived from a call's arguments or result ---------------

def _hv_set_hook(tracer, args, kwargs, result, elapsed):
    k, m = _points_shape(args[0] if args else kwargs["points"])
    tracer.counters[f"hypervolume.hv_set_s.k{k}_m{m}"] += elapsed


def _mc_oracle_hook(tracer, args, kwargs, result, elapsed):
    points = args[0] if args else kwargs["points"]
    samples = args[2] if len(args) > 2 else kwargs.get("samples", 100_000)
    k, m = _points_shape(points)
    computed = min(samples, MC_CHUNK) * k * m  # bool broadcast (chunk, k, m)
    key = "hypervolume.mc_bytes_computed"
    tracer.counters[key] = max(tracer.counters[key], computed)


def _audit_hook(tracer, args, kwargs, result, elapsed):
    tracer.counters["robustness.samples_used"] += result.samples_used


def _sample_simplex_hook(tracer, args, kwargs, result, elapsed):
    # an audit attempt draws one anchor and one direction point
    if tracer.inside("robustness.audit"):
        tracer.counters["robustness.samples_evaluated"] += result[0].size / 2


def _pair_many_hook(tracer, args, kwargs, result, elapsed):
    tracer.counters["distances.pair_many.elems"] += result.size


def _render_hook(tracer, args, kwargs, result, elapsed):
    tracer.counters["report.bytes"] += len(result.encode("utf-8"))


_HOOKS = {
    "hypervolume.hv_set": _hv_set_hook,
    "hypervolume.mc_oracle": _mc_oracle_hook,
    "robustness.audit": _audit_hook,
    "distances.sample_simplex": _sample_simplex_hook,
    "distances.pair_many": _pair_many_hook,
    "report.render": _render_hook,
}
