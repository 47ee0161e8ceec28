"""Spans and counts around finvariant's public functions, kept in memory.

The tracer replaces each public function and method of the traced modules
with a wrapper that times the call and links it to the enclosing span. A
module that did ``from .x import name`` holds its own binding, and a module
level table (such as the CLI's assembler table) may hold the function too, so
every such binding in the package is swapped, and swapped back on
``uninstall``. Self time is a span's duration minus the time covered by its
child spans.

Calls into ``exactnum`` classes number in the millions per run, so they are
aggregated (count and self time) but not stored as individual spans; every
other span is stored as (id, name, start, end, parent id, job id).
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
from time import perf_counter

MODULES = ("exactnum", "qseries", "genus", "geometry", "fassembly", "divcong", "cli")

# Helpers called on every scalar construction; wrapping them would multiply
# the tracing cost without separating any layer. Their time stays in the
# caller's self time.
UNWRAPPED = {"exactnum.euler_phi", "exactnum.is_denominator_n_smooth"}

ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__neg__", "__truediv__", "__rtruediv__", "__pow__"}

# Methods that share one implementation share one span name.
ALIASES = {"__radd__": "__add__", "__rmul__": "__mul__"}

MAX_STORED_SPANS = 200_000


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.agg: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.job = -1
        self._next_id = 0
        self._swaps: list[tuple] = []
        self._plan()

    # -- wrapping ---------------------------------------------------------

    def _plan(self) -> None:
        """Decide every (owner, attribute, original, wrapper) swap once."""
        originals: dict[int, object] = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj):
                    store = short != "exactnum"
                    for attr, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn):
                            continue
                        if attr.startswith("_") and attr not in ARITHMETIC:
                            continue
                        span = f"{short}.{obj.__name__}.{ALIASES.get(attr, attr)}"
                        self._swaps.append((obj, attr, fn, self._wrap(fn, span, store)))
                elif callable(obj):
                    span = f"{short}.{name}"
                    if span in UNWRAPPED:
                        continue
                    originals[id(obj)] = self._wrap(obj, span, True)
        self._hook("divcong", "_weight_monomials", lambda: None,
                   lambda result, _: self.count("divcong.build_basis.tried", len(result)))
        # a cache hit is a call to _load_or_build_basis that read a basis file
        self._hook("cli", "_load_or_build_basis", lambda: self._calls("cli.read_basis"),
                   lambda _, reads: self.count("cli.basis_cache.hits"
                                               if self._calls("cli.read_basis") > reads
                                               else "cli.basis_cache.misses"))
        for mod in [self.package] + self.modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    self._swaps.append((mod, name, obj, originals[id(obj)]))
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if isinstance(value, tuple) and any(id(v) in originals for v in value):
                            new = tuple(originals.get(id(v), v) for v in value)
                            self._swaps.append((obj, key, value, new))

    def _hook(self, module: str, name: str, before, after) -> None:
        """Count-only wrapper for a private function: no span, no self time."""
        mod = next(m for m in self.modules if m.__name__.endswith("." + module))
        fn = getattr(mod, name, None)
        if fn is None:
            return

        def wrapper(*args, **kwargs):
            mark = before()
            result = fn(*args, **kwargs)
            after(result, mark)
            return result

        self._swaps.append((mod, name, fn, wrapper))

    def _calls(self, span: str) -> int:
        return self.agg.get(span, [0])[0]

    def _wrap(self, fn, name: str, store: bool):
        stack, spans, clock = self.stack, self.spans, perf_counter
        agg = self.agg.setdefault(name, [0, 0.0])
        before, after = _HOOKS.get(name, (None, None))
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if store:
                sid = tracer._next_id
                tracer._next_id += 1
            else:
                sid = parent
            frame = [0.0, sid]
            mark = before(args) if before is not None else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                agg[0] += 1
                agg[1] += dur - frame[0]
                if store:
                    if len(spans) < MAX_STORED_SPANS:
                        spans.append((sid, name, start, end, parent, tracer.job))
                    else:
                        tracer.dropped += 1
            if after is not None:
                # the counter's own time is charged to no span
                h0 = clock()
                after(tracer, args, result, mark)
                if stack:
                    stack[-1][0] += clock() - h0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        for owner, attr, _, new in self._swaps:
            _set(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old, _ in reversed(self._swaps):
            _set(owner, attr, old)

    # -- harness side -----------------------------------------------------

    def run_job(self, job_id: int, kind: str, fn):
        """Run fn under a root span for one job."""
        self.job = job_id
        return self._wrap(fn, f"job.{kind}", True)()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def self_time(self, prefix: str) -> float:
        return sum(v[1] for k, v in self.agg.items() if k.startswith(prefix))

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


# -- per-call counters ------------------------------------------------------


def _qseries_mul(tracer, args, result, mark) -> None:
    self, other = args
    if type(other) is type(self):
        p = min(self.prec, other.prec)
        tracer.count("qseries.mul.coeff_products", p * (p + 1) // 2)


def _hnf(tracer, args, result, mark) -> None:
    matrix = args[0]
    tracer.count("divcong.hnf.cols", len(matrix[0]) if matrix else 0)
    bits = max((abs(x).bit_length() for row in matrix for x in row), default=0)
    tracer.counts["divcong.hnf.max_bits"] = max(tracer.counts.get("divcong.hnf.max_bits", 0), bits)


def _build_basis(tracer, args, result, mark) -> None:
    tracer.count("divcong.build_basis.kept", len(result.entries) - 1)


def _file_bytes(tracer, args, result, mark) -> None:
    tracer.count("cli.read.bytes", os.path.getsize(args[0]))


def _stream_position(args):
    try:
        return args[0].tell()
    except (OSError, ValueError, AttributeError):
        return None


def _written_bytes(tracer, args, result, mark) -> None:
    end = _stream_position(args)
    if mark is not None and end is not None:
        tracer.count("cli.write.bytes", end - mark)


_HOOKS = {
    "qseries.QSeries.__mul__": (None, _qseries_mul),
    "divcong.hnf": (None, _hnf),
    "divcong.build_basis": (None, _build_basis),
    "cli.read_blocks": (None, _file_bytes),
    "cli.write_series": (_stream_position, _written_bytes),
}


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced round, as {name: (value, unit)}."""
    def calls(span):
        return tracer.agg.get(span, [0, 0.0])[0] / rounds

    def self_s(*spans):
        return sum(tracer.agg.get(s, [0, 0.0])[1] for s in spans) / rounds

    def module_s(m):
        return tracer.self_time(m + ".") / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    eq_calls = calls("divcong.is_equivalent")
    hnf_calls = calls("divcong.hnf")
    hits = c.get("cli.basis_cache.hits", 0)
    misses = c.get("cli.basis_cache.misses", 0)
    assemble = [f"fassembly.{n}" for n in ("assemble_complex", "assemble_complex_reduced",
                                           "assemble_quaternionic",
                                           "assemble_quaternionic_reduced")]
    return {
        "exactnum.cyc_mul.calls": (calls("exactnum.CycNum.__mul__"), "count"),
        "exactnum.cyc_mul.self_s": (self_s("exactnum.CycNum.__mul__"), "s"),
        "exactnum.cyc_addsub.calls": (calls("exactnum.CycNum.__add__")
                                      + calls("exactnum.CycNum.__sub__")
                                      + calls("exactnum.CycNum.__rsub__"), "count"),
        "exactnum.cyc_inverse.calls": (calls("exactnum.CycNum.inverse"), "count"),
        "exactnum.self_s": (module_s("exactnum"), "s"),
        "qseries.mul.calls": (calls("qseries.QSeries.__mul__"), "count"),
        "qseries.mul.coeff_products": (c.get("qseries.mul.coeff_products", 0) / rounds, "count"),
        "qseries.mul.self_s": (self_s("qseries.QSeries.__mul__"), "s"),
        "qseries.divisor_sum.self_s": (self_s("qseries.divisor_weighted_series"), "s"),
        "qseries.self_s": (module_s("qseries"), "s"),
        "genus.g_hat.calls": (calls("genus.g_hat"), "count"),
        "genus.self_s": (module_s("genus"), "s"),
        "geometry.self_s": (module_s("geometry"), "s"),
        "fassembly.assemble.self_s": (self_s(*assemble), "s"),
        "fassembly.self_s": (module_s("fassembly"), "s"),
        "divcong.is_equivalent.calls": (eq_calls, "count"),
        "divcong.is_equivalent.self_s": (self_s("divcong.is_equivalent"), "s"),
        "divcong.hnf.calls": (hnf_calls, "count"),
        "divcong.hnf.self_s": (self_s("divcong.hnf"), "s"),
        "divcong.hnf.cols": (ratio(c.get("divcong.hnf.cols", 0) / rounds, hnf_calls), "count"),
        "divcong.hnf.max_bits": (c.get("divcong.hnf.max_bits", 0), "bit"),
        "divcong.replay.self_s": (self_s("divcong.EquivCertificate.replay"), "s"),
        "divcong.solve_reach_ratio": (ratio(hnf_calls, eq_calls), "1"),
        "divcong.self_s": (module_s("divcong"), "s"),
        "divcong.build_basis.calls": (calls("divcong.build_basis"), "count"),
        "divcong.build_basis.self_s": (self_s("divcong.build_basis"), "s"),
        "divcong.build_basis.kept_ratio": (ratio(c.get("divcong.build_basis.kept", 0),
                                                 c.get("divcong.build_basis.tried", 0)), "1"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.read.self_s": (self_s("cli.read_blocks", "cli.read_series", "cli.read_basis"), "s"),
        "cli.write.self_s": (self_s("cli.write_series", "cli.write_basis"), "s"),
        "cli.read.bytes": (c.get("cli.read.bytes", 0) / rounds, "B"),
        "cli.write.bytes": (c.get("cli.write.bytes", 0) / rounds, "B"),
        "cli.basis_cache.hit_ratio": (ratio(hits, hits + misses), "1"),
        "cli.self_s": (module_s("cli"), "s"),
    }
