"""Spans around calls into riordan's modules, recorded from outside ``src/``.

:class:`Tracer` wraps the public functions and methods of each layer and
patches every namespace that holds them (``riordan.cli`` imports
``bell_power`` by name, ``Series.__rmul__`` is ``__mul__``), so a call
is seen whichever name it goes through.  Spans (name, start, end,
parent, op id, size) stay in memory; self time is a span's duration
minus the time of the calls made inside it.  ``ParamPoly`` arithmetic
runs hundreds of thousands of times per pass, so it is only counted,
not kept as spans.  ``install`` and ``remove`` bracket the traced passes;
outside an op (while results are checked) the wrappers record nothing.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

from layers import PER_LAYER

KERNELS = ("mul", "div", "compose", "revert")
SERIES_METHODS = {
    "__mul__": "mul", "__truediv__": "div", "__pow__": "pow",
    "compose": "compose", "revert": "revert", "sqrt": "sqrt", "log": "log",
    "exp": "exp", "pow_rat": "pow_rat", "pow_param": "pow_param",
}
RIORDAN_METHODS = ("triangle", "inverse", "multiply", "a_sequence",
                   "b_sequence", "sqrt_factorization")
FORMATTERS = ("format_triangle", "format_series", "format_poly", "format_pairs")
GROWTH_STEP = 1.2  # smallest size ratio a growth fit spans


def _kernel_size(fn, args):
    return args[1] if fn == "revert" else args[2]


def _kernel_zero(fn, args, kwargs):
    pos = 2 if fn == "revert" else 3
    return args[pos] if len(args) > pos else kwargs.get("zero")


class Tracer:
    def __init__(self, R, ops):
        self.R = R
        self.ops = ops  # the pass; op ids index it modulo its length
        self.spans = []  # (name, start, end, parent span, op id, size)
        self.stack = []  # open frames: [span id, time spent in calls inside]
        self.stats = {}  # name -> [calls, self seconds, total seconds]
        self.op_id = -1  # -1 outside a timed op: wrappers pass straight through
        self.out_bits_max = 0
        self.partitions = 0  # odd partitions handed out by the cached enumerator
        self.partition_lookups = 0
        self.partition_hits = 0
        self.origin = time.perf_counter()
        self._undo = []

    # -- patching ---------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        """Point every riordan module attribute bound to ``original`` at
        ``wrapper``."""
        for name, mod in list(sys.modules.items()):
            if name != "riordan" and not name.startswith("riordan."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_method(self, cls, method, wrapper_for):
        original = cls.__dict__[method]
        wrapper = wrapper_for(original)
        for attr, value in list(vars(cls).items()):
            if value is original:  # aliases such as __rmul__ = __mul__
                self._set(cls, attr, wrapper)

    def install(self):
        R = self.R
        kernel_modules = [R._backend.kernels]
        if R._purekernels is not R._backend.kernels:
            kernel_modules.append(R._purekernels)  # the ParamPoly path
        for mod in kernel_modules:
            for fn in KERNELS:
                original = getattr(mod, fn)
                self._set(mod, fn, self._kernel_wrapper(fn, original))
        for method, short in SERIES_METHODS.items():
            self._patch_method(R.Series, method,
                               lambda f, s=short: self._wrap(f, f"series.{s}", _order_of_first))
        for method, short in (("__mul__", "mul"), ("__add__", "add")):
            self._patch_method(R.ParamPoly, method,
                               lambda f, s=short: self._wrap(f, f"rings.parampoly.{s}", keep=False))
        for method in ("matmul", "apply_vec", "add"):
            self._patch_method(R.Triangle, method,
                               lambda f, m=method: self._wrap(f, f"triangle.{m}", _rows_of_first))
        for method in RIORDAN_METHODS:
            self._patch_method(R.RiordanMatrix, method,
                               lambda f, m=method: self._wrap(f, f"core.{m}", _order_of_first))
        self._patch_function(R.core, "from_b_sequence", lambda a: a[1])
        for fn in ("bell_log", "composition_matrix", "log_generator", "bell_power"):
            self._patch_function(R.matrixlog, fn, _order_of_first)
        for fn in ("b_expand", "bcomp_matrix", "power_poly", "bcomp_row_from_convolutions"):
            self._patch_function(R.bexpansion, fn, lambda a: a[1])
        cached = R.bexpansion._odd_mults_cached
        self._replace_everywhere(cached, self._partition_counter(cached))
        for name, suite in list(R.suites.SUITES.items()):
            self._set_item(R.suites.SUITES, name, self._wrap(suite, f"suites.{name}"))
        cli = sys.modules.get("riordan.cli")
        if cli is not None:
            for attr in [a for a in vars(cli) if a.startswith("_cmd_")]:
                command = attr[len("_cmd_"):].replace("_", "-")
                self._patch_function(cli, attr, None, f"cli.{command}")
            for fn in ("parse_expr", "eval_expr"):
                self._patch_function(R.exprparse, fn, None)
            for fn in FORMATTERS:
                self._patch_function(R.render, fn, None, "render.format")

    def _patch_function(self, module, fn, size_fn, name=None):
        original = getattr(module, fn)
        layer = module.__name__.rsplit(".", 1)[-1]
        wrapper = self._wrap(original, name or f"{layer}.{fn}", size_fn)
        self._replace_everywhere(original, wrapper)

    def _set_item(self, mapping, key, value):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def remove(self):
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- spans --------------------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id
        op = self.ops[op_id % len(self.ops)]
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append([sid, 0.0, time.perf_counter(), f"op.{op.label}", op.size])

    def end_op(self):
        sid, _, t0, name, size = self.stack.pop()
        self.spans[sid] = (name, t0 - self.origin, time.perf_counter() - self.origin,
                           -1, self.op_id, size)
        self.op_id = -1

    def _enter(self, keep):
        parent = self.stack[-1][0]
        if keep:
            sid = len(self.spans)
            self.spans.append(None)
        else:
            sid = parent  # unkept calls pass their parent on to nested spans
        frame = [sid, 0.0]
        self.stack.append(frame)
        return frame, parent

    def _exit(self, frame, parent, name, t0, t1, size, keep):
        self.stack.pop()
        duration = t1 - t0
        self.stack[-1][1] += duration
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration - frame[1]
        st[2] += duration
        if keep:
            self.spans[frame[0]] = (name, t0 - self.origin, t1 - self.origin,
                                    parent, self.op_id, size)

    def _wrap(self, fn, name, size_fn=None, keep=True):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            frame, parent = tracer._enter(keep)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                size = size_fn(args) if size_fn else 0
                tracer._exit(frame, parent, name, t0, t1, size, keep)

        return wrapper

    def _kernel_wrapper(self, fn, original):
        """Rational calls are the ``kernels`` layer; calls on ParamPoly
        coefficients are the generic path that bypasses the backend."""
        tracer = self
        clock = time.perf_counter
        ParamPoly = self.R.ParamPoly

        def wrapper(*args, **kwargs):
            if tracer.op_id < 0:
                return original(*args, **kwargs)
            generic = isinstance(_kernel_zero(fn, args, kwargs), ParamPoly)
            name = f"series.generic.{fn}" if generic else f"kernels.{fn}"
            frame, parent = tracer._enter(True)
            t0 = clock()
            out = None
            try:
                out = original(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                tracer._exit(frame, parent, name, t0, t1, _kernel_size(fn, args), True)
                if out is not None and not generic:
                    tracer._note_bits(out)
                    # keep the bit scan out of the caller's self time
                    tracer.stack[-1][1] += clock() - t1

        return wrapper

    def _note_bits(self, coeffs):
        top = max((max(abs(c.numerator), c.denominator) for c in coeffs), default=0)
        self.out_bits_max = max(self.out_bits_max, top.bit_length())

    def _partition_counter(self, cached):
        tracer = self

        def counted(n):
            if tracer.op_id < 0:
                return cached(n)
            hits = cached.cache_info().hits
            out = cached(n)
            tracer.partition_lookups += 1
            tracer.partition_hits += cached.cache_info().hits - hits
            tracer.partitions += len(out)
            return out

        return counted

    def partition_hit_ratio(self):
        lookups = self.partition_lookups
        return self.partition_hits / lookups if lookups else 0.0

    # -- results ------------------------------------------------------------

    def growth(self, name):
        """Log-log slope of inclusive time from the second size to the
        largest, per input that ran at both; the median over those inputs.
        The second size is the largest at least GROWTH_STEP below the
        largest, so that timing noise between near-equal sizes (such as n
        and n + 1) does not decide the slope."""
        per = {}  # (input, size) -> durations
        for span in self.spans:
            if span is None or span[0] != name or span[5] <= 0:
                continue
            op = self.ops[span[4] % len(self.ops)]
            per.setdefault((op.input, span[5]), []).append(span[2] - span[1])
        sizes = sorted({size for _, size in per})
        if not sizes:
            return 0.0
        n2 = sizes[-1]
        smaller = [n for n in sizes if n * GROWTH_STEP <= n2]
        if not smaller:
            return 0.0
        n1 = smaller[-1]
        slopes = [
            math.log(statistics.median(per[(inp, n2)]) / statistics.median(per[(inp, n1)]))
            / math.log(n2 / n1)
            for inp, size in per if size == n2 and (inp, n1) in per
        ]
        return statistics.median(slopes) if slopes else 0.0

    def metrics(self, passes, traced_s, overhead_ratio, hit_ratio):
        """Every per-layer metric, per traced pass; ``traced_s`` is the op
        time of all traced passes."""
        values = {}
        for name, unit, _better, _moves, _on in PER_LAYER:
            layer_fn, _, stat = name.rpartition(".")
            st = self.stats.get(layer_fn, (0, 0.0, 0.0))
            if stat == "calls":
                values[name] = st[0] / passes
            elif stat == "self_s":
                values[name] = st[1] / passes
            elif stat == "total_s":
                values[name] = st[2] / passes
            elif stat == "growth":
                values[name] = self.growth(layer_fn)
        kernel_self = sum(st[1] for n, st in self.stats.items() if n.startswith("kernels."))
        nested = sum(
            1 for s in self.spans
            if s is not None and s[0] == "kernels.mul" and s[3] >= 0
            and self.spans[s[3]][0] in ("kernels.compose", "kernels.revert")
        )
        values.update({
            "kernels.share": kernel_self / traced_s if traced_s else 0.0,
            "kernels.mul.calls_in_compose_revert": nested / passes,
            "kernels.out_bits_max": self.out_bits_max,
            "series.generic.calls": sum(
                st[0] for n, st in self.stats.items() if n.startswith("series.generic.")
            ) / passes,
            "bexpansion.partitions": self.partitions / passes,
            "bexpansion.partition_cache.hit_ratio": hit_ratio,
            "trace.overhead_ratio": overhead_ratio,
        })
        return {name: {"value": values[name], "unit": unit}
                for name, unit, *_ in PER_LAYER}

    def dump(self, path, header):
        doc = dict(header)
        doc["ops"] = [[op.label, op.input, op.size] for op in self.ops]
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "op_id", "size"]
        doc["spans"] = self.spans
        doc["stats"] = {name: {"calls": c, "self_s": s, "total_s": t}
                        for name, (c, s, t) in sorted(self.stats.items())}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _rows_of_first(args):
    return args[0].nrows


def _order_of_first(args):
    return args[0].order
