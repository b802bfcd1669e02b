"""Outside-in tracing of the mcss layers.

`Tracer.install` replaces selected public functions and methods of the
loaded `mcss` modules with timing wrappers, in every module namespace
that holds them (so `mcss.pages.kernel` and `mcss.filtered.kernel` are
wrapped along with `mcss.linalg.kernel`), and `uninstall` puts the
originals back.  Nothing in `mcss` is edited.

Each wrapped call records a span (layer, parent span, start, end) in
flat in-memory arrays.  `layer_table` turns the spans of one pass into
per-layer call counts and self times, where a span's self time is its
duration minus the durations of its direct children.  Counting hooks
(system sizes, coefficient bit lengths, cache repeats) run in spans of
their own, named `trace.hooks`, so their cost is not charged to the
layer they observe.
"""

from __future__ import annotations

import functools
import sys
from array import array
from fractions import Fraction
from time import perf_counter

# (module, function, layer) for module-level functions.
FUNCTIONS = [
    ("mcss.linalg", "kernel", "linalg.kernel"),
    ("mcss.linalg", "solve", "linalg.solve"),
    ("mcss.linalg", "subquotient", "linalg.subquotient"),
    ("mcss.linalg", "snf", "linalg.snf"),
    ("mcss.filtered", "compare_engines", "filtered.compare_engines"),
    ("mcss.filtered", "homology", "filtered.homology"),
    ("mcss.total", "totalize", "total.totalize"),
    ("mcss.mcxio", "parse", "mcxio.parse"),
    ("mcss.cli", "main", "cli.main"),
]

# (module, class, attribute, layer) for methods and class methods.
METHODS = [
    ("mcss.linalg", "Mat", "matvec", "linalg.matvec"),
    ("mcss.linalg", "SubmodulePresentation", "span", "linalg.span"),
    ("mcss.pages", "SpectralPages", "zr", "pages.zr"),
    ("mcss.pages", "SpectralPages", "br", "pages.br"),
    ("mcss.pages", "SpectralPages", "entry", "pages.entry"),
    ("mcss.pages", "SpectralPages", "witness", "pages.witness"),
    ("mcss.pages", "SpectralPages", "delta", "pages.delta"),
    ("mcss.filtered", "FilteredPages", "zz", "filtered.zz"),
    ("mcss.filtered", "FilteredPages", "bb", "filtered.bb"),
    ("mcss.filtered", "FilteredPages", "entry", "filtered.entry"),
    ("mcss.filtered", "FilteredPages", "delta", "filtered.delta"),
    ("mcss.multicomplex", "Multicomplex", "validate", "multicomplex.validate"),
]

HOOKS = "trace.hooks"


def max_bits(obj) -> int:
    """Largest bit length of a coefficient in a result (numerator or denominator)."""
    if obj is None:
        return 0
    gens = getattr(obj, "gens", None)
    if gens is not None:
        return max((max_bits(g) for g in gens), default=0)
    data = getattr(obj, "data", None)
    if data is not None:
        return max((max_bits(row) for row in data), default=0)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return 0
        if isinstance(obj[0], int):
            return max(map(int.bit_length, obj))
        if isinstance(obj[0], Fraction):
            return max(max(v.numerator.bit_length(), v.denominator.bit_length())
                       for v in obj)
        return max(max_bits(v) for v in obj)
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, int):
        return obj.bit_length()
    return 0


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.layers = []      # layer name by id
        self._ids = {}
        self.layer_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters = {}
        self._restore = []

    # -- recording ------------------------------------------------------

    def clear(self):
        """Drop the spans and counters of the previous pass."""
        for arr in (self.layer_id, self.parent, self.start, self.end):
            del arr[:]
        self.stack.clear()
        self.counters = {
            "linalg.kernel.entries": 0,
            "linalg.max_bits": 0,
            "pages.br.fresh": 0,
            "pages.br.repeat": 0,
            "filtered.zz.fresh": 0,
            "filtered.zz.repeat": 0,
        }

    def _id(self, layer):
        if layer not in self._ids:
            self._ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._ids[layer]

    def _wrap(self, fn, layer, hook=None):
        lid, hid = self._id(layer), self._id(HOOKS)
        layer_id, parent, start, end = self.layer_id, self.parent, self.start, self.end
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            state = hook.before(tracer, args) if hook is not None else None
            idx = len(start)
            layer_id.append(lid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hidx = len(start)
                layer_id.append(hid)
                parent.append(stack[-1] if stack else -1)
                end.append(0.0)
                start.append(perf_counter())
                hook.after(tracer, args, result, state)
                end[hidx] = perf_counter()
            return result

        return functools.wraps(fn)(wrapper)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced function and method of the loaded mcss modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.clear()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mcss" or name.startswith("mcss."))]
        for modname, attr, layer in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(original, layer, _HOOK_FOR.get(layer))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, value))
                        setattr(mod, name, wrapper)
        for modname, clsname, attr, layer in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            raw = cls.__dict__[attr]
            hook = _HOOK_FOR.get(layer)
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(raw.__func__, layer, hook))
            else:
                replacement = self._wrap(raw, layer, hook)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, replacement)

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # -- reporting --------------------------------------------------------

    def layer_table(self):
        """{layer: {"calls": n, "self_s": seconds}} for the recorded spans."""
        n = len(self.start)
        start, end, parent, layer_id = self.start, self.end, self.parent, self.layer_id
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        table = {layer: {"calls": 0, "self_s": 0.0} for layer in self.layers}
        for i in range(n):
            row = table[self.layers[layer_id[i]]]
            row["calls"] += 1
            row["self_s"] += end[i] - start[i] - child[i]
        return table

    def root_seconds(self):
        """Total duration of the spans that have no parent."""
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.start)) if self.parent[i] < 0)


class _Bits:
    def before(self, tracer, args):
        return None

    def after(self, tracer, args, result, state):
        bits = max_bits(result)
        if bits > tracer.counters["linalg.max_bits"]:
            tracer.counters["linalg.max_bits"] = bits


class _KernelHook(_Bits):
    def after(self, tracer, args, result, state):
        m = args[0]
        tracer.counters["linalg.kernel.entries"] += m.rows * m.cols
        super().after(tracer, args, result, state)


class _RepeatHook:
    """Counts fresh results at (r, cell) and those equal to the (r-1) result."""

    def __init__(self, prefix, cache):
        self.prefix = prefix
        self.cache = cache

    def before(self, tracer, args):
        engine, key = args[0], tuple(args[1:4])
        return len(key) == 3 and key not in getattr(engine, self.cache)

    def after(self, tracer, args, result, state):
        if not state:
            return
        r, a, b = args[1:4]
        prev = getattr(args[0], self.cache).get((r - 1, a, b))
        if prev is None:
            return
        tracer.counters[self.prefix + ".fresh"] += 1
        if prev == result:
            tracer.counters[self.prefix + ".repeat"] += 1


_HOOK_FOR = {
    "linalg.kernel": _KernelHook(),
    "linalg.solve": _Bits(),
    "linalg.span": _Bits(),
    "linalg.snf": _Bits(),
    "pages.br": _RepeatHook("pages.br", "_br"),
    "filtered.zz": _RepeatHook("filtered.zz", "_zz"),
}
