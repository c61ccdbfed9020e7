"""Per-layer tracing of coxtw from outside the package.

`Tracer.install` wraps the public functions of each coxtw module in every
coxtw namespace that binds them (several modules import functions by name,
so patching the defining module alone would miss internal calls), and wraps
the GroupElement / BiclosedOracle / CoxeterSystem methods on the class.
Each call records a span (layer, start, end, parent span, op id) in compact
arrays kept in memory; `write_spans` saves them once the run is over.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

# Layer names as `module.function`; the names the per-layer metrics use.
FUNCTIONS = (
    "linalg.solve", "linalg.inverse",
    "elements.from_word", "elements.ball",
    "biclosed.enumerate_biclosed", "biclosed.cone_contains",
    "biclosed.biclosed_check", "biclosed.classify_finite_biclosed",
    "biclosed.expand_psi",
    "feasibility.solve_nonneg",
    "order.twisted_length", "order.le", "order.chain", "order.interval",
    "order.meet", "order.join", "order.lower_bound",
    "order.check_meet_semilattice", "order.hasse",
    "infwords.classify", "infwords.limit_set", "infwords.validate_periodic",
    "system.build_system", "exprs.parse_biclosed", "figures.emit_figure",
    "cli.main",
)

# Layer name -> (module, class, attribute).  `word` is a property.
METHODS = {
    "elements.inverse": ("elements", "GroupElement", "inverse"),
    "elements.mul_simple": ("elements", "GroupElement", "mul_simple"),
    "elements.mul": ("elements", "GroupElement", "__mul__"),
    "elements.word": ("elements", "GroupElement", "word"),
    "elements.inversion_set": ("elements", "GroupElement", "inversion_set"),
    "biclosed.member": ("biclosed", "BiclosedOracle", "member"),
    "system.positive_roots_up_to": ("system", "CoxeterSystem",
                                    "positive_roots_up_to"),
}

LAYERS = FUNCTIONS + tuple(METHODS)

# Layers whose repeat_ratio is reported: the key is what a perfect memo
# would be keyed on.  Objects whose id() enters a key are pinned so that
# an id is never reused within a run.
REPEAT_KEYS = {
    "elements.inverse": lambda a: (id(a[0].system), a[0].matrix),
    "biclosed.member": lambda a: (id(a[0]), a[1]),
    "order.twisted_length": lambda a: (id(a[1]), id(a[0].system), a[0].matrix),
}
_PINNED = {
    "elements.inverse": lambda a: (a[0].system,),
    "biclosed.member": lambda a: (a[0],),
    "order.twisted_length": lambda a: (a[1], a[0].system),
}


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.repeats = dict.fromkeys(REPEAT_KEYS, 0)
        self.feasible = 0
        self.op_id = -1
        self._seen = {n: set() for n in REPEAT_KEYS}
        self._pins = {}
        self._stack = []  # [span index, time covered by child spans]

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        nid = self._name_id[name]
        key_of = REPEAT_KEYS.get(name)
        pins_of = _PINNED.get(name)
        seen = self._seen.get(name)
        feasibility = name == "feasibility.solve_nonneg"
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key_of is not None:
                key = key_of(args)
                if key in seen:
                    tracer.repeats[name] += 1
                else:
                    seen.add(key)
                    for obj in pins_of(args):
                        tracer._pins[id(obj)] = obj
            idx = len(tracer.span_name)
            parent = stack[-1][0] if stack else -1
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent)
            tracer.span_op.append(tracer.op_id)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span = t1 - t0
                if stack:
                    stack[-1][1] += span
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
                tracer.calls[name] += 1
                tracer.self_s[name] += span - frame[1]
            if feasibility and result is not None:
                tracer.feasible += 1
            return result

        return traced

    def install(self):
        """Wrap every traced layer in the currently imported coxtw modules."""
        mods = {n[len("coxtw."):]: m for n, m in list(sys.modules.items())
                if m is not None and (n == "coxtw" or n.startswith("coxtw."))}
        for name in FUNCTIONS:
            modname, attr = name.split(".")
            mod = mods.get(modname)
            if mod is None:
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original)
            for ns in mods.values():
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)
        for name, (modname, clsname, attr) in METHODS.items():
            cls = getattr(mods[modname], clsname)
            original = cls.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(self._wrap(name, original.fget))
            else:
                wrapped = self._wrap(name, original)
            setattr(cls, attr, wrapped)

    # -- results ----------------------------------------------------------

    def counters(self) -> dict:
        """Plain per-layer totals, mergeable across processes."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "repeats": dict(self.repeats), "feasible": self.feasible,
                "spans": len(self.span_name)}

    def write_spans(self, path):
        """Tab-separated spans: name, start, end, parent index, op id."""
        with gzip.open(path, "wt") as out:
            out.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.span_name)):
                out.write(f"{self.names[self.span_name[i]]}\t"
                          f"{self.span_start[i]:.7f}\t{self.span_end[i]:.7f}\t"
                          f"{self.span_parent[i]}\t{self.span_op[i]}\n")


def merge_counters(parts) -> dict:
    total = {"calls": dict.fromkeys(LAYERS, 0),
             "self_s": dict.fromkeys(LAYERS, 0.0),
             "repeats": dict.fromkeys(REPEAT_KEYS, 0),
             "feasible": 0, "spans": 0}
    for part in parts:
        for field in ("calls", "self_s", "repeats"):
            for k, v in part[field].items():
                total[field][k] += v
        total["feasible"] += part["feasible"]
        total["spans"] += part["spans"]
    return total


def layer_metrics(counters: dict, import_s: float,
                  overhead_ratio: float) -> dict:
    """The per-layer metrics, named as in BENCHMARK.json."""
    out = {}
    calls, self_s = counters["calls"], counters["self_s"]
    for name in LAYERS:
        out[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
        out[f"{name}.self_s"] = {"value": self_s[name], "unit": "s"}
        if name in REPEAT_KEYS:
            ratio = counters["repeats"][name] / calls[name] if calls[name] else 0.0
            out[f"{name}.repeat_ratio"] = {"value": ratio, "unit": "1"}
    n = calls["feasibility.solve_nonneg"]
    out["feasibility.solve_nonneg.feasible_ratio"] = {
        "value": counters["feasible"] / n if n else 0.0, "unit": "1"}
    out["cli.import_s"] = {"value": import_s, "unit": "s"}
    out["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "1"}
    return out
