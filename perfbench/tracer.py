"""Outside-in tracing of charpgeom's layers.

`Tracer.install()` replaces public functions and methods of charpgeom with
timing wrappers, at the class attribute or the module attribute, including
every module attribute through which another charpgeom module imported the
same function.  Nothing inside charpgeom changes; `uninstall()` puts the
originals back.

Every wrapped call adds its duration to the call that encloses it, so a
layer's self time is span time minus the time of its child spans.  Calls of
the L2/L3 entry points (and the L1 calls the per-layer counts are about)
are kept as spans (name, start, end, parent) in memory and written out at
the end; the per-element finite-field and polynomial calls, millions per
round, are only counted and timed.
"""

import inspect
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

# layer -> (module, class or None, attribute names or None for "all public")
_ARITH = ["__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
          "__rmul__", "__truediv__", "__rtruediv__", "__pow__"]
TARGETS = {
    "finitefield": [
        ("charpgeom.algebra.finitefield", "FFElement", _ARITH + ["inverse"]),
        ("charpgeom.algebra.finitefield", "FiniteField",
         ["elem", "from_index", "is_square", "sqrt", "extension",
          "generator", "format_element", "parse_element"]),
        ("charpgeom.algebra.finitefield", None, ["pth_root", "FF"]),
    ],
    "unipoly": [
        ("charpgeom.algebra.unipoly", "UPoly",
         _ARITH[:6] + ["__rmul__", "__pow__", "divmod", "__floordiv__", "__mod__", "gcd", "monic",
                   "scale", "derivative", "evaluate", "inflate",
                   "pth_root_poly", "squarefree_decomposition"]),
        ("charpgeom.algebra.unipoly", "RatFunc",
         _ARITH + ["__init__", "inflate", "evaluate", "__eq__"]),
        ("charpgeom.algebra.unipoly", None, ["ratfunc_pth_root"]),
    ],
    "multipoly": [
        ("charpgeom.algebra.multipoly", "MultiPoly",
         ["__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
          "__rmul__", "__pow__", "derivative", "evaluate", "subs",
          "map_coefficients", "is_pth_power", "gradient", "__eq__"]),
        ("charpgeom.algebra.multipoly", "RatExpr",
         ["__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
          "__pow__", "__eq__", "derivative", "subs"]),
        ("charpgeom.algebra.multipoly", None,
         ["hessian_at", "det", "parse_poly"]),
    ],
    "jets": [
        ("charpgeom.algebra.jets", "Jet",
         ["__add__", "__sub__", "__neg__", "__mul__", "scale", "__pow__",
          "truncate", "homogeneous_part", "to_poly", "__eq__"]),
        ("charpgeom.algebra.jets", None, ["jet_compose"]),
    ],
    "groebner": [
        ("charpgeom.algebra.groebner", None,
         ["buchberger", "reduce_poly", "groebner_membership_one",
          "standard_monomial_count", "leading_term"]),
        ("charpgeom.algebra.groebner", "IdealCertificate", ["verify"]),
    ],
    "covers": [("charpgeom.covers", None, None)],
    "normalform": [("charpgeom.normalform", None, None)],
    "heights": [("charpgeom.heights", None, None)],
    "cli": [("charpgeom.cli", None, ["run_scenario"]),
            ("charpgeom.cli", "ScenarioReport", ["to_text", "to_structured"])],
}
# Calls of these layers are too many to keep one by one: they are only
# counted and timed, except for the names in KEEP.
AGGREGATE_ONLY = {"finitefield", "unipoly", "multipoly", "jets"}
KEEP = {"MultiPoly.__mul__", "MultiPoly.__pow__", "MultiPoly.subs",
        "jet_compose"}
AGGREGATE = {"leading_term"}
# Counted calls: per-layer count name -> wrapped names it counts.
COUNTS = {
    "finitefield.ops": {f"FFElement.{a}" for a in _ARITH + ["inverse"]},
    "unipoly.ratfunc_new": {"RatFunc.__init__"},
    "unipoly.mul": {"UPoly.__mul__", "UPoly.__rmul__"},
    "unipoly.divmod": {"UPoly.divmod"},
    "multipoly.mul": {"MultiPoly.__mul__", "MultiPoly.__rmul__"},
    "jets.mul": {"Jet.__mul__"},
    "jets.compose": {"jet_compose"},
    "groebner.reductions": {"reduce_poly"},
}
# Self time summed over the layers of the ROADMAP's stack: every workload
# enters L1 and L2, while single modules such as jets or groebner read 0 on
# the workloads that never call them.
GROUPS = {
    "l1.self_s": ("unipoly", "multipoly", "jets"),
    "l2.self_s": ("groebner", "covers", "normalform", "heights"),
}
# Inclusive (outermost-call) times reported per name.
INCLUSIVE = {
    "covers.frobenius_s": "frobenius_factorization",
    "covers.classify_s": "classify_section",
    "covers.bundle_s": "make_vojta_bundle",
    "covers.sweep_s": "singular_points",
    "covers.lift_s": "lift_point",
    "cli.scenario_s": "run_scenario",
    "cli.report_s": "ScenarioReport.to_text",
}


def _public_members(module, cls_name, names):
    """(owner, attribute name, raw attribute, display name) to wrap.

    A listed class or attribute the program does not (or no longer)
    define raises LookupError: its layer would otherwise read 0 and look
    like an improvement."""
    where = module.__name__ if cls_name is None \
        else f"{module.__name__}.{cls_name}"
    owner = module if cls_name is None else getattr(module, cls_name, None)
    if owner is None:
        raise LookupError(f"trace target {where} is missing")
    out = []
    if names is None:                       # every public function/method
        for attr, val in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(val) and val.__module__ == module.__name__:
                out.append((module, attr, val, attr))
            elif inspect.isclass(val) and val.__module__ == module.__name__:
                for mattr, mval in vars(val).items():
                    if not mattr.startswith("_") and inspect.isfunction(mval):
                        out.append((val, mattr, mval, f"{attr}.{mattr}"))
        return out
    for attr in names:
        val = vars(owner).get(attr)
        if not callable(val) or isinstance(val, (classmethod, staticmethod)):
            raise LookupError(f"trace target {where}.{attr} is missing or "
                              f"not a function")
        label = attr if cls_name is None else f"{cls_name}.{attr}"
        out.append((owner, attr, val, label))
    return out


class Tracer:
    """Spans and per-layer counters of one or more traced rounds."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []               # (name, start, end, parent index)
        self.self_s = {}              # layer -> self time
        self.calls = {}               # display name -> call count
        self.inclusive = {}           # display name -> outermost time
        self.term_products = 0
        self.pairs = 0
        self.basis_len = 0
        self._stack = [[-1, 0.0]]     # [span index, child time]
        self._depth = {}

    def _wrap(self, fn, label, layer):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        spans, inclusive, depth = self.spans, self.inclusive, self._depth
        keep = (layer not in AGGREGATE_ONLY or label in KEEP) \
            and label not in AGGREGATE
        pc = time.perf_counter
        tracer = self
        hook = _HOOKS.get(label)

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(tracer, args)
            parent = stack[-1]
            idx = len(spans) if keep else parent[0]
            if keep:
                spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            level = depth.get(label, 0)
            depth[label] = level + 1
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = pc()
                stack.pop()
                depth[label] = level
                dur = t1 - t0
                self_s[layer] = self_s.get(layer, 0.0) + dur - frame[1]
                parent[1] += dur
                calls[label] = calls.get(label, 0) + 1
                if level == 0:
                    inclusive[label] = inclusive.get(label, 0.0) + dur
                if keep:
                    spans[idx] = (label, t0, t1, parent[0])
            if label == "groebner_membership_one" and level == 0:
                tracer.pairs += result.pairs_processed
                tracer.basis_len += len(result.basis)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target; LookupError if one is missing, or if a name
        a per-layer metric reads was not wrapped."""
        import charpgeom  # noqa: F401
        modules = [m for name, m in sys.modules.items()
                   if name == "charpgeom" or name.startswith("charpgeom.")]
        wrapped_labels = set()
        try:
            for layer, entries in TARGETS.items():
                for modname, cls_name, names in entries:
                    module = sys.modules[modname]
                    for owner, attr, raw, label in _public_members(
                            module, cls_name, names):
                        wrapped = self._wrap(raw, label, layer)
                        wrapped_labels.add(label)
                        self._patch(owner, attr, wrapped)
                        if owner is module:
                            # the same function imported under this name
                            # elsewhere
                            for other in modules:
                                if other is not module and \
                                        vars(other).get(attr) is raw:
                                    self._patch(other, attr, wrapped)
            needed = set().union(*COUNTS.values(), INCLUSIVE.values(),
                                 _HOOKS, ["groebner_membership_one"])
            if needed - wrapped_labels:
                raise LookupError(f"trace targets missing: "
                                  f"{sorted(needed - wrapped_labels)}")
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def summary(self):
        """Counts and times of the traced round(s) since reset()."""
        counts = {name: sum(self.calls.get(label, 0) for label in labels)
                  for name, labels in COUNTS.items()}
        counts["multipoly.term_products"] = self.term_products
        counts["groebner.pairs"] = self.pairs
        counts["groebner.basis_len"] = self.basis_len
        times = {f"{layer}.self_s": self.self_s.get(layer, 0.0)
                 for layer in TARGETS}
        times.update({name: sum(times[f"{layer}.self_s"] for layer in layers)
                      for name, layers in GROUPS.items()})
        times.update({name: self.inclusive.get(label, 0.0)
                      for name, label in INCLUSIVE.items()})
        return {"counts": counts, "times": times, "n_spans": len(self.spans)}

    def write(self, workload, seed):
        """Write the last traced round's spans and summary; returns the path
        relative to the benchmark directory."""
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": seed,
                       "summary": self.summary(),
                       "spans": self.spans}, fh, separators=(",", ":"))
        return os.path.relpath(path, HERE)


def _count_terms(tracer, args):
    a, b = args[0], args[1]
    tracer.term_products += len(a.terms) * (
        len(b.terms) if hasattr(b, "terms") else 1)


_HOOKS = {"MultiPoly.__mul__": _count_terms, "MultiPoly.__rmul__": _count_terms}
