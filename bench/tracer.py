"""Per-layer spans and counts for dyadlab, recorded from outside the package.

`install(tracer)` replaces every public function and the listed class
methods of the seven package modules with a timing wrapper, in every
namespace that holds a copy (the defining module, each `from .x import f`
in a sibling module, and the `dyadlab` package itself), so calls made
inside the library are timed too.  `uninstall` puts the originals back.

A span's self time is its duration minus the time its child spans cover.
Nested calls that share the innermost span's label are folded into that
span: recursion (`jsonable`), `tau_index -> bit_reverse` and
`SampledFunction.__add__ -> __init__` cost one span each, and `calls`
counts entries into a layer.  Work counts (cells, points, headroom) are
computed from arguments and results after a span closes; the time they
take is charged to `count_s`, not to any layer.
"""

from __future__ import annotations

import enum
import functools
import inspect
import math
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("group", "walsh", "norms", "hardy", "operators", "experiments", "cli")

# Spans whose label is not "<module>.<function>" (or "<module>.<Class>" for
# methods).  The whole `group` module is one layer.
LABELS = {
    "walsh.dirichlet": "walsh.kernel",
    "walsh.fejer": "walsh.kernel",
    "walsh.SampledFunction": "walsh.sampled",
    "walsh.CoefficientSequence": "walsh.coefficients",
    "hardy.DyadicMartingale.level": "hardy.level",
    "hardy.DyadicMartingale": "hardy.martingale",
    "experiments.build_t1": "experiments.build",
    "experiments.build_t2": "experiments.build",
    "experiments.divergence_t1": "experiments.divergence",
    "experiments.divergence_t2": "experiments.divergence",
    "experiments.verify_identities": "experiments.identities",
    "experiments.verify_closed_form": "experiments.identities",
    "experiments.verify_permutation_equivalence": "experiments.identities",
    "experiments.verify_fejer_partial_identity": "experiments.identities",
    "experiments.verify_kernel_decomposition": "experiments.identities",
    "experiments.verify_conjugate_translation": "experiments.identities",
    "experiments.jsonable": "cli.render",
    "experiments.VerificationReport.to_dict": "cli.render",
    "cli.RunConfig.to_dict": "cli.render",
    "cli.render_json": "cli.render",
    "cli.render_csv": "cli.render",
}

# Labels whose inclusive time is also split by the mode of the first
# argument (exact `Fraction`/int storage or float64).
MODE_SPLIT = {"walsh.fwht", "walsh.inverse_fwht", "norms.weak_lp", "hardy.maximal",
              "operators.fejer_mean"}

# Dunder methods that do work worth a span; other dunders and properties
# are hot leaves (`__getitem__`, `__len__`) whose cost stays with the caller.
_WRAPPED_DUNDERS = {"__init__", "__post_init__", "__add__", "__sub__", "__mul__",
                    "__neg__", "__eq__"}


def _label(module: str, qualname: str) -> str:
    if module == "group":
        return "group"
    key = f"{module}.{qualname}"
    if key in LABELS:
        return LABELS[key]
    owner = key.rsplit(".", 1)[0] if "." in qualname else key
    return LABELS.get(owner, owner)


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """Span and count totals of one traced phase."""

    def __init__(self) -> None:
        self.stack: list[list] = []          # frames: [label, child_s, saw_inverse_fwht]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.mode_s: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.min_headroom = 63
        self.count_s = 0.0

    # -- counts computed from arguments and results ------------------------
    def _count(self, label: str, fn_name: str, args, kwargs, result, frame) -> None:
        c = self.counts
        if label == "experiments.dirichlet_prefix":
            n, N = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "N")
            c["dirichlet_prefix.cells"] += n << N
            peak = int(np.max(np.abs(result))) if result.size else 0
            self.min_headroom = min(self.min_headroom, 63 - peak.bit_length())
        elif label == "experiments.verify_lemma2":
            c["verify_lemma2.points"] += sum(row["points"] for row in result.rows)
        elif label == "walsh.fwht":
            c["fwht.cells"] += 1 << _arg(args, kwargs, 0, "f").resolution
        elif label == "walsh.inverse_fwht":
            c["inverse_fwht.cells"] += 1 << _arg(args, kwargs, 0, "coeffs").resolution
            if self.stack:
                self.stack[-1][2] = True
        elif label == "norms.weak_lp":
            f = _arg(args, kwargs, 0, "f")
            c["weak_lp.cells"] += len(f)
            c["weak_lp.distinct"] += (len({abs(v) for v in f.values}) if f.is_exact
                                      else int(np.unique(np.abs(f.values)).size))
        elif label == "norms.translate_norm_profile":
            c["translate_norm_profile.cells"] += 1 << (2 * _arg(args, kwargs, 0, "f").resolution)
        elif label == "hardy.level":
            c["level.hits"] += not frame[2]
        elif label == "cli.render" and fn_name in ("render_json", "render_csv"):
            c["report_bytes"] += len(result.encode())

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn, label: str):
        stack = self.stack
        split = label in MODE_SPLIT
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == label:
                return fn(*args, **kwargs)
            frame = [label, 0.0, False]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            duration = t1 - t0
            self.self_s[label] += duration - frame[1]
            self.calls[label] += 1
            if split:
                mode = "exact" if args[0].is_exact else "float"
                self.mode_s[label, mode] += duration
            self._count(label, name, args, kwargs, result, frame)
            t2 = perf_counter()
            self.count_s += t2 - t1
            if stack:
                stack[-1][1] += t2 - t0
            return result

        return traced


def _targets(package):
    """(label, owner, attribute, original) for everything `install` wraps."""
    out = []
    for modname in MODULES:
        module = getattr(package, modname)
        full = module.__name__
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != full:
                continue
            if inspect.isclass(obj):
                if issubclass(obj, enum.Enum):
                    continue
                for attr, raw in vars(obj).items():
                    if attr.startswith("_") and attr not in _WRAPPED_DUNDERS:
                        continue
                    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if inspect.isfunction(func):
                        out.append((_label(modname, f"{name}.{attr}"), obj, attr, raw))
            elif callable(obj):
                out.append((_label(modname, name), None, name, obj))
    return out


def install(tracer: Tracer, package) -> list:
    """Wrap the package for `tracer`; returns the undo list for `uninstall`."""
    undo = []
    namespaces = [package] + [getattr(package, m) for m in MODULES]
    for label, owner, attr, original in _targets(package):
        if owner is not None:
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(tracer.wrap(original.__func__, label))
            else:
                wrapped = tracer.wrap(original, label)
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        wrapped = tracer.wrap(original, label)
        for ns in namespaces:
            if vars(ns).get(attr) is original:
                undo.append((ns, attr, original))
                setattr(ns, attr, wrapped)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced phase, by name."""
    s, n, c, m = tracer.self_s, tracer.calls, tracer.counts, tracer.mode_s
    out = {
        "experiments.dirichlet_prefix.calls": n["experiments.dirichlet_prefix"],
        "experiments.dirichlet_prefix.self_s": s["experiments.dirichlet_prefix"],
        "experiments.dirichlet_prefix.cells": c["dirichlet_prefix.cells"],
        "experiments.dirichlet_prefix.headroom_bits": tracer.min_headroom,
        "experiments.verify_lemma2.self_s": s["experiments.verify_lemma2"],
        "experiments.verify_lemma2.points": c["verify_lemma2.points"],
        "experiments.verify_yano.self_s": s["experiments.verify_yano"],
        "experiments.kernel_half_integral.self_s": s["experiments.kernel_half_integral"],
        "walsh.kernel.calls": n["walsh.kernel"],
        "walsh.kernel.self_s": s["walsh.kernel"],
        "walsh.sampled.self_s": s["walsh.sampled"],
        "walsh.compose_with_tau.self_s": s["walsh.compose_with_tau"],
        "group.calls": n["group"],
        "norms.weak_lp.calls": n["norms.weak_lp"],
        "norms.weak_lp.distinct_ratio": _ratio(c["weak_lp.distinct"], c["weak_lp.cells"]),
        "norms.lp_quasinorm.self_s": s["norms.lp_quasinorm"],
        "norms.translate.self_s": s["norms.translate"],
        "norms.translate_norm_profile.calls": n["norms.translate_norm_profile"],
        "norms.translate_norm_profile.self_s": s["norms.translate_norm_profile"],
        "norms.translate_norm_profile.cells": c["translate_norm_profile.cells"],
        "norms.modulus_lp.self_s": s["norms.modulus_lp"],
        "hardy.level.calls": n["hardy.level"],
        "hardy.level.hit_ratio": _ratio(c["level.hits"], n["hardy.level"]),
        "hardy.conjugate.self_s": s["hardy.conjugate"],
        "hardy.is_p_atom.self_s": s["hardy.is_p_atom"],
        "operators.fejer_mean.calls": n["operators.fejer_mean"],
        "operators.weighted_maximal.self_s": s["operators.weighted_maximal"],
        "operators.partial_sum.self_s": s["operators.partial_sum"],
        "cli.render.self_s": s["cli.render"],
        "cli.report_bytes": c["report_bytes"],
    }
    for name in ("build", "audit_family", "divergence", "convergence_table", "identities"):
        out[f"experiments.{name}.self_s"] = s[f"experiments.{name}"]
    for name in ("fwht", "inverse_fwht"):
        out[f"walsh.{name}.calls"] = n[f"walsh.{name}"]
        out[f"walsh.{name}.cells"] = c[f"{name}.cells"]
    for label in sorted(MODE_SPLIT):
        out[f"{label}.exact_s"] = m[label, "exact"]
        out[f"{label}.float_s"] = m[label, "float"]
    for module in MODULES:
        out[f"{module}.self_s"] = math.fsum(v for k, v in s.items()
                                           if k.split(".", 1)[0] == module)
    return out


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly between runs of the same inputs."""
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}
