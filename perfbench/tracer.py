"""Outside-in tracing of ultralip from the benchmark's own files.

The library's modules import each other's functions by name (``from
.terms import evaluate``), so a function has one binding per importing
module.  ``Tracer.install`` replaces every ``ultralip.*`` binding of each
traced function with a wrapper that records a span, and counts PadicScalar
arithmetic, ``ord`` and ``ac`` calls on the class.  Spans stay in memory
as (name, start, end, parent, analysis id, count) until the run ends.
``Tracer.remove`` restores every binding it replaced.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path) of each traced public function
TRACED = {
    "terms.evaluate": ("terms", "evaluate"),
    "terms.evaluate_piecewise": ("terms", "evaluate_piecewise"),
    "terms.eval_condition": ("terms", "eval_condition"),
    "terms.parse": ("terms", "parse"),
    "terms.parse_term": ("terms", "parse_term"),
    "terms.parse_condition": ("terms", "parse_condition"),
    "regions.enumerate_window": ("regions", "enumerate_window"),
    "regions.Ball.representatives": ("regions", "Ball.representatives"),
    "cells.enumerate_balls": ("cells", "enumerate_balls"),
    "cells.fit_cell": ("cells", "fit_cell"),
    "cells.parse_cell": ("cells", "parse_cell"),
    "jacobian.check_jacobian_on_ball": ("jacobian", "check_jacobian_on_ball"),
    "jacobian.map_ball": ("jacobian", "map_ball"),
    "jacobian.check_ball_correspondence": ("jacobian", "check_ball_correspondence"),
    "jacobian.verify_certificate": ("jacobian", "verify_certificate"),
    "lipschitz.empirical_lipschitz": ("lipschitz", "empirical_lipschitz"),
    "lipschitz.certified_cell_constant": ("lipschitz", "certified_cell_constant"),
    "lipschitz.check_bounded_derivative_local_lipschitz": ("lipschitz", "check_bounded_derivative_local_lipschitz"),
    "lipschitz.counterexample_exloc": ("lipschitz", "counterexample_exloc"),
    "lipschitz.counterexample_exloc2": ("lipschitz", "counterexample_exloc2"),
    "prepare.prepare": ("prepare", "prepare"),
    "prepare.verify_prepared": ("prepare", "verify_prepared"),
    "prepare.parse_factored": ("prepare", "parse_factored"),
    "cli.dispatch": ("cli", "dispatch"),
}

# the count a span carries: output size, or representatives checked
COUNTS = {
    "regions.enumerate_window": lambda args, out: len(out),
    "regions.Ball.representatives": lambda args, out: len(out),
    "cells.enumerate_balls": lambda args, out: len(out),
    "prepare.prepare": lambda args, out: len(out),
    "jacobian.check_jacobian_on_ball": lambda args, out: args[1].context.p ** args[2],
    "terms.eval_condition": lambda args, out: int(bool(out)),
}

# PadicScalar methods counted (not spanned) as qp_core.ops
SCALAR_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__", "ord", "ac")

# per-layer self-time groups
GROUPS = {
    "terms.evaluate": ("terms.evaluate", "terms.evaluate_piecewise"),
    "terms.parse": ("terms.parse", "terms.parse_term", "terms.parse_condition"),
    "regions": ("regions.enumerate_window", "regions.Ball.representatives"),
    "cells": ("cells.enumerate_balls", "cells.fit_cell", "cells.parse_cell"),
    "jacobian": tuple(n for n in TRACED if n.startswith("jacobian.")),
    "lipschitz": tuple(n for n in TRACED if n.startswith("lipschitz.")),
    "prepare.prepare": ("prepare.prepare",),
    "prepare.verify": ("prepare.verify_prepared",),
    "cli": ("cli.dispatch",),
}

OUTSIDE = -1  # analysis id of work done between analyses (canonical output, checks)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.analysis = OUTSIDE
        self.analyses = 0
        self.ops = [0]
        self.ops_by_analysis: dict = defaultdict(int)
        self.binding_calls: dict = {}
        self.binding_span: dict = {}
        self._stack: list = []
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every ultralip.* binding of each traced function."""
        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("ultralip.")}
        for span, (mod_name, path) in TRACED.items():
            owner = modules[f"ultralip.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self._wrap(getattr(cls, attr), span, f"{cls.__module__}.{path}"))
                continue
            original = getattr(owner, path)
            for name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, self._wrap(original, span, f"{name}.{attr}"))
        scalar = modules["ultralip.qp_core"].PadicScalar
        for attr in SCALAR_OPS:
            self._patch(scalar, attr, self._count(getattr(scalar, attr)))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @property
    def patches(self) -> list:
        return list(self._patches)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, span: str, binding: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count = COUNTS.get(span)
        self.binding_calls.setdefault(binding, 0)
        self.binding_span[binding] = span
        calls = self.binding_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[binding] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span, start, end, parent, self.analysis, 0)
            if count is not None:
                spans[index] = (span, start, end, parent, self.analysis, count(args, out))
            return out

        wrapper.__wrapped_binding__ = binding
        return wrapper

    def _count(self, fn):
        cell = self.ops

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- analysis boundaries -----------------------------------------------

    def begin(self) -> None:
        self.analysis = self.analyses
        self.analyses += 1
        self.ops[0] = 0

    def end(self) -> None:
        self.ops_by_analysis[self.analysis] += self.ops[0]
        self.analysis = OUTSIDE

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tanalysis\tcount\n")
            for i, (name, start, end, parent, aid, n) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{aid}\t{n}\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics from the spans: self times and counts summed per
        analysis, reported as the median over the analyses that used the
        layer (0 when none did)."""
        spans = self.spans
        child = [0] * len(spans)
        for name, start, end, parent, aid, n in spans:
            if parent >= 0:
                child[parent] += end - start
        group_of = {name: g for g, names in GROUPS.items() for name in names}
        self_s: dict = defaultdict(lambda: defaultdict(float))
        counts: dict = defaultdict(lambda: defaultdict(int))
        kept: dict = defaultdict(int)
        tried: dict = defaultdict(int)
        commands = 0
        for i, (name, start, end, parent, aid, n) in enumerate(spans):
            if aid == OUTSIDE:
                continue
            group = group_of.get(name)
            if group is not None:
                self_s[group][aid] += (end - start - child[i]) / 1e9
            if name in ("terms.evaluate", "terms.evaluate_piecewise"):
                counts["terms.evaluate.calls"][aid] += 1
            elif name in GROUPS["regions"]:
                counts["regions.points"][aid] += n
            elif name == "cells.enumerate_balls":
                counts["cells.balls"][aid] += n
            elif name == "jacobian.check_jacobian_on_ball":
                counts["jacobian.certs"][aid] += 1
                counts["jacobian.reps"][aid] += n
            elif name == "prepare.prepare":
                counts["prepare.pieces"][aid] += n
            elif name == "cli.dispatch":
                commands += 1
            elif name == "terms.eval_condition" and parent >= 0 and spans[parent][0] == "lipschitz.empirical_lipschitz":
                kept[parent] += n
                tried[parent] += 1

        def med(per_analysis: dict) -> float:
            values = [v for v in per_analysis.values() if v]
            return statistics.median(values) if values else 0

        out = {
            "qp_core.ops": med(self.ops_by_analysis),
            "terms.evaluate.calls": med(counts["terms.evaluate.calls"]),
            "terms.evaluate.self_s": med(self_s["terms.evaluate"]),
            "terms.parse.self_s": med(self_s["terms.parse"]),
            "regions.points": med(counts["regions.points"]),
            "regions.self_s": med(self_s["regions"]),
            "cells.balls": med(counts["cells.balls"]),
            "cells.self_s": med(self_s["cells"]),
            "jacobian.certs": med(counts["jacobian.certs"]),
            "jacobian.reps": med(counts["jacobian.reps"]),
            "jacobian.self_s": med(self_s["jacobian"]),
            "lipschitz.scan_points": statistics.median(kept.values()) if kept else 0,
            "lipschitz.self_s": med(self_s["lipschitz"]),
            "lipschitz.region_accept_ratio": sum(kept.values()) / sum(tried.values()) if tried else 0,
            "prepare.pieces": med(counts["prepare.pieces"]),
            "prepare.prepare.self_s": med(self_s["prepare.prepare"]),
            "prepare.verify.self_s": med(self_s["prepare.verify"]),
            "cli.commands": commands,
            "cli.self_s": med(self_s["cli"]),
        }
        return out
