"""Span tracing of crosscap's public functions, installed from outside.

``Tracer.install`` replaces each traced function or method with a wrapper
in every crosscap namespace that holds it (a module-level function that
another module imported by name is replaced there too) and
``uninstall`` puts the originals back.  A wrapper records a span, with
the operation it belongs to and its parent span, only while ``active``
is set, which the runner does around each timed operation.  Spans are
kept in compact arrays and written out once, when the run ends.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import defaultdict

from crosscap import (
    asymptotics, cli, deformation, invariants, jets, normalform, numerics, ruled, specio, surface,
)

# span name -> (owner, attribute); one span name may cover several functions
TARGETS = {
    "jets.mul": [(jets.Jet2, "__mul__")],
    "jets.compose": [(jets.Jet2, "compose")],
    "jets.sqrt_recip": [(jets.Jet2, "sqrt"), (jets.Jet2, "recip")],
    "jets.shift": [(jets.Jet2, "shifted_origin")],
    "jets.eval": [(jets.Jet2, "__call__")],
    "surface.eval": [(surface.SurfaceMap, "__call__")],
    "surface.local_jet": [(surface.SurfaceMap, "local_jet")],
    "surface.first_form": [(surface, "first_form")],
    "surface.curvatures": [(surface, "curvatures_at")],
    "normalform.reduce": [(normalform, "reduce_to_normal_form")],
    "invariants.map_route": [(invariants, "intrinsic_from_map")],
    "invariants.metric_route": [(invariants, "intrinsic_from_metric")],
    "deformation.build": [(deformation, "build_crosscap")],
    "deformation.verify_isometry": [(deformation, "verify_isometry")],
    "numerics.simpson": [(numerics, "adaptive_simpson")],
    "numerics.frenet": [(numerics.FrenetPath, "state")],
    "ruled.normalize": [(ruled, "normalize")],
    "ruled.frame_coefficients": [(ruled, "frame_coefficients")],
    "ruled.redeploy": [(ruled, "redeploy")],
    "ruled.classify": [(ruled, "classify_singularity")],
    "asymptotics.convergence": [(asymptotics, "verify_convergence")],
    "asymptotics.gap": [(asymptotics, "umbilic_gap")],
    "specio.load": [(specio, "load_spec")],
    "specio.build": [(specio, "build_surface")],
    "specio.report": [(specio, "invariant_report")],
    "specio.dumps": [(specio, "dumps_report")],
    "specio.write_obj": [(specio, "write_obj")],
    "cli.main": [(cli, "main")],
}

# per-layer metrics: name -> (span name, statistic)
LAYER_METRICS = {
    "jets.mul.calls": ("jets.mul", "calls"),
    "jets.mul.self_s": ("jets.mul", "self_s"),
    "jets.compose.calls": ("jets.compose", "calls"),
    "jets.compose.self_s": ("jets.compose", "self_s"),
    "jets.sqrt_recip.calls": ("jets.sqrt_recip", "calls"),
    "jets.sqrt_recip.self_s": ("jets.sqrt_recip", "self_s"),
    "jets.shift.calls": ("jets.shift", "calls"),
    "jets.shift.self_s": ("jets.shift", "self_s"),
    "jets.eval.calls": ("jets.eval", "calls"),
    "surface.eval.calls": ("surface.eval", "calls"),
    "surface.eval.self_s": ("surface.eval", "self_s"),
    "surface.local_jet.calls": ("surface.local_jet", "calls"),
    "surface.local_jet.self_s": ("surface.local_jet", "self_s"),
    "surface.first_form.self_s": ("surface.first_form", "self_s"),
    "surface.curvatures.calls": ("surface.curvatures", "calls"),
    "normalform.reduce.calls": ("normalform.reduce", "calls"),
    "normalform.reduce.self_s": ("normalform.reduce", "self_s"),
    "invariants.map_route.self_s": ("invariants.map_route", "self_s"),
    "invariants.metric_route.self_s": ("invariants.metric_route", "self_s"),
    "deformation.build.calls": ("deformation.build", "calls"),
    "deformation.build.self_s": ("deformation.build", "self_s"),
    "deformation.verify_isometry.self_s": ("deformation.verify_isometry", "self_s"),
    "numerics.simpson.calls": ("numerics.simpson", "calls"),
    "numerics.simpson.evals": ("numerics.simpson.evals", "count"),
    "numerics.simpson.self_s": ("numerics.simpson", "self_s"),
    "numerics.frenet.state_calls": ("numerics.frenet", "calls"),
    "numerics.frenet.self_s": ("numerics.frenet", "self_s"),
    "ruled.normalize.self_s": ("ruled.normalize", "self_s"),
    "ruled.frame_coefficients.self_s": ("ruled.frame_coefficients", "self_s"),
    "ruled.redeploy.self_s": ("ruled.redeploy", "self_s"),
    "ruled.classify.self_s": ("ruled.classify", "self_s"),
    "asymptotics.convergence.self_s": ("asymptotics.convergence", "self_s"),
    "asymptotics.gap.self_s": ("asymptotics.gap", "self_s"),
    "specio.load.self_s": ("specio.load", "self_s"),
    "specio.build.self_s": ("specio.build", "self_s"),
    "specio.report.self_s": ("specio.report", "self_s"),
    "specio.dumps.self_s": ("specio.dumps", "self_s"),
    "specio.write_obj.self_s": ("specio.write_obj", "self_s"),
    "specio.bytes_out": ("specio.bytes_out", "count"),
    "cli.main.calls": ("cli.main", "calls"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


def _is_jet_product(args) -> bool:
    # jets.mul counts Jet2 x Jet2 products, not scaling by a number
    return isinstance(args[1], jets.Jet2)


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrappers
    def _span(self, name: str, fn, pre=None, post=None, when=None):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (when is not None and not when(args)):
                return fn(*args, **kwargs)
            if pre is not None:
                args = pre(args)
            idx = len(tracer.span_start)
            stack = tracer._stack
            tracer.span_name.append(nid)
            tracer.span_op.append(tracer.op)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0)
            stack.append(idx)
            tracer.span_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, out)
            return out

        return wrapper

    def count(self, name: str, n: int = 1):
        self.counts[(self.op, name)] += n

    def _counting_integrand(self, args):
        f = args[0]

        def integrand(t):
            self.count("numerics.simpson.evals")
            return f(t)

        return (integrand,) + tuple(args[1:])

    def _obj_bytes(self, args, out):
        self.count("specio.bytes_out", os.path.getsize(args[1]))

    def _report_bytes(self, args, out):
        self.count("specio.bytes_out", len(out.encode("utf-8")))

    def install(self):
        hooks = {
            "jets.mul": {"when": _is_jet_product},
            "numerics.simpson": {"pre": self._counting_integrand},
            "specio.dumps": {"post": self._report_bytes},
            "specio.write_obj": {"post": self._obj_bytes},
        }
        modules = [m for k, m in sys.modules.items() if k == "crosscap" or k.startswith("crosscap.")]
        for name, targets in TARGETS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                wrapper = self._span(name, original, **hooks.get(name, {}))
                # every alias of the same object: imported names, __rmul__ = __mul__
                holders = [owner] if isinstance(owner, type) else modules
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is original:
                            self._saved.append((holder, key, val))
                            setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, val in reversed(self._saved):
            setattr(holder, key, val)
        self._saved.clear()

    # ------------------------------------------------------------------
    # results
    def per_op(self, scale: dict[int, float]) -> dict[tuple[int, str], dict[str, float]]:
        """(op, span name) -> calls, inclusive and self seconds, each
        operation's times multiplied by its factor in ``scale``."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[tuple[int, str], dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        )
        for i in range(n):
            op = self.span_op[i]
            rec = out[(op, self.names[self.span_name[i]])]
            rec["calls"] += 1
            rec["incl_s"] += dur[i] * 1e-9 * scale[op]
            rec["self_s"] += (dur[i] - child[i]) * 1e-9 * scale[op]
        for (op, name), val in self.counts.items():
            out[(op, name)]["count"] = val
        return out

    def layer_metrics(self, scale: dict[int, float], rounds: int) -> dict[str, float]:
        """Per-layer totals over all traced operations, per traced round."""
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (op, name), rec in self.per_op(scale).items():
            for stat, val in rec.items():
                totals[name][stat] += val
        return {
            metric: totals[span][stat] / rounds for metric, (span, stat) in LAYER_METRICS.items()
        }

    def write(self, path: str, header: dict, op_kinds: list[str], scale: dict[int, float]):
        """Spans (raw clock) plus a per-operation-kind summary (nominal
        seconds, see ``scale``), as one JSON document."""
        summary: dict[str, dict[str, dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: defaultdict(float))
        )
        for (op, name), rec in self.per_op(scale).items():
            for stat, val in rec.items():
                summary[op_kinds[op]][name][stat] += val
        doc = {
            **header,
            "names": self.names,
            "ops": op_kinds,
            "op_scale": scale,
            "summary": summary,
            "span_fields": ["name", "op", "parent", "start_ns", "end_ns"],
            "spans": list(zip(self.span_name, self.span_op, self.span_parent, self.span_start, self.span_end)),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
