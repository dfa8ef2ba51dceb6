"""Outside-in layer trace: spans and counts recorded around subreglab's public functions.

Nothing in the package is edited. While a `Tracer` is installed, the names
that consumer modules look up at call time (for example
`moduli.preimage_distance_fallback` or `perturb.build_element_pool`) are
replaced by thin wrappers, and the map record that
`radius_cli.resolve_map_spec` returns gets wrapped callables. Removing the
tracer restores every original object.

Functions that run once per annulus or more rarely get a span: start, end
and the span that called it. Per-point oracles (`func`, `image_distance`,
`preimage_distance`, `element_quotient`) are only counted, which keeps the
tracing cost bounded. Spans are aggregated in memory by their call path
(the tuple of span names from the outermost span down) and written out
once, at the end of the run.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import math
import statistics
from time import perf_counter

# (module, attribute) -> layer name; a span is recorded around each call
TIMED = {
    ("mappings", "sample_annulus"): "geometry.sample_annulus",
    ("moduli", "sample_annulus"): "geometry.sample_annulus",
    ("perturb", "sample_annulus"): "geometry.sample_annulus",
    ("variational", "sample_annulus"): "geometry.sample_annulus",
    ("mappings", "preimage_distance_fallback"): "mappings.preimage_fallback",
    ("moduli", "preimage_distance_fallback"): "mappings.preimage_fallback",
    ("moduli", "elements_at_point"): "variational.elements_at_point",
    ("variational", "elements_at_point"): "variational.elements_at_point",
    ("radius_cli", "semismooth_star_test"): "variational.semismooth_star_test",
    ("perturb", "semismooth_star_test"): "variational.semismooth_star_test",
    ("perturb", "positive_homogeneity_test"): "variational.positive_homogeneity_test",
    ("moduli", "build_element_pool"): "moduli.build_element_pool",
    ("perturb", "build_element_pool"): "moduli.build_element_pool",
    ("moduli", "estimate_constant"): "moduli.estimate_constant",
    ("perturb", "estimate_constant"): "moduli.estimate_constant",
    ("radius_cli", "estimate_all_constants"): "moduli.estimate_all_constants",
    ("radius_cli", "check_relations"): "moduli.check_relations",
    ("radius_cli", "eckart_young_check"): "moduli.eckart_young_check",
    ("radius_cli", "estimate_clm"): "moduli.estimate_clm",
    ("perturb", "estimate_clm"): "moduli.estimate_clm",
    ("radius_cli", "estimate_lip"): "moduli.estimate_lip",
    ("perturb", "estimate_lip"): "moduli.estimate_lip",
    ("radius_cli", "estimate_rg"): "moduli.estimate_rg",
    ("moduli", "estimate_rg"): "moduli.estimate_rg",
    ("radius_cli", "estimate_srg"): "moduli.estimate_srg",
    ("radius_cli", "estimate_ssrg"): "moduli.estimate_ssrg",
    ("perturb", "estimate_ssrg"): "moduli.estimate_ssrg",
    ("radius_cli", "extract_witness"): "perturb.extract_witness",
    ("perturb", "extract_witness"): "perturb.extract_witness",
    ("radius_cli", "build_lip_perturbation"): "perturb.build_lip_perturbation",
    ("radius_cli", "build_fclm_perturbation"): "perturb.build_fclm_perturbation",
    ("radius_cli", "build_ss_perturbation"): "perturb.build_ss_perturbation",
    ("radius_cli", "build_ssr_destabilizer"): "perturb.build_ssr_destabilizer",
    ("radius_cli", "verify_builder"): "perturb.verify_builder",
    ("perturb", "firmly_calm_test"): "perturb.firmly_calm_test",
    ("perturb", "sum_with_function"): "mappings.sum_with_function",
    ("radius_cli", "parse_config"): "radius_cli.parse_config",
    ("radius_cli", "run_with_cache"): "radius_cli.run_with_cache",
    ("radius_cli", "run"): "radius_cli.run",
    ("radius_cli", "_atomic_write"): "radius_cli.write",
    ("radius_cli", "_emit"): "radius_cli.write",
}

# (module, attribute) -> counter name; counted, not timed
COUNTED = {
    ("moduli", "element_quotient"): "variational.element_quotient",
    ("variational", "element_quotient"): "variational.element_quotient",
}

BUILDERS = ("perturb.build_lip_perturbation", "perturb.build_fclm_perturbation",
            "perturb.build_ss_perturbation", "perturb.build_ssr_destabilizer")
# children of a verify_builder span, by the phase of verify_builder that calls them
VERIFY_PHASES = {
    "modulus_s": ("moduli.estimate_lip", "moduli.estimate_clm"),  # (c)
    "class_s": ("perturb.firmly_calm_test", "variational.positive_homogeneity_test",
                "variational.semismooth_star_test"),  # (d)
    "destab_s": ("mappings.sum_with_function", "moduli.estimate_ssrg",
                 "moduli.build_element_pool", "moduli.estimate_constant"),  # (e)
}
FRESH, HIT = "bench.fresh", "bench.hit"
# spans whose self time is CLI glue rather than a named layer
GLUE = (FRESH, "radius_cli.run_with_cache", "radius_cli.run")

# metrics that must read 0 on a workload; a non-zero value is layer drift
ISOLATION = {
    "moduli-fallback": ("moduli.build_element_pool.calls",),
    "constants-pool": ("mappings.preimage_fallback.calls",),
    "radius-verify": ("mappings.preimage_fallback.calls",),
}

# every per-layer metric with its unit, in report order
LAYER_METRICS = {
    "mappings.preimage_fallback.calls": "count",
    "mappings.preimage_fallback.s": "s",
    "mappings.preimage_fallback.finite_frac": "ratio",
    "mappings.func.calls": "count",
    "mappings.image_distance.calls": "count",
    "mappings.preimage_oracle.calls": "count",
    "mappings.sample_graph.calls": "count",
    "mappings.sample_graph.s": "s",
    "mappings.sample_graph.points": "count",
    "mappings.feature_points.s": "s",
    "geometry.sample_annulus.calls": "count",
    "geometry.sample_annulus.s": "s",
    "geometry.ladder_deepen.calls": "count",
    "variational.elements_at_point.calls": "count",
    "variational.elements_at_point.s": "s",
    "variational.elements": "count",
    "variational.element_quotient.calls": "count",
    "variational.semismooth_star_test.s": "s",
    "moduli.build_element_pool.calls": "count",
    "moduli.build_element_pool.s": "s",
    "moduli.pool_records": "count",
    "moduli.pool_keep_frac": "ratio",
    "moduli.estimate_constant.calls": "count",
    "moduli.estimate_constant.s": "s",
    "moduli.check_relations.s": "s",
    "moduli.estimate_clm.s": "s",
    "moduli.estimate_lip.s": "s",
    "moduli.estimate_rg.s": "s",
    "moduli.estimate_srg.s": "s",
    "moduli.estimate_ssrg.s": "s",
    "moduli.eckart_young_check.s": "s",
    "perturb.extract_witness.calls": "count",
    "perturb.extract_witness.s": "s",
    "perturb.witness_refusals": "count",
    "perturb.build.s": "s",
    "perturb.verify_builder.s": "s",
    "perturb.verify.modulus_s": "s",
    "perturb.verify.class_s": "s",
    "perturb.verify.destab_s": "s",
    "perturb.verify.self_s": "s",
    "radius_cli.parse_s": "s",
    "radius_cli.run_s": "s",
    "radius_cli.write_s": "s",
    "radius_cli.cache_hit_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


class Tracer:
    """Span and count aggregates for one traced pass."""

    def __init__(self):
        # call path -> [calls, total seconds, self seconds, calls that raised]
        self.paths: dict[tuple, list] = {}
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[list] = []  # open spans: [path, seconds of child spans]
        self._saved: list[tuple] = []

    # -- recording

    def timed(self, name: str, fn, on_result=None):
        stack, paths = self._stack, self.paths

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            path = stack[-1][0] + (name,) if stack else (name,)
            frame = [path, 0.0]
            stack.append(frame)
            raised = True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                dur = perf_counter() - t0
                stack.pop()
                rec = paths.get(path)
                if rec is None:
                    rec = paths[path] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                rec[3] += raised
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                out = on_result(out, args, kwargs)
            return out

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks: counts that need the returned value

    def _fallback_done(self, out, args, kwargs):
        self.counts["mappings.preimage_fallback.finite"] += math.isfinite(out)
        return out

    def _points_done(self, out, args, kwargs):
        out = out if isinstance(out, list) else list(out)
        self.counts["mappings.sample_graph.points"] += len(out)
        return out

    def _elements_done(self, out, args, kwargs):
        self.counts["variational.elements"] += len(out)
        if self._stack and self._stack[-1][0][-1] == "moduli.build_element_pool":
            self.counts["moduli.pool_offered"] += len(out)
        return out

    def _pool_done(self, out, args, kwargs):
        pools, _ = out
        self.counts["moduli.pool_records"] += sum(len(recs) for recs in pools)
        extras = kwargs.get("extra_elements", args[5] if len(args) > 5 else None)
        self.counts["moduli.pool_offered"] += len(extras or ())
        return out

    def _wrap_map(self, out, args, kwargs):
        F, entry = out
        opt = {}
        if F.func is not None:
            opt["func"] = self.counted("mappings.func", F.func)
        if F.preimage_distance is not None:
            opt["preimage_distance"] = self.counted("mappings.preimage_oracle",
                                                    F.preimage_distance)
        if F.feature_points is not None:
            opt["feature_points"] = self.timed("mappings.feature_points", F.feature_points)
        F = dataclasses.replace(
            F, image_distance=self.counted("mappings.image_distance", F.image_distance),
            sample_graph=self.timed("mappings.sample_graph", F.sample_graph,
                                    self._points_done),
            **opt)
        return F, entry

    # -- installation

    def __enter__(self):
        mods = {m: importlib.import_module(f"subreglab.{m}")
                for m in ("geometry", "mappings", "moduli", "perturb", "variational",
                          "radius_cli")}
        hooks = {"mappings.preimage_fallback": self._fallback_done,
                 "variational.elements_at_point": self._elements_done,
                 "moduli.build_element_pool": self._pool_done}
        patches = [(mods[m], attr, self.timed(name, getattr(mods[m], attr), hooks.get(name)))
                   for (m, attr), name in TIMED.items()]
        patches += [(mods[m], attr, self.counted(name, getattr(mods[m], attr)))
                    for (m, attr), name in COUNTED.items()]
        ladder = mods["geometry"].ScaleLadder
        patches.append((ladder, "deepen", self.counted("geometry.ladder_deepen", ladder.deepen)))
        resolve = mods["radius_cli"].resolve_map_spec
        patches.append((mods["radius_cli"], "resolve_map_spec",
                        functools.wraps(resolve)(
                            lambda *a, **k: self._wrap_map(resolve(*a, **k), a, k))))
        for owner, attr, new in patches:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()
        return False

    # -- aggregates

    def _sum(self, keep, field: int) -> float:
        return sum(rec[field] for path, rec in self.paths.items() if keep(path))

    def calls(self, name: str) -> int:
        return int(self._sum(lambda p: p[-1] == name, 0))

    def total(self, name: str) -> float:
        return self._sum(lambda p: p[-1] == name, 1)

    def self_time(self, name: str) -> float:
        return self._sum(lambda p: p[-1] == name, 2)

    def fresh_total(self, name: str) -> float:
        return self._sum(lambda p: p[0] == FRESH and p[-1] == name, 1)

    def child_total(self, parent: str, names) -> float:
        return self._sum(lambda p: len(p) > 1 and p[-2] == parent and p[-1] in names, 1)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric this pass can give; see LAYER_METRICS."""
        c = self.counts
        fb_calls = self.calls("mappings.preimage_fallback")
        offered = c["moduli.pool_offered"]
        fresh = self.total(FRESH)
        glue = self._sum(lambda p: p[0] == FRESH and p[-1] in GLUE, 2)
        m = {
            "mappings.preimage_fallback.calls": fb_calls,
            "mappings.preimage_fallback.s": self.total("mappings.preimage_fallback"),
            "mappings.preimage_fallback.finite_frac":
                c["mappings.preimage_fallback.finite"] / fb_calls if fb_calls else 0.0,
            "mappings.func.calls": c["mappings.func"],
            "mappings.image_distance.calls": c["mappings.image_distance"],
            "mappings.preimage_oracle.calls": c["mappings.preimage_oracle"],
            "mappings.sample_graph.calls": self.calls("mappings.sample_graph"),
            "mappings.sample_graph.s": self.total("mappings.sample_graph"),
            "mappings.sample_graph.points": c["mappings.sample_graph.points"],
            "mappings.feature_points.s": self.total("mappings.feature_points"),
            "geometry.sample_annulus.calls": self.calls("geometry.sample_annulus"),
            "geometry.sample_annulus.s": self.total("geometry.sample_annulus"),
            "geometry.ladder_deepen.calls": c["geometry.ladder_deepen"],
            "variational.elements_at_point.calls": self.calls("variational.elements_at_point"),
            "variational.elements_at_point.s": self.total("variational.elements_at_point"),
            "variational.elements": c["variational.elements"],
            "variational.element_quotient.calls": c["variational.element_quotient"],
            "variational.semismooth_star_test.s":
                self.total("variational.semismooth_star_test"),
            "moduli.build_element_pool.calls": self.calls("moduli.build_element_pool"),
            "moduli.build_element_pool.s": self.total("moduli.build_element_pool"),
            "moduli.pool_records": c["moduli.pool_records"],
            "moduli.pool_keep_frac": c["moduli.pool_records"] / offered if offered else 0.0,
            "moduli.estimate_constant.calls": self.calls("moduli.estimate_constant"),
            "moduli.estimate_constant.s": self.total("moduli.estimate_constant"),
            "moduli.check_relations.s": self.total("moduli.check_relations"),
            "moduli.eckart_young_check.s": self.total("moduli.eckart_young_check"),
            "perturb.extract_witness.calls": self.calls("perturb.extract_witness"),
            "perturb.extract_witness.s": self.total("perturb.extract_witness"),
            "perturb.witness_refusals":
                int(self._sum(lambda p: p[-1] == "perturb.extract_witness", 3)),
            "perturb.build.s": sum(self.self_time(b) for b in BUILDERS),
            "perturb.verify_builder.s": self.total("perturb.verify_builder"),
            "perturb.verify.self_s": self.self_time("perturb.verify_builder"),
            "radius_cli.parse_s": self.fresh_total("radius_cli.parse_config"),
            "radius_cli.run_s": self.fresh_total("radius_cli.run"),
            "radius_cli.write_s": self.fresh_total("radius_cli.write"),
            "radius_cli.cache_hit_s": self.total(HIT),
            "trace.coverage_frac": 1.0 - glue / fresh if fresh else 0.0,
        }
        for est in ("clm", "lip", "rg", "srg", "ssrg"):
            m[f"moduli.estimate_{est}.s"] = self.total(f"moduli.estimate_{est}")
        for phase, names in VERIFY_PHASES.items():
            m[f"perturb.verify.{phase}"] = self.child_total("perturb.verify_builder", names)
        return m

    def dump(self) -> dict:
        """The aggregated spans and counts, JSON-ready."""
        spans = [{"path": "/".join(path), "calls": rec[0], "total_s": rec[1],
                  "self_s": rec[2], "raised": rec[3]}
                 for path, rec in sorted(self.paths.items())]
        return {"spans": spans, "counts": dict(sorted(self.counts.items()))}


def merge_passes(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of every metric over traced passes; names of counts that differ."""
    merged = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    unstable = [k for k in per_pass[0]
                if LAYER_METRICS.get(k) == "count" and len({p[k] for p in per_pass}) > 1]
    return merged, unstable


def isolation_drift(workload: str, metrics: dict[str, float]) -> list[str]:
    """Metrics that must read 0 on this workload but do not."""
    return [f"{k} = {metrics[k]:g}" for k in ISOLATION.get(workload, ()) if metrics[k] != 0]
