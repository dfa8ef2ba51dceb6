"""Experiment orchestration: configs, catalog runs, verification pipelines.

A run is described by a single YAML config (strict schema, unknown keys are
hard errors, seed mandatory) and produces three artifacts in the output
directory: report.json (full machine-readable report), per_scale.csv (flat
table of every per-scale estimate), and summary.txt (the terse console
view). Reports are deterministic given (config, seed); wall-clock timings
live under a separate key excluded from the cache payload, so reruns
reproduce the cached document bit for bit.

Exit codes: 0 success, 2 config error, 3 verification failure (a FAIL line,
a refused or failed build), 4 internal inconsistency (violated order
relations or an unexpected internal error).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import time

import numpy as np
import yaml

from . import __version__
from .geometry import NormContext, ScaleLadder, derive_seed
from .mappings import (
    GraphPoint,
    catalog,
    graph_tolerance,
    make_function_graph,
    resolve_map_spec,
    sum_with_function,
)
from .moduli import (
    Estimate,
    check_relations,
    eckart_young_check,
    estimate_all_constants,
    estimate_clm,
    estimate_lip,
    estimate_rg,
    estimate_srg,
    estimate_ssrg,
    subregularity_consistency,
)
from .perturb import (
    WitnessError,
    build_fclm_perturbation,
    build_lip_perturbation,
    build_ss_perturbation,
    build_ssr_destabilizer,
    extract_witness,
    random_calm_perturbation,
    verify_builder,
)
from .variational import semismooth_star_test

__all__ = ["ExperimentConfig", "RunReport", "ConfigError", "run", "list_catalog", "main"]

TASKS = ("moduli", "constants", "relations", "semismooth", "build_perturbation",
         "verify_radius", "eckart_young")
_TOP_KEYS = {"map", "task", "seed", "norm", "base_point", "ladder", "gamma",
             "kind", "direction_mode", "matrices", "output", "cache", "format"}
_LADDER_KEYS = {"r0", "theta", "depth", "samples"}
_BUILD_KINDS = ("lip", "fclm", "ss", "ssr")
PAYLOAD_SCHEMA = 1  # raise when the payload's layout or meaning changes


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


@dataclasses.dataclass
class ExperimentConfig:
    map_spec: dict | None
    task: str
    seed: int
    norm: str = "l1"
    base_point: dict | None = None
    ladder: dict = dataclasses.field(default_factory=dict)
    gamma: float | None = None
    kind: str | None = None
    direction_mode: str = "auto"
    matrices: int = 50
    output: str = "out"
    cache: bool = True
    format: str = "summary"

    def canonical(self) -> dict:
        """The semantic payload: everything that can change the results."""
        out = {"task": self.task, "seed": self.seed, "norm": self.norm,
               "direction_mode": self.direction_mode}
        if self.map_spec is not None:
            out["map"] = self.map_spec
        if self.base_point is not None:
            out["base_point"] = self.base_point
        if self.ladder:
            out["ladder"] = dict(sorted(self.ladder.items()))
        if self.gamma is not None:
            out["gamma"] = self.gamma
        if self.kind is not None:
            out["kind"] = self.kind
        if self.task == "eckart_young":
            out["matrices"] = self.matrices
        return out

    def digest(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _finite_number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def parse_config(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Validate a raw config mapping; unknown keys are hard errors."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of keys to values")
    raw = dict(raw)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key in ("depth", "samples"):
            raw.setdefault("ladder", {})
            if not isinstance(raw["ladder"], dict):
                raise ConfigError("'ladder' must be a mapping")
            raw["ladder"] = dict(raw["ladder"])
            raw["ladder"][key] = val
        else:
            raw[key] = val

    unknown = sorted(set(raw) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    task = raw.get("task")
    if task not in TASKS:
        raise ConfigError(f"'task' must be one of {', '.join(TASKS)}; got {task!r}")
    if "seed" not in raw:
        raise ConfigError("'seed' is mandatory (set it in the config or pass --seed)")
    seed = raw["seed"]
    try:
        if isinstance(seed, bool) or (isinstance(seed, float) and not seed.is_integer()):
            raise ValueError
        seed = int(seed)
    except (TypeError, ValueError):
        raise ConfigError(f"'seed' must be an integer, got {raw['seed']!r}") from None

    map_spec = None
    if "map" in raw:
        m = raw["map"]
        if isinstance(m, str):
            map_spec = {"id": m}
        elif isinstance(m, dict):
            bad = sorted(set(m) - {"id", "params", "wrap"})
            if bad:
                raise ConfigError(f"unknown map spec keys: {', '.join(bad)}")
            map_spec = m
        else:
            raise ConfigError("'map' must be a catalog id or a map spec mapping")
    if map_spec is None and task != "eckart_young":
        raise ConfigError(f"task {task!r} requires a 'map'")

    norm = raw.get("norm", "l1")
    if norm not in ("l1", "l2", "linf"):
        raise ConfigError(f"'norm' must be l1, l2, or linf; got {norm!r}")

    ladder = raw.get("ladder") or {}
    if not isinstance(ladder, dict):
        raise ConfigError("'ladder' must be a mapping")
    bad = sorted(set(ladder) - _LADDER_KEYS)
    if bad:
        raise ConfigError(f"unknown ladder keys: {', '.join(bad)}")
    for key in ("r0", "theta"):
        if key in ladder and not _finite_number(ladder[key]):
            raise ConfigError(f"ladder '{key}' must be a finite number, got {ladder[key]!r}")

    base_point = raw.get("base_point")
    if base_point is not None:
        if isinstance(base_point, (list, tuple)) and len(base_point) == 2:
            base_point = dict(zip("xy", base_point))
        if not (isinstance(base_point, dict) and set(base_point) == {"x", "y"}):
            raise ConfigError("'base_point' must be {x: [...], y: [...]}")
        for axis, value in base_point.items():
            items = value if isinstance(value, (list, tuple)) else [value]
            if not all(map(_finite_number, items)):
                raise ConfigError(f"'base_point' {axis} must be a finite number or a list "
                                  f"of finite numbers; got {value!r}")

    gamma = raw.get("gamma")
    kind = raw.get("kind")
    direction_mode = raw.get("direction_mode", "auto")
    if task == "build_perturbation":
        if kind not in _BUILD_KINDS:
            raise ConfigError(f"build_perturbation needs 'kind' in {_BUILD_KINDS}")
        if not _finite_number(gamma) or not gamma > 0:
            raise ConfigError(f"build_perturbation needs a finite positive 'gamma', got {gamma!r}")
        gamma = float(gamma)
    else:
        for field_name in ("gamma", "kind"):
            if raw.get(field_name) is not None:
                raise ConfigError(f"'{field_name}' is only valid for task build_perturbation")
    if direction_mode not in ("auto", "distinct", "stationary"):
        raise ConfigError(f"invalid direction_mode {direction_mode!r}")
    if task == "verify_radius":
        mid = (map_spec or {}).get("id")
        if mid not in _PIPELINES:
            raise ConfigError(
                f"verify_radius supports maps {', '.join(_PIPELINES)}; got {mid!r}")
        # the checks judge the catalog map's reference values, so they run on
        # that map alone
        if "wrap" in map_spec or "params" in map_spec:
            raise ConfigError("verify_radius checks the bare catalog map; "
                              "'wrap' and 'params' are not allowed")
        if base_point is not None:
            raise ConfigError("verify_radius checks the catalog map at the origin; "
                              "'base_point' is not allowed")

    matrices = raw.get("matrices", 50)
    if isinstance(matrices, bool) or not isinstance(matrices, int) or matrices < 1:
        raise ConfigError("'matrices' must be a positive integer")

    cache = raw.get("cache", True)
    if not isinstance(cache, bool):
        raise ConfigError(f"'cache' must be true or false, got {cache!r}")

    fmt = raw.get("format", "summary")
    if fmt not in ("full", "csv", "summary"):
        raise ConfigError(f"'format' must be full, csv, or summary; got {fmt!r}")

    return ExperimentConfig(
        map_spec=map_spec, task=task, seed=seed, norm=norm,
        base_point=base_point, ladder=dict(ladder), gamma=gamma, kind=kind,
        direction_mode=direction_mode, matrices=matrices,
        output=str(raw.get("output", "out")), cache=cache,
        format=fmt)


@dataclasses.dataclass
class RunReport:
    config: dict
    config_hash: str
    task: str
    map_name: str
    status: str = "ok"  # ok | verification_fail | inconsistency
    estimates: list = dataclasses.field(default_factory=list)
    relations: dict | None = None
    semismooth: dict | None = None
    builder: dict | None = None
    checks: list = dataclasses.field(default_factory=list)
    provenance: dict = dataclasses.field(default_factory=dict)
    alarms: list = dataclasses.field(default_factory=list)
    timings: dict = dataclasses.field(default_factory=dict)

    def payload(self) -> dict:
        """Everything except wall-clock timings; the deterministic part."""
        d = _sanitize(dataclasses.asdict(self))
        d.pop("timings", None)
        return d


def _sanitize(obj):
    """Make a structure JSON-safe: numpy to native, inf/nan to strings."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    return obj


def _est_row(est: Estimate, known: dict | None = None) -> dict:
    row = {"name": est.name, "reported": est.reported, "trend": est.trend,
           "converged": est.converged, "note": est.note, "pool_id": est.pool_id,
           "per_scale": [[r, v] for r, v in est.per_scale],
           "witnesses": est.witnesses}
    if known is not None:
        row["known"] = known["value"]
        row["provenance"] = known["provenance"]
    return row


def _resolve(config: ExperimentConfig):
    try:
        F, entry = resolve_map_spec(config.map_spec, kind=config.norm)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    ctx = NormContext(kind=config.norm, dim_x=F.dim_x, dim_y=F.dim_y)
    if config.base_point is None:
        base = GraphPoint(np.zeros(F.dim_x), np.zeros(F.dim_y))
    else:
        base = GraphPoint(config.base_point["x"], config.base_point["y"])
        if (len(base.x), len(base.y)) != (F.dim_x, F.dim_y):
            raise ConfigError(f"'base_point' must have dimensions {F.dim_x}->{F.dim_y} "
                              f"for map {F.name!r}; got {len(base.x)}->{len(base.y)}")
        dist = F.image_distance(base.x[None], base.y[None])[0]
        if not dist <= graph_tolerance(base.y[None], ctx.kind)[0]:
            raise ConfigError(f"'base_point' ({base.x.tolist()}, {base.y.tolist()}) "
                              f"does not lie on the graph of {F.name!r}")
    hint = entry.ladder_hint
    params = {
        "r0": config.ladder.get("r0", hint.get("r0", 0.5)),
        "theta": config.ladder.get("theta", hint.get("theta", 0.5)),
        "depth": config.ladder.get("depth", hint.get("depth", 12)),
        "samples_per_scale": config.ladder.get("samples",
                                               hint.get("samples_per_scale", 512)),
    }
    try:
        ladder = ScaleLadder(seed=config.seed, **params)
    except ValueError as err:
        raise ConfigError(f"invalid ladder: {err}") from err
    return F, entry, base, ctx, ladder


def run(config: ExperimentConfig) -> RunReport:
    """Execute one experiment; deterministic given (config, seed)."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()

    if config.task == "eckart_young":
        report = RunReport(config=config.canonical(), config_hash=config.digest(),
                           task=config.task, map_name="linear (seeded)")
        _task_eckart_young(config, report)
        report.timings = {"total_s": time.perf_counter() - t0}
        return report

    F, entry, base, ctx, ladder = _resolve(config)
    timings["resolve_s"] = time.perf_counter() - t0
    report = RunReport(config=config.canonical(), config_hash=config.digest(),
                       task=config.task, map_name=F.name)
    # the catalog's known values hold for its map as listed, at the origin
    # (parse_config refuses anything else for verify_radius)
    bare = config.base_point is None and not {"wrap", "params"} & set(config.map_spec)
    known = entry.known if bare else {}
    report.provenance = {k: v["provenance"] for k, v in known.items()}

    t1 = time.perf_counter()
    if config.task == "moduli":
        for fn in (estimate_clm, estimate_lip, estimate_rg, estimate_srg, estimate_ssrg):
            est = fn(F, base, ladder, ctx)
            report.estimates.append(_est_row(est, known.get(est.name)))
    elif config.task in ("constants", "relations"):
        consts = estimate_all_constants(F, base, ladder, ctx)
        for name in sorted(consts):
            report.estimates.append(_est_row(consts[name], known.get(name)))
        if config.task == "relations":
            report.relations = check_relations(consts)
            srg = estimate_srg(F, base, ladder, ctx)
            report.estimates.append(_est_row(srg, known.get("srg")))
            alarm = subregularity_consistency(consts["srg1"], srg)
            if not alarm["ok"]:
                report.alarms.append(alarm["message"])
            if not (report.relations["ok"] and alarm["ok"]):
                report.status = "inconsistency"
    elif config.task == "semismooth":
        ss = semismooth_star_test(F, base, ladder, ctx)
        report.semismooth = {
            "verdict": ss.verdict, "note": ss.note,
            "worst_witness": ss.worst_witness,
            "per_scale": [[r, v, c] for r, v, c in ss.scales],
        }
    elif config.task == "build_perturbation":
        _task_build(config, F, base, ctx, ladder, report)
    elif config.task == "verify_radius":
        _PIPELINES[entry.id](config, F, base, ctx, ladder, report)
        if any(not c["passed"] for c in report.checks):
            report.status = "verification_fail"
    timings["task_s"] = time.perf_counter() - t1
    timings["total_s"] = time.perf_counter() - t0
    report.timings = timings
    return report


def _builder_dict(rep) -> dict:
    d = dataclasses.asdict(rep)
    d["destabilization"] = [[r, v] for r, v in d.pop("destabilization")]
    d["marker"] = "exact"  # scalar fields are one-shot exact measurements
    return d


def _task_build(config: ExperimentConfig, F, base, ctx, ladder, report: RunReport):
    kind, gamma = config.kind, config.gamma
    try:
        if kind == "ssr":
            p = build_ssr_destabilizer(F, base, gamma, ladder, ctx,
                                       direction_mode=config.direction_mode)
        else:
            w = extract_witness(F, base, kind, gamma, ladder, ctx,
                                direction_mode=config.direction_mode)
            builder = {"lip": build_lip_perturbation, "fclm": build_fclm_perturbation,
                       "ss": build_ss_perturbation}[kind]
            p = builder(w, gamma)
    except WitnessError as err:
        report.builder = {"kind": kind, "gamma": gamma, "refused": str(err)}
        report.status = "verification_fail"
        return
    rep = verify_builder(p, F, base, ladder, ctx)
    report.builder = _builder_dict(rep)
    report.builder["description"] = p.describe()
    if not rep.passed:
        report.status = "verification_fail"


def _task_eckart_young(config: ExperimentConfig, report: RunReport):
    rng = np.random.default_rng(derive_seed(config.seed, 151))
    worst_rel = 0.0
    worst_b = 0.0
    worst_det = 0.0
    failures = 0
    for i in range(config.matrices):
        # well-conditioned 3x3: orthogonal factors, log-uniform spectrum
        q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        s = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=3))
        A = q1 @ np.diag(np.sort(s)[::-1]) @ q2.T
        res = eckart_young_check(A, seed=derive_seed(config.seed, 151, i))
        worst_rel = max(worst_rel, res["rg_rel_error"])
        worst_b = max(worst_b, res["b_norm_error"])
        worst_det = max(worst_det, abs(res["det_after"]))
        if not res["ok"]:
            failures += 1
    report.checks.append({
        "inequality": "rank-drop equality: dist to singularity = 1/||A^{-1}|| = rg",
        "passed": failures == 0,
        "slack": worst_rel,
        "detail": (f"{config.matrices} seeded matrices; worst rg relative error "
                   f"{worst_rel:.4f}, worst ||B|| error {worst_b:.2e}, "
                   f"worst |det(A+B)| {worst_det:.2e}"),
        "marker": "exact",
    })
    if failures:
        report.status = "verification_fail"


# ---------------------------------------------------------------------------
# radius verification pipeline


def _check(report: RunReport, inequality: str, passed: bool, slack: float, detail: str):
    report.checks.append({"inequality": inequality, "passed": bool(passed),
                          "slack": float(slack), "detail": detail,
                          "marker": "exact"})


def _check_build(report: RunReport, inequality: str, slack: float, build, detail,
                 F, base, ctx, ladder, keep: bool = False, refused: str = "refused",
                 refused_slack: float | None = None):
    """Check that build() gives a perturbation that verify_builder passes.

    detail(rep) words a finished build; keep puts it in report.builder. A
    WitnessError is a failed check whose detail starts with refused.
    """
    try:
        rep = verify_builder(build(), F, base, ladder, ctx)
        _check(report, inequality, rep.passed, slack, detail(rep))
        if keep:
            report.builder = _builder_dict(rep)
    except WitnessError as err:
        _check(report, inequality, False, slack if refused_slack is None else refused_slack,
               f"{refused}: {err}")


def _check_refusal(report: RunReport, inequality: str, slack: float, attempt, marker: str):
    """Check that attempt() raises a WitnessError holding marker; its text is the detail."""
    try:
        attempt()
    except WitnessError as err:
        _check(report, inequality, marker in str(err), slack, str(err))
    else:
        _check(report, inequality, False, slack, "a witness below gamma was found")


def _pipeline_identity(config, F, base, ctx, ladder, report: RunReport):
    srg = estimate_srg(F, base, ladder, ctx)
    report.estimates.append(_est_row(srg, {"value": 1.0, "provenance": "closed form"}))
    slack = abs(srg.reported - 1.0)
    _check(report, "strong subregularity radius = ssrg = srg (equality, estimate side)",
           slack <= 0.02, slack, f"estimated srg {srg.reported:.4f} against the exact 1")

    _check_build(report, "radius upper bound: calm destabilizer exists for gamma = 1.1 > ssrg",
                 1.1 - 1.0, lambda: build_ssr_destabilizer(F, base, 1.1, ladder, ctx),
                 lambda rep: (f"clm estimate {rep.modulus_estimate:.4f} < 1.1; "
                              f"perturbed ssrg per-scale min "
                              f"{min(v for _, v in rep.destabilization):.1e}"),
                 F, base, ctx, ladder, keep=True, refused="build refused", refused_slack=0.1)

    _check_refusal(report, "radius lower bound: no destabilizer below gamma = 0.9 < ssrg",
                   1.0 - 0.9, lambda: build_ssr_destabilizer(F, base, 0.9, ladder, ctx),
                   "no destabilizer below gamma")

    worst = math.inf
    for i in range(5):
        fe, fg, a, b = random_calm_perturbation(derive_seed(config.seed, 173, i))
        G = sum_with_function(F, make_function_graph(fe, grad=fg), name="identity+calm")
        est = estimate_ssrg(G, base, ladder, ctx)
        worst = min(worst, est.reported)
    _check(report, "stability side: clm f < ssrg keeps the perturbed ssrg positive",
           worst >= 0.05, worst - 0.05,
           f"5 seeded calm perturbations with |a|+|b| <= 0.85; min perturbed ssrg {worst:.4f}")


def _pipeline_xsin(config, F, base, ctx, ladder, report: RunReport):
    consts = estimate_all_constants(F, base, ladder, ctx)
    for name in ("srg2", "srg2p", "srg4", "srg4p"):
        report.estimates.append(_est_row(consts[name]))
    slack = abs(consts["srg4p"].reported - 1.0)
    _check(report, "fclm+ss* radius lower bound: srg4p = 1",
           slack <= 0.05 and abs(consts["srg4"].reported - 1.0) <= 0.05, slack,
           f"srg4 {consts['srg4'].reported:.4f}, srg4p {consts['srg4p'].reported:.4f}")

    slack2 = consts["srg2"].reported
    _check(report, "plain fclm radius collapses: srg2 = 0",
           slack2 <= 0.02, slack2, f"srg2 {slack2:.2e} with witnesses near 1/(k pi)")

    _check_build(report, "fclm destabilizer with modulus gamma = 0.1 builds and verifies", 0.1,
                 lambda: build_fclm_perturbation(
                     extract_witness(F, base, "fclm", 0.1, ladder, ctx), 0.1),
                 lambda rep: f"clm estimate {rep.modulus_estimate:.2e}", F, base, ctx, ladder)
    _check_build(report, "fclm+ss* radius upper bound: destabilizer at gamma = 1.05 > srg4p", 0.05,
                 lambda: build_ss_perturbation(
                     extract_witness(F, base, "ss", 1.05, ladder, ctx), 1.05),
                 lambda rep: f"case {rep.case} build, semismooth verdict {rep.semismooth_verdict}",
                 F, base, ctx, ladder, keep=True)


def _pipeline_interval(config, F, base, ctx, ladder, report: RunReport):
    consts = estimate_all_constants(F, base, ladder, ctx)
    for name in ("srg2", "srg2p"):
        report.estimates.append(_est_row(consts[name]))
    slack = max(abs(consts["srg2"].reported - 1.0), abs(consts["srg2p"].reported - 1.0))
    _check(report, "fclm radius lower bound: srg2 = srg2p = 1",
           slack <= 0.02, slack,
           f"srg2 {consts['srg2'].reported:.4f}, srg2p {consts['srg2p'].reported:.4f}")

    ssrg = estimate_ssrg(F, base, ladder, ctx)
    report.estimates.append(_est_row(ssrg))
    _check(report, "strong subregularity fails: ssrg = 0 along x = 1/k",
           ssrg.reported <= 0.02 and len(ssrg.witnesses) > 0, ssrg.reported,
           f"ssrg {ssrg.reported:.2e} with {len(ssrg.witnesses)} exact witnesses")

    _check_build(report, "fclm radius upper bound: destabilizer at gamma = 1.2 > srg2p", 0.2,
                 lambda: build_fclm_perturbation(
                     extract_witness(F, base, "fclm", 1.2, ladder, ctx), 1.2),
                 lambda rep: f"clm estimate {rep.modulus_estimate:.4f}", F, base, ctx, ladder)

    _check_refusal(report, "fclm radius lower bound: no witness below gamma = 0.8 < srg2p",
                   1.0 - 0.8, lambda: extract_witness(F, base, "fclm", 0.8, ladder, ctx),
                   "no witness below gamma")


def _pipeline_zero(config, F, base, ctx, ladder, report: RunReport):
    srg = estimate_srg(F, base, ladder, ctx)
    report.estimates.append(_est_row(srg))
    flagged = math.isinf(srg.reported) and "empty quotient set" in srg.note
    _check(report, "subregularity degenerates: srg = +inf on an empty quotient set",
           flagged, 0.0, srg.note or "no flag")

    _check_build(report, "lip radius equals 0: destabilizer builds at gamma = 0.01", 0.01,
                 lambda: build_lip_perturbation(
                     extract_witness(F, base, "lip", 0.01, ladder, ctx), 0.01),
                 lambda rep: f"lip estimate {rep.modulus_estimate:.2e}", F, base, ctx, ladder)


# the radius checks of each catalog map with known reference values; every
# PASS/FAIL line names the inequality it instantiates and the measured slack
_PIPELINES = {
    "identity": _pipeline_identity,
    "xsin": _pipeline_xsin,
    "interval": _pipeline_interval,
    "zero": _pipeline_zero,
}


# ---------------------------------------------------------------------------
# catalog listing and report writers


def list_catalog() -> str:
    lines = ["id                    dims   base point"]
    for mid, e in catalog().items():
        F = e.make()
        bx = np.array2string(np.zeros(F.dim_x), precision=3)
        by = np.array2string(np.zeros(F.dim_y), precision=3)
        lines.append(f"{mid:<21} {F.dim_x}->{F.dim_y}   x={bx} y={by}")
        for name, kv in e.known.items():
            lines.append(f"    {name:<7} = {kv['value']:<8g} [{kv['provenance']}]")
        if e.notes:
            lines.append(f"    note: {e.notes}")
    return "\n".join(lines)


def _atomic_write(path: str, data: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _csv_text(payload: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["estimate", "scale_index", "radius", "value"])
    for est in payload.get("estimates", []):
        for i, (r, v) in enumerate(est["per_scale"]):
            w.writerow([est["name"], i, r, v])
    builder = payload.get("builder") or {}
    for i, (r, v) in enumerate(builder.get("destabilization", [])):
        w.writerow(["destabilization", i, r, v])
    ss = payload.get("semismooth") or {}
    for i, row in enumerate(ss.get("per_scale", [])):
        w.writerow(["semismooth_worst_quotient", i, row[0], row[1]])
    return buf.getvalue()


def _summary_text(payload: dict) -> str:
    lines = [f"map={payload['map_name']} task={payload['task']} "
             f"hash={payload['config_hash'][:16]} status={payload['status']}"]
    for est in payload.get("estimates", []):
        mark = "converged" if est["converged"] else est["trend"]
        extra = ""
        if "known" in est:
            extra = f"  known={est['known']} [{est.get('provenance', '')}]"
        lines.append(f"  {est['name']:<8} reported={est['reported']} ({mark}){extra}")
    rel = payload.get("relations")
    if rel:
        for row in rel["relations"]:
            lines.append(f"  {'PASS' if row['ok'] else 'FAIL'} {row['relation']} "
                         f"(violation {row['violation']})")
        for row in rel["consistency"]:
            lines.append(f"  {'PASS' if row['ok'] else 'FAIL'} {row['check']} "
                         f"(deviation {row['deviation']})")
    ss = payload.get("semismooth")
    if ss:
        lines.append(f"  semismooth* verdict: {ss['verdict']} ({ss['note']})")
    builder = payload.get("builder")
    if builder:
        if "refused" in builder:
            lines.append(f"  build refused: {builder['refused']}")
        else:
            lines.append(
                f"  builder {builder['class_tag']} gamma={builder['gamma']}: "
                f"{'PASS' if builder['passed'] else 'FAIL'} "
                f"(interpolation {builder['interpolation_max_err']}, "
                f"gradient relerr {builder['gradient_max_relerr']}, "
                f"modulus {builder['modulus_estimate']})")
    for c in payload.get("checks", []):
        lines.append(f"  {'PASS' if c['passed'] else 'FAIL'} {c['inequality']} "
                     f"(slack {c['slack']:.4g})")
    for a in payload.get("alarms", []):
        lines.append(f"  ALARM {a}")
    return "\n".join(lines) + "\n"


def _cache_path(config: ExperimentConfig) -> str:
    # the code version and payload schema keep payloads of other code apart
    name = f"{config.digest()}-v{__version__}-p{PAYLOAD_SCHEMA}.json"
    return os.path.join(config.output, "cache", name)


def _read_cache(path: str, config: ExperimentConfig) -> dict | None:
    """The cached payload of config, or None for a missing, unreadable or
    corrupt file: one that is not a JSON object holding config's hash and
    every key of a payload."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    keys = {f.name for f in dataclasses.fields(RunReport)} - {"timings"}
    ok = isinstance(payload, dict) and payload.get("config_hash") == config.digest()
    return payload if ok and keys <= payload.keys() else None


def run_with_cache(config: ExperimentConfig) -> tuple[dict, bool]:
    """Return (payload, from_cache); caches the deterministic payload.

    The three output files are (re)written on every call, cached or not, so
    the artifacts always reflect the requested config. Timings appear in
    report.json only for fresh runs; a cache hit did no numeric work. A
    cache file that cannot be read as a payload is recomputed and rewritten.
    """
    cpath = _cache_path(config)
    timings = None
    payload = _read_cache(cpath, config) if config.cache else None
    hit = payload is not None
    if not hit:
        report = run(config)
        payload = report.payload()
        timings = _sanitize(report.timings)
        os.makedirs(os.path.dirname(cpath), exist_ok=True)
        _atomic_write(cpath, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    full = dict(payload)
    if timings is not None:
        full["timings"] = timings
    os.makedirs(config.output, exist_ok=True)
    _atomic_write(os.path.join(config.output, "report.json"),
                  json.dumps(full, indent=2, sort_keys=True) + "\n")
    _atomic_write(os.path.join(config.output, "per_scale.csv"), _csv_text(payload))
    _atomic_write(os.path.join(config.output, "summary.txt"), _summary_text(payload))
    return payload, hit


def _emit(payload: dict, fmt: str):
    if fmt == "full":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        sys.stdout.write(_csv_text(payload))
    else:
        sys.stdout.write(_summary_text(payload))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="subreglab",
        description="Estimate regularity moduli and build destabilizing perturbations.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute an experiment config")
    runp.add_argument("config_path")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--depth", type=int, default=None)
    runp.add_argument("--samples", type=int, default=None)
    runp.add_argument("--out", default=None)
    runp.add_argument("--no-cache", action="store_true")
    runp.add_argument("--format", choices=("full", "csv", "summary"), default=None)
    sub.add_parser("catalog", help="list the built-in maps and known values")
    args = parser.parse_args(argv)

    if args.command == "catalog":
        print(list_catalog())
        return 0

    try:
        with open(args.config_path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as err:
        print(json.dumps({"error": {"kind": "config", "message": str(err)}}, indent=2))
        return 2

    overrides = {"seed": args.seed, "depth": args.depth, "samples": args.samples,
                 "output": args.out, "format": args.format}
    if args.no_cache:
        overrides["cache"] = False
    try:
        config = parse_config(raw, overrides)
    except ConfigError as err:
        print(json.dumps({"error": {"kind": "config", "message": str(err)}}, indent=2))
        return 2

    try:
        payload, _ = run_with_cache(config)
    except ConfigError as err:
        print(json.dumps({"error": {"kind": "config", "message": str(err)}}, indent=2))
        return 2
    except Exception as err:  # internal inconsistency alarm
        print(json.dumps({"error": {"kind": "internal", "type": type(err).__name__,
                                    "message": str(err)}}, indent=2))
        return 4

    _emit(payload, config.format)
    status = payload.get("status", "ok")
    if status == "verification_fail":
        return 3
    if status == "inconsistency":
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
