"""Desk-scale acceptance runs for the whole package.

Each test reproduces one headline behavior end to end at ladder depth 12
with seed 7. The computations are shared with the determinism test through
a module-level cache, and every report is reduced to a canonical hex-float
form so "identical" means bit-identical, not approximately equal.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import ladder12, setup_map
from subreglab.geometry import NormContext, ScaleLadder, derive_seed
from subreglab.mappings import GraphPoint, _rows, catalog, make_function_graph, sum_with_function
from subreglab.moduli import (
    check_relations,
    eckart_young_check,
    estimate_all_constants,
    estimate_clm,
    estimate_rg,
    estimate_srg,
    estimate_ssrg,
)
from subreglab.perturb import (
    WitnessError,
    build_fclm_perturbation,
    build_lip_perturbation,
    build_ss_perturbation,
    build_ssr_destabilizer,
    extract_witness,
    verify_builder,
)
from subreglab.variational import positive_homogeneity_test, semismooth_star_test

SEED = 7


# --- canonical serialization: reports compare bitwise or not at all


def _canon(obj):
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_canon(float(v)) for v in obj.ravel()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj.hex()
    return obj


def _dump(report: dict) -> str:
    return json.dumps(_canon(report), sort_keys=True)


def _est_snapshot(est) -> dict:
    return {
        "name": est.name,
        "per_scale": [[r, v] for r, v in est.per_scale],
        "reported": est.reported,
        "trend": est.trend,
        "converged": est.converged,
        "note": est.note,
        "witnesses": est.witnesses,
    }


def _verify_snapshot(rep) -> dict:
    return {
        "class_tag": rep.class_tag,
        "gamma": rep.gamma,
        "gamma_dp": rep.gamma_dp,
        "case": rep.case,
        "passed": rep.passed,
        "interpolation_max_err": rep.interpolation_max_err,
        "base_value_err": rep.base_value_err,
        "gradient_max_relerr": rep.gradient_max_relerr,
        "modulus_estimate": rep.modulus_estimate,
        "modulus_ok": rep.modulus_ok,
        "destabilization": [[r, v] for r, v in rep.destabilization],
        "destabilization_ok": rep.destabilization_ok,
        "semismooth_verdict": rep.semismooth_verdict,
        "homogeneity_ok": rep.homogeneity_ok,
        "firmly_calm_ok": rep.firmly_calm_ok,
        "notes": list(rep.notes),
    }


# --- criterion computations (pure functions of the fixed seed)


def _compute_identity() -> dict:
    F, base, ctx = setup_map("identity")
    lad = ladder12(SEED)
    out = {}
    out["rg"] = _est_snapshot(estimate_rg(F, base, lad, ctx))
    out["srg"] = _est_snapshot(estimate_srg(F, base, lad, ctx))
    out["ssrg"] = _est_snapshot(estimate_ssrg(F, base, lad, ctx))
    consts = estimate_all_constants(F, base, lad, ctx)
    for name in ("srg1", "srg2", "srg4", "srg1p"):
        out[name] = _est_snapshot(consts[name])
    return out


def _compute_zero() -> dict:
    F, base, ctx = setup_map("zero")
    lad = ladder12(SEED)
    out = {"srg": _est_snapshot(estimate_srg(F, base, lad, ctx))}
    consts = estimate_all_constants(F, base, lad, ctx)
    for name in ("srg1", "srg1p", "srg2"):
        out[name] = _est_snapshot(consts[name])
    builds = {}
    for gamma in (0.01, 0.02, 0.1, 0.5, 1.0, 5.0):
        w = extract_witness(F, base, "lip", gamma, lad, ctx)
        p = build_lip_perturbation(w, gamma)
        builds[str(gamma)] = _verify_snapshot(verify_builder(p, F, base, lad, ctx))
    out["lip_builds"] = builds
    return out


def _compute_xsin() -> dict:
    F, base, ctx = setup_map("xsin")
    lad = ladder12(SEED)
    consts = estimate_all_constants(F, base, lad, ctx)
    out = {name: _est_snapshot(consts[name]) for name in ("srg2", "srg4", "srg4p")}
    w = extract_witness(F, base, "fclm", 0.1, lad, ctx)
    p = build_fclm_perturbation(w, 0.1)
    out["fclm_build"] = _verify_snapshot(verify_builder(p, F, base, lad, ctx))
    return out


def _compute_interval() -> dict:
    F, base, ctx = setup_map("interval")
    lad = ladder12(SEED)
    consts = estimate_all_constants(F, base, lad, ctx)
    return {
        "srg2": _est_snapshot(consts["srg2"]),
        "ssrg": _est_snapshot(estimate_ssrg(F, base, lad, ctx)),
    }


def _compute_relations() -> dict:
    out = {}
    for mid in sorted(catalog()):
        F, base, ctx = setup_map(mid)
        lad = ladder12(SEED)
        consts = estimate_all_constants(F, base, lad, ctx)
        out[mid] = check_relations(consts)
    return out


_BUILDER_SUITE = [("square", 0.5), ("xsin", 1.5), ("zero", 0.01), ("identity", 2.5)]


def _compute_builder_suite() -> dict:
    out = {}
    for mid, gamma in _BUILDER_SUITE:
        F, base, ctx = setup_map(mid)
        lad = ladder12(SEED)
        w = extract_witness(F, base, "lip", gamma, lad, ctx)
        p = build_lip_perturbation(w, gamma)
        out[mid] = _verify_snapshot(verify_builder(p, F, base, lad, ctx))
    # the one case-1 construction in the catalog: a homogeneous cone
    F, base, ctx = setup_map("spiral")
    lad = ladder12(SEED)
    w = extract_witness(F, base, "ss", 0.5, lad, ctx)
    p = build_ss_perturbation(w, 0.5)
    ok, err = positive_homogeneity_test(p.eval, base.x, ctx.kind)
    out["case1"] = {"map": "spiral", "case": p.case,
                    "homogeneous": ok, "rel_err": err}
    return out


def _compute_ssr() -> dict:
    F, base, ctx = setup_map("identity")
    lad = ladder12(SEED)
    out = {"builds": {}, "refusals": {}, "calm": []}
    for gamma in (1.05, 1.2):
        p = build_ssr_destabilizer(F, base, gamma, lad, ctx)
        snap = _verify_snapshot(verify_builder(p, F, base, lad, ctx))
        out["builds"][str(gamma)] = snap
    for gamma in (0.5, 0.9):
        try:
            build_ssr_destabilizer(F, base, gamma, lad, ctx)
            out["refusals"][str(gamma)] = "BUILT"
        except WitnessError as err:
            out["refusals"][str(gamma)] = str(err)
    from subreglab.perturb import random_calm_perturbation

    fbase = GraphPoint(base.x, np.zeros(1))
    for i in range(20):
        fe, fg, a, b = random_calm_perturbation(derive_seed(SEED, 173, i))
        fgraph = make_function_graph(fe, grad=fg, dim_x=1, dim_y=1,
                                     kind="l1", name="calm")
        clm = estimate_clm(fgraph, fbase, lad, ctx).reported
        G = sum_with_function(F, fgraph, name="identity+calm")
        ssrg = estimate_ssrg(G, base, lad, ctx).reported
        out["calm"].append({"i": i, "a": a, "b": b, "clm": clm, "ssrg": ssrg})
    return out


def _oscillating_oracle_floors() -> list:
    """Brute-force semismoothness quotients of x sin(ln|x|), no package code.

    At smooth points the coderivative is the line (f'(x) s, s); the defect
    quotient reduces to |f'(x) x - f(x)| over the product of point and dual
    norms. A uniform positive floor across every dyadic shell certifies
    that no quotient decay is possible.
    """
    floors = []
    for j in range(12):
        r = 0.5 * 0.5 ** j
        worst = 0.0
        for xv in np.linspace(0.5 * r, r, 2001):
            th = math.log(xv)
            y = xv * math.sin(th)
            d = math.sin(th) + math.cos(th)
            num = abs(d * xv - y)
            den = (abs(xv) + abs(y)) * (abs(d) + 1.0)
            worst = max(worst, num / den)
        floors.append(worst)
    return floors


def _compute_semismooth() -> dict:
    out = {"oracle_floors": _oscillating_oracle_floors(), "verdicts": {}}
    lad = ladder12(SEED)
    for mid in ("compl_angle", "abs", "square"):
        F, base, ctx = setup_map(mid)
        rep = semismooth_star_test(F, base, lad, ctx)
        out["verdicts"][mid] = {"verdict": rep.verdict, "scales": rep.scales,
                                "worst_witness": rep.worst_witness}
    # every case-1 built perturbation joins the pass side
    F, base, ctx = setup_map("spiral")
    w = extract_witness(F, base, "ss", 0.5, lad, ctx)
    p = build_ss_perturbation(w, 0.5)
    fgraph = make_function_graph(_rows(p.eval, p.dim_y), grad=p.derivative, dim_x=p.dim_x,
                                 dim_y=p.dim_y, kind="l1", name="cone")
    fbase = GraphPoint(base.x, np.zeros(p.dim_y))
    ctx1 = NormContext(kind="l1", dim_x=p.dim_x, dim_y=p.dim_y)
    rep = semismooth_star_test(fgraph, fbase, lad, ctx1)
    out["verdicts"]["case1_cone"] = {"verdict": rep.verdict, "case": p.case,
                                     "scales": rep.scales, "worst_witness": rep.worst_witness}
    F, base, ctx = setup_map("oscillating")
    rep = semismooth_star_test(F, base, lad, ctx)
    out["verdicts"]["oscillating"] = {"verdict": rep.verdict, "scales": rep.scales,
                                      "worst_witness": rep.worst_witness}
    return out


def _compute_eckart() -> dict:
    rng = np.random.default_rng(derive_seed(SEED, 151))
    rows = []
    for i in range(50):
        q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        s = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=3))
        A = q1 @ np.diag(np.sort(s)[::-1]) @ q2.T
        res = eckart_young_check(A, seed=derive_seed(SEED, 151, i))
        rows.append(res)
    return {"rows": rows}


_COMPUTE = {
    "identity": _compute_identity,
    "zero": _compute_zero,
    "xsin": _compute_xsin,
    "interval": _compute_interval,
    "relations": _compute_relations,
    "builders": _compute_builder_suite,
    "ssr": _compute_ssr,
    "semismooth": _compute_semismooth,
    "eckart": _compute_eckart,
}

_REPORTS: dict = {}


def _report(name: str) -> dict:
    if name not in _REPORTS:
        _REPORTS[name] = _COMPUTE[name]()
    return _REPORTS[name]


# --- the criteria


def test_criterion_1_identity_constants():
    rep = _report("identity")
    for name in ("rg", "srg", "ssrg", "srg1", "srg2", "srg4"):
        assert abs(rep[name]["reported"] - 1.0) <= 0.02, name
    assert abs(rep["srg1p"]["reported"] - 2.0) <= 0.04


def test_criterion_2_zero_map():
    rep = _report("zero")
    assert math.isinf(rep["srg"]["reported"])
    assert "empty quotient set" in rep["srg"]["note"]
    for name in ("srg1", "srg1p", "srg2"):
        assert abs(rep[name]["reported"]) <= 0.01, name
    for gamma, snap in rep["lip_builds"].items():
        assert snap["passed"], gamma
        assert snap["destabilization_ok"], gamma


def test_criterion_3_xsin():
    rep = _report("xsin")
    assert abs(rep["srg4"]["reported"] - 1.0) <= 0.05
    assert abs(rep["srg4p"]["reported"] - 1.0) <= 0.05
    assert rep["srg2"]["reported"] <= 0.02
    witnesses = rep["srg2"]["witnesses"]
    assert witnesses
    for w in witnesses:
        xv = float(np.atleast_1d(w["x"])[0])
        k = round(1.0 / (math.pi * xv))
        assert k >= 1
        assert abs(xv - 1.0 / (k * math.pi)) <= 1e-6 * xv
    assert rep["fclm_build"]["passed"]


def test_criterion_4_interval():
    rep = _report("interval")
    assert abs(rep["srg2"]["reported"] - 1.0) <= 0.02
    assert rep["ssrg"]["reported"] == 0.0
    witnesses = rep["ssrg"]["witnesses"]
    assert witnesses
    for w in witnesses:
        xv = float(np.atleast_1d(w["x"])[0])
        k = round(1.0 / xv)
        assert k >= 1
        assert abs(xv - 1.0 / k) <= 1e-9 * xv


def test_criterion_5_relation_suite():
    rep = _report("relations")
    assert set(rep) == set(catalog())
    for mid, rel in rep.items():
        assert rel["ok"], mid
        for row in rel["relations"]:
            assert row["ok"], (mid, row)
            assert row["violation"] == 0.0, (mid, row)
        for row in rel["consistency"]:
            assert row["ok"], (mid, row)
            assert row["deviation"] <= 0.05, (mid, row)


def test_criterion_6_builder_guarantees():
    rep = _report("builders")
    for mid, _ in _BUILDER_SUITE:
        snap = rep[mid]
        assert snap["passed"], (mid, snap["notes"])
        assert snap["interpolation_max_err"] == 0.0, mid
        assert snap["base_value_err"] == 0.0, mid
        assert snap["gradient_max_relerr"] <= 1e-5, mid
        assert snap["modulus_estimate"] <= snap["gamma"], mid
        vals = [v for _, v in snap["destabilization"] if not math.isinf(v)]
        assert vals[-1] <= 0.05, mid
        tail = vals[-3:]
        assert all(b <= a for a, b in zip(tail, tail[1:])), (mid, tail)
    case1 = rep["case1"]
    assert case1["case"] == 1
    assert case1["homogeneous"]
    assert case1["rel_err"] <= 1e-12


def test_criterion_7_ssr_destabilizer():
    rep = _report("ssr")
    for gamma in ("1.05", "1.2"):
        snap = rep["builds"][gamma]
        assert snap["passed"], (gamma, snap["notes"])
        assert snap["gamma_dp"] < float(gamma)  # the calm constant of f
        assert snap["modulus_estimate"] < float(gamma)
        vals = [v for _, v in snap["destabilization"]]
        assert vals[-1] == 0.0  # exactly zero at the witnesses
        assert snap["destabilization_ok"]
    for gamma in ("0.5", "0.9"):
        assert "no destabilizer below gamma" in rep["refusals"][gamma]
    assert len(rep["calm"]) == 20
    for row in rep["calm"]:
        assert row["clm"] < 0.9, row
        assert row["ssrg"] >= 0.05, row


def test_criterion_8_semismooth_suite():
    rep = _report("semismooth")
    # the brute-force oracle certifies the counterexample before any
    # package machinery touches it: quotients never drop below 0.1
    floors = rep["oracle_floors"]
    assert len(floors) == 12
    assert all(f >= 0.1 for f in floors), floors
    for mid in ("compl_angle", "abs", "square", "case1_cone"):
        assert rep["verdicts"][mid]["verdict"] == "pass", mid
    assert rep["verdicts"]["case1_cone"]["case"] == 1
    assert rep["verdicts"]["oscillating"]["verdict"] == "fail"
    # every scale (delta, worst quotient, element count) and the worst
    # witness of each case, floats as hex, in semismooth_pins.json
    got = {mid: {k: v[k] for k in ("scales", "worst_witness")}
           for mid, v in _canon(rep["verdicts"]).items()}
    assert got == json.loads((Path(__file__).parent / "semismooth_pins.json").read_text())


def test_criterion_9_eckart_young():
    rep = _report("eckart")
    assert len(rep["rows"]) == 50
    for res in rep["rows"]:
        assert res["b_norm_error"] <= 1e-10
        assert abs(res["det_after"]) <= 1e-10
        assert res["rg_rel_error"] <= 0.05
        assert res["ok"]


def test_criterion_10_determinism():
    """Re-running every criterion with the same seeds reproduces every bit.

    This repeats the full computation behind criteria 1 through 9, so it
    costs as much as the rest of the module combined.
    """
    for name, compute in _COMPUTE.items():
        first = _dump(_report(name))
        second = _dump(compute())
        assert first == second, f"{name} report is not bit-stable"
