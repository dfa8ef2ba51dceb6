"""Scale-resolved estimators for regularity moduli and primal-dual constants.

Estimators share one sampling discipline: a ScaleLadder fixes annuli
r_{j+1} < ||x - xb|| <= r_j, quantities are computed per annulus, and the
scale-j value pools every annulus at or inside scale j (nested pools). For
liminf-type quantities the pooled value is a min and decreases with j by
construction; for limsup-type quantities it is a max. The reported value is
the innermost scale's.

Primal-dual constants are infima over coderivative element pools. The
eligibility filters at scale r are:

  srg1, srg1p, srg2         element defect eps <= r
  srg2p                     additionally eps * ||x*|| <= r
  srg3, srg4                additionally the base defect quotient q <= r
  srg4p                     both guards

with objectives max(ratio, ||x*||) for srg1/srg3, ratio for srg2/srg4 and
their plus variants, and ratio + ||x*|| for srg1p. On analytic pools
(eps = 0) the guards are vacuous, so the plus variants coincide with their
base forms except srg1p, whose objective genuinely differs. hatsrg and
hatsrgp are srg1 and srg1p, bit for bit: they were meant to cross-check
them direction by direction, but the min over primal-direction buckets of
each bucket's min is the overall min, so the |srg1 - hatsrg| and
|srg1p - hatsrgp| consistency rows of check_relations always read 0.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import NormContext, ScaleLadder, norm, sample_annulus
from .mappings import (
    GraphPoint,
    SetValuedMap,
    graph_annuli,
    preimage_distance_fallback,
    preimage_distances_fallback,
)
# element_quotient is not called here (build_element_pool shares its
# per-point parts through defect_quotient); it stays importable from moduli
# because perfbench's layer trace counts calls through moduli.element_quotient
from .variational import (  # noqa: F401
    CoderivElement,
    defect_quotient,
    element_quotient,
    elements_at_point,
)

__all__ = [
    "Estimate",
    "ElementRecord",
    "CONSTANT_KINDS",
    "build_element_pool",
    "estimate_clm",
    "estimate_lip",
    "estimate_rg",
    "estimate_srg",
    "estimate_ssrg",
    "estimate_constant",
    "estimate_all_constants",
    "check_relations",
    "subregularity_consistency",
    "eckart_young_check",
]

CONSTANT_KINDS = ("srg1", "srg2", "srg3", "srg4", "srg1p", "srg2p", "srg4p", "hatsrg", "hatsrgp")


@dataclass
class Estimate:
    """A per-scale estimate of one modulus or constant.

    per_scale holds (radius, value) pairs from the outermost scale inward;
    reported is the innermost value. converged compares the last two scales
    against max(1e-3, 0.02 * |last|).
    """

    name: str
    per_scale: list = field(default_factory=list)
    reported: float = math.nan
    trend: str = "unknown"
    converged: bool = False
    note: str = ""
    witnesses: list = field(default_factory=list)
    pool_id: str = ""

    def finalize(self):
        vals = [v for _, v in self.per_scale]
        self.reported = vals[-1] if vals else math.nan
        self.trend = _trend(vals)
        self.converged = _converged(vals)
        return self


def _trend(vals: list[float]) -> str:
    vals = [v for v in vals if not math.isnan(v)]
    if len(vals) < 2:
        return "unknown"
    up = down = False
    for a, b in zip(vals, vals[1:]):
        if math.isinf(a) and math.isinf(b):
            continue
        tol = 1e-9 * max(1.0, abs(a) if not math.isinf(a) else 1.0)
        d = b - a if not (math.isinf(a) or math.isinf(b)) else (-1.0 if math.isinf(a) else 1.0)
        if d > tol:
            up = True
        elif d < -tol:
            down = True
    if up and down:
        return "oscillating"
    if up:
        return "increasing"
    if down:
        return "decreasing"
    return "flat"


def _converged(vals: list[float]) -> bool:
    vals = [v for v in vals if not math.isnan(v)]
    if len(vals) < 2:
        return False
    a, b = vals[-2], vals[-1]
    if math.isinf(a) and math.isinf(b):
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(b - a) <= max(1e-3, 0.02 * abs(b))


def _graph_pool(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder, tag: int,
                extra_points: list[GraphPoint] | None = None) -> list[list[GraphPoint]]:
    """Graph points per annulus (outermost first), features and extras included."""
    extras = list(extra_points or [])
    pools: list[list[GraphPoint]] = []
    for _, inner, outer, pts in graph_annuli(F, base, ladder, tag):
        pts.extend(p for p in extras if inner < norm(p.x - base.x, F.kind) <= outer)
        pools.append(pts)
    return pools


def _pool_scales(per_annulus: list[list[float]], ladder: ScaleLadder, largest: bool = False,
                 empty: float = math.nan) -> tuple[list[tuple[float, float]], tuple | None]:
    """Nested pooling: scale j takes the min (max when largest) over annuli j and inward.

    The running value is carried from the innermost annulus outward. NaN
    never wins a comparison and the first value met keeps a tie. A scale
    reads empty until a value has been met; for a max, only a value that
    raised it counts as met. Returns the (radius, value) pairs, outermost
    first, and the (annulus, index) of the overall winner, or None.
    """
    acc = -math.inf if largest else math.inf
    met, win = False, None
    pooled = [empty] * ladder.depth
    for j in range(ladder.depth - 1, -1, -1):
        for i, v in enumerate(per_annulus[j]):
            if (v > acc) if largest else (v < acc):
                acc, win = v, (j, i)
            met = met or not largest or win is not None
        if met:
            pooled[j] = acc
    return [(ladder.radius(j), pooled[j]) for j in range(ladder.depth)], win


# ---------------------------------------------------------------------------
# moduli of single quantities


def estimate_clm(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder, ctx: NormContext,
                 extra_points: list[GraphPoint] | None = None) -> Estimate:
    """Calmness: limsup of d(y, F(xb)) / ||x - xb|| over graph points."""
    pools = _graph_pool(F, base, ladder, 31, extra_points)
    per_annulus: list[list[float]] = []
    for pts in pools:
        vals = []
        for p in pts:
            t = ctx.norm(p.x - base.x)
            if t == 0.0:
                continue
            vals.append(F.image_distance(base.x, p.y) / t)
        per_annulus.append(vals)
    est = Estimate(name="clm")
    est.per_scale, _ = _pool_scales(per_annulus, ladder, largest=True)
    return est.finalize()


def estimate_lip(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder, ctx: NormContext,
                 extra_points: list[GraphPoint] | None = None,
                 max_pairs: int = 400) -> Estimate:
    """Lipschitz modulus via two-point slopes of graph points per annulus.

    Pairs are nearest neighbors in sample order after a 1-D sort (or a
    stride pattern in higher dimension) plus pairs against the base, so the
    estimate dominates calmness by construction.
    """
    pools = _graph_pool(F, base, ladder, 37, extra_points)
    per_annulus: list[list[float]] = []
    for pts in pools:
        vals = []
        for p in pts:
            t = ctx.norm(p.x - base.x)
            if t > 0.0:
                vals.append(F.image_distance(base.x, p.y) / t)
        if F.dim_x == 1:
            pts = sorted(pts, key=lambda p: float(p.x[0]))
            pairs = list(zip(pts, pts[1:]))
        else:
            pairs = list(zip(pts, pts[1:])) + list(zip(pts, pts[7:]))
        for p, q in pairs[:max_pairs]:
            sep = ctx.norm(p.x - q.x)
            if sep <= 1e-14 * max(1.0, ctx.norm(p.x - base.x)):
                continue
            vals.append(F.image_distance(q.x, p.y) / sep)
            vals.append(F.image_distance(p.x, q.y) / sep)
        per_annulus.append([v for v in vals if not math.isinf(v)])
    est = Estimate(name="lip")
    est.per_scale, _ = _pool_scales(per_annulus, ladder, largest=True)
    return est.finalize()


def _preimage_distances(F: SetValuedMap, xs: list, ys: list) -> list[float]:
    """d(x, F^{-1}(y)) for each pair: the map's oracle if it has one, else
    the batched fallback for scalar function graphs, else the per-pair one."""
    if F.preimage_distance is not None:
        return [F.preimage_distance(x, y) for x, y in zip(xs, ys)]
    if F.func is not None and F.dim_x == 1 and F.dim_y == 1:
        return preimage_distances_fallback(F, xs, ys).tolist()
    return [preimage_distance_fallback(F, x, y) for x, y in zip(xs, ys)]


def estimate_rg(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder, ctx: NormContext,
                pairs_per_scale: int | None = None) -> Estimate:
    """Metric regularity: liminf of d(y, F(x)) / d(x, F^{-1}(y)).

    x and y are drawn from matched annuli around the base; pairs with x in
    the preimage of y are excluded. A pair whose y has an empty preimage
    contributes 0 (such maps are not regular at any rate).
    """
    n = pairs_per_scale or min(ladder.samples_per_scale, 96)
    pairs = []  # (annulus, d(y, F(x)), x, y) of the admissible pairs, in sampling order
    for j, (inner, outer) in enumerate(ladder.annuli()):
        xs = sample_annulus(base.x, inner, outer, n, ladder.scale_seed(j, 41), ctx.kind)
        ys = sample_annulus(base.y, inner, outer, n, ladder.scale_seed(j, 43), ctx.kind)
        for x, y in zip(xs, ys):
            dimg = F.image_distance(x, y)
            if not dimg <= 1e-13 * outer:
                pairs.append((j, dimg, x, y))
    dpres = _preimage_distances(F, [p[2] for p in pairs], [p[3] for p in pairs])
    per_annulus: list[list[float]] = [[] for _ in range(ladder.depth)]
    for (j, dimg, _, _), dpre in zip(pairs, dpres):
        if dpre == 0.0:
            continue
        if math.isinf(dpre):
            if not math.isinf(dimg):
                per_annulus[j].append(0.0)
            continue
        if math.isinf(dimg):
            continue
        per_annulus[j].append(dimg / dpre)
    per_annulus = [[v for v in vals if not math.isnan(v)] for vals in per_annulus]
    est = Estimate(name="rg")
    est.per_scale, _ = _pool_scales(per_annulus, ladder)
    if all(len(v) == 0 for v in per_annulus):
        est.note = "no admissible pairs: every sampled point lies in the preimage"
    return est.finalize()


def estimate_srg(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder, ctx: NormContext,
                 points_per_scale: int | None = None) -> Estimate:
    """Subregularity: liminf of d(yb, F(x)) / d(x, F^{-1}(yb)) for x not in F^{-1}(yb).

    When every sample at every scale lands in the preimage the quotient set
    is empty; the estimate is +inf with an explanatory note (the flag for
    maps like the zero map whose preimage has interior).
    """
    n = points_per_scale or min(ladder.samples_per_scale, 96)
    points = []  # (annulus, d(yb, F(x)), x) of the x off the preimage, in sampling order
    for j, (inner, outer) in enumerate(ladder.annuli()):
        for x in sample_annulus(base.x, inner, outer, n, ladder.scale_seed(j, 47), ctx.kind):
            dimg = F.image_distance(x, base.y)
            if not dimg <= 1e-13 * outer:  # x at or numerically on the preimage is left out
                points.append((j, dimg, x))
    dpres = _preimage_distances(F, [p[2] for p in points], [base.y] * len(points))
    per_annulus: list[list[float]] = [[] for _ in range(ladder.depth)]
    for (j, dimg, _), dpre in zip(points, dpres):
        if dpre == 0.0 or math.isinf(dimg):
            continue
        per_annulus[j].append(dimg / dpre if not math.isinf(dpre) else 0.0)
    est = Estimate(name="srg")
    est.per_scale, _ = _pool_scales(per_annulus, ladder, empty=math.inf)
    if all(len(v) == 0 for v in per_annulus):
        est.note = "empty quotient set: every sampled point lies in the preimage of the base value"
    return est.finalize()


def estimate_ssrg(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder, ctx: NormContext,
                  extra_points: list[GraphPoint] | None = None) -> Estimate:
    """Strong subregularity: liminf of ||y - yb|| / ||x - xb|| over the graph.

    A zero value is reported together with the witnessing graph points
    (distinct x with yb in F(x) arbitrarily close to the base).
    """
    points: list[list[GraphPoint]] = []  # the graph points off the base, per annulus
    per_annulus: list[list[float]] = []
    for pts in _graph_pool(F, base, ladder, 53, extra_points):
        points.append([])
        per_annulus.append([])
        for p in pts:
            t = ctx.norm(p.x - base.x)
            if t == 0.0:
                continue
            points[-1].append(p)
            per_annulus[-1].append(ctx.norm(p.y - base.y) / t)
    est = Estimate(name="ssrg")
    est.per_scale, win = _pool_scales(per_annulus, ladder, empty=math.inf)
    est = est.finalize()
    wits = []
    for pts, vals in zip(points, per_annulus):
        keepers = [p for p, v in zip(pts, vals) if v <= 1e-12]
        wits += [{"x": p.x.tolist(), "y": p.y.tolist(), "ratio": 0.0} for p in keepers[:4]]
    if win is not None and not wits:
        best = points[win[0]][win[1]]
        wits.append({"x": best.x.tolist(), "y": best.y.tolist(), "ratio": est.reported})
    est.witnesses = wits[:16]
    return est


# ---------------------------------------------------------------------------
# element pools and primal-dual constants


@dataclass
class ElementRecord:
    t: float
    ratio: float
    xn: float
    q: float
    eps: float
    annulus: int
    elem: CoderivElement


def build_element_pool(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder,
                       ctx: NormContext, m_ystar: int = 8,
                       extra_elements: list[CoderivElement] | None = None
                       ) -> tuple[list[list[ElementRecord]], str]:
    """Coderivative element records per annulus, plus a pool identifier.

    Elements come from the analytic oracles at sampled graph points and
    feature points; pairs are normalized to unit dual y* (pairs with y* = 0
    cannot be, and are excluded: the constants quantify over unit y*).
    Estimates computed from the same pool share the pool id, which is what
    check_relations uses to refuse cross-pool comparisons.

    The elements of one graph point share x and y, so t, the ratio and the
    product distance of the quotient are computed once per point; every
    value comes from the same geometry call on the same operands as a
    per-element computation would make.
    """
    pools: list[list[ElementRecord]] = []
    h = hashlib.sha256()
    h.update(F.name.encode())
    h.update(ctx.kind.encode())
    h.update(base.x.tobytes() + base.y.tobytes())
    h.update(repr((ladder.r0, ladder.theta, ladder.depth, ladder.samples_per_scale,
                   ladder.seed, m_ystar)).encode())
    extras = list(extra_elements or [])
    for j, inner, outer, pts in graph_annuli(F, base, ladder, 61):
        # (x, y, elements at (x, y)) in record order: sampled points, then extras
        groups = [(gp.x, gp.y, elements_at_point(F, gp, ctx, m_ystar)) for gp in pts]
        groups += [(e.x, e.y, [e]) for e in extras if inner < ctx.norm(e.x - base.x) <= outer]
        recs: list[ElementRecord] = []
        for x, y, elems in groups:
            du = x - base.x
            t = ctx.norm(du)
            if t == 0.0 or not (inner < t <= outer * (1 + 1e-12)):
                continue
            dv = y - base.y
            yn = ctx.norm(dv)
            ratio, dist = yn / t, t + yn  # dist is ctx.product_norm(du, dv)
            for e in elems:
                ysn = ctx.dual_norm(e.y_star)
                if ysn == 0.0:
                    continue
                if abs(ysn - 1.0) > 1e-12:
                    e = CoderivElement(e.x, e.y, e.y_star / ysn, e.x_star / ysn, eps=e.eps)
                    ysn = ctx.dual_norm(e.y_star)
                xn = ctx.dual_norm(e.x_star)
                # max(xn, ysn) is ctx.product_norm_dual(e.x_star, e.y_star)
                q = defect_quotient(e.x_star, e.y_star, du, dv, max(xn, ysn), dist)
                recs.append(ElementRecord(t=t, ratio=ratio, xn=xn, q=q, eps=e.eps,
                                          annulus=j, elem=e))
        pools.append(recs)
    pool_id = h.hexdigest()[:16]
    return pools, pool_id


def estimate_constant(kind: str, pool: list[list[ElementRecord]], ladder: ScaleLadder,
                      ctx: NormContext, pool_id: str = "") -> Estimate:
    """One primal-dual constant from a prebuilt element pool.

    Scale j takes the min of the kind's objective over the records of
    annuli k >= j with t <= r_j (1 + 1e-12) that pass the kind's filters at
    r_j; with no such record the value is +inf. A NaN objective never wins,
    and a tie keeps the first record in pool order. hatsrg and hatsrgp are
    srg1 and srg1p: the min over direction buckets of each bucket's min is
    the overall min.

    The witness is the record that wins the largest scale j whose min over
    annuli max(j, depth-2) and inward is strictly below its min over annuli
    j .. depth-3 (the first record in pool order at that value); there is
    none when no scale has one, and none for hatsrg and hatsrgp.
    """
    if kind not in CONSTANT_KINDS:
        raise ValueError(f"unknown constant kind {kind!r}")
    est = Estimate(name=kind, pool_id=pool_id)
    depth = ladder.depth
    recs = [rec for annulus in pool[:depth] for rec in annulus]
    t, ratio, xn, q, eps = (np.fromiter((getattr(rec, a) for rec in recs), float, len(recs))
                            for a in ("t", "ratio", "xn", "q", "eps"))
    start = np.cumsum([0] + [len(annulus) for annulus in pool[:depth]]).tolist()
    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf give NaN, as floats do
        if kind in ("srg1", "srg3", "hatsrg"):
            obj = np.where(xn > ratio, xn, ratio)  # max(ratio, xn): ratio unless xn is larger
        elif kind in ("srg1p", "hatsrgp"):
            obj = ratio + xn
        else:
            obj = ratio
        eps_xn = eps * xn
    valid = ~np.isnan(obj)
    witness = None
    for j in range(depth):
        r = ladder.radius(j)
        # each test negates a rejection, so a NaN t, q or eps passes it
        ok = valid & ~(t > r * (1 + 1e-12)) & ~(eps > r)
        if kind in ("srg3", "srg4", "srg4p"):
            ok &= ~(q > r)
        if kind in ("srg2p", "srg4p"):
            ok &= ~(eps_xn > r)
        best, _ = _first_min(obj, ok, start[j], len(recs))
        est.per_scale.append((r, best))
        cut = start[max(j, depth - 2)]
        inner, i = _first_min(obj, ok, cut, len(recs))
        if inner < _first_min(obj, ok, start[j], cut)[0]:
            witness = recs[i]
    est = est.finalize()
    if witness is not None and kind not in ("hatsrg", "hatsrgp"):
        e = witness.elem
        est.witnesses = [{
            "x": e.x.tolist(), "y": e.y.tolist(), "x_star": e.x_star.tolist(),
            "y_star": e.y_star.tolist(), "t": witness.t, "ratio": witness.ratio,
            "xn": witness.xn, "q": witness.q,
        }]
    return est


def _first_min(obj: np.ndarray, ok: np.ndarray, lo: int, hi: int) -> tuple[float, int]:
    """(value, index) of the first minimum of obj[lo:hi] where ok, or (inf, -1)."""
    sel = ok[lo:hi]
    if not sel.any():
        return math.inf, -1
    vals = obj[lo:hi]
    i = lo + int(np.argmax(sel & (vals == vals[sel].min())))
    return float(obj[i]), i


def estimate_all_constants(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder,
                           ctx: NormContext, m_ystar: int = 8) -> dict[str, Estimate]:
    pool, pool_id = build_element_pool(F, base, ladder, ctx, m_ystar)
    out = {}
    for kind in CONSTANT_KINDS:
        out[kind] = estimate_constant(kind, pool, ladder, ctx, pool_id)
    return out


# ---------------------------------------------------------------------------
# relations and consistency


def _pair_le(a: Estimate, b: Estimate, slack: float = 0.0) -> tuple[bool, float]:
    """a <= b per scale and reported; returns (ok, worst violation)."""
    worst = 0.0
    ok = True
    for (ra, va), (rb, vb) in zip(a.per_scale, b.per_scale):
        if math.isinf(va) and math.isinf(vb):
            continue
        if va > vb + slack:
            ok = False
            worst = max(worst, va - vb)
    if not (math.isinf(a.reported) and math.isinf(b.reported)):
        if a.reported > b.reported + slack:
            ok = False
            worst = max(worst, a.reported - b.reported)
    return ok, worst


def check_relations(consts: dict[str, Estimate]) -> dict:
    """Verify the order relations between the constants on a shared pool.

    All estimates must carry the same pool id: the relations hold with zero
    slack only when the infima range over identical element sets. Mixed
    pools raise ValueError rather than producing a vacuous verdict.
    """
    ids = {e.pool_id for e in consts.values() if e.pool_id}
    if len(ids) > 1:
        raise ValueError(f"constants come from different pools: {sorted(ids)}")
    c = consts
    rows = []

    def rel(name, a, b, slack=0.0):
        ok, worst = _pair_le(c[a], c[b], slack)
        rows.append({"relation": name, "ok": ok, "violation": worst})

    rel("srg2 <= srg1", "srg2", "srg1")
    rel("srg1 <= srg3", "srg1", "srg3")
    rel("srg2 <= srg4", "srg2", "srg4")
    rel("srg4 <= srg3", "srg4", "srg3")
    rel("srg2p <= srg4p", "srg2p", "srg4p")
    rel("srg1 <= srg1p", "srg1", "srg1p")
    rel("srg4 <= srg4p", "srg4", "srg4p")
    # srg1p <= 2 srg1, scale by scale
    doubled = Estimate(name="2*srg1", pool_id=c["srg1"].pool_id)
    doubled.per_scale = [(r, (2.0 * v if not math.isinf(v) else v)) for r, v in c["srg1"].per_scale]
    doubled.reported = (2.0 * c["srg1"].reported
                        if not math.isinf(c["srg1"].reported) else c["srg1"].reported)
    ok, worst = _pair_le(c["srg1p"], doubled)
    rows.append({"relation": "srg1p <= 2*srg1", "ok": ok, "violation": worst})
    # equality srg2p = srg2 on exact pools
    eq_ok = True
    eq_worst = 0.0
    for (ra, va), (rb, vb) in zip(c["srg2p"].per_scale, c["srg2"].per_scale):
        if math.isinf(va) and math.isinf(vb):
            continue
        d = abs(va - vb)
        if d > 1e-12:
            eq_ok = False
            eq_worst = max(eq_worst, d)
    rows.append({"relation": "srg2p == srg2", "ok": eq_ok, "violation": eq_worst})

    consistency = []
    for a, b, tol in (("srg1", "hatsrg", 0.05), ("srg1p", "hatsrgp", 0.05)):
        va, vb = c[a].reported, c[b].reported
        if math.isinf(va) and math.isinf(vb):
            d = 0.0
        elif math.isinf(va) or math.isinf(vb):
            d = math.inf
        else:
            d = abs(va - vb)
        consistency.append({"check": f"|{a} - {b}| <= {tol}", "ok": d <= tol, "deviation": d})

    return {
        "relations": rows,
        "consistency": consistency,
        "ok": all(r["ok"] for r in rows) and all(r["ok"] for r in consistency),
    }


def subregularity_consistency(srg1: Estimate, srg: Estimate) -> dict:
    """Alarm when the dual constant is clearly positive but the primal is not.

    srg1 > 0.1 certifies a positive subregularity rate, so a primal
    estimate at or below 0.01 indicates an estimator inconsistency.
    """
    trigger = (not math.isinf(srg1.reported)) and srg1.reported > 0.1
    bad = trigger and (srg.reported <= 0.01)
    return {
        "ok": not bad,
        "srg1": srg1.reported,
        "srg": srg.reported,
        "message": ("primal subregularity estimate contradicts the dual constant"
                    if bad else "consistent"),
    }


def eckart_young_check(A, ladder: ScaleLadder | None = None, seed: int = 0) -> dict:
    """Distance to singularity vs the regularity estimate, l2 norms.

    Builds the minimal singular perturbation B = -sigma_min u v^T, checks
    ||B|| = sigma_min = 1/||A^{-1}|| and det(A+B) = 0, and compares the
    sampled rg estimate of the linear map against sigma_min.
    """
    from .mappings import make_linear_map

    A = np.atleast_2d(np.asarray(A, dtype=float))
    U, s, Vt = np.linalg.svd(A)
    sigma_min = float(s[-1])
    B = -sigma_min * np.outer(U[:, -1], Vt[-1, :])
    b_norm = float(np.linalg.svd(B, compute_uv=False)[0])
    det_after = float(np.linalg.det(A + B))
    ladder = ladder or ScaleLadder(r0=0.5, theta=0.5, depth=8, samples_per_scale=320, seed=seed)
    ctx = NormContext(kind="l2", dim_x=A.shape[1], dim_y=A.shape[0])
    F = make_linear_map(A, kind="l2")
    base = GraphPoint(np.zeros(A.shape[1]), np.zeros(A.shape[0]))
    rg = estimate_rg(F, base, ladder, ctx, pairs_per_scale=ladder.samples_per_scale)
    rel = abs(rg.reported - sigma_min) / sigma_min if sigma_min > 0 else math.inf
    return {
        "sigma_min": sigma_min,
        "b_norm": b_norm,
        "b_norm_error": abs(b_norm - sigma_min),
        "det_after": det_after,
        "rg_estimate": rg.reported,
        "rg_rel_error": rel,
        "ok": abs(b_norm - sigma_min) <= 1e-10 and abs(det_after) <= 1e-10 and rel <= 0.05,
    }
