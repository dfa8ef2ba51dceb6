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
from dataclasses import dataclass, field, fields, replace

import numpy as np

# sample_annulus is not called here; perfbench's layer trace wraps it by name
from .geometry import ScaleLadder, dual_kind, norms, sample_annuli, sample_annulus  # noqa: F401
from .mappings import (  # noqa: F401
    GraphPoint,
    SetValuedMap,
    graph_rows,
    preimage_distance_fallback,  # not called here; perfbench's layer trace wraps it by name
    preimage_distances_fallback,
)
# element_quotient and elements_at_point are not called here (the pool asks
# the normal oracle once per build, for the rows of every annulus it lacks,
# and computes its quotients through defect_quotients); they stay importable
# from moduli because perfbench's layer trace wraps them there by name
from .variational import (  # noqa: F401
    CoderivElement,
    defect_quotients,
    element_quotient,
    elements_at_point,
)

__all__ = [
    "Estimate",
    "ElementRecords",
    "CONSTANT_KINDS",
    "build_element_pool",
    "estimate_clm",
    "estimate_lip",
    "estimate_rg",
    "estimate_srg",
    "estimate_rg_srg",
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
    against max(1e-3, 0.02 * |last|). per_annulus holds each annulus's own
    extremum (_pool_scales), outermost first; reports leave it out.
    """

    name: str
    per_scale: list = field(default_factory=list)
    per_annulus: list = field(default_factory=list)
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


def _pool_scales(vals: np.ndarray, ann: np.ndarray, ladder: ScaleLadder, largest: bool = False,
                 empty: float = math.nan
                 ) -> tuple[list[tuple[float, float]], list[float], int | None]:
    """Nested pooling: scale j takes the min (max when largest) of the vals of annuli ann >= j.

    The running value is carried from the innermost annulus outward, each
    annulus's vals in array order. NaN never wins a comparison and the first
    value met keeps a tie, signed zeros included. A scale reads empty until
    a value has been met; for a max, only a value that raised it counts as
    met. Returns the (radius, value) pairs and each annulus's own extremum
    (what scale j reads from annulus j alone), outermost first, and the
    index into vals of the overall winner, or None.
    """
    start = -math.inf if largest else math.inf
    acc, met, win = start, False, None
    pooled, own = [empty] * ladder.depth, [empty] * ladder.depth
    for j in range(ladder.depth - 1, -1, -1):
        at = ann == j
        cand = at & ((vals > start) if largest else (vals < start))
        if cand.any():
            best = vals[cand].max() if largest else vals[cand].min()
            k = int(np.argmax(cand & (vals == best)))
            own[j] = float(vals[k])
            if (own[j] > acc) if largest else (own[j] < acc):
                acc, win = own[j], k
        elif not largest and at.any():
            own[j] = start  # only NaN or +inf: a min has met a value
        met = met or (win is not None if largest else bool(at.any()))
        if met:
            pooled[j] = acc
    return list(zip(ladder.annuli()[1].tolist(), pooled)), own, win


def _diverging(per_annulus: list[float]) -> bool:
    """Clear divergence of per-annulus maxima, outermost first: at least four
    positive values, the innermost above four times their median, above the
    outermost and above 1e-9, so a tail of roundoff quotients never counts."""
    vals = [v for v in per_annulus if v > 0.0]
    if len(vals) < 4:
        return False
    med = sorted(vals)[len(vals) // 2]
    return vals[-1] > 4.0 * max(med, 1e-12) and vals[-1] > vals[0] and vals[-1] > 1e-9


def _empty_note(ann: np.ndarray, ladder: ScaleLadder) -> str:
    """The note of a limsup estimate whose innermost annulus, ann giving the
    annulus of each graph point, held none, so that it reports nan; "" when
    the innermost annulus held a point."""
    if (ann == ladder.depth - 1).any():
        return ""
    (inner,), (outer,) = ladder.annuli(ladder.depth - 1)
    return (f"annulus {ladder.depth - 1} ({inner:.3g}, {outer:.3g}] held no graph point, "
            f"so the innermost scale reads nan")


# ---------------------------------------------------------------------------
# moduli of single quantities


def estimate_clm(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder) -> Estimate:
    """Calmness: limsup of d(y, F(xb)) / ||x - xb|| over graph points.

    An innermost annulus without a graph point reads nan, and the note
    names it.
    """
    ann, X, Y = graph_rows(F, base, ladder, 31)
    t = norms(X - base.x, F.kind)
    off = t != 0.0
    vals = F.image_distance(np.repeat(base.x[None], off.sum(), 0), Y[off]) / t[off]
    est = Estimate(name="clm", note=_empty_note(ann, ladder))
    est.per_scale, est.per_annulus, _ = _pool_scales(vals, ann[off], ladder, largest=True)
    return est.finalize()


def estimate_lip(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder) -> Estimate:
    """Lipschitz modulus via two-point slopes of graph points per annulus.

    Pairs are nearest neighbors in sample order after a 1-D sort (or a
    stride pattern in higher dimension), the first 400 per annulus, plus
    pairs against the base, so the estimate dominates calmness by
    construction. A pair at most 1e-14 t apart, t its first point's
    distance from the base, is left out: a floor relative to the annulus.
    An innermost annulus without a graph point reads nan, and the note
    names it.
    """
    ann, X, Y = graph_rows(F, base, ladder, 37)
    t = norms(X - base.x, F.kind)
    off = np.flatnonzero(t > 0.0)
    pairs = []
    for j in range(ladder.depth):
        at = np.flatnonzero(ann == j)
        if F.dim_x == 1:
            at = at[np.argsort(X[at, 0], kind="stable")]
            p, q = at[:-1], at[1:]
        else:
            p, q = np.r_[at[:-1], at[:max(len(at) - 7, 0)]], np.r_[at[1:], at[7:]]
        pairs.append((p[:400], q[:400]))
    p, q = (np.concatenate(c) for c in zip(*pairs))
    sep = norms(X[p] - X[q], F.kind)
    keep = ~(sep <= 1e-14 * t[p])
    p, q, sep = p[keep], q[keep], sep[keep]
    # the base pairs, then for each pair d(y_p, F(x_q)) and d(y_q, F(x_p))
    qp, pq = np.stack([q, p], 1).ravel(), np.stack([p, q], 1).ravel()
    xs = np.concatenate([np.repeat(base.x[None], len(off), 0), X[qp]])
    dist = F.image_distance(xs, np.concatenate([Y[off], Y[pq]]))
    vals = dist / np.concatenate([t[off], np.repeat(sep, 2)])
    fin = ~np.isinf(vals)
    est = Estimate(name="lip", note=_empty_note(ann, ladder))
    est.per_scale, est.per_annulus, _ = _pool_scales(vals[fin], ann[np.r_[off, pq]][fin], ladder,
                                                     largest=True)
    return est.finalize()


def _admissible_pairs(F: SetValuedMap, ladder: ScaleLadder, pair_sets
                      ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """For each (xs, ys) of pair_sets, the (annulus, d(y, F(x)), d(x, F^{-1}(y)))
    arrays of the pairs of rows of xs and ys, an equal number per annulus in
    ladder order, that lie off the preimage: their image distance is not at
    most 1e-13 times the annulus's outer radius. The image distances of each
    set come from one call, and the preimage distances of the admissible
    pairs of every set from one more: the map's oracle if it has one, else
    the batched fallback, whose rows each depend on their own pair alone.
    """
    outer = ladder.annuli()[1]
    kept = []
    for xs, ys in pair_sets:
        annulus = np.repeat(np.arange(ladder.depth), len(xs) // ladder.depth)
        dimg = F.image_distance(xs, ys)
        keep = ~(dimg <= 1e-13 * outer[annulus])  # x at or numerically on the preimage is left out
        kept.append((annulus[keep], dimg[keep], xs[keep], ys[keep]))
    ann, dimg, xs, ys = zip(*kept)
    xs, ys = np.concatenate(xs), np.concatenate(ys)
    dpre = (F.preimage_distance(xs, ys) if F.preimage_distance is not None
            else preimage_distances_fallback(F, xs, ys))
    return list(zip(ann, dimg, np.split(dpre, np.cumsum([len(a) for a in ann])[:-1])))


def _quotients(ann: np.ndarray, dimg: np.ndarray, dpre: np.ndarray, drop_nan: bool):
    """(annulus, dimg / dpre) of the pairs that pool, the quotient 0.0 where
    dpre is infinite. A pair whose dpre is 0 or nan or whose dimg is
    infinite is left out, and so is a nan quotient when drop_nan."""
    with np.errstate(divide="ignore", invalid="ignore"):  # the pairs that the mask drops
        q = np.where(np.isinf(dpre), 0.0, dimg / dpre)
    kept = (dpre != 0.0) & ~np.isnan(dpre) & ~np.isinf(dimg)
    if drop_nan:
        kept &= ~np.isnan(q)
    return ann[kept], q[kept]


def estimate_rg(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder,
                pairs_per_scale: int | None = None) -> Estimate:
    """Metric regularity: liminf of d(y, F(x)) / d(x, F^{-1}(y)).

    x and y are drawn from matched annuli around the base; pairs with x in
    the preimage of y are excluded. A pair whose y has an empty preimage
    contributes 0 (such maps are not regular at any rate). A pair whose
    preimage distance reads nan (the fallback found no preimage point) is
    left out and counted in the note, which also names Newton projections
    (_bound_note); a nan quotient is left out too.
    """
    (pairs,) = _admissible_pairs(F, ladder, [_rg_pairs(base, ladder, F.kind, pairs_per_scale)])
    return _rg_estimate(F, ladder, *pairs)


def _rg_pairs(base: GraphPoint, ladder: ScaleLadder, kind: str,
              pairs_per_scale: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) rows that estimate_rg draws, annulus by annulus."""
    n = pairs_per_scale or min(ladder.samples_per_scale, 96)
    return (sample_annuli(base.x, *ladder.annuli(), n, ladder.seeds(41), kind),
            sample_annuli(base.y, *ladder.annuli(), n, ladder.seeds(43), kind))


def _rg_estimate(F: SetValuedMap, ladder: ScaleLadder, ann: np.ndarray, dimg: np.ndarray,
                 dpre: np.ndarray) -> Estimate:
    """estimate_rg from the arrays _admissible_pairs gives for its pairs."""
    qann, q = _quotients(ann, dimg, dpre, drop_nan=True)
    est = Estimate(name="rg", note=_missed_note(dpre))
    est.per_scale, est.per_annulus, _ = _pool_scales(q, qann, ladder)
    if not (est.note or len(q)):
        est.note = "no admissible pairs: every sampled point lies in the preimage"
    est.note = "; ".join(filter(None, (est.note, _bound_note(F))))
    return est.finalize()


def _missed_note(dpre: np.ndarray) -> str:
    """The note on the pairs whose preimage distance dpre reads nan, "" when none does."""
    missed = int(np.isnan(dpre).sum())
    return (f"no preimage point found for {missed} of {len(dpre)} pairs; "
            f"their quotients are left out") if missed else ""


def _bound_note(F: SetValuedMap) -> str:
    """The note of a map whose fallback takes Gauss-Newton steps, else ""."""
    if F.preimage_distance is None and max(F.dim_x, F.dim_y) > 1 and F.grad is not None:
        return ("preimage distances are Newton projections onto the fibers, "
                "so they bound d(x, F^-1(y)) only from above")
    return ""


def estimate_srg(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder) -> Estimate:
    """Subregularity: liminf of d(yb, F(x)) / d(x, F^{-1}(yb)) for x not in F^{-1}(yb).

    When every sample at every scale lands in the preimage the quotient set
    is empty; the estimate is +inf with an explanatory note (the flag for
    maps like the zero map whose preimage has interior). Points whose
    preimage distance reads nan are left out as in estimate_rg; then a
    scale without a quotient reads nan, not +inf. A nan quotient is kept:
    it never wins, but its scale reads +inf rather than empty. Each annulus
    draws min(samples per scale, 96) points.
    """
    (pairs,) = _admissible_pairs(F, ladder, [_srg_pairs(base, ladder, F.kind)])
    return _srg_estimate(F, ladder, *pairs)


def _srg_pairs(base: GraphPoint, ladder: ScaleLadder, kind: str
               ) -> tuple[np.ndarray, np.ndarray]:
    """The (x, yb) rows that estimate_srg draws, annulus by annulus."""
    xs = sample_annuli(base.x, *ladder.annuli(), min(ladder.samples_per_scale, 96),
                       ladder.seeds(47), kind)
    return xs, np.repeat(base.y[None, :], len(xs), 0)


def _srg_estimate(F: SetValuedMap, ladder: ScaleLadder, ann: np.ndarray, dimg: np.ndarray,
                  dpre: np.ndarray) -> Estimate:
    """estimate_srg from the arrays _admissible_pairs gives for its pairs."""
    qann, q = _quotients(ann, dimg, dpre, drop_nan=False)
    est = Estimate(name="srg", note=_missed_note(dpre))
    est.per_scale, est.per_annulus, _ = _pool_scales(q, qann, ladder,
                                                     empty=math.nan if est.note else math.inf)
    if not (est.note or len(q)):
        est.note = "empty quotient set: every sampled point lies in the preimage of the base value"
    est.note = "; ".join(filter(None, (est.note, _bound_note(F))))
    return est.finalize()


def estimate_rg_srg(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder
                    ) -> tuple[Estimate, Estimate]:
    """(estimate_rg, estimate_srg), bit for bit, with the preimage distances
    of both pair sets from one call: one batch of the fallback's root
    finder in place of two."""
    rg, srg = _admissible_pairs(F, ladder, [_rg_pairs(base, ladder, F.kind, None),
                                            _srg_pairs(base, ladder, F.kind)])
    return _rg_estimate(F, ladder, *rg), _srg_estimate(F, ladder, *srg)


def estimate_ssrg(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder) -> Estimate:
    """Strong subregularity: liminf of ||y - yb|| / ||x - xb|| over the graph.

    A reported value at most 1e-12 comes with the witnessing graph points of
    ratio at most 1e-12 (distinct x with yb in F(x) arbitrarily close to the
    base), the first 4 of each annulus and 16 in all; any other value with
    the pooled winner over every annulus, if one has a finite ratio.
    """
    ann, X, Y = graph_rows(F, base, ladder, 53)
    t = norms(X - base.x, F.kind)
    off = t != 0.0
    ann, X, Y = ann[off], X[off], Y[off]
    vals = norms(Y - base.y, F.kind) / t[off]
    est = Estimate(name="ssrg")
    est.per_scale, est.per_annulus, win = _pool_scales(vals, ann, ladder, empty=math.inf)
    est = est.finalize()
    if est.reported <= 1e-12:
        zero = np.flatnonzero(vals <= 1e-12)  # ann ascends: take each annulus's first 4
        wits, ratio = zero[np.arange(len(zero)) - np.searchsorted(ann[zero], ann[zero]) < 4], 0.0
    else:
        wits, ratio = [] if win is None else [win], est.reported
    est.witnesses = [{"x": X[k].tolist(), "y": Y[k].tolist(), "ratio": ratio} for k in wits[:16]]
    return est


# ---------------------------------------------------------------------------
# element pools and primal-dual constants


@dataclass(frozen=True)
class ElementRecords:
    """The element records of one annulus (or more), as columns in pool order.

    Record i is the element (x[i], y[i], x_star[i], y_star[i]) with unit dual
    y*, its defect eps[i], t = ||x - xb||, the ratio ||y - yb|| / t, xn =
    ||x*|| and the base defect quotient q. The columns are read-only: the
    map's memo shares them between every pool that reads the annulus.
    """

    t: np.ndarray  # (m,)
    ratio: np.ndarray  # (m,)
    xn: np.ndarray  # (m,)
    q: np.ndarray  # (m,)
    eps: np.ndarray  # (m,)
    x: np.ndarray  # (m, dim_x)
    y: np.ndarray  # (m, dim_y)
    x_star: np.ndarray  # (m, dim_x)
    y_star: np.ndarray  # (m, dim_y)

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def concat(cls, parts) -> ElementRecords:
        """The records of parts, one after another."""
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))

    def split(self, cuts) -> list[ElementRecords]:
        """The records before cuts[0], from cuts[0] to cuts[1], ..., from cuts[-1] on."""
        ends = [0, *cuts, len(self)]
        cols = [getattr(self, f.name) for f in fields(self)]
        return [type(self)(*(c[a:b] for c in cols)) for a, b in zip(ends, ends[1:])]


def _annulus_records(X: np.ndarray, Y: np.ndarray, owner: np.ndarray, X_star: np.ndarray,
                     Y_star: np.ndarray, eps: np.ndarray, inner, outer, base: GraphPoint,
                     kind: str) -> tuple[ElementRecords, np.ndarray]:
    """The records of the elements (X[owner], Y[owner], X_star, Y_star, eps)
    whose x lies in the annulus, 0 < t, inner < t and t <= outer (1 +
    1e-12), in element order, and the row of X that each record sits at.
    inner and outer are floats, or the bounds of each row's own annulus.

    The elements of one graph point share x and y, so t, the ratio and the
    product distance of the quotient are computed once per point. Pairs
    with y* = 0 are left out; the others are scaled to unit dual y* unless
    ||y*|| is within 1e-12 of 1. Every value has the bits of one geometry
    call per point and per element: geometry.norms gives the bits of
    geometry.norm row by row.
    """
    t = norms(X - base.x, kind)
    inside = np.flatnonzero((t != 0.0) & (inner < t) & (t <= outer * (1 + 1e-12)))
    at = np.full(len(X), -1)
    at[inside] = np.arange(len(inside))
    keep = at[owner] >= 0
    p = at[owner[keep]]  # the inside point of each kept element
    X_star, Y_star, eps = X_star[keep], Y_star[keep], eps[keep]
    dual = dual_kind(kind)
    ysn = norms(Y_star, dual)
    unit = ysn != 0.0  # y* = 0 cannot be normalized
    p, X_star, Y_star, eps, ysn = p[unit], X_star[unit], Y_star[unit], eps[unit], ysn[unit]
    scaled = np.abs(ysn - 1.0) > 1e-12
    if scaled.any():
        X_star[scaled] = X_star[scaled] / ysn[scaled, None]
        Y_star[scaled] = Y_star[scaled] / ysn[scaled, None]
        ysn[scaled] = norms(Y_star[scaled], dual)
    xn = norms(X_star, dual)
    X, Y, t = X[inside], Y[inside], t[inside]
    du, dv = X - base.x, Y - base.y
    yn = norms(dv, kind)
    ratio, dist = yn / t, t + yn  # dist is the product norm ||du|| + ||dv||
    q = defect_quotients(X_star, Y_star, du[p], dv[p], xn, ysn, dist[p])
    return ElementRecords(t=t[p], ratio=ratio[p], xn=xn, q=q, eps=eps, x=X[p], y=Y[p],
                          x_star=X_star, y_star=Y_star), inside[p]


def _memo_annuli(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder, tag: int, what: str,
                 make) -> list:
    """F's memo of what on the tag's graph sample around base, the
    ElementRecords of each annulus of the ladder. make(ann, X, Y) gets the
    rows of every annulus the memo lacks, if any, as one block (see
    graph_rows), and returns their records, annulus by annulus, with the
    row of X each record sits at.

    Annulus j of a ladder depends on r0, theta, the samples per scale, the
    seed and j, never on the depth; ScaleLadder.deepen keeps all of them.
    So each annulus is computed once per map and base point, the first
    time a ladder reaches it, and serves every shallower or deeper
    ladder from then on. The entries are shared; do not mutate them.
    """
    done = F.memo.setdefault((base.x.tobytes(), base.y.tobytes(), ladder.r0, ladder.theta,
                              ladder.samples_per_scale, ladder.seed, tag, what), [])
    if len(done) < ladder.depth:
        ann, X, Y = graph_rows(F, base, ladder, tag, start=len(done))
        recs, rows = make(ann, X, Y)
        cuts = np.searchsorted(ann[rows], np.arange(len(done) + 1, ladder.depth))
        done.extend(recs.split(cuts.tolist()))
    return done[:ladder.depth]


def build_element_pool(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder, *,
                       extra_elements: list[CoderivElement] | None = None
                       ) -> tuple[list[ElementRecords], str]:
    """Coderivative element records per annulus, plus a pool identifier.

    Elements come from the normal oracle, called once per build on the
    sampled graph points and feature points of every annulus that the
    map's memo lacks; pairs are normalized to unit dual y* (pairs with
    y* = 0 cannot be, and are excluded: the constants quantify over unit
    y*).
    Estimates computed from the same pool share the pool id, which is what
    check_relations uses to refuse cross-pool comparisons. The id is hashed
    over the full ladder, depth included.

    The sampled records of each annulus are built once per map (see
    _memo_annuli). An annulus's records are those shared records followed
    by the records of the extra elements whose x falls in it (inner <
    ||x - xb|| <= outer), in the order given; the extras are never
    memoized.
    """
    h = hashlib.sha256()
    h.update(F.name.encode())
    h.update(F.kind.encode())
    h.update(base.x.tobytes() + base.y.tobytes())
    # payloads carry the id; the trailing 8 (the size of the function graphs'
    # y* grid) keeps every id, and with it every payload, bit for bit
    h.update(repr((ladder.r0, ladder.theta, ladder.depth, ladder.samples_per_scale,
                   ladder.seed, 8)).encode())

    inner, outer = ladder.annuli()

    def make(ann, X, Y):
        if F.analytic_normals is None:
            owner, X_star, Y_star = np.zeros(0, dtype=int), X[:0], Y[:0]
        else:
            owner, X_star, Y_star = F.analytic_normals(X, Y)
        # each annulus's pairs in the oracle's order, whatever order it gives the rows
        order = np.argsort(ann[owner], kind="stable")
        return _annulus_records(X, Y, owner[order], X_star[order], Y_star[order],
                                np.zeros(len(owner)), inner[ann], outer[ann], base, F.kind)

    pools = _memo_annuli(F, base, ladder, 61, "records", make)  # a new list
    if extra_elements:
        X, Y, X_star, Y_star = (np.array([getattr(e, a) for e in extra_elements], dtype=float)
                                for a in ("x", "y", "x_star", "y_star"))
        eps = np.array([e.eps for e in extra_elements], dtype=float)
        t = norms(X - base.x, F.kind)
        at, k = np.nonzero((inner[:, None] < t) & (t <= outer[:, None]))  # annulus by annulus
        more, rows = _annulus_records(X[k], Y[k], np.arange(len(k)), X_star[k], Y_star[k],
                                      eps[k], inner[at], outer[at], base, F.kind)
        parts = more.split(np.searchsorted(at[rows], np.arange(1, ladder.depth)).tolist())
        pools = [ElementRecords.concat([p, m]) if len(m) else p for p, m in zip(pools, parts)]
    pool_id = h.hexdigest()[:16]
    return pools, pool_id


def estimate_constant(kind: str, pool: list[ElementRecords], ladder: ScaleLadder,
                      pool_id: str = "") -> Estimate:
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
    # the scalar columns only; the witness's vectors are read from its annulus,
    # so no kind copies the pool's x, y, x* and y*
    t, ratio, xn, q, eps = (np.concatenate([getattr(a, name) for a in pool[:depth]])
                            for name in ("t", "ratio", "xn", "q", "eps"))
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
    win = None  # the witness's index
    for j, r in enumerate(ladder.annuli()[1].tolist()):
        # each test negates a rejection, so a NaN t, q or eps passes it
        ok = valid & ~(t > r * (1 + 1e-12)) & ~(eps > r)
        if kind in ("srg3", "srg4", "srg4p"):
            ok &= ~(q > r)
        if kind in ("srg2p", "srg4p"):
            ok &= ~(eps_xn > r)
        # the min over annuli j and inward is the earlier of the outer and the
        # inner first min: on a tie the outer record comes first in pool order
        cut = start[max(j, depth - 2)]
        outer = _first_min(obj, ok, start[j], cut)[0]
        inner, i = _first_min(obj, ok, cut, len(t))
        est.per_scale.append((r, outer if outer <= inner else inner))
        if inner < outer:
            win = i
    est = est.finalize()
    if win is not None and kind not in ("hatsrg", "hatsrgp"):
        a = int(np.searchsorted(start, win, "right")) - 1  # the annulus holding it
        recs, row = pool[a], win - start[a]
        est.witnesses = [{
            "x": recs.x[row].tolist(), "y": recs.y[row].tolist(),
            "x_star": recs.x_star[row].tolist(), "y_star": recs.y_star[row].tolist(),
            "t": float(t[win]), "ratio": float(ratio[win]), "xn": float(xn[win]),
            "q": float(q[win]),
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


def estimate_all_constants(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder
                           ) -> dict[str, Estimate]:
    """The nine constants from one element pool. hatsrg and hatsrgp are
    copies of srg1 and srg1p under their own names, with no witness, which
    is what estimate_constant gives for them."""
    records, pool_id = build_element_pool(F, base, ladder)
    out = {kind: estimate_constant(kind, records, ladder, pool_id)
           for kind in CONSTANT_KINDS if kind not in ("hatsrg", "hatsrgp")}
    for hat, kind in (("hatsrg", "srg1"), ("hatsrgp", "srg1p")):
        out[hat] = replace(out[kind], name=hat, per_scale=list(out[kind].per_scale), witnesses=[])
    return out


# ---------------------------------------------------------------------------
# relations and consistency


def _pair_le(a: Estimate, b: Estimate) -> tuple[bool, float]:
    """a <= b per scale and reported; returns (ok, worst violation)."""
    worst = 0.0
    ok = True
    for (ra, va), (rb, vb) in zip(a.per_scale, b.per_scale):
        if math.isinf(va) and math.isinf(vb):
            continue
        if va > vb:
            ok = False
            worst = max(worst, va - vb)
    if not (math.isinf(a.reported) and math.isinf(b.reported)):
        if a.reported > b.reported:
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
    # srg1p <= 2 srg1, scale by scale; 2 inf is inf
    doubled = replace(consts["srg1"], name="2*srg1", reported=2.0 * consts["srg1"].reported,
                      per_scale=[(r, 2.0 * v) for r, v in consts["srg1"].per_scale])
    c = {**consts, "2*srg1": doubled}
    rows = []
    for a, b in (("srg2", "srg1"), ("srg1", "srg3"), ("srg2", "srg4"), ("srg4", "srg3"),
                 ("srg2p", "srg4p"), ("srg1", "srg1p"), ("srg4", "srg4p"), ("srg1p", "2*srg1")):
        ok, worst = _pair_le(c[a], c[b])
        rows.append({"relation": f"{a} <= {b}", "ok": ok, "violation": worst})
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


def eckart_young_check(A, seed: int = 0) -> dict:
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
    ladder = ScaleLadder(r0=0.5, theta=0.5, depth=8, samples_per_scale=320, seed=seed)
    F = make_linear_map(A, kind="l2")
    base = GraphPoint(np.zeros(A.shape[1]), np.zeros(A.shape[0]))
    rg = estimate_rg(F, base, ladder, pairs_per_scale=ladder.samples_per_scale)
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
