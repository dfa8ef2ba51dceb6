"""Coderivative elements and the graphical semismoothness machinery.

Elements are pairs: a graph point (x, y) together with a dual pair
(x*, y*) such that (x*, -y*) is an eps-normal to the graph at (x, y).
The map's normal oracle produces elements with eps = 0. All dual norms
are the product dual max norm of the ambient context.

The two tests have fixed settings: a semismooth_star_test pass needs a
defect of at most 0.05, and positive_homogeneity_test a relative error of
at most 1e-12 (their docstrings give the rest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    NormContext,
    ScaleLadder,
    norm,
    sample_annulus,
)
from .mappings import GraphPoint, SetValuedMap, graph_annuli

__all__ = [
    "CoderivElement",
    "SemismoothReport",
    "defect_quotient",
    "element_quotient",
    "elements_at_point",
    "semismooth_star_test",
    "positive_homogeneity_test",
]

@dataclass
class CoderivElement:
    """A coderivative element at a graph point.

    eps bounds the normal defect: the pair (x*, -y*) supports the graph at
    (x, y) up to eps * ||(x*, y*)|| * ||(u, v) - (x, y)||. Analytic elements
    carry eps = 0.
    """

    x: np.ndarray
    y: np.ndarray
    y_star: np.ndarray
    x_star: np.ndarray
    eps: float = 0.0


@dataclass
class SemismoothReport:
    scales: list = field(default_factory=list)  # (delta, worst_quotient, n_elements)
    verdict: str = "inconclusive"
    worst_witness: dict | None = None
    note: str = ""


def element_quotient(elem: CoderivElement, base: GraphPoint, ctx: NormContext) -> float:
    """The semismoothness defect of an element relative to a base point.

    |<x*, x - xb> - <y*, y - yb>| / (||(x*, y*)|| * ||(x - xb, y - yb)||),
    taken as 0 at the base point itself and inf for a zero dual pair.
    """
    du = elem.x - base.x
    dv = elem.y - base.y
    dist = ctx.product_norm(du, dv)
    if dist == 0.0:
        return 0.0
    return defect_quotient(elem.x_star, elem.y_star, du, dv,
                           ctx.product_norm_dual(elem.x_star, elem.y_star), dist)


def defect_quotient(x_star, y_star, du, dv, den: float, dist: float) -> float:
    """element_quotient from its parts: den = ||(x*, y*)|| and dist = ||(du, dv)||.

    Callers that share du, dv and dist between the elements of one graph
    point compute them once and get element_quotient's bits.
    """
    if dist == 0.0:
        return 0.0
    if den == 0.0:
        return math.inf
    return abs(float(x_star @ du) - float(y_star @ dv)) / (den * dist)


def elements_at_point(F: SetValuedMap, gp: GraphPoint) -> list[CoderivElement]:
    """Exact elements at one graph point from the map's normal oracle.

    The oracle's pairs are not restricted to unit y*, so y* = 0 normals
    show. Returns [] when the map has no oracle or it disclaims knowledge
    at this point.
    """
    pairs = F.analytic_normals(gp.x, gp.y) if F.analytic_normals is not None else None
    return [CoderivElement(gp.x, gp.y, np.atleast_1d(np.asarray(ys, dtype=float)),
                           np.atleast_1d(np.asarray(xs, dtype=float)))
            for xs, ys in pairs or ()]


def semismooth_star_test(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder,
                         ctx: NormContext) -> SemismoothReport:
    """Decide graphical semismoothness at the base point by scale decay.

    Pools exact elements at graph points per annulus, then reports for each
    delta_j the worst defect over elements within product distance delta_j
    and element eps at most delta_j. Pass requires the two finest populated
    scales at or below a defect of 0.05 and a tail over the last three
    populated scales that rises by at most 1e-12 per scale; a map with no
    populated scales (or fewer than three) is inconclusive rather than
    failed.
    """
    elems: list[CoderivElement] = []
    quots: list[float] = []
    dists: list[float] = []
    for _, _, _, pts in graph_annuli(F, base, ladder, 17):
        for gp in pts:
            for e in elements_at_point(F, gp):
                d = ctx.product_norm(e.x - base.x, e.y - base.y)
                if d == 0.0:
                    continue
                elems.append(e)
                dists.append(d)
                quots.append(element_quotient(e, base, ctx))
    report = SemismoothReport()
    worst_idx_finest = None
    for j in range(ladder.depth):
        delta = ladder.radius(j)
        worst = 0.0
        count = 0
        idx_worst = None
        for i, e in enumerate(elems):
            if dists[i] <= delta and e.eps <= delta:
                count += 1
                if quots[i] >= worst:
                    worst, idx_worst = quots[i], i
        report.scales.append((delta, worst if count else math.nan, count))
        if count:
            worst_idx_finest = idx_worst
    usable = [(d, w) for d, w, c in report.scales if c > 0]
    if len(usable) < 3:
        report.verdict = "inconclusive"
        report.note = "fewer than three populated scales"
        return report
    tail = [w for _, w in usable[-3:]]
    decaying = tail[1] <= tail[0] + 1e-12 and tail[2] <= tail[1] + 1e-12
    small = tail[1] <= 0.05 and tail[2] <= 0.05
    report.verdict = "pass" if (decaying and small) else "fail"
    if worst_idx_finest is not None:
        e = elems[worst_idx_finest]
        report.worst_witness = {
            "x": e.x.tolist(), "y": e.y.tolist(),
            "x_star": e.x_star.tolist(), "y_star": e.y_star.tolist(),
            "quotient": quots[worst_idx_finest],
        }
    return report


def positive_homogeneity_test(f, base_x, kind: str) -> tuple[bool, float]:
    """Check f(xb + lam*(x - xb)) = f(xb) + lam*(f(x) - f(xb)) on probes.

    The probes are 1000 points of the unit ball around xb in the kind's
    norm (seed 11), and lam runs over 0.5, 2 and 5. Returns (ok, worst
    relative error), with ok when the error is at most 1e-12. Errors are
    measured relative to max(1, ||lam * (f(x) - f(xb))||).
    """
    base_x = np.atleast_1d(np.asarray(base_x, dtype=float))
    f0 = np.atleast_1d(np.asarray(f(base_x), dtype=float))
    xs = sample_annulus(base_x, 0.0, 1.0, 1000, 11, kind)
    worst = 0.0
    for x in xs:
        fx = np.atleast_1d(np.asarray(f(x), dtype=float)) - f0
        for lam in (0.5, 2.0, 5.0):
            fl = np.atleast_1d(np.asarray(f(base_x + lam * (x - base_x)), dtype=float)) - f0
            err = norm(fl - lam * fx, kind) / max(1.0, norm(lam * fx, kind))
            if err > worst:
                worst = err
    return worst <= 1e-12, worst
