"""Coderivative elements and the graphical semismoothness machinery.

Elements are pairs: a graph point (x, y) together with a dual pair
(x*, y*) such that (x*, -y*) is an eps-normal to the graph at (x, y).
The map's normal oracle produces elements with eps = 0. All dual norms
are the product dual max norm of the map's kind.

The two tests have fixed settings: a semismooth_star_test pass needs a
defect of at most 0.05, and positive_homogeneity_test a relative error of
at most 1e-12 (their docstrings give the rest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ScaleLadder, dual_kind, norms, sample_annulus
from .mappings import GraphPoint, SetValuedMap, graph_rows

__all__ = [
    "CoderivElement",
    "SemismoothReport",
    "defect_quotients",
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


def element_quotient(elem: CoderivElement, base: GraphPoint, kind: str) -> float:
    """The semismoothness defect of an element relative to a base point:
    the one-row call of defect_quotients."""
    X_star, Y_star = elem.x_star[None], elem.y_star[None]
    DU, DV = (elem.x - base.x)[None], (elem.y - base.y)[None]
    dual = dual_kind(kind)
    return float(defect_quotients(X_star, Y_star, DU, DV, norms(X_star, dual), norms(Y_star, dual),
                                  norms(DU, kind) + norms(DV, kind))[0])


def _running_max(v: np.ndarray, start: float) -> float:
    """The end of the scan cur = start; cur = max(cur, x) for x in v, as
    Python's max runs it: a NaN never wins and a tie keeps cur."""
    v = v[v > start]
    return float(v.max()) if v.size else start


def _dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """a @ b for each pair of rows, by a stacked product with the bits of
    the 1-D a @ b; (A * B).sum(1) rounds differently."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def defect_quotients(X_star, Y_star, DU, DV, xn, ysn, dist) -> np.ndarray:
    """The semismoothness defect of each row relative to a base point,

        |<x*, du> - <y*, dv>| / (||(x*, y*)|| * ||(du, dv)||),

    from its parts: du = x - xb, dv = y - yb, the dual norms xn = ||x*||
    and ysn = ||y*||, and dist = ||(du, dv)|| = ||du|| + ||dv||.

    The dual product norm is max(xn, ysn) as Python's max takes it (xn
    unless ysn is larger, so a NaN ysn gives xn); np.maximum would give
    NaN. A row at dist 0 gives 0 and one at dual norm 0 gives inf; a
    product past the largest float is inf without a warning, as in Python
    float arithmetic. Callers that share du, dv and dist between the
    elements of one graph point compute them once per point.
    """
    den = np.where(ysn > xn, ysn, xn)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # rows np.where drops
        q = np.abs(_dots(X_star, DU) - _dots(Y_star, DV)) / (den * dist)
    return np.where(dist == 0.0, 0.0, np.where(den == 0.0, math.inf, q))


def elements_at_point(F: SetValuedMap, gp: GraphPoint) -> list[CoderivElement]:
    """Exact elements at one graph point: the one-row call of the map's
    normal oracle.

    The oracle's pairs are not restricted to unit y*, so y* = 0 normals
    show. Returns [] when the map has no oracle or it disclaims knowledge
    at this point. The element pool and semismooth_star_test ask the
    oracle once for the rows of many points instead.
    """
    if F.analytic_normals is None:
        return []
    _, X_star, Y_star = F.analytic_normals(gp.x[None], gp.y[None])
    return [CoderivElement(gp.x, gp.y, ys, xs) for xs, ys in zip(X_star, Y_star)]


def semismooth_star_test(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder
                         ) -> SemismoothReport:
    """Decide graphical semismoothness at the base point by scale decay.

    Pools exact elements (eps = 0) at the graph points of every annulus, from
    one normal oracle call, then reports for each delta_j the worst defect
    over the elements within product distance delta_j: the last element at
    the largest quotient, a NaN quotient never winning and the worst read
    as 0.0 when none is a number. Pass requires the two finest populated
    scales at or below a defect of 0.05 and a tail over the last three
    populated scales that rises by at most 1e-12 per scale; a map with no
    populated scales (or fewer than three) is inconclusive rather than
    failed.
    """
    _, X, Y = graph_rows(F, base, ladder, 17)
    owner, EX_star, EY_star = (F.analytic_normals(X, Y) if F.analytic_normals is not None
                               else (np.zeros(0, dtype=int), X[:0], Y[:0]))
    # the product norm ||x - xb|| + ||y - yb||, once per point
    dists = (norms(X - base.x, F.kind) + norms(Y - base.y, F.kind))[owner]
    on = dists != 0.0
    EX, EY, dists = X[owner[on]], Y[owner[on]], dists[on]
    EX_star, EY_star = EX_star[on], EY_star[on]
    dual = dual_kind(F.kind)
    quots = defect_quotients(EX_star, EY_star, EX - base.x, EY - base.y,
                             norms(EX_star, dual), norms(EY_star, dual), dists)
    report = SemismoothReport()
    worst_idx_finest = None
    for j in range(ladder.depth):
        delta = ladder.radius(j)
        within = dists <= delta
        count = int(within.sum())
        # the scan "worst = q if q >= worst" from worst = 0.0 ends at the
        # last of the largest quotients that are numbers and not below 0.0
        rises = within & (quots >= 0.0)
        idx_worst = None
        worst = 0.0
        if rises.any():
            idx_worst = int(np.flatnonzero(rises & (quots == quots[rises].max()))[-1])
            worst = float(quots[idx_worst])
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
        i = worst_idx_finest
        report.worst_witness = {
            "x": EX[i].tolist(), "y": EY[i].tolist(),
            "x_star": EX_star[i].tolist(), "y_star": EY_star[i].tolist(),
            "quotient": float(quots[i]),
        }
    return report


def positive_homogeneity_test(f, base_x, kind: str) -> tuple[bool, float]:
    """Check f(xb + lam*(x - xb)) = f(xb) + lam*(f(x) - f(xb)) on probes.

    f takes rows, as Perturbation.eval does, and is evaluated once at the
    base, once at the probes and once per lam. The probes are 1000 points
    of the unit ball around xb in the kind's norm (seed 11), and lam runs
    over 0.5, 2 and 5. Returns (ok, worst relative error), with ok when
    the error is at most 1e-12; the worst is a running max from 0, so a
    NaN error never counts. Errors are measured relative to
    max(1, ||lam * (f(x) - f(xb))||).
    """
    base_x = np.atleast_1d(np.asarray(base_x, dtype=float))
    f0 = f(base_x[None])[0]
    xs = sample_annulus(base_x, 0.0, 1.0, 1000, 11, kind)
    fx = f(xs) - f0
    worst = 0.0
    for lam in (0.5, 2.0, 5.0):
        fl = f(base_x + lam * (xs - base_x)) - f0
        scale = norms(lam * fx, kind)
        worst = _running_max(norms(fl - lam * fx, kind) / np.where(scale > 1.0, scale, 1.0),
                             worst)
    return worst <= 1e-12, worst
