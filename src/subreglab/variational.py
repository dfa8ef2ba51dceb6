"""Coderivative elements and the graphical semismoothness machinery.

Elements are pairs: a graph point (x, y) together with a dual pair
(x*, y*) such that (x*, -y*) is an eps-normal to the graph at (x, y).
Analytic oracles produce elements with eps = 0; transporting an element
through a perturbation (coderivative_shift) inflates eps. All dual norms
are the product dual max norm of the ambient context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    NormContext,
    ScaleLadder,
    dual_sphere_grid,
    norm,
    operator_norm,
    sample_annulus,
)
from .mappings import GraphPoint, SetValuedMap, graph_annuli

__all__ = [
    "CoderivElement",
    "SemismoothReport",
    "eps_normal_quotient",
    "defect_quotient",
    "element_quotient",
    "elements_at_point",
    "coderivative_shift",
    "calm_shift_bound",
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


def eps_normal_quotient(F: SetValuedMap, point: GraphPoint, x_star, y_star,
                        radius: float, ctx: NormContext, n: int = 256,
                        seed: int = 0) -> tuple[float, int]:
    """Largest normal defect of (x*, -y*) at the given graph point.

    Samples graph points within radius (product norm) of the point and
    returns (sup quotient clipped at 0, sample count). The quotient is
    <(x*, -y*), u - p> / (||(x*, y*)|| * ||u - p||); a nonpositive sup
    certifies a true Frechet normal up to the sampled resolution.
    """
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    y_star = np.atleast_1d(np.asarray(y_star, dtype=float))
    den_star = ctx.product_norm_dual(x_star, y_star)
    if den_star == 0.0:
        raise ValueError("eps_normal_quotient needs a nonzero (x*, y*)")
    pts = F.sample_graph(point, 0.0, radius, n, seed)
    worst = 0.0
    count = 0
    for q in pts:
        du = q.x - point.x
        dv = q.y - point.y
        dist = ctx.product_norm(du, dv)
        if dist == 0.0 or dist > radius:
            continue
        count += 1
        val = (float(x_star @ du) - float(y_star @ dv)) / (den_star * dist)
        if val > worst:
            worst = val
    return worst, count


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


def elements_at_point(F: SetValuedMap, gp: GraphPoint, ctx: NormContext,
                      m_ystar: int = 8) -> list[CoderivElement]:
    """Exact elements at one graph point from the map's analytic oracles.

    Prefers the unrestricted normal oracle (which can expose y* = 0
    normals); falls back to the coderivative oracle over a unit y* grid.
    Returns [] when the oracles disclaim knowledge at this point.
    """
    out: list[CoderivElement] = []
    if F.analytic_normals is not None:
        pairs = F.analytic_normals(gp.x, gp.y, m_ystar)
        if pairs is not None:
            for xs, ys in pairs:
                out.append(CoderivElement(gp.x, gp.y, np.atleast_1d(np.asarray(ys, dtype=float)),
                                          np.atleast_1d(np.asarray(xs, dtype=float))))
            return out
    if F.analytic_coderivative is not None:
        for ys in dual_sphere_grid(ctx.dual, F.dim_y, m_ystar):
            xs_list = F.analytic_coderivative(gp.x, gp.y, ys)
            if xs_list is None:
                continue
            for xs in xs_list:
                out.append(CoderivElement(gp.x, gp.y, ys.copy(),
                                          np.atleast_1d(np.asarray(xs, dtype=float))))
    return out


def coderivative_shift(elem: CoderivElement, grad: np.ndarray, f_x: np.ndarray,
                       ctx: NormContext, sign: float = 1.0) -> CoderivElement:
    """Transport an element of F to an element of F + f (sign=+1) or back.

    grad is the Jacobian of f at elem.x and f_x its value there. The new
    defect bound is (||grad|| + 1) * eps, exact (eps unchanged at 0) when f
    is differentiable at the point.
    """
    grad = np.atleast_2d(np.asarray(grad, dtype=float))
    f_x = np.atleast_1d(np.asarray(f_x, dtype=float))
    x_star = elem.x_star + sign * (grad.T @ elem.y_star)
    eps = (operator_norm(grad, ctx.kind) + 1.0) * elem.eps
    return CoderivElement(elem.x.copy(), elem.y + sign * f_x, elem.y_star.copy(), x_star,
                          eps=eps)


def calm_shift_bound(eps: float, calm_const: float, y_star_norm: float = 1.0) -> float:
    """Defect inflation when passing through a calm single-valued shift.

    Valid only for calmness constant < 1; the transported defect is
    (eps + c * ||y*||) / (1 - c).
    """
    if calm_const >= 1.0:
        raise ValueError("calm shift bound requires a calmness constant below 1")
    if calm_const < 0.0 or eps < 0.0:
        raise ValueError("eps and the calmness constant must be nonnegative")
    return (eps + calm_const * y_star_norm) / (1.0 - calm_const)


def semismooth_star_test(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder,
                         ctx: NormContext, m_ystar: int = 8, threshold: float = 0.05,
                         monotone_slack: float = 1e-12) -> SemismoothReport:
    """Decide graphical semismoothness at the base point by scale decay.

    Pools exact elements at graph points per annulus, then reports for each
    delta_j the worst defect over elements within product distance delta_j
    and element eps at most delta_j. Pass requires the two finest populated
    scales below the threshold and a non-increasing tail over the last
    three populated scales; a map with no populated scales (or fewer than
    three) is inconclusive rather than failed.
    """
    elems: list[CoderivElement] = []
    quots: list[float] = []
    dists: list[float] = []
    for _, _, _, pts in graph_annuli(F, base, ladder, 17):
        for gp in pts:
            for e in elements_at_point(F, gp, ctx, m_ystar):
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
    decaying = tail[1] <= tail[0] + monotone_slack and tail[2] <= tail[1] + monotone_slack
    small = tail[1] <= threshold and tail[2] <= threshold
    report.verdict = "pass" if (decaying and small) else "fail"
    if worst_idx_finest is not None:
        e = elems[worst_idx_finest]
        report.worst_witness = {
            "x": e.x.tolist(), "y": e.y.tolist(),
            "x_star": e.x_star.tolist(), "y_star": e.y_star.tolist(),
            "quotient": quots[worst_idx_finest],
        }
    return report


def positive_homogeneity_test(f, base_x, radius: float = 1.0, n_probes: int = 1000,
                              seed: int = 0, lambdas=(0.5, 2.0, 3.7),
                              rel_tol: float = 1e-10, kind: str = "l1") -> tuple[bool, float]:
    """Check f(xb + lam*(x - xb)) = f(xb) + lam*(f(x) - f(xb)) on probes.

    Returns (ok, worst relative error). Errors are measured relative to
    max(1, ||lam * (f(x) - f(xb))||).
    """
    base_x = np.atleast_1d(np.asarray(base_x, dtype=float))
    f0 = np.atleast_1d(np.asarray(f(base_x), dtype=float))
    xs = sample_annulus(base_x, 0.0, radius, n_probes, seed, kind)
    worst = 0.0
    for x in xs:
        fx = np.atleast_1d(np.asarray(f(x), dtype=float)) - f0
        for lam in lambdas:
            fl = np.atleast_1d(np.asarray(f(base_x + lam * (x - base_x)), dtype=float)) - f0
            err = norm(fl - lam * fx, kind) / max(1.0, norm(lam * fx, kind))
            if err > worst:
                worst = err
    return worst <= rel_tol, worst
