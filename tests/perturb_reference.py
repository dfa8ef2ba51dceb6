"""Point-by-point reference copies of the built perturbations, and the
per-record loop of the witness candidates.

Each function of one point below is the construction the builders in
subreglab.perturb made before they took rows, kept as the reference that
tests compare every row of the rows form against, bit for bit. They read
the same witness, so they rebuild the same bumps and cones. component_count
counts the supports that hold a point by brute force. annulus_candidates is
the loop the columnar candidate selection replaced, and validate_witness the
check that recomputed each witness entry's stats one entry at a time.
"""

import bisect
import math

import numpy as np

from subreglab.geometry import dual_norm, norm, norming_functional, norming_vector
from subreglab.perturb import (
    _CLUSTER_TOL,
    _DEAD_ZONE,
    _EPS_FLOOR,
    _cand_order,
    _dir_key,
    _objective,
)
from subreglab.variational import CoderivElement, element_quotient


def _l2(v) -> float:
    return float(np.linalg.norm(np.asarray(v, dtype=float)))


def reference(p):
    """(eval, derivative) of one point for the perturbation p; derivative
    returns None on a seam."""
    return _parts(p)[:2]


def component_count(p):
    """A function of one point counting the bumps or cones of p whose
    support holds it, by brute force over all of them."""
    return _parts(p)[2]


def _parts(p):
    w = p.witness
    if p.class_tag in ("lip", "fclm"):
        return _bump(w, _bump_radii(w, p.class_tag, p.gamma_dp))
    with_dual = p.class_tag == "fclm_ss"
    build = _cone_case1 if p.case == 1 else _cone_case2
    return build(w, p.gamma, with_dual)


def _bump_radii(w, tag, gamma_dp):
    if tag == "lip":
        return [e.index / (e.index + 1.0) * e.t for e in w.entries]
    gt = max(w.gamma_prime, gamma_dp / 4.0)
    return [min(1.0 / (e.index + 1.0), gt / ((e.index + 1.0) * (1.0 + e.xn))) * e.t
            for e in w.entries]


def _bump(seq, rho):
    base = seq.base
    es = seq.entries
    xs = [e.x for e in es]
    vs = [norming_vector(e.y_star, seq.norm_kind) for e in es]
    ps = [1.0 + 1.0 / e.index for e in es]
    dim_y, dim_x = es[0].y.size, es[0].x.size
    ds_asc = [_l2(x - base.x) for x in xs][::-1]

    def locate(x):
        pos = bisect.bisect_left(ds_asc, _l2(x - base.x))
        for idx_asc in (pos - 1, pos):
            if 0 <= idx_asc < len(ds_asc):
                k = len(ds_asc) - 1 - idx_asc
                if rho[k] > 0.0 and _l2(x - xs[k]) < rho[k]:
                    return k
        return None

    def evaluate(x):
        k = locate(x)
        if k is None:
            return np.zeros(dim_y)
        d = _l2(x - xs[k])
        s = max(1.0 - (d / rho[k]) ** ps[k], 0.0)
        g = (es[k].y - base.y) + float(es[k].x_star @ (x - xs[k])) * vs[k]
        return -s * g

    def derivative(x):
        k = locate(x)
        if k is None:
            return np.zeros((dim_y, dim_x))
        d = _l2(x - xs[k])
        if abs(d - rho[k]) <= 1e-12 * rho[k]:
            return None
        g = (es[k].y - base.y) + float(es[k].x_star @ (x - xs[k])) * vs[k]
        jac = -(1.0 - (d / rho[k]) ** ps[k]) * np.outer(vs[k], es[k].x_star)
        if d > 0.0:
            ds = -ps[k] * d ** (ps[k] - 1.0) / rho[k] ** ps[k]
            jac -= np.outer(g, ds * (x - xs[k]) / d)
        return jac

    def count(x):
        return sum(1 for k in range(len(es)) if rho[k] > 0.0 and _l2(x - xs[k]) < rho[k])

    return evaluate, derivative, count


def _smooth_cap(m, tau):
    if m <= _DEAD_ZONE:
        return 1.0
    z = (m - _DEAD_ZONE) / tau
    return max(1.0 - z * z, 0.0)


def _smooth_cap_slope(m, tau):
    if m <= _DEAD_ZONE or m >= _DEAD_ZONE + tau:
        return 0.0
    return -2.0 * (m - _DEAD_ZONE) / (tau * tau)


def _cone_tau(tau, seq, gamma_dp, xn_max, with_dual):
    if with_dual and xn_max > 0.0:
        tau = min(tau, (gamma_dp - seq.gamma_prime) / (8.0 * xn_max))
    return max(tau - _DEAD_ZONE, 1e-7)


def _cap_slope_term(jac, pay, dx, alpha, m, tau, w_dir, u_star):
    sl = _smooth_cap_slope(m, tau)
    r = dx - alpha * w_dir
    nr = _l2(r)
    if sl != 0.0 and nr > 0.0:
        rhat = r / nr
        grad_m = (rhat - float(w_dir @ rhat) * u_star) / alpha - (m / alpha) * u_star
        jac -= np.outer(pay, sl * grad_m)
    return jac


def _cone_shell(e, base, kind, u_star, w_dir, with_dual):
    a = float(u_star @ (e.x - base.x))
    dy = e.y - base.y
    if with_dual:
        xh = e.x_star - float(e.x_star @ w_dir) * u_star
        c = float(xh @ (e.x - base.x))
        v = norming_vector(e.y_star, kind)
    else:
        xh = np.zeros_like(e.x_star)
        c = 0.0
        v = np.zeros_like(dy)
    return {"entry": e, "a": a, "dy": dy, "xh": xh, "c": c, "v": v}


def _cone_case1(seq, gamma, with_dual):
    base = seq.base
    gamma_dp = 0.5 * (gamma + seq.gamma_prime)
    reps = {}
    for e in seq.entries:
        key = _dir_key(e.u, _CLUSTER_TOL)
        if key not in reps or e.t < reps[key].t:
            reps[key] = e
    entries = sorted(reps.values(), key=lambda e: -e.t)
    dmin = math.inf
    for i, a in enumerate(entries):
        for b in entries[i + 1:]:
            dmin = min(dmin, _l2(a.u - b.u))
    tau = _cone_tau(min(0.45, dmin / 4.0) if math.isfinite(dmin) else 0.45, seq, gamma_dp,
                    max(e.xn for e in entries), with_dual)
    cones = []
    for e in entries:
        u_star = norming_functional(e.x - base.x, seq.norm_kind)
        a = float(u_star @ (e.x - base.x))
        w_dir = (e.x - base.x) / a
        shell = _cone_shell(e, base, seq.norm_kind, u_star, w_dir, with_dual)
        shell["u_star"], shell["w"] = u_star, w_dir
        cones.append(shell)
    dim_y, dim_x = entries[0].y.size, entries[0].x.size

    def membership(x, k):
        dx = x - base.x
        alpha = float(cones[k]["u_star"] @ dx)
        if alpha <= 0.0:
            return None
        m = _l2(dx - alpha * cones[k]["w"]) / alpha
        return (dx, alpha, m) if m < _DEAD_ZONE + tau else None

    def evaluate(x):
        for k, cone in enumerate(cones):
            hit = membership(x, k)
            if hit is None:
                continue
            dx, alpha, m = hit
            s = _smooth_cap(m, tau)
            pay = (alpha / cone["a"]) * cone["dy"] + (float(cone["xh"] @ dx) - cone["c"]) * cone["v"]
            return -s * pay
        return np.zeros(dim_y)

    def derivative(x):
        for k, cone in enumerate(cones):
            hit = membership(x, k)
            if hit is None:
                continue
            dx, alpha, m = hit
            if abs(m - (_DEAD_ZONE + tau)) <= 1e-9:
                return None
            s = _smooth_cap(m, tau)
            pay = (alpha / cone["a"]) * cone["dy"] + (float(cone["xh"] @ dx) - cone["c"]) * cone["v"]
            jac = -s * (np.outer(cone["dy"] / cone["a"], cone["u_star"])
                        + np.outer(cone["v"], cone["xh"]))
            return _cap_slope_term(jac, pay, dx, alpha, m, tau, cone["w"], cone["u_star"])
        return np.zeros((dim_y, dim_x))

    def count(x):
        return sum(1 for k in range(len(cones)) if membership(x, k) is not None)

    return evaluate, derivative, count


def _cone_case2(seq, gamma, with_dual):
    base = seq.base
    gamma_dp = 0.5 * (gamma + seq.gamma_prime)
    es = seq.entries
    fin = es[-1]
    u_star = norming_functional(fin.x - base.x, seq.norm_kind)
    w_dir = (fin.x - base.x) / float(u_star @ (fin.x - base.x))
    tau = _cone_tau(0.45, seq, gamma_dp, max(e.xn for e in es), with_dual)
    shells = sorted((_cone_shell(e, base, seq.norm_kind, u_star, w_dir, with_dual) for e in es),
                    key=lambda s: -s["a"])
    bs = [s["a"] for s in shells]
    floor = bs[-1] * math.exp(-(len(bs) + 1.0))
    bs_asc = bs[::-1]
    dim_y, dim_x = es[0].y.size, es[0].x.size

    def payload(idx, dx, alpha):
        s = shells[idx]
        return (alpha / s["a"]) * s["dy"] + (float(s["xh"] @ dx) - s["c"]) * s["v"]

    def payload_grad(idx):
        s = shells[idx]
        return np.outer(s["dy"] / s["a"], u_star) + np.outer(s["v"], s["xh"])

    def cell(alpha):
        return len(bs) - bisect.bisect_right(bs_asc, alpha)

    def membership(x):
        dx = x - base.x
        alpha = float(u_star @ dx)
        if alpha <= floor:
            return None
        m = _l2(dx - alpha * w_dir) / alpha
        if m >= _DEAD_ZONE + tau:
            return None
        return dx, alpha, m

    def evaluate(x):
        hit = membership(x)
        if hit is None:
            return np.zeros(dim_y)
        dx, alpha, m = hit
        s = _smooth_cap(m, tau)
        if s == 0.0:
            return np.zeros(dim_y)
        k = cell(alpha)
        if k == 0:
            t_val = payload(0, dx, alpha)
        elif k < len(bs):
            lam = math.log(alpha / bs[k]) / math.log(bs[k - 1] / bs[k])
            pk = payload(k, dx, alpha)
            t_val = pk + lam * (payload(k - 1, dx, alpha) - pk)
        else:
            lam = math.log(alpha / floor) / math.log(bs[-1] / floor)
            t_val = lam * payload(len(bs) - 1, dx, alpha)
        return -s * t_val

    def derivative(x):
        hit = membership(x)
        if hit is None:
            return np.zeros((dim_y, dim_x))
        dx, alpha, m = hit
        if abs(m - (_DEAD_ZONE + tau)) <= 1e-9:
            return None
        s = _smooth_cap(m, tau)
        k = cell(alpha)
        if k == 0:
            t_val = payload(0, dx, alpha)
            grad_t = payload_grad(0)
        elif k < len(bs):
            big_l = math.log(bs[k - 1] / bs[k])
            lam = math.log(alpha / bs[k]) / big_l
            pk = payload(k, dx, alpha)
            pk1 = payload(k - 1, dx, alpha)
            t_val = pk + lam * (pk1 - pk)
            grad_t = (payload_grad(k) + lam * (payload_grad(k - 1) - payload_grad(k))
                      + np.outer(pk1 - pk, u_star / (alpha * big_l)))
        else:
            big_l = math.log(bs[-1] / floor)
            lam = math.log(alpha / floor) / big_l
            pk = payload(len(bs) - 1, dx, alpha)
            t_val = lam * pk
            grad_t = lam * payload_grad(len(bs) - 1) + np.outer(pk, u_star / (alpha * big_l))
        return _cap_slope_term(-s * grad_t, t_val, dx, alpha, m, tau, w_dir, u_star)

    def count(x):
        return int(membership(x) is not None)

    return evaluate, derivative, count


def annulus_candidates(recs, obj, keep, j, base):
    """perturb._candidates on the records of one annulus j, as it was
    written with one dict per kept record, each key's best kept by tuple
    comparison in record order."""
    best = {}
    for t, x, y, x_star, y_star, eps, ratio, xn, q, ob in zip(
            recs.t[keep].tolist(), recs.x[keep], recs.y[keep], recs.x_star[keep],
            recs.y_star[keep], recs.eps[keep].tolist(), recs.ratio[keep].tolist(),
            recs.xn[keep].tolist(), recs.q[keep].tolist(), obj[keep].tolist()):
        u = (x - base.x) / t
        dy = y - base.y
        pay = dy / float(np.max(np.abs(dy))) if np.any(dy) else dy
        cand = {"t": t, "x": x, "y": y, "x_star": x_star, "y_star": y_star, "eps": eps,
                "ratio": ratio, "xn": xn, "q": q, "u": u, "annulus": j, "obj": ob,
                "pay": pay}
        key = (_dir_key(u, 0.25), _dir_key(pay, 0.25), _dir_key(y_star, 0.25))
        cur = best.get(key)
        if cur is None or _cand_order(cand) < _cand_order(cur):
            best[key] = cand
    return sorted(best.values(), key=_cand_order)


def validate_witness(seq):
    """perturb.validate_witness as it was written entry by entry, with one
    norm, dual norm and element quotient per entry and per pair."""
    out = []
    es = seq.entries
    for a, b in zip(es, es[1:]):
        if not b.t < a.t:
            out.append(f"scales not strictly decreasing at t={b.t:g}")
        if b.eps > _EPS_FLOOR and not b.eps < a.eps:
            out.append(f"eps not strictly decreasing above the floor at t={b.t:g}")
    if seq.kind in ("lip", "fclm"):
        for a, b in zip(es, es[1:]):
            if not b.t < a.t / (2.0 * (a.index + 1)):
                out.append(f"factorial thinning violated between t={a.t:g} and t={b.t:g}")
    elif seq.direction_mode == "stationary":
        for pos, (a, b) in enumerate(zip(es, es[1:]), start=2):
            if not b.t < math.exp(-float(pos)) * a.t:
                out.append(f"exponential thinning violated between t={a.t:g} and t={b.t:g}")
    else:
        for i, a in enumerate(es):
            for b in es[i + 1:]:
                if _l2(a.u - b.u) < _CLUSTER_TOL:
                    out.append("distinct-direction mode with clustered directions")
    worst = 0.0
    for e in es:
        if abs(dual_norm(e.y_star, seq.norm_kind) - 1.0) > 1e-9:
            out.append("y* not on the dual unit sphere")
        obj = _objective(seq.kind, e.ratio, e.xn)
        worst = max(worst, obj)
        if obj > seq.gamma_prime * (1.0 + 1e-12):
            out.append(f"entry objective {obj:g} exceeds gamma_prime {seq.gamma_prime:g}")
        if seq.kind == "ss" and e.q > min(0.5, 16.0 * e.t) * (1.0 + 1e-12):
            out.append("ss entry defect exceeds its scale bound")
        t = norm(e.x - seq.base.x, seq.norm_kind)
        actual = {"t": t,
                  "ratio": norm(e.y - seq.base.y, seq.norm_kind) / t if t > 0.0 else math.inf,
                  "xn": dual_norm(e.x_star, seq.norm_kind)}
        if seq.kind == "ss":
            actual["q"] = element_quotient(CoderivElement(e.x, e.y, e.y_star, e.x_star),
                                           seq.base, seq.norm_kind)
        out += [f"entry {e.index} stores {name} {getattr(e, name):g} below the {v:g} "
                f"its points give" for name, v in actual.items()
                if not v <= getattr(e, name) * (1.0 + 1e-12)]
    if es and abs(worst - seq.gamma_prime) > 1e-12 * max(1.0, worst):
        out.append("gamma_prime is not the supremum of entry objectives")
    if not seq.gamma_prime < seq.gamma:
        out.append("gamma_prime not below gamma")
    return out
