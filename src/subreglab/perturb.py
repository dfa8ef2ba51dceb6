"""Witness sequences and constructive destabilizing perturbations.

A witness sequence certifies that a constant sits below a target gamma: its
entries are coderivative elements (graph points for the ssr kind) whose
objective stays below gamma along a strictly thinning scale sequence. The
builders turn such a sequence into a concrete single-valued f with modulus
below gamma that destroys the matching regularity of F + f, interpolating
f(x_k) = yb - y_k exactly at the witness points.

Two geometries are used. Bump builders (lip, fclm) place disjoint radial
bumps around each x_k with profile 1 - (d/rho_k)^(1+1/k); the factorial
thinning t_{k+1} < t_k/(2(k+1)) separates their supports, and the builders
refuse a witness whose l2 supports still overlap or hold the base. Cone builders
(ss, ssr) attach payloads to dual cones along witness directions: distinct
directions get one positively homogeneous cone each (case 1), a stationary
direction gets a single cone whose payload interpolates log-linearly in
scale between the witness shells (case 2). Cone membership is measured by
m = ||r||_2 / alpha with a flat dead zone m <= 1e-5, wide enough that
direction jitter within the clustering tolerance cannot shave the cap below
1 at an anchor.

Exactness is engineered, not hoped for: payloads carry the factor
alpha(x)/alpha(x_k), which floating point evaluates to exactly 1.0 at x_k,
and affine residues of the dual projection are subtracted as constants
computed by the same expression the evaluator uses, so f(x_k) = yb - y_k
holds bitwise. Bump and cone internal geometry uses the euclidean norm
regardless of the ambient norm kind; moduli are certified in the ambient
norm through exact norming vectors.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import (
    NormContext,
    ScaleLadder,
    derive_seed,
    norming_functional,
    norming_vector,
    norms,
    sample_annulus,
)
from .mappings import (
    GraphPoint,
    SetValuedMap,
    _point_rows,
    _rows,
    anchored,
    make_function_graph,
    sum_with_function,
)
from .moduli import (
    ElementRecords,
    _memo_annuli,
    build_element_pool,
    estimate_clm,
    estimate_constant,
    estimate_lip,
    estimate_ssrg,
)
from .variational import (
    CoderivElement,
    element_quotient,
    positive_homogeneity_test,
    semismooth_star_test,
)

__all__ = [
    "WitnessError",
    "WitnessEntry",
    "WitnessSequence",
    "Perturbation",
    "BuilderReport",
    "extract_witness",
    "validate_witness",
    "build_lip_perturbation",
    "build_fclm_perturbation",
    "build_ss_perturbation",
    "build_ssr_destabilizer",
    "verify_builder",
    "firmly_calm_test",
    "random_calm_perturbation",
    "load_perturbation",
]

_T_FLOOR = 1e-11
_EPS_FLOOR = 1e-12
_DEAD_ZONE = 1e-5
_CLUSTER_TOL = 1e-6
_SEPARATION = 1e-2
_MIN_ENTRIES = 4
_MAX_ENTRIES = 6


class WitnessError(RuntimeError):
    """Raised when no admissible witness sequence exists for the target."""


@dataclass
class WitnessEntry:
    """One witness element: scale, graph point, dual pair, and its stats."""

    index: int  # the k entering bump exponents and margin formulas
    t: float
    x: np.ndarray
    y: np.ndarray
    x_star: np.ndarray
    y_star: np.ndarray
    eps: float
    ratio: float  # ||y - yb|| / t
    xn: float  # ||x*|| in the dual norm
    q: float  # base defect quotient
    u: np.ndarray  # unit primal direction (x - xb) / t


@dataclass
class WitnessSequence:
    kind: str  # lip | fclm | ss | ssr
    entries: list[WitnessEntry]
    gamma: float
    gamma_prime: float
    direction_mode: str  # distinct | stationary
    u: np.ndarray | None
    k_hat: int
    base: GraphPoint | None = None
    norm_kind: str = "l1"

    @property
    def scales(self) -> list[float]:
        return [e.t for e in self.entries]

    def context(self) -> NormContext:
        e = self.entries[0]
        return NormContext(kind=self.norm_kind, dim_x=e.x.size, dim_y=e.y.size)


def _objective(kind: str, ratio: float, xn: float) -> float:
    return ratio + xn if kind == "lip" else ratio


def _dir_key(v: np.ndarray, width: float) -> tuple:
    return tuple(int(round(float(c) / width)) for c in np.atleast_1d(v))


def _cand_order(c: dict) -> tuple:
    # smaller objective first, then leading-positive direction, then larger t
    return (c["obj"], -float(c["u"][0]), -c["t"])


def _graph_records(F: SetValuedMap, base: GraphPoint, ctx: NormContext, inner: float,
                   outer: float, pts: list[GraphPoint], cut: float) -> ElementRecords:
    """The ssr records of one annulus: its graph points with ratio at most
    cut, x* = 0 and y* the norming functional of y - yb (e_1 at y = yb)."""
    X, Y = _point_rows(F, pts)
    t = norms(X - base.x, ctx.kind)
    inside = (inner < t) & (t <= outer) & (t > 0.0)
    X, Y, t = X[inside], Y[inside], t[inside]
    dy = Y - base.y
    yn = norms(dy, ctx.kind)
    ratio = yn / t
    keep = ~(ratio > cut)  # before the norming functionals, which cost more
    X, Y, t, dy, yn, ratio = X[keep], Y[keep], t[keep], dy[keep], yn[keep], ratio[keep]
    y_star = np.zeros_like(Y)
    y_star[:, 0] = 1.0
    for k in np.flatnonzero(yn > 0.0):
        y_star[k] = norming_functional(dy[k], ctx.kind)
    zero = np.zeros(len(t))
    return ElementRecords(t=t, ratio=ratio, xn=zero, q=zero, eps=zero, x=X, y=Y,
                          x_star=np.zeros_like(X), y_star=y_star)


def _collect_candidates(F: SetValuedMap, base: GraphPoint, kind: str, gamma: float,
                        ladder: ScaleLadder, ctx: NormContext, start: int = 0) -> list[dict]:
    """Per-annulus candidates with objective strictly below gamma, annuli start and inward.

    A candidate comes from a record: an element record, or for the ssr
    kind a graph point. The objective and the ss defect guard are tested
    on the columns, and only the records that pass them become candidate
    dicts. Each annulus keeps its best candidate per coarse (direction,
    payload, y*) orientation key, so that both the stationary clustering
    and the distinct-direction selection see every available family. An
    annulus's candidates depend only on gamma, its radius and its graph
    sample or records, which F's memo holds once drawn or built.
    """
    cut = gamma * (1.0 - 1e-9)
    if kind == "ssr":
        graph = _memo_annuli(F, base, ctx, ladder, 71, "graph", lambda *annulus: annulus)
        annuli = [(j, _graph_records(F, base, ctx, inner, outer, pts, cut))
                  for j, inner, outer, pts in graph[start:]]
    else:
        records, _ = build_element_pool(F, base, ladder, ctx)
        annuli = [(j, records[j]) for j in range(start, ladder.depth)]
    cands: list[dict] = []
    for j, recs in annuli:
        r_j = ladder.radius(j)
        obj = _objective(kind, recs.ratio, recs.xn)
        drop = obj > cut  # a NaN objective is kept, as a float comparison keeps it
        if kind == "ss":
            drop |= recs.q > min(0.5, 8.0 * r_j)
        k = np.flatnonzero(~drop)
        best: dict[tuple, dict] = {}
        for t, x, y, x_star, y_star, eps, ratio, xn, q, ob in zip(
                recs.t[k].tolist(), recs.x[k], recs.y[k], recs.x_star[k], recs.y_star[k],
                recs.eps[k].tolist(), recs.ratio[k].tolist(), recs.xn[k].tolist(),
                recs.q[k].tolist(), obj[k].tolist()):
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
        cands.extend(sorted(best.values(), key=_cand_order))
    return cands


def extract_witness(F: SetValuedMap, base: GraphPoint, kind: str, gamma: float,
                    ladder: ScaleLadder, ctx: NormContext,
                    direction_mode: str = "auto") -> WitnessSequence:
    """Extract a thinning witness sequence certifying the kind's constant < gamma.

    The kinds pair with constants: lip with srg1p objectives (ratio plus
    dual norm), fclm with srg2p (ratio), ss with srg4p (ratio under the
    defect filter), ssr with the strong subregularity quotient on graph
    points. Raises WitnessError("no witness below gamma ...") when no
    candidate beats gamma at any scale, and WitnessError("insufficient
    depth ...") when thinning cannot assemble _MIN_ENTRIES entries above
    the scale floor; the ladder is deepened by 8 annuli at a time before
    giving up.

    Graph samples and element records come from F's memo. Each deepening
    collects candidates from the new annuli only and appends them, in the
    order a collection over the whole deepened ladder gives.
    """
    if kind not in ("lip", "fclm", "ss", "ssr"):
        raise ValueError(f"unknown witness kind {kind!r}")
    if direction_mode not in ("auto", "distinct", "stationary"):
        raise ValueError(f"unknown direction mode {direction_mode!r}")
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    work, start, cands = ladder, 0, []
    while True:
        cands += _collect_candidates(F, base, kind, gamma, work, ctx, start)
        seq = _try_select(cands, kind, gamma, direction_mode, ctx) if cands else None
        if seq is not None:
            break
        if work.radius(work.depth) < _T_FLOOR:
            if not cands:
                raise WitnessError(
                    f"no witness below gamma: no {kind} candidate beats {gamma:g} "
                    f"down to radius {work.radius(work.depth):.3e}")
            raise WitnessError(
                f"insufficient depth: fewer than {_MIN_ENTRIES} thinned {kind} "
                f"entries above the scale floor {_T_FLOOR:g}")
        start, work = work.depth, work.deepen(8)
    seq.base = GraphPoint(base.x.copy(), base.y.copy())
    problems = validate_witness(seq, ctx)
    if problems:
        raise WitnessError("internal witness invariant violation: " + "; ".join(problems))
    return seq


def _try_select(cands: list[dict], kind: str, gamma: float, direction_mode: str,
                ctx: NormContext) -> WitnessSequence | None:
    # margin preference: when enough scales offer comfortable candidates,
    # drop the ones close to gamma (a smaller gamma' buys larger bumps)
    strict = [c for c in cands if c["obj"] <= 0.55 * gamma]
    if len({c["annulus"] for c in strict}) >= 6:
        cands = strict
    gamma0 = max(c["obj"] for c in cands)

    mode, u = "distinct", None
    if kind in ("lip", "fclm"):
        k_hat = _index_shift(gamma0, gamma)
        if k_hat is None:
            return None
        picked = _thin(cands, lambda c, got: c["t"] < got[-1]["t"] / (2.0 * (k_hat + len(got))))
    else:
        k_hat = 1
        mode, members = _choose_mode(cands, direction_mode)
        if mode == "stationary":
            picked = _thin(members, lambda c, got: c["t"] < math.exp(-float(len(got) + 1))
                           * got[-1]["t"])
        else:
            picked = _thin(members, lambda c, got: c["t"] < got[-1]["t"] / 2.0 and not any(
                float(np.linalg.norm(c["u"] - g["u"])) < _SEPARATION for g in got))
    if len(picked) < _MIN_ENTRIES:
        return None

    entries = []
    for pos, c in enumerate(picked):
        entries.append(WitnessEntry(
            index=k_hat + pos, t=c["t"],
            x=np.array(c["x"], dtype=float), y=np.array(c["y"], dtype=float),
            x_star=np.array(c["x_star"], dtype=float),
            y_star=np.array(c["y_star"], dtype=float),
            eps=c["eps"], ratio=c["ratio"], xn=c["xn"], q=c["q"],
            u=np.array(c["u"], dtype=float)))
    gamma_prime = max(c["obj"] for c in picked)
    if kind in ("ss", "ssr") and mode == "stationary":
        u = entries[-1].u.copy()
    return WitnessSequence(kind=kind, entries=entries, gamma=gamma,
                           gamma_prime=gamma_prime, direction_mode=mode, u=u,
                           k_hat=k_hat, norm_kind=ctx.kind)


def _index_shift(gamma0: float, gamma: float) -> int | None:
    """Smallest k with gamma0 * (1 + 1/k)^2 < gamma."""
    if gamma0 == 0.0:
        return 1
    if gamma0 >= gamma:
        return None
    for k in range(1, 200001):
        if gamma0 * (1.0 + 1.0 / k) ** 2 < gamma:
            return k
    return None


def _eps_step_ok(prev: float, new: float) -> bool:
    return new <= _EPS_FLOOR or new < prev * (1.0 - 1e-9)


def _thin(cands: list[dict], accept: Callable) -> list[dict]:
    """Greedy thinning from the largest t, ties by objective, up to _MAX_ENTRIES.

    The first candidate always joins; a later one joins when accept(c,
    picked so far) holds and its eps steps down (_eps_step_ok).
    """
    picked: list[dict] = []
    for c in sorted(cands, key=lambda c: (-c["t"], c["obj"])):
        if not picked or (accept(c, picked) and _eps_step_ok(picked[-1]["eps"], c["eps"])):
            picked.append(c)
            if len(picked) >= _MAX_ENTRIES:
                break
    return picked


def _choose_mode(cands: list[dict], direction_mode: str) -> tuple[str, list[dict]]:
    """Stationary vs distinct dispatch by clustering per-annulus argmins.

    The per-annulus best candidates drive the decision: when at least
    max(4, half) of them share a direction within the clustering tolerance,
    the mode is stationary on that cluster, further restricted to its
    dominant payload/y* orientation so one cone carries a coherent
    interpolation. Otherwise the mode is distinct over all candidates.
    """
    if direction_mode == "distinct":
        return "distinct", cands
    per_annulus: dict[int, dict] = {}
    for c in cands:
        cur = per_annulus.get(c["annulus"])
        if cur is None or _cand_order(c) < _cand_order(cur):
            per_annulus[c["annulus"]] = c
    argmins = list(per_annulus.values())
    clusters: list[list[dict]] = []
    for c in argmins:
        for cl in clusters:
            if float(np.linalg.norm(c["u"] - cl[0]["u"])) < _CLUSTER_TOL:
                cl.append(c)
                break
        else:
            clusters.append([c])
    dominant = max(clusters, key=len)
    stationary_ok = len(dominant) >= max(4, (len(argmins) + 1) // 2)
    if direction_mode == "auto" and not stationary_ok:
        return "distinct", cands
    u_rep = dominant[0]["u"]
    members = [c for c in cands if float(np.linalg.norm(c["u"] - u_rep)) < _CLUSTER_TOL]
    groups: dict[tuple, list[dict]] = {}
    for c in members:
        groups.setdefault((_dir_key(c["pay"], 0.25), _dir_key(c["y_star"], 0.25)), []).append(c)
    sub = max(groups.values(), key=len)
    return "stationary", sorted(sub, key=_cand_order)


def validate_witness(seq: WitnessSequence, ctx: NormContext | None = None) -> list[str]:
    """Check the witness invariants; returns human-readable violations.

    Each entry's t, ratio and xn (and q for the ss kind) are recomputed from
    its points and the base; a stored value below the recomputed one is a
    violation.
    """
    ctx = ctx or seq.context()
    out: list[str] = []
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
                if float(np.linalg.norm(a.u - b.u)) < _CLUSTER_TOL:
                    out.append("distinct-direction mode with clustered directions")
    worst = 0.0
    for e in es:
        if abs(ctx.dual_norm(e.y_star) - 1.0) > 1e-9:
            out.append("y* not on the dual unit sphere")
        obj = _objective(seq.kind, e.ratio, e.xn)
        worst = max(worst, obj)
        if obj > seq.gamma_prime * (1.0 + 1e-12):
            out.append(f"entry objective {obj:g} exceeds gamma_prime {seq.gamma_prime:g}")
        # collection bounds q by min(0.5, 8 r) with annulus radius r; an
        # entry's t can sit a factor 2 below r, hence 16 t here
        if seq.kind == "ss" and e.q > min(0.5, 16.0 * e.t) * (1.0 + 1e-12):
            out.append("ss entry defect exceeds its scale bound")
        t = ctx.norm(e.x - seq.base.x)
        actual = {"t": t, "ratio": ctx.norm(e.y - seq.base.y) / t if t > 0.0 else math.inf,
                  "xn": ctx.dual_norm(e.x_star)}
        if seq.kind == "ss":
            actual["q"] = element_quotient(CoderivElement(e.x, e.y, e.y_star, e.x_star),
                                           seq.base, ctx)
        out += [f"entry {e.index} stores {name} {getattr(e, name):g} below the {v:g} "
                f"its points give" for name, v in actual.items()
                if not v <= getattr(e, name) * (1.0 + 1e-12)]
    if es and abs(worst - seq.gamma_prime) > 1e-12 * max(1.0, worst):
        out.append("gamma_prime is not the supremum of entry objectives")
    if not seq.gamma_prime < seq.gamma:
        out.append("gamma_prime not below gamma")
    return out


# ---------------------------------------------------------------------------
# the perturbation record


def _hex_vec(v) -> list[str]:
    return [float(c).hex() for c in np.atleast_1d(np.asarray(v, dtype=float))]


def _unhex_vec(h) -> np.ndarray:
    return np.array([float.fromhex(c) for c in h], dtype=float)


@dataclass
class Perturbation:
    """A constructed single-valued perturbation with verification hooks.

    eval(xb) = 0 and eval(x_k) = yb - y_k hold exactly; at most one bump or
    cone is active at any point (component_count counts them by brute
    force). derivative returns the Jacobian where f is differentiable; on
    the measure-zero seams of the cap factors it returns None, except at
    case-2 cell boundaries where it returns the one-sided (from coarser
    scale) Jacobian, which is a genuine limiting derivative there. anchors
    are the graph points (x_k, yb) of F + f; anchor_eps bounds the one-sided
    derivative gap at each anchor (zero for bump and case-1 builds).
    """

    eval: Callable
    derivative: Callable
    class_tag: str  # lip | fclm | fclm_ss | ssr
    gamma: float
    gamma_prime: float
    gamma_dp: float
    witness: WitnessSequence
    component_count: Callable
    anchors: list = field(default_factory=list)
    anchor_targets: list = field(default_factory=list)
    anchor_eps: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    floor_radius: float = 0.0
    case: int | None = None
    name: str = "perturbation"
    dim_x: int = 1
    dim_y: int = 1

    def describe(self) -> dict:
        """Portable description; load_perturbation rebuilds bit-identically."""
        w = self.witness
        return {
            "class_tag": self.class_tag,
            "gamma": float(self.gamma).hex(),
            "witness": {
                "kind": w.kind,
                "gamma": float(w.gamma).hex(),
                "gamma_prime": float(w.gamma_prime).hex(),
                "direction_mode": w.direction_mode,
                "k_hat": w.k_hat,
                "norm_kind": w.norm_kind,
                "u": _hex_vec(w.u) if w.u is not None else None,
                "base_x": _hex_vec(w.base.x),
                "base_y": _hex_vec(w.base.y),
                "entries": [
                    {
                        "index": e.index, "t": float(e.t).hex(),
                        "x": _hex_vec(e.x), "y": _hex_vec(e.y),
                        "x_star": _hex_vec(e.x_star), "y_star": _hex_vec(e.y_star),
                        "eps": float(e.eps).hex(), "ratio": float(e.ratio).hex(),
                        "xn": float(e.xn).hex(), "q": float(e.q).hex(),
                        "u": _hex_vec(e.u),
                    }
                    for e in w.entries
                ],
            },
        }


def load_perturbation(desc: dict) -> "Perturbation":
    """Rebuild a perturbation from describe() output.

    The builders are pure functions of the witness table and gamma, so the
    reloaded perturbation evaluates bit-identically. A description that
    fails validate_witness (for example one whose stored stats understate
    what its points give) raises WitnessError.
    """
    wd = desc["witness"]
    entries = [
        WitnessEntry(
            index=int(d["index"]), t=float.fromhex(d["t"]),
            x=_unhex_vec(d["x"]), y=_unhex_vec(d["y"]),
            x_star=_unhex_vec(d["x_star"]), y_star=_unhex_vec(d["y_star"]),
            eps=float.fromhex(d["eps"]), ratio=float.fromhex(d["ratio"]),
            xn=float.fromhex(d["xn"]), q=float.fromhex(d["q"]),
            u=_unhex_vec(d["u"]),
        )
        for d in wd["entries"]
    ]
    w = WitnessSequence(
        kind=wd["kind"], entries=entries, gamma=float.fromhex(wd["gamma"]),
        gamma_prime=float.fromhex(wd["gamma_prime"]),
        direction_mode=wd["direction_mode"],
        u=_unhex_vec(wd["u"]) if wd["u"] is not None else None,
        k_hat=int(wd["k_hat"]),
        base=GraphPoint(_unhex_vec(wd["base_x"]), _unhex_vec(wd["base_y"])),
        norm_kind=wd["norm_kind"],
    )
    problems = validate_witness(w)
    if problems:
        raise WitnessError("invalid witness: " + "; ".join(problems))
    gamma = float.fromhex(desc["gamma"])
    tag = desc["class_tag"]
    if tag == "lip":
        return build_lip_perturbation(w, gamma)
    if tag == "fclm":
        return build_fclm_perturbation(w, gamma)
    if tag == "fclm_ss":
        return build_ss_perturbation(w, gamma)
    if tag == "ssr":
        return _build_ssr(w, gamma)
    raise ValueError(f"unknown perturbation class {tag!r}")


def _l2(v) -> float:
    return float(np.linalg.norm(np.asarray(v, dtype=float)))


# ---------------------------------------------------------------------------
# bump builders (lip, fclm)


def _build_bump(seq: WitnessSequence, gamma: float, rho: list[float], tag: str,
                gamma_dp: float) -> Perturbation:
    ctx = seq.context()
    base = seq.base
    es = seq.entries
    xs = [e.x for e in es]
    vs = [norming_vector(e.y_star, ctx.kind) for e in es]
    ps = [1.0 + 1.0 / e.index for e in es]
    dim_y = es[0].y.size
    dim_x = es[0].x.size
    # the supports are l2 balls, so their shells around the base are
    # measured in l2 too (in 1-D, d_k is t_k); the innermost must miss the base
    ds = [_l2(x - base.x) for x in xs]
    if not (all(ds[i + 1] + rho[i + 1] < ds[i] - rho[i] for i in range(len(ds) - 1))
            and ds[-1] - rho[-1] > 0.0):
        raise WitnessError("bump supports overlap; thinning insufficient")
    ds_asc = ds[::-1]

    def locate(x) -> int | None:
        # the shells are disjoint, so only the two nearest in l2 can hold x
        x = np.atleast_1d(np.asarray(x, dtype=float))
        pos = bisect.bisect_left(ds_asc, _l2(x - base.x))
        for idx_asc in (pos - 1, pos):
            if 0 <= idx_asc < len(ds_asc):
                k = len(ds_asc) - 1 - idx_asc
                if rho[k] > 0.0 and _l2(x - xs[k]) < rho[k]:
                    return k
        return None

    def count(x) -> int:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return sum(1 for k in range(len(xs)) if rho[k] > 0.0 and _l2(x - xs[k]) < rho[k])

    def evaluate(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k = locate(x)
        if k is None:
            return np.zeros(dim_y)
        d = _l2(x - xs[k])
        s = max(1.0 - (d / rho[k]) ** ps[k], 0.0)
        g = (es[k].y - base.y) + float(es[k].x_star @ (x - xs[k])) * vs[k]
        return -s * g

    def derivative(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k = locate(x)
        if k is None:
            return np.zeros((dim_y, dim_x))
        d = _l2(x - xs[k])
        if abs(d - rho[k]) <= 1e-12 * rho[k]:
            return None  # support boundary kink
        g = (es[k].y - base.y) + float(es[k].x_star @ (x - xs[k])) * vs[k]
        jac = -(1.0 - (d / rho[k]) ** ps[k]) * np.outer(vs[k], es[k].x_star)
        if d > 0.0:
            ds = -ps[k] * d ** (ps[k] - 1.0) / rho[k] ** ps[k]
            jac -= np.outer(g, ds * (x - xs[k]) / d)
        return jac

    probes = []
    for k in range(len(es)):
        if rho[k] > 0.0:
            for frac in (0.35, 0.8):
                for i in range(min(dim_x, 2)):
                    e_i = np.zeros(dim_x)
                    e_i[i] = frac * rho[k]
                    probes.append(xs[k] + e_i)
                    probes.append(xs[k] - e_i)

    return Perturbation(
        eval=evaluate, derivative=derivative, class_tag=tag, gamma=gamma,
        gamma_prime=seq.gamma_prime, gamma_dp=gamma_dp, witness=seq,
        component_count=count,
        anchors=[(xs[k], base.y.copy()) for k in range(len(es))],
        anchor_targets=[base.y - e.y for e in es],
        anchor_eps=[0.0] * len(es),
        probes=probes, floor_radius=0.0, case=None,
        name=f"{tag} destabilizer", dim_x=dim_x, dim_y=dim_y,
    )


def build_lip_perturbation(w: WitnessSequence, gamma: float) -> Perturbation:
    """Lipschitz destabilizer from a lip witness sequence.

    Bumps f = -sum s_k g_k with s_k(x) = max(1 - (||x-x_k||/rho_k)^(1+1/k), 0),
    g_k(x) = (y_k - yb) + <x*_k, x - x_k> v_k, and rho_k = k t_k/(k+1).
    The per-bump slope stays below (1+1/k)^2 (ratio_k + ||x*_k||), which
    the index shift k_hat keeps under gamma'' < gamma.
    """
    if w.kind != "lip":
        raise ValueError("build_lip_perturbation needs a lip witness")
    if not w.gamma_prime * (1.0 + 1.0 / w.k_hat) ** 2 < gamma:
        raise WitnessError("no witness below gamma: certified constant too large")
    gamma_dp = 0.5 * (gamma + w.gamma_prime * (1.0 + 1.0 / w.k_hat) ** 2)
    rho = []
    for e in w.entries:
        margin = (1.0 + 1.0 / e.index) ** 2 * (e.ratio + e.xn)
        if margin > gamma_dp * (1.0 + 1e-12):
            raise WitnessError("insufficient depth: witness margin too thin for the slope bound")
        rho.append(e.index / (e.index + 1.0) * e.t)
    return _build_bump(w, gamma, rho, "lip", gamma_dp)


def build_fclm_perturbation(w: WitnessSequence, gamma: float) -> Perturbation:
    """Firmly calm destabilizer from an fclm witness sequence.

    Same bump family with dual-shrunk radii rho_k = min(1/(k+1),
    gt/((k+1)(1+||x*_k||))) t_k where gt = max(gamma', gamma''/4). The gt
    floor replaces the bare gamma' of the reference construction: with
    ratios at the resolution floor (the interesting maps certify gamma'
    around 1e-15) the literal radii collapse below one ulp and nothing
    remains to verify; any factor below gamma'' keeps the calmness bound
    (1+1/k)(ratio_k + gt/(k+1)) <= gamma'', so the floor changes no
    guarantee, only the support sizes. Refuses witnesses whose
    eps_k ||x*_k|| fails to decay.
    """
    if w.kind != "fclm":
        raise ValueError("build_fclm_perturbation needs an fclm witness")
    if not w.gamma_prime * (1.0 + 1.0 / w.k_hat) ** 2 < gamma:
        raise WitnessError("no witness below gamma: certified constant too large")
    _check_eps_decay(w)
    gamma_dp = 0.5 * (gamma + w.gamma_prime * (1.0 + 1.0 / w.k_hat) ** 2)
    gt = max(w.gamma_prime, gamma_dp / 4.0)
    rho = []
    for e in w.entries:
        k = e.index
        bound = (1.0 + 1.0 / k) * (e.ratio + gt / (k + 1.0))
        if bound > gamma_dp * (1.0 + 1e-12):
            raise WitnessError("insufficient depth: witness margin too thin for the calm bound")
        rho.append(min(1.0 / (k + 1.0), gt / ((k + 1.0) * (1.0 + e.xn))) * e.t)
    return _build_bump(w, gamma, rho, "fclm", gamma_dp)


def _check_eps_decay(w: WitnessSequence) -> None:
    vals = [e.eps * e.xn for e in w.entries]
    if all(v <= _EPS_FLOOR for v in vals):
        return
    if vals[-1] >= vals[0] * (1.0 - 1e-9):
        raise WitnessError("witness quality insufficient: eps_k ||x*_k|| does not decay")


# ---------------------------------------------------------------------------
# cone builders (ss, ssr)


def _smooth_cap(m: float, tau: float) -> float:
    if m <= _DEAD_ZONE:
        return 1.0
    z = (m - _DEAD_ZONE) / tau
    return max(1.0 - z * z, 0.0)


def _smooth_cap_slope(m: float, tau: float) -> float:
    if m <= _DEAD_ZONE or m >= _DEAD_ZONE + tau:
        return 0.0
    return -2.0 * (m - _DEAD_ZONE) / (tau * tau)


def _cone_tau(tau: float, seq: WitnessSequence, gamma_dp: float, xn_max: float,
              with_dual: bool) -> float:
    """The cap width beyond the dead zone: tau, kept to tau ||x*|| <= (gamma'' - gamma')/8."""
    if with_dual and xn_max > 0.0:
        tau = min(tau, (gamma_dp - seq.gamma_prime) / (8.0 * xn_max))
    return max(tau - _DEAD_ZONE, 1e-7)


def _cap_slope_term(jac: np.ndarray, pay: np.ndarray, dx: np.ndarray, alpha: float,
                    m: float, tau: float, w_dir: np.ndarray, u_star: np.ndarray) -> np.ndarray:
    """jac minus pay times the gradient of the cap factor, where the cap slopes."""
    sl = _smooth_cap_slope(m, tau)
    r = dx - alpha * w_dir
    nr = _l2(r)
    if sl != 0.0 and nr > 0.0:
        rhat = r / nr
        grad_m = (rhat - float(w_dir @ rhat) * u_star) / alpha - (m / alpha) * u_star
        jac -= np.outer(pay, sl * grad_m)
    return jac


def _cone_shell(e: WitnessEntry, base: GraphPoint, ctx: NormContext,
                u_star: np.ndarray, w_dir: np.ndarray, with_dual: bool) -> dict:
    """Per-entry payload data: P(x) = (alpha/a) dy + (<xh*, x-xb> - c) v.

    The alpha/a factor is exactly 1.0 at x_k; c is the build-time value of
    the same pairing the evaluator computes, so the dual term vanishes
    bitwise at the anchor.
    """
    a = float(u_star @ (e.x - base.x))
    dy = e.y - base.y
    if with_dual:
        xh = e.x_star - float(e.x_star @ w_dir) * u_star
        c = float(xh @ (e.x - base.x))
        v = norming_vector(e.y_star, ctx.kind)
    else:
        xh = np.zeros_like(e.x_star)
        c = 0.0
        v = np.zeros_like(dy)
    return {"entry": e, "a": a, "dy": dy, "xh": xh, "c": c, "v": v}


def _build_cone_case1(seq: WitnessSequence, gamma: float, with_dual: bool,
                      tag: str) -> Perturbation:
    """One positively homogeneous cone per witness direction (case 1)."""
    ctx = seq.context()
    base = seq.base
    gamma_dp = 0.5 * (gamma + seq.gamma_prime)
    reps: dict[tuple, WitnessEntry] = {}
    for e in seq.entries:
        key = _dir_key(e.u, _CLUSTER_TOL)
        cur = reps.get(key)
        if cur is None or e.t < cur.t:
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
        u_star = norming_functional(e.x - base.x, ctx.kind)
        a = float(u_star @ (e.x - base.x))
        w_dir = (e.x - base.x) / a
        shell = _cone_shell(e, base, ctx, u_star, w_dir, with_dual)
        shell["u_star"] = u_star
        shell["w"] = w_dir
        cones.append(shell)

    dim_y = entries[0].y.size
    dim_x = entries[0].x.size

    def _membership(x, k):
        dx = np.atleast_1d(np.asarray(x, dtype=float)) - base.x
        alpha = float(cones[k]["u_star"] @ dx)
        if alpha <= 0.0:
            return None
        m = _l2(dx - alpha * cones[k]["w"]) / alpha
        return (dx, alpha, m) if m < _DEAD_ZONE + tau else None

    def count(x) -> int:
        return sum(1 for k in range(len(cones)) if _membership(x, k) is not None)

    def evaluate(x):
        for k, cone in enumerate(cones):
            hit = _membership(x, k)
            if hit is None:
                continue
            dx, alpha, m = hit
            s = _smooth_cap(m, tau)
            pay = (alpha / cone["a"]) * cone["dy"] + (float(cone["xh"] @ dx) - cone["c"]) * cone["v"]
            return -s * pay
        return np.zeros(dim_y)

    def derivative(x):
        for k, cone in enumerate(cones):
            hit = _membership(x, k)
            if hit is None:
                continue
            dx, alpha, m = hit
            if abs(m - (_DEAD_ZONE + tau)) <= 1e-9:
                return None  # cap boundary kink
            s = _smooth_cap(m, tau)
            pay = (alpha / cone["a"]) * cone["dy"] + (float(cone["xh"] @ dx) - cone["c"]) * cone["v"]
            jac = -s * (np.outer(cone["dy"] / cone["a"], cone["u_star"])
                        + np.outer(cone["v"], cone["xh"]))
            return _cap_slope_term(jac, pay, dx, alpha, m, tau, cone["w"], cone["u_star"])
        return np.zeros((dim_y, dim_x))

    probes = []
    for cone in cones:
        for cfac in (0.6, 0.85, 1.3):
            probes.append(base.x + cfac * (cone["entry"].x - base.x))

    return Perturbation(
        eval=evaluate, derivative=derivative, class_tag=tag, gamma=gamma,
        gamma_prime=seq.gamma_prime, gamma_dp=gamma_dp, witness=seq,
        component_count=count,
        anchors=[(c["entry"].x, base.y.copy()) for c in cones],
        anchor_targets=[base.y - c["entry"].y for c in cones],
        anchor_eps=[0.0] * len(cones),
        probes=probes, floor_radius=0.0, case=1,
        name=f"{tag} destabilizer (cones)", dim_x=dim_x, dim_y=dim_y,
    )


def _build_cone_case2(seq: WitnessSequence, gamma: float, with_dual: bool,
                      tag: str) -> Perturbation:
    """Single cone along the stationary direction, log-interpolated (case 2).

    The payload at scale alpha between consecutive witness shells blends
    their payloads with weight ln(alpha/b_k)/ln(b_{k-1}/b_k); a phantom
    shell at b_K e^{-(K+1)} ramps the innermost payload to zero, and f
    vanishes below that floor (reported as floor_radius).
    """
    ctx = seq.context()
    base = seq.base
    gamma_dp = 0.5 * (gamma + seq.gamma_prime)
    es = seq.entries
    fin = es[-1]
    u_star = norming_functional(fin.x - base.x, ctx.kind)
    a_fin = float(u_star @ (fin.x - base.x))
    w_dir = (fin.x - base.x) / a_fin
    tau = _cone_tau(0.45, seq, gamma_dp, max(e.xn for e in es), with_dual)

    shells = [_cone_shell(e, base, ctx, u_star, w_dir, with_dual) for e in es]
    shells.sort(key=lambda s: -s["a"])
    bs = [s["a"] for s in shells]
    for i in range(len(bs) - 1):
        if not bs[i + 1] < bs[i]:
            raise WitnessError("insufficient depth: projected scales collide")
    floor = bs[-1] * math.exp(-(len(bs) + 1.0))
    bs_asc = bs[::-1]
    dim_y = es[0].y.size
    dim_x = es[0].x.size

    def payload(idx, dx, alpha):
        s = shells[idx]
        return (alpha / s["a"]) * s["dy"] + (float(s["xh"] @ dx) - s["c"]) * s["v"]

    def payload_grad(idx):
        s = shells[idx]
        return np.outer(s["dy"] / s["a"], u_star) + np.outer(s["v"], s["xh"])

    def _cell(alpha: float) -> int:
        # index k with bs[k] <= alpha < bs[k-1]; len(bs) in the ramp region
        return len(bs) - bisect.bisect_right(bs_asc, alpha)

    def _membership(x):
        dx = np.atleast_1d(np.asarray(x, dtype=float)) - base.x
        alpha = float(u_star @ dx)
        if alpha <= floor:
            return None
        m = _l2(dx - alpha * w_dir) / alpha
        if m >= _DEAD_ZONE + tau:
            return None
        return dx, alpha, m

    def count(x) -> int:
        return 0 if _membership(x) is None else 1

    def evaluate(x):
        hit = _membership(x)
        if hit is None:
            return np.zeros(dim_y)
        dx, alpha, m = hit
        s = _smooth_cap(m, tau)
        if s == 0.0:
            return np.zeros(dim_y)
        k = _cell(alpha)
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
        hit = _membership(x)
        if hit is None:
            return np.zeros((dim_y, dim_x))
        dx, alpha, m = hit
        if abs(m - (_DEAD_ZONE + tau)) <= 1e-9:
            return None
        s = _smooth_cap(m, tau)
        k = _cell(alpha)
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

    # one-sided derivative gap at each anchor: the log-interpolation kink
    anchor_eps = []
    for i, s in enumerate(shells):
        if i == 0:
            anchor_eps.append(0.0)
            continue
        dxk = s["entry"].x - base.x
        gap = payload(i - 1, dxk, s["a"]) - payload(i, dxk, s["a"])
        anchor_eps.append(ctx.norm(gap) / (s["a"] * math.log(bs[i - 1] / bs[i])))

    probes = []
    for s, s_next in zip(shells, shells[1:]):
        probes.append(base.x + math.sqrt(s["a"] * s_next["a"]) * w_dir)
    probes.append(base.x + 1.3 * bs[0] * w_dir)
    probes.append(base.x + math.sqrt(floor * bs[-1]) * w_dir)

    return Perturbation(
        eval=evaluate, derivative=derivative, class_tag=tag, gamma=gamma,
        gamma_prime=seq.gamma_prime, gamma_dp=gamma_dp, witness=seq,
        component_count=count,
        anchors=[(s["entry"].x, base.y.copy()) for s in shells],
        anchor_targets=[base.y - s["entry"].y for s in shells],
        anchor_eps=anchor_eps,
        probes=probes, floor_radius=floor, case=2,
        name=f"{tag} destabilizer (log cone)", dim_x=dim_x, dim_y=dim_y,
    )


def build_ss_perturbation(w: WitnessSequence, gamma: float) -> Perturbation:
    """Firmly calm, graphically semismooth destabilizer from an ss witness.

    Distinct directions dispatch to case 1 (one homogeneous cone per
    direction), the stationary mode to case 2 (log interpolation). The cone
    half-width obeys tau_k ||x*_k|| < (gamma'' - gamma')/4.
    """
    if w.kind != "ss":
        raise ValueError("build_ss_perturbation needs an ss witness")
    if not w.gamma_prime < gamma:
        raise WitnessError("no witness below gamma: certified constant too large")
    _check_eps_decay(w)
    if w.direction_mode == "stationary":
        return _build_cone_case2(w, gamma, True, "fclm_ss")
    return _build_cone_case1(w, gamma, True, "fclm_ss")


def _build_ssr(w: WitnessSequence, gamma: float) -> Perturbation:
    if w.kind != "ssr":
        raise ValueError("ssr builder needs an ssr witness")
    if not w.gamma_prime < gamma:
        raise WitnessError("no destabilizer below gamma: certified quotient too large")
    if w.direction_mode == "stationary":
        return _build_cone_case2(w, gamma, False, "ssr")
    return _build_cone_case1(w, gamma, False, "ssr")


def build_ssr_destabilizer(F: SetValuedMap, base: GraphPoint, gamma: float,
                           ladder: ScaleLadder, ctx: NormContext,
                           direction_mode: str = "auto") -> Perturbation:
    """Calm destabilizer of strong subregularity at the base point.

    Extracts graph points with quotient ||y - yb||/||x - xb|| below gamma
    and interpolates f(x_k) = yb - y_k along the witness cone, so that
    yb lies in (F + f)(x_k) and the strong subregularity quotient of the
    sum vanishes. Raises "no destabilizer below gamma" when the quotient
    stays at or above gamma at every scale (the stability side). The graph
    samples come from F's memo, as in extract_witness.
    """
    try:
        w = extract_witness(F, base, "ssr", gamma, ladder, ctx, direction_mode)
    except WitnessError as err:
        if "no witness below gamma" in str(err):
            raise WitnessError(
                f"no destabilizer below gamma: the strong subregularity quotient "
                f"of {F.name} stays at or above {gamma:g}") from err
        raise
    return _build_ssr(w, gamma)


# ---------------------------------------------------------------------------
# verification


@dataclass
class BuilderReport:
    """Outcome of the five builder checks; failures live in the report."""

    class_tag: str
    gamma: float
    gamma_prime: float
    gamma_dp: float
    case: int | None
    n_witnesses: int
    interpolation_max_err: float = 0.0
    base_value_err: float = 0.0
    gradient_max_relerr: float = 0.0
    modulus_estimate: float = 0.0
    modulus_ok: bool = False
    homogeneity_ok: bool | None = None
    semismooth_verdict: str | None = None
    firmly_calm_ok: bool | None = None
    destabilization: list = field(default_factory=list)
    destabilization_ok: bool = False
    per_witness: list = field(default_factory=list)
    floor_radius: float = 0.0
    notes: list = field(default_factory=list)
    passed: bool = False


def _destab_ladder(p: Perturbation, ladder: ScaleLadder) -> ScaleLadder:
    """A ladder whose finest annulus contains the finest witness scale."""
    ts = p.witness.scales
    t_max, t_min = max(ts), min(ts)
    r0 = max(ladder.r0, 1.6 * t_max)
    depth = 1
    while r0 * 0.5 ** depth >= t_min and depth < 64:
        depth += 1
    return ScaleLadder(r0=r0, theta=0.5, depth=depth,
                       samples_per_scale=min(ladder.samples_per_scale, 192),
                       seed=ladder.seed)


def verify_builder(p: Perturbation, F: SetValuedMap, base: GraphPoint,
                   ladder: ScaleLadder, ctx: NormContext) -> BuilderReport:
    """End-to-end verification of a constructed perturbation.

    Checks (a) exact interpolation at the anchors and the base, (b) the
    analytic Jacobian against central finite differences at the anchors,
    (c) the sampled class modulus against gamma minus the builder margin
    (gamma - gamma'')/2, (d) class structure: firm calmness for the calm
    classes, positive homogeneity for case-1 cones, the semismoothness
    decay test for case-2, and (e) destabilization: srg1p of F + f
    (computed over a pool with the shifted witness elements injected)
    ends at or below 0.05 at its finest scales; the ssr class
    instead requires the strong subregularity estimate of F + f to
    report exactly zero. Each failed check leaves a line in the notes.
    """
    rep = BuilderReport(class_tag=p.class_tag, gamma=p.gamma,
                        gamma_prime=p.gamma_prime, gamma_dp=p.gamma_dp,
                        case=p.case, n_witnesses=len(p.anchors),
                        floor_radius=p.floor_radius)
    if not p.gamma_dp < p.gamma:
        rep.notes.append("internal gamma'' is not below gamma; build metadata inconsistent")

    # (a) interpolation
    rep.base_value_err = ctx.norm(p.eval(base.x))
    target_scale = max([1.0] + [float(np.max(np.abs(t))) for t in p.anchor_targets])
    rows = []
    worst_interp = 0.0
    for k, ((xk, _), target) in enumerate(zip(p.anchors, p.anchor_targets)):
        err = ctx.norm(p.eval(xk) - target)
        worst_interp = max(worst_interp, err)
        rows.append({"k": k, "t": ctx.norm(xk - base.x), "interpolation_err": err})
    rep.interpolation_max_err = worst_interp

    # (b) analytic Jacobian vs central differences at the stored probes.
    # The probes sit away from the anchors on purpose: at a bump center the
    # analytic gradient reduces to the pairing term -v x*^T, which can be
    # many orders below the surrounding function values, and no finite
    # difference recovers it through the cancellation. At the probes the
    # envelope slope dominates and the quotient is well conditioned.
    worst_g = 0.0
    anchor_xs = [np.asarray(xk, dtype=float) for xk, _ in p.anchors]
    for row in rows:
        row["gradient_relerr"] = 0.0
    for x0 in p.probes:
        x0 = np.asarray(x0, dtype=float)
        jac = p.derivative(x0)
        if jac is None:
            rep.notes.append("probe on a seam: derivative unavailable")
            continue
        jac = np.asarray(jac, dtype=float)
        dists = [float(np.linalg.norm(x0 - a)) for a in anchor_xs]
        d_near = min(dists + [float(np.linalg.norm(x0 - base.x))])
        fd = np.zeros((p.dim_y, p.dim_x))
        for i in range(p.dim_x):
            h = max(1e-7 * d_near, 32.0 * np.spacing(abs(float(x0[i]))))
            e_i = np.zeros(p.dim_x)
            e_i[i] = h
            xp, xm = x0 + e_i, x0 - e_i
            fd[:, i] = (p.eval(xp) - p.eval(xm)) / float(xp[i] - xm[i])
        scale = max(float(np.max(np.abs(jac))), float(np.max(np.abs(fd))), 1e-9)
        relerr = float(np.max(np.abs(fd - jac))) / scale
        k_near = int(np.argmin(dists))
        if k_near < len(rows):
            rows[k_near]["gradient_relerr"] = max(rows[k_near]["gradient_relerr"],
                                                  relerr)
        worst_g = max(worst_g, relerr)
    rep.gradient_max_relerr = worst_g
    rep.per_witness = rows

    # (c) sampled modulus of the perturbation alone
    fgraph = make_function_graph(_rows(p.eval, p.dim_y), grad=p.derivative, dim_x=p.dim_x,
                                 dim_y=p.dim_y, kind=ctx.kind, name=p.name)
    fbase = GraphPoint(base.x, np.zeros(p.dim_y))
    vlad = _destab_ladder(p, ladder)
    extra = list(p.probes) + [xk for xk, _ in p.anchors]
    probed = anchored(fgraph, list(zip(extra, fgraph.func(np.array(extra, dtype=float)))))
    if p.class_tag == "lip":
        mod = estimate_lip(probed, fbase, vlad, ctx)
    else:
        mod = estimate_clm(probed, fbase, vlad, ctx)
    rep.modulus_estimate = mod.reported
    margin = 0.5 * (p.gamma - p.gamma_dp)
    rep.modulus_ok = rep.modulus_estimate <= p.gamma - margin

    # (d) class structure
    if p.class_tag in ("fclm", "fclm_ss", "ssr"):
        fc = firmly_calm_test(p.eval, base.x, vlad, ctx, extra_xs=extra)
        rep.firmly_calm_ok = fc["ok"]
    if p.class_tag in ("fclm_ss", "ssr") and p.case == 1:
        ok, err = positive_homogeneity_test(p.eval, base.x, ctx.kind)
        rep.homogeneity_ok = ok
        if not ok:
            rep.notes.append(f"positive homogeneity violated at {err:.3e}")
    elif p.class_tag == "fclm_ss":
        # the log-interpolation cells carry an O(1) defect at every
        # scale between the anchors; the construction is semismooth*
        # at the base because f vanishes identically below the floor,
        # so the decay test has to sample that region before its tail
        ss_lad = vlad
        if p.floor_radius > 0.0:
            deeper = 0
            while (vlad.radius(vlad.depth - 1 + deeper) > 0.125 * p.floor_radius
                   and vlad.depth + deeper < 96):
                deeper += 1
            ss_lad = vlad.deepen(deeper)
        ss = semismooth_star_test(fgraph, fbase, ss_lad, ctx)
        rep.semismooth_verdict = ss.verdict

    # (e) destabilization of the sum
    G = anchored(sum_with_function(F, fgraph, name=f"{F.name}+{p.class_tag}"), p.anchors)
    if p.class_tag == "ssr":
        est = estimate_ssrg(G, base, vlad, ctx)
        rep.destabilization = list(est.per_scale)
        rep.destabilization_ok = est.reported == 0.0
        if not rep.destabilization_ok:
            rep.notes.append(f"ssrg of the perturbed map is {est.reported:g}, not 0")
    else:
        shifted = []
        for k, (xk, _) in enumerate(p.anchors):
            jac = p.derivative(xk)
            if jac is None:
                continue
            e = p.witness.entries[min(k, len(p.witness.entries) - 1)]
            shifted.append(CoderivElement(
                np.asarray(xk, dtype=float).copy(), base.y.copy(), e.y_star.copy(),
                e.x_star + jac.T @ e.y_star, eps=p.anchor_eps[k]))
        pool, pid = build_element_pool(G, base, vlad, ctx, extra_elements=shifted)
        est = estimate_constant("srg1p", pool, vlad, ctx, pid)
        rep.destabilization = list(est.per_scale)
        # the estimate pools suffix minima, so the per-scale sequence is
        # structurally non-decreasing toward the finest annulus; the decay
        # requirement is judged with the same truncation tolerance the
        # convergence flag uses, which absorbs the eps/x^2 float floor of
        # exact-cancellation witnesses at reciprocal feature points while
        # still rejecting any order-one rise
        vals = [v for _, v in est.per_scale if not math.isinf(v)]
        tail = vals[-3:]
        tail_decay = (len(vals) >= 3
                      and all(b <= a + max(1e-3, 0.02 * abs(a))
                              for a, b in zip(tail, tail[1:])))
        rep.destabilization_ok = tail_decay and vals[-1] <= 0.05
        if not rep.destabilization_ok:
            rep.notes.append("srg1p of the perturbed map does not collapse")

    # a note for each failed check that has not noted itself above
    clauses = [
        (rep.interpolation_max_err <= 1e-14 * target_scale,
         f"interpolation error {rep.interpolation_max_err:.3e} exceeds "
         f"1e-14 * {target_scale:g}"),
        (rep.base_value_err == 0.0, f"value at the base is {rep.base_value_err:.3e}, not 0"),
        (rep.gradient_max_relerr <= 1e-5,
         f"Jacobian relative error {rep.gradient_max_relerr:.3e} exceeds 1e-05"),
        (rep.modulus_ok, f"sampled modulus {rep.modulus_estimate:.6g} exceeds "
                         f"gamma - margin = {p.gamma - margin:.6g}"),
        (rep.firmly_calm_ok is not False, "firm calmness test failed"),
        (rep.semismooth_verdict in (None, "pass"),
         f"semismooth* verdict is {rep.semismooth_verdict!r}, not 'pass'"),
    ]
    rep.notes += [note for ok, note in clauses if not ok]
    rep.passed = (all(ok for ok, _ in clauses) and rep.homogeneity_ok is not False
                  and rep.destabilization_ok and p.gamma_dp < p.gamma)
    return rep


def firmly_calm_test(f, base_x, ladder: ScaleLadder, ctx: NormContext,
                     extra_xs: list | None = None) -> dict:
    """Empirical firm calmness: bounded calm quotients plus local stability.

    Clause A estimates the calmness quotient per scale, over 24 probes per
    annulus and the extra_xs that fall in it, and fails on clear
    divergence (the innermost value above four times the median, above the
    outermost, and above an absolute floor of 1e-9 so a tail of roundoff
    quotients never counts). Clause B takes central two-point slopes at
    three shrinking step sizes around offset points; a final slope
    exceeding eight times the first indicates a discontinuity straddled
    by the center (per-point slopes may be large, and may grow from point
    to point as x approaches the base, without failing; a zero first
    slope is ignored because it means the coarse step cleared a feature
    narrower than itself).
    """
    base_x = np.atleast_1d(np.asarray(base_x, dtype=float))
    f0 = np.atleast_1d(np.asarray(f(base_x), dtype=float))
    extras = [np.atleast_1d(np.asarray(x, dtype=float)) for x in (extra_xs or [])]

    per_scale = []
    for j, (inner, outer) in enumerate(ladder.annuli()):
        worst = 0.0
        pts = list(sample_annulus(base_x, inner, outer, 24,
                                  ladder.scale_seed(j, 83), ctx.kind))
        for px in extras:
            t = ctx.norm(px - base_x)
            if inner < t <= outer:
                pts.append(px)
        for x in pts:
            t = ctx.norm(np.asarray(x, dtype=float) - base_x)
            if t == 0.0:
                continue
            worst = max(worst, ctx.norm(np.atleast_1d(np.asarray(f(x), dtype=float)) - f0) / t)
        per_scale.append(worst)
    vals = [v for v in per_scale if v > 0.0]
    diverging = False
    if len(vals) >= 4:
        med = sorted(vals)[len(vals) // 2]
        diverging = (vals[-1] > 4.0 * max(med, 1e-12) and vals[-1] > vals[0]
                     and vals[-1] > 1e-9)

    worst_growth = 1.0
    centers = []
    annuli = ladder.annuli()
    for j in (len(annuli) // 2, len(annuli) - 1):
        inner, outer = annuli[j]
        centers.extend(sample_annulus(base_x, inner, outer, 6,
                                      ladder.scale_seed(j, 89), ctx.kind))
    centers.extend(extras[:12])
    for xc in centers:
        xc = np.asarray(xc, dtype=float)
        t = max(ctx.norm(xc - base_x), 1e-12)
        slopes = []
        for frac in (1e-2, 1e-3, 1e-4):
            h = t * frac
            smax = 0.0
            for d in range(base_x.size):
                e_d = np.zeros(base_x.size)
                e_d[d] = h
                num = ctx.norm(np.atleast_1d(np.asarray(f(xc + e_d), dtype=float))
                               - np.atleast_1d(np.asarray(f(xc - e_d), dtype=float)))
                smax = max(smax, num / (2.0 * h))
            slopes.append(smax)
        # only the ratio matters: a jump straddled by the center scales
        # like 1/h at every step, so the first slope is never zero for
        # one; a zero first slope with finer structure underneath is a
        # compactly supported bump narrower than the coarse step
        if slopes[0] > 1e-12:
            worst_growth = max(worst_growth, slopes[-1] / slopes[0])

    ok = (not diverging) and worst_growth <= 8.0
    return {"ok": ok, "clm_bound": max(per_scale) if per_scale else 0.0,
            "per_scale": per_scale, "slope_growth": worst_growth,
            "diverging": diverging}


def random_calm_perturbation(seed: int):
    """A seeded calm perturbation f(x) = a x + b x sin(ln|x|), |a|+|b| <= 0.85.

    Returns (f, derivative, a, b): f maps rows (n, 1) to rows (n, 1), and
    derivative(x) is the Jacobian at one point. The calmness modulus is
    |a| + |b|, so the perturbed identity keeps its strong subregularity
    quotient at or above 0.15 at every graph point.
    """
    from .geometry import r2_lattice

    u = r2_lattice(2, 2, derive_seed(seed, 131))
    a = (2.0 * float(u[0, 0]) - 1.0) * 0.5 * 0.85
    b = (2.0 * float(u[1, 1]) - 1.0) * (0.85 - abs(a))

    def evaluate(x):
        xv = float(np.atleast_1d(x)[0])
        if xv == 0.0:
            return np.array([0.0])
        return np.array([a * xv + b * xv * math.sin(math.log(abs(xv)))])

    def derivative(x):
        xv = float(np.atleast_1d(x)[0])
        if xv == 0.0:
            return None
        th = math.log(abs(xv))
        return np.array([[a + b * (math.sin(th) + math.cos(th))]])

    return _rows(evaluate, 1), derivative, a, b
