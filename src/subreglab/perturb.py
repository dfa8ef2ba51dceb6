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

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Callable

import numpy as np

from .geometry import (
    NORM_KINDS,
    ScaleLadder,
    derive_seed,
    dual_kind,
    norm,
    norming_functional,
    norming_functionals,
    norming_vector,
    norms,
    r2_lattice,
    sample_annuli,
    sample_annulus,  # not called here; perfbench's layer trace wraps it by name
)
from .mappings import (
    GraphPoint,
    SetValuedMap,
    _logs,
    anchored,
    make_function_graph,
    sum_with_function,
)
from .moduli import (
    ElementRecords,
    Estimate,
    _diverging,
    _memo_annuli,
    build_element_pool,
    estimate_clm,
    estimate_constant,
    estimate_lip,
    estimate_ssrg,
)
from .variational import (
    CoderivElement,
    _dots,
    _running_max,
    defect_quotients,
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


def _objective(kind: str, ratio: float, xn: float) -> float:
    return ratio + xn if kind == "lip" else ratio


def _dir_key(v: np.ndarray, width: float) -> tuple:
    return tuple(int(round(float(c) / width)) for c in np.atleast_1d(v))


def _cand_order(c: dict) -> tuple:
    # smaller objective first, then leading-positive direction, then larger t
    return (c["obj"], -float(c["u"][0]), -c["t"])


def _graph_records(base: GraphPoint, kind: str, inner: np.ndarray, outer: np.ndarray,
                   ann: np.ndarray, X: np.ndarray, Y: np.ndarray
                   ) -> tuple[ElementRecords, np.ndarray]:
    """The ssr records of a graph_rows block (ann, X, Y), annulus by annulus,
    and the row of X each sits at: the graph points inside their annulus
    (inner and outer index by annulus), with x* = 0 and y* the norming
    functional of y - yb (e_1 at y = yb). No gamma cuts them, so the map's
    memo serves every gamma."""
    t = norms(X - base.x, kind)
    rows = np.flatnonzero((inner[ann] < t) & (t <= outer[ann]) & (t > 0.0))
    X, Y, t = X[rows], Y[rows], t[rows]
    dy = Y - base.y
    yn = norms(dy, kind)
    y_star = np.zeros_like(Y)
    y_star[:, 0] = 1.0
    on = yn > 0.0
    y_star[on] = norming_functionals(dy[on], kind)
    zero = np.zeros(len(t))
    return ElementRecords(t=t, ratio=yn / t, xn=zero, q=zero, eps=zero, x=X, y=Y,
                          x_star=np.zeros_like(X), y_star=y_star), rows


def _candidates(recs: ElementRecords, obj: np.ndarray, keep: np.ndarray, ann: np.ndarray,
                base: GraphPoint) -> list[dict]:
    """The candidates of the records keep, with objectives obj and annuli
    ann (ascending in record order): the best per orientation key, each
    annulus's in _cand_order.

    A record's key is its annulus, its direction u = (x - xb)/t, payload
    direction (y - yb scaled to unit max norm) and y*, each coordinate of
    the last three rounded to a multiple of 0.25 (half to even, as round
    does; -0.0 keys as 0.0). A later record of a key replaces the best so
    far only when it comes first in _cand_order, strictly: on ties the
    earlier record stays, and a NaN objective neither replaces nor is
    replaced, so it wins only as its key's first record. A NaN in u, the
    payload or y* raises ValueError and an infinite one OverflowError, as
    rounding it to an int does. Only the winners become dicts; within an
    annulus they enter the sort in the order their keys first appear, so
    ties and NaNs sort as they did when each record was a dict.
    """
    if not len(keep):
        return []
    t = recs.t[keep]
    U = (recs.x[keep] - base.x) / t[:, None]
    DY = recs.y[keep] - base.y
    PAY = np.divide(DY, np.abs(DY).max(axis=1)[:, None], out=DY.copy(),
                    where=DY.any(axis=1)[:, None])
    with np.errstate(over="ignore"):  # a huge coordinate keys to inf, as float division does
        K = np.hstack([U, PAY, recs.y_star[keep]]) / 0.25
    bad = ~np.isfinite(K)
    if bad.any():
        v = K.flat[np.argmax(bad)]  # the first in record order, then u, payload, y*
        raise (ValueError if np.isnan(v) else OverflowError)(
            f"no orientation key for the non-finite coordinate {v}")
    _, first, key = np.unique(np.hstack([ann[keep, None], np.rint(K) + 0.0]), axis=0,
                              return_index=True, return_inverse=True)
    key = key.reshape(-1)
    ob = obj[keep]
    order = np.lexsort((-t, -U[:, 0], ob, key))  # stable: ties keep the earlier record
    # each key's first in _cand_order; NaN objectives sort last
    lead = order[np.r_[True, key[order[1:]] != key[order[:-1]]]]
    win = np.where(np.isnan(ob[first]), first, lead)[np.argsort(first)]
    w = keep[win]
    cols = {"annulus": ann[w].tolist(), "u": U[win], "pay": PAY[win], "obj": ob[win].tolist()}
    cols.update((f, getattr(recs, f)[w].tolist()) for f in ("t", "eps", "ratio", "xn", "q"))
    cols.update((f, getattr(recs, f)[w]) for f in ("x", "y", "x_star", "y_star"))
    cands = [{f: col[i] for f, col in cols.items()} for i in range(len(w))]
    return [c for _, group in groupby(cands, key=itemgetter("annulus"))
            for c in sorted(group, key=_cand_order)]


def _collect_candidates(F: SetValuedMap, base: GraphPoint, kind: str, gamma: float,
                        ladder: ScaleLadder, start: int = 0) -> list[dict]:
    """Per-annulus candidates with objective strictly below gamma, annuli start and inward.

    A candidate comes from a record: an element record, or for the ssr
    kind a graph point (_graph_records). The records of the annuli form
    one block, with an annulus column; the objective and the ss defect
    guard are tested on its columns, and one _candidates call keeps each
    annulus's best candidate per coarse (direction, payload, y*)
    orientation key, so that both the stationary clustering and the
    distinct-direction selection see every available family. An annulus's
    candidates depend only on gamma, its radius and its records, which F's
    memo holds once built.
    """
    cut = gamma * (1.0 - 1e-9)
    inner, outer = ladder.annuli()
    pool = (_memo_annuli(F, base, ladder, 71, "graph",
                         partial(_graph_records, base, F.kind, inner, outer))
            if kind == "ssr" else build_element_pool(F, base, ladder)[0])[start:]
    recs = ElementRecords.concat(pool)
    ann = np.repeat(np.arange(start, ladder.depth), [len(p) for p in pool])
    obj = _objective(kind, recs.ratio, recs.xn)
    drop = obj > cut  # a NaN objective is kept, as a float comparison keeps it
    if kind == "ss":
        drop |= recs.q > np.minimum(0.5, 8.0 * outer[ann])
    return _candidates(recs, obj, np.flatnonzero(~drop), ann, base)


def extract_witness(F: SetValuedMap, base: GraphPoint, kind: str, gamma: float,
                    ladder: ScaleLadder, direction_mode: str = "auto") -> WitnessSequence:
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
        cands += _collect_candidates(F, base, kind, gamma, work, start)
        seq = _try_select(cands, kind, gamma, direction_mode, F.kind) if cands else None
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
    problems = validate_witness(seq)
    if problems:
        raise WitnessError("internal witness invariant violation: " + "; ".join(problems))
    return seq


def _try_select(cands: list[dict], kind: str, gamma: float, direction_mode: str,
                norm_kind: str) -> WitnessSequence | None:
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
                norm(c["u"] - g["u"], "l2") < _SEPARATION for g in got))
    if len(picked) < _MIN_ENTRIES:
        return None

    entries = [WitnessEntry(index=k_hat + pos, **{f: c[f] for f in _ENTRY_FIELDS if f != "index"})
               for pos, c in enumerate(picked)]
    gamma_prime = max(c["obj"] for c in picked)
    if kind in ("ss", "ssr") and mode == "stationary":
        u = entries[-1].u.copy()
    return WitnessSequence(kind=kind, entries=entries, gamma=gamma,
                           gamma_prime=gamma_prime, direction_mode=mode, u=u,
                           k_hat=k_hat, norm_kind=norm_kind)


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
            if norm(c["u"] - cl[0]["u"], "l2") < _CLUSTER_TOL:
                cl.append(c)
                break
        else:
            clusters.append([c])
    dominant = max(clusters, key=len)
    stationary_ok = len(dominant) >= max(4, (len(argmins) + 1) // 2)
    if direction_mode == "auto" and not stationary_ok:
        return "distinct", cands
    u_rep = dominant[0]["u"]
    members = [c for c in cands if norm(c["u"] - u_rep, "l2") < _CLUSTER_TOL]
    groups: dict[tuple, list[dict]] = {}
    for c in members:
        groups.setdefault((_dir_key(c["pay"], 0.25), _dir_key(c["y_star"], 0.25)), []).append(c)
    sub = max(groups.values(), key=len)
    return "stationary", sorted(sub, key=_cand_order)


def _pair_gaps(us: list[np.ndarray]) -> list[float]:
    """||u_a - u_b|| in l2 for each pair of us, a before b, in row order."""
    U = np.array(us)
    i, j = np.triu_indices(len(U), 1)
    return norms(U[i] - U[j], "l2").tolist()


def validate_witness(seq: WitnessSequence) -> list[str]:
    """Check the witness invariants; returns human-readable violations.

    A witness without entries or base coordinates, or with an x, x* or u
    that does not have len(base.x) coordinates or a y or y* that does not
    have len(base.y), is reported as such and checked no further. Otherwise
    each entry's t, ratio and xn (and q for the ss kind) are recomputed in
    the witness's norm from its points and the base; a stored value below
    the recomputed one is a violation.
    """
    es, base = seq.entries, seq.base
    dims = {"x": base.x.size, "y": base.y.size, "x_star": base.x.size,
            "y_star": base.y.size, "u": base.x.size}
    out = [f"entry {e.index} {name} has shape {np.shape(getattr(e, name))}, not ({d},)"
           for e in es for name, d in dims.items() if np.shape(getattr(e, name)) != (d,)]
    if not es:
        out.append("witness has no entries")
    if not (base.x.size and base.y.size):
        out.append("base point has no coordinates")
    if out:
        return out
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
        out += ["distinct-direction mode with clustered directions"
                for gap in _pair_gaps([e.u for e in es]) if gap < _CLUSTER_TOL]
    X, Y = np.array([e.x for e in es]), np.array([e.y for e in es])
    X_star, Y_star = np.array([e.x_star for e in es]), np.array([e.y_star for e in es])
    DU, DV = X - base.x, Y - base.y
    dual = dual_kind(seq.norm_kind)
    t, yn = norms(DU, seq.norm_kind), norms(DV, seq.norm_kind)
    xn, ysn = norms(X_star, dual), norms(Y_star, dual)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # rows at t = 0
        actual = {"t": t, "ratio": np.where(t > 0.0, yn / t, math.inf), "xn": xn}
    if seq.kind == "ss":
        actual["q"] = defect_quotients(X_star, Y_star, DU, DV, xn, ysn, t + yn)
    actual = {name: v.tolist() for name, v in actual.items()}
    worst = 0.0
    for k, e in enumerate(es):
        if abs(ysn[k] - 1.0) > 1e-9:
            out.append("y* not on the dual unit sphere")
        obj = _objective(seq.kind, e.ratio, e.xn)
        worst = max(worst, obj)
        if obj > seq.gamma_prime * (1.0 + 1e-12):
            out.append(f"entry objective {obj:g} exceeds gamma_prime {seq.gamma_prime:g}")
        # collection bounds q by min(0.5, 8 r) with annulus radius r; an
        # entry's t can sit a factor 2 below r, hence 16 t here
        if seq.kind == "ss" and e.q > min(0.5, 16.0 * e.t) * (1.0 + 1e-12):
            out.append("ss entry defect exceeds its scale bound")
        out += [f"entry {e.index} stores {name} {getattr(e, name):g} below the {v[k]:g} "
                f"its points give" for name, v in actual.items()
                if not v[k] <= getattr(e, name) * (1.0 + 1e-12)]
    if abs(worst - seq.gamma_prime) > 1e-12 * max(1.0, worst):
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

    eval and derivative take rows, as a function graph's func and grad do.
    eval(X) maps X (n, dim_x) to the (n, dim_y) values f(X[k]);
    f(xb) = 0 and f(x_k) = yb - y_k hold exactly. derivative(X) returns
    (owner, G): owner the ascending rows of X where f is differentiable, G
    of shape (len(owner), dim_y, dim_x) their Jacobians. A row on a
    measure-zero seam of a cap factor or bump support is absent from
    owner; at a case-2 cell boundary G holds the one-sided (from the
    coarser scale) Jacobian, which is a genuine limiting derivative there.
    Row k of each result depends on X[k] alone and has the bits of the
    one-row call. At most one bump or cone is active at any point. Each
    anchor entry e gives the graph point (e.x, witness.base.y) of F + f;
    anchor_eps bounds the one-sided derivative gap at each anchor (zero
    for bump and case-1 builds).
    """

    eval: Callable
    derivative: Callable
    class_tag: str  # lip | fclm | fclm_ss | ssr
    gamma: float
    gamma_dp: float
    witness: WitnessSequence
    anchor_entries: list = field(default_factory=list)
    anchor_eps: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    floor_radius: float = 0.0
    case: int | None = None
    name: str = "perturbation"

    def describe(self) -> dict:
        """Portable description; load_perturbation rebuilds bit-identically."""
        w = self.witness
        return {
            "class_tag": self.class_tag,
            "gamma": float(self.gamma).hex(),
            "witness": {
                **_write(_WITNESS_FIELDS, w),
                **{key: _hex_vec(v) for key, v in zip(_BASE_FIELDS, (w.base.x, w.base.y))},
                "entries": [_write(_ENTRY_FIELDS, e) for e in w.entries],
            },
        }


def _one_of(*options) -> Callable:
    """A field reader that refuses any value outside options."""
    def read(value):
        if value not in options:
            raise ValueError(f"not one of {options}")
        return value
    return read


# how describe() writes and load_perturbation reads each field of a witness
# entry and of a witness: (write, read)
_HEX = (lambda v: float(v).hex(), float.fromhex)
_VEC = (_hex_vec, _unhex_vec)
_ENTRY_FIELDS = {"index": (int, int), "t": _HEX, "x": _VEC, "y": _VEC, "x_star": _VEC,
                 "y_star": _VEC, "eps": _HEX, "ratio": _HEX, "xn": _HEX, "q": _HEX, "u": _VEC}
_WITNESS_FIELDS = {"kind": (str, _one_of("lip", "fclm", "ss", "ssr")), "gamma": _HEX,
                   "gamma_prime": _HEX, "direction_mode": (str, _one_of("distinct", "stationary")),
                   "k_hat": (int, int), "norm_kind": (str, _one_of(*NORM_KINDS)),
                   "u": (lambda v: None if v is None else _hex_vec(v),
                         lambda h: None if h is None else _unhex_vec(h))}
_BASE_FIELDS = ("base_x", "base_y")  # the witness's base point, x then y


def _write(fields: dict, obj) -> dict:
    """The description of obj: each field of the table, as it writes it."""
    return {key: write(getattr(obj, key)) for key, (write, _) in fields.items()}


def _field(d, key: str, read: Callable, where: str):
    """read(d[key]) for the field key of the description part where, with a
    WitnessError naming the field when d lacks it or read refuses its value."""
    try:
        value = d[key]
    except (KeyError, IndexError, TypeError):
        raise WitnessError(f"invalid witness: {where} has no field {key!r}") from None
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise WitnessError(f"invalid witness: {where} field {key!r} is unreadable "
                           f"({value!r}: {err})") from None


def load_perturbation(desc: dict) -> "Perturbation":
    """Rebuild a perturbation from describe() output.

    The builders are pure functions of the witness table and gamma, so the
    reloaded perturbation evaluates bit-identically. A description with a
    missing or unreadable field, a kind, direction mode or norm kind outside
    its set, a class tag that is not its witness kind's, or a witness that
    fails validate_witness (for example one whose stored stats understate
    what its points give), raises WitnessError.
    """
    wd = _field(desc, "witness", dict, "description")
    entries = [WitnessEntry(**{key: _field(d, key, read, f"entries[{k}]")
                               for key, (_, read) in _ENTRY_FIELDS.items()})
               for k, d in enumerate(_field(wd, "entries", list, "witness"))]
    w = WitnessSequence(
        entries=entries,
        base=GraphPoint(*(_field(wd, key, _unhex_vec, "witness") for key in _BASE_FIELDS)),
        **{key: _field(wd, key, read, "witness") for key, (_, read) in _WITNESS_FIELDS.items()},
    )
    problems = validate_witness(w)
    if problems:
        raise WitnessError("invalid witness: " + "; ".join(problems))
    gamma = _field(desc, "gamma", float.fromhex, "description")
    tag, build = {"lip": ("lip", build_lip_perturbation), "fclm": ("fclm", build_fclm_perturbation),
                  "ss": ("fclm_ss", build_ss_perturbation), "ssr": ("ssr", _build_ssr)}[w.kind]
    _field(desc, "class_tag", _one_of(tag), "description")
    return build(w, gamma)


def _pair(v: np.ndarray, DX: np.ndarray) -> np.ndarray:
    """float(v @ dx) for each row dx of DX, by the stacked dot that has its bits."""
    return _dots(np.broadcast_to(v, DX.shape), DX)


# ---------------------------------------------------------------------------
# bump builders (lip, fclm)


def _build_bump(seq: WitnessSequence, gamma: float, rho: list[float], tag: str,
                gamma_dp: float) -> Perturbation:
    base = seq.base
    es = seq.entries
    xs = [e.x for e in es]
    XS = np.array(xs)
    X_STAR = np.array([e.x_star for e in es])
    DY = np.array([e.y - base.y for e in es])
    VS = np.array([norming_vector(e.y_star, seq.norm_kind) for e in es])
    OUTER = VS[:, :, None] * X_STAR[:, None, :]  # np.outer(v_k, x*_k)
    ps = [1.0 + 1.0 / e.index for e in es]
    RHO = np.array(rho)
    dim_x, dim_y = base.x.size, base.y.size
    # the supports are l2 balls, so their shells around the base are
    # measured in l2 too (in 1-D, d_k is t_k); the innermost must miss the base
    ds = norms(XS - base.x, "l2").tolist()
    if not (all(ds[i + 1] + rho[i + 1] < ds[i] - rho[i] for i in range(len(ds) - 1))
            and ds[-1] - rho[-1] > 0.0):
        raise WitnessError("bump supports overlap; thinning insufficient")
    ds_asc = np.array(ds[::-1])

    def locate(X):
        """The bump k that holds each row (-1 for none) and the row's l2
        distance d to x_k."""
        # the shells are disjoint, so only the two nearest in l2 can hold x;
        # of those, the outer one is asked first
        pos = np.searchsorted(ds_asc, norms(X - base.x, "l2"), side="left")
        k, d = np.full(len(X), -1), np.zeros(len(X))
        for idx_asc in (pos - 1, pos):
            cand = np.clip(len(es) - 1 - idx_asc, 0, len(es) - 1)
            dc = norms(X - XS[cand], "l2")
            hit = ((k < 0) & (idx_asc >= 0) & (idx_asc < len(es)) & (RHO[cand] > 0.0)
                   & (dc < RHO[cand]))
            k[hit], d[hit] = cand[hit], dc[hit]
        return k, d

    def envelope(d, k):
        # 1 - (d/rho_k)^p_k; ** per element, as np.power may round differently
        q = (d / RHO[k]).tolist()
        return 1.0 - np.array([v ** ps[i] for v, i in zip(q, k.tolist())])

    def payload(k, DX):
        # g_k(x) = (y_k - yb) + <x*_k, x - x_k> v_k
        return DY[k] + _dots(X_STAR[k], DX)[:, None] * VS[k]

    def evaluate(X):
        k, d = locate(X)
        on = np.flatnonzero(k >= 0)
        env = envelope(d[on], k[on])
        s = np.where(0.0 > env, 0.0, env)  # max(env, 0.0)
        out = np.zeros((len(X), dim_y))
        out[on] = -s[:, None] * payload(k[on], X[on] - XS[k[on]])
        return out

    def derivative(X):
        k, d = locate(X)
        seam = (k >= 0) & (np.abs(d - RHO[k]) <= 1e-12 * RHO[k])  # support boundary kink
        owner = np.flatnonzero(~seam)
        at = np.flatnonzero(k[owner] >= 0)
        r = owner[at]
        k, d, DX = k[r], d[r], X[r] - XS[k[r]]
        jac = -envelope(d, k)[:, None, None] * OUTER[k]
        sl = d > 0.0
        ds_dd = np.array([-ps[i] * v ** (ps[i] - 1.0) / rho[i] ** ps[i]
                          for v, i in zip(d[sl].tolist(), k[sl].tolist())]).reshape(-1, 1)
        grad_s = ds_dd * DX[sl] / d[sl, None]
        jac[sl] -= payload(k[sl], DX[sl])[:, :, None] * grad_s[:, None, :]
        J = np.zeros((len(owner), dim_y, dim_x))
        J[at] = jac
        return owner, J

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
        eval=evaluate, derivative=derivative, class_tag=tag, gamma=gamma, gamma_dp=gamma_dp,
        witness=seq, anchor_entries=list(es), anchor_eps=[0.0] * len(es),
        probes=probes, floor_radius=0.0, case=None, name=f"{tag} destabilizer",
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


def _smooth_cap(m: np.ndarray, tau: float) -> np.ndarray:
    """The cap factor of each m: 1 in the dead zone, then max(1 - z^2, 0)."""
    z = (m - _DEAD_ZONE) / tau
    v = 1.0 - z * z
    return np.where(m <= _DEAD_ZONE, 1.0, np.where(0.0 > v, 0.0, v))


def _smooth_cap_slope(m: np.ndarray, tau: float) -> np.ndarray:
    flat = (m <= _DEAD_ZONE) | (m >= _DEAD_ZONE + tau)
    return np.where(flat, 0.0, -2.0 * (m - _DEAD_ZONE) / (tau * tau))


def _cone_tau(tau: float, seq: WitnessSequence, gamma_dp: float, xn_max: float,
              with_dual: bool) -> float:
    """The cap width beyond the dead zone: tau, kept to tau ||x*|| <= (gamma'' - gamma')/8."""
    if with_dual and xn_max > 0.0:
        tau = min(tau, (gamma_dp - seq.gamma_prime) / (8.0 * xn_max))
    return max(tau - _DEAD_ZONE, 1e-7)


def _cone_rows(DX: np.ndarray, u_star: np.ndarray, w_dir: np.ndarray, floor: float,
               tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """alpha = <u*, dx> and m = ||dx - alpha w||_2 / alpha of each row dx of
    DX, and which rows the cone holds: alpha above floor, m inside the cap."""
    alpha = _pair(u_star, DX)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows at alpha <= 0, not held
        m = norms(DX - alpha[:, None] * w_dir, "l2") / alpha
    return alpha, m, ~(alpha <= floor) & (m < _DEAD_ZONE + tau)


def _cap_slope_term(J: np.ndarray, pay: np.ndarray, DX: np.ndarray, alpha: np.ndarray,
                    m: np.ndarray, tau: float, w_dir: np.ndarray,
                    u_star: np.ndarray) -> np.ndarray:
    """J minus pay times the gradient of the cap factor, in the rows where the cap slopes."""
    sl = _smooth_cap_slope(m, tau)
    R = DX - alpha[:, None] * w_dir
    nr = norms(R, "l2")
    on = (sl != 0.0) & (nr > 0.0)
    rhat = R[on] / nr[on, None]
    a, m = alpha[on, None], m[on, None]
    grad_m = (rhat - _pair(w_dir, rhat)[:, None] * u_star) / a - (m / a) * u_star
    J[on] -= pay[on][:, :, None] * (sl[on, None] * grad_m)[:, None, :]
    return J


def _payload(cols: dict, i: np.ndarray, DX: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """P(x) = (alpha/a) dy + (<xh*, x-xb> - c) v of each row, in shell i of
    the stacked shells cols (see _cone_shell and _stack_shells)."""
    return ((alpha / cols["a"][i])[:, None] * cols["dy"][i]
            + (_dots(cols["xh"][i], DX) - cols["c"][i])[:, None] * cols["v"][i])


def _cone_shell(e: WitnessEntry, base: GraphPoint, kind: str,
                u_star: np.ndarray, w_dir: np.ndarray, with_dual: bool) -> dict:
    """Per-entry payload data: P(x) = (alpha/a) dy + (<xh*, x-xb> - c) v,
    and its gradient np.outer(dy / a, u*) + np.outer(v, xh*).

    The alpha/a factor is exactly 1.0 at x_k; c is the build-time value of
    the same pairing the evaluator computes, so the dual term vanishes
    bitwise at the anchor.
    """
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
    grad = np.outer(dy / a, u_star) + np.outer(v, xh)
    return {"entry": e, "a": a, "dy": dy, "xh": xh, "c": c, "v": v, "grad": grad}


def _stack_shells(shells: list[dict]) -> dict:
    """The payload data of the shells as columns, row k from shells[k]."""
    return {key: np.array([s[key] for s in shells]) for key in ("a", "dy", "xh", "c", "v", "grad")}


def _build_cone_case1(seq: WitnessSequence, gamma: float, with_dual: bool,
                      tag: str) -> Perturbation:
    """One positively homogeneous cone per witness direction (case 1)."""
    base = seq.base
    gamma_dp = 0.5 * (gamma + seq.gamma_prime)
    reps: dict[tuple, WitnessEntry] = {}
    for e in seq.entries:
        key = _dir_key(e.u, _CLUSTER_TOL)
        cur = reps.get(key)
        if cur is None or e.t < cur.t:
            reps[key] = e
    entries = sorted(reps.values(), key=lambda e: -e.t)
    dmin = min([math.inf] + _pair_gaps([e.u for e in entries]))  # a NaN gap never wins
    tau = _cone_tau(min(0.45, dmin / 4.0) if math.isfinite(dmin) else 0.45, seq, gamma_dp,
                    max(e.xn for e in entries), with_dual)

    cones = []
    for e in entries:
        u_star = norming_functional(e.x - base.x, seq.norm_kind)
        a = float(u_star @ (e.x - base.x))
        w_dir = (e.x - base.x) / a
        shell = _cone_shell(e, base, seq.norm_kind, u_star, w_dir, with_dual)
        shell["u_star"] = u_star
        shell["w"] = w_dir
        cones.append(shell)
    cols = _stack_shells(cones)

    dim_x, dim_y = base.x.size, base.y.size

    def locate(X):
        """The first cone that holds each row (-1 for none), with the rows'
        dx, and alpha and m in that cone."""
        DX = X - base.x
        k, alpha, m = np.full(len(X), -1), np.zeros(len(X)), np.zeros(len(X))
        for i, cone in enumerate(cones):
            a_i, m_i, held = _cone_rows(DX, cone["u_star"], cone["w"], 0.0, tau)
            hit = (k < 0) & held
            k[hit], alpha[hit], m[hit] = i, a_i[hit], m_i[hit]
        return k, DX, alpha, m

    def evaluate(X):
        k, DX, alpha, m = locate(X)
        out = np.zeros((len(X), dim_y))
        r = np.flatnonzero(k >= 0)
        out[r] = -_smooth_cap(m[r], tau)[:, None] * _payload(cols, k[r], DX[r], alpha[r])
        return out

    def derivative(X):
        k, DX, alpha, m = locate(X)
        owner = np.flatnonzero(~((k >= 0) & (np.abs(m - (_DEAD_ZONE + tau)) <= 1e-9)))  # cap kink
        J = np.zeros((len(owner), dim_y, dim_x))
        for i, cone in enumerate(cones):
            at = np.flatnonzero(k[owner] == i)
            r = owner[at]
            jac = -_smooth_cap(m[r], tau)[:, None, None] * cone["grad"]
            J[at] = _cap_slope_term(jac, _payload(cols, k[r], DX[r], alpha[r]), DX[r], alpha[r],
                                    m[r], tau, cone["w"], cone["u_star"])
        return owner, J

    probes = []
    for cone in cones:
        for cfac in (0.6, 0.85, 1.3):
            probes.append(base.x + cfac * (cone["entry"].x - base.x))

    return Perturbation(
        eval=evaluate, derivative=derivative, class_tag=tag, gamma=gamma, gamma_dp=gamma_dp,
        witness=seq, anchor_entries=[c["entry"] for c in cones], anchor_eps=[0.0] * len(cones),
        probes=probes, floor_radius=0.0, case=1, name=f"{tag} destabilizer (cones)",
    )


def _build_cone_case2(seq: WitnessSequence, gamma: float, with_dual: bool,
                      tag: str) -> Perturbation:
    """Single cone along the stationary direction, log-interpolated (case 2).

    The payload at scale alpha between consecutive witness shells blends
    their payloads with weight ln(alpha/b_k)/ln(b_{k-1}/b_k); a phantom
    shell at b_K e^{-(K+1)} ramps the innermost payload to zero, and f
    vanishes below that floor (reported as floor_radius). The weights take
    math.log per element, as np.log may round differently.

    The shells are stacked into columns once, at build time, with each
    cell's lower bound and log width. A batch of rows then gathers each
    row's two shells by index and takes its weights in one math.log pass,
    with no loop over cells; each row gets the operations, and the bits, of
    a row evaluated alone.
    """
    base = seq.base
    gamma_dp = 0.5 * (gamma + seq.gamma_prime)
    es = seq.entries
    fin = es[-1]
    u_star = norming_functional(fin.x - base.x, seq.norm_kind)
    a_fin = float(u_star @ (fin.x - base.x))
    w_dir = (fin.x - base.x) / a_fin
    tau = _cone_tau(0.45, seq, gamma_dp, max(e.xn for e in es), with_dual)

    shells = [_cone_shell(e, base, seq.norm_kind, u_star, w_dir, with_dual) for e in es]
    shells.sort(key=lambda s: -s["a"])
    bs = [s["a"] for s in shells]
    for i in range(len(bs) - 1):
        if not bs[i + 1] < bs[i]:
            raise WitnessError("insufficient depth: projected scales collide")
    floor = bs[-1] * math.exp(-(len(bs) + 1.0))
    bs_asc = bs[::-1]
    cols = _stack_shells(shells)
    # at k - 1, for each cell k >= 1: its lower bound (the floor for the ramp
    # cell) and the log of its width, b_{k-1} over that bound
    lows = bs[1:] + [floor]
    big_ls = np.array([math.log(b / lo) for b, lo in zip(bs, lows)])
    lows = np.array(lows)
    dim_x, dim_y = base.x.size, base.y.size

    def interpolate(DX, alpha):
        """The interpolated payload of each row and its gradient."""
        # cell k of a row: bs[k] <= alpha < bs[k-1]; len(bs) in the ramp region
        cell = len(bs) - np.searchsorted(bs_asc, alpha, side="right")
        T, GT = np.empty((len(DX), dim_y)), np.empty((len(DX), dim_y, dim_x))
        r = np.flatnonzero(cell == 0)
        T[r], GT[r] = _payload(cols, cell[r], DX[r], alpha[r]), cols["grad"][0]
        r = np.flatnonzero(cell > 0)
        up, dx, a = cell[r] - 1, DX[r], alpha[r]  # the shell above each row
        big_l = big_ls[up]
        lam = (_logs(a / lows[up]) / big_l)[:, None]
        # the ramp cell's lam P and lam grad; 0 + lam (P - 0) can differ in the sign of a zero
        tilt = _payload(cols, up, dx, a)
        t, grad_t = lam * tilt, lam[:, :, None] * cols["grad"][up]
        # rows between two shells: P_k + lam (P_{k-1} - P_k), and the same for grad
        mid = np.flatnonzero(up < len(bs) - 1)
        lo = up[mid] + 1
        pk, gk = _payload(cols, lo, dx[mid], a[mid]), cols["grad"][lo]
        tilt[mid] -= pk
        t[mid] = pk + lam[mid] * tilt[mid]
        grad_t[mid] = gk + lam[mid, :, None] * (cols["grad"][up[mid]] - gk)
        T[r] = t
        GT[r] = grad_t + tilt[:, :, None] * (u_star / (a * big_l)[:, None])[:, None, :]
        return T, GT

    def evaluate(X):
        DX = X - base.x
        alpha, m, held = _cone_rows(DX, u_star, w_dir, floor, tau)
        s = _smooth_cap(m, tau)
        r = np.flatnonzero(held & (s != 0.0))
        out = np.zeros((len(X), dim_y))
        out[r] = -s[r, None] * interpolate(DX[r], alpha[r])[0]
        return out

    def derivative(X):
        DX = X - base.x
        alpha, m, held = _cone_rows(DX, u_star, w_dir, floor, tau)
        owner = np.flatnonzero(~(held & (np.abs(m - (_DEAD_ZONE + tau)) <= 1e-9)))  # cap kink
        at = np.flatnonzero(held[owner])
        r = owner[at]
        T, GT = interpolate(DX[r], alpha[r])
        J = np.zeros((len(owner), dim_y, dim_x))
        J[at] = _cap_slope_term(-_smooth_cap(m[r], tau)[:, None, None] * GT, T, DX[r], alpha[r],
                                m[r], tau, w_dir, u_star)
        return owner, J

    # one-sided derivative gap at each anchor: the log-interpolation kink
    i = np.arange(1, len(shells))
    DXa, A = np.array([s["entry"].x - base.x for s in shells[1:]]), cols["a"][1:]
    gaps = _payload(cols, i - 1, DXa, A) - _payload(cols, i, DXa, A)
    anchor_eps = [0.0] + [g / (b * math.log(b_up / b))
                          for g, b_up, b in zip(norms(gaps, seq.norm_kind).tolist(), bs, bs[1:])]

    probes = []
    for s, s_next in zip(shells, shells[1:]):
        probes.append(base.x + math.sqrt(s["a"] * s_next["a"]) * w_dir)
    probes.append(base.x + 1.3 * bs[0] * w_dir)
    probes.append(base.x + math.sqrt(floor * bs[-1]) * w_dir)

    return Perturbation(
        eval=evaluate, derivative=derivative, class_tag=tag, gamma=gamma, gamma_dp=gamma_dp,
        witness=seq, anchor_entries=[s["entry"] for s in shells], anchor_eps=anchor_eps,
        probes=probes, floor_radius=floor, case=2, name=f"{tag} destabilizer (log cone)",
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
                           ladder: ScaleLadder, direction_mode: str = "auto") -> Perturbation:
    """Calm destabilizer of strong subregularity at the base point.

    Extracts graph points with quotient ||y - yb||/||x - xb|| below gamma
    and interpolates f(x_k) = yb - y_k along the witness cone, so that
    yb lies in (F + f)(x_k) and the strong subregularity quotient of the
    sum vanishes. Raises "no destabilizer below gamma" when the quotient
    stays at or above gamma at every scale (the stability side). The graph
    samples come from F's memo, as in extract_witness.
    """
    try:
        w = extract_witness(F, base, "ssr", gamma, ladder, direction_mode)
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
                   ladder: ScaleLadder) -> BuilderReport:
    """End-to-end verification of a constructed perturbation.

    Checks (a) exact interpolation at the anchors and the base, (b) the
    analytic Jacobian against central finite differences at the probes,
    (c) the sampled class modulus against gamma minus the builder margin
    (gamma - gamma'')/2, (d) class structure: firm calmness for the calm
    classes, positive homogeneity for case-1 cones, the semismoothness
    decay test for case-2, and (e) destabilization: srg1p of F + f
    (computed over a pool with the shifted witness elements injected)
    ends at or below 0.05 at its finest scales; the ssr class
    instead requires the strong subregularity estimate of F + f to
    report exactly zero. Each failed check leaves a line in the notes.
    Each phase evaluates p on all its points at once, and phase (e)
    shifts each anchor's element by its own witness entry. Anchors,
    targets, gamma' and dimensions come from p.witness and
    p.anchor_entries; (d) reads firm calmness off the estimate of (c).
    F must share the witness's norm and dimensions, or WitnessError is raised.
    """
    w = p.witness
    yb = w.base.y
    if (F.kind, F.dim_x, F.dim_y) != (w.norm_kind, w.base.x.size, yb.size):
        raise WitnessError(f"the witness is {w.norm_kind} on {w.base.x.size}->{yb.size}, "
                           f"the map {F.name} is {F.kind} on {F.dim_x}->{F.dim_y}")
    rep = BuilderReport(class_tag=p.class_tag, gamma=p.gamma,
                        gamma_prime=w.gamma_prime, gamma_dp=p.gamma_dp,
                        case=p.case, n_witnesses=len(p.anchor_entries),
                        floor_radius=p.floor_radius)
    if not p.gamma_dp < p.gamma:
        rep.notes.append("internal gamma'' is not below gamma; build metadata inconsistent")

    # (a) interpolation: f(x_k) = yb - y_k at each anchor entry
    AX = np.array([e.x for e in p.anchor_entries], dtype=float)
    targets = yb - np.array([e.y for e in p.anchor_entries], dtype=float)
    dim_x, dim_y = AX.shape[1], targets.shape[1]
    values = p.eval(np.concatenate([base.x[None], AX]))
    rep.base_value_err = float(norms(values[:1], F.kind)[0])
    target_scale = max([1.0] + np.abs(targets).max(axis=1).tolist())
    errs = norms(values[1:] - targets, F.kind)
    rows = [{"k": k, "t": t, "interpolation_err": err, "gradient_relerr": 0.0}
            for k, (t, err) in enumerate(zip(norms(AX - base.x, F.kind).tolist(),
                                             errs.tolist()))]
    rep.interpolation_max_err = _running_max(errs, 0.0)

    # (b) analytic Jacobian vs central differences at the stored probes.
    # The probes sit away from the anchors on purpose: at a bump center the
    # analytic gradient reduces to the pairing term -v x*^T, which can be
    # many orders below the surrounding function values, and no finite
    # difference recovers it through the cancellation. At the probes the
    # envelope slope dominates and the quotient is well conditioned.
    P = np.array(p.probes, dtype=float).reshape(len(p.probes), dim_x)
    owner, jac = p.derivative(P)
    rep.notes += ["probe on a seam: derivative unavailable"] * (len(P) - len(owner))
    P = P[owner]
    dists = norms((P[:, None] - AX[None]).reshape(-1, dim_x), "l2").reshape(len(P), len(AX))
    d_near = np.minimum(dists.min(axis=1), norms(P - base.x, "l2"))
    fd = np.zeros_like(jac)
    for i in range(dim_x):
        lo, ulps = 1e-7 * d_near, 32.0 * np.spacing(np.abs(P[:, i]))
        step = np.zeros_like(P)
        step[:, i] = np.where(ulps > lo, ulps, lo)  # max(lo, ulps)
        xp, xm = P + step, P - step
        fd[:, :, i] = (p.eval(xp) - p.eval(xm)) / (xp[:, i] - xm[:, i])[:, None]
    # max(|jac|, |fd|, 1e-9) as Python's max takes it, per probe
    mj, mf = np.abs(jac).max(axis=(1, 2)), np.abs(fd).max(axis=(1, 2))
    scale = np.where(mf > mj, mf, mj)
    relerrs = np.abs(fd - jac).max(axis=(1, 2)) / np.where(1e-9 > scale, 1e-9, scale)
    worst_g = 0.0
    for k_near, relerr in zip(np.argmin(dists, axis=1).tolist(), relerrs.tolist()):
        rows[k_near]["gradient_relerr"] = max(rows[k_near]["gradient_relerr"], relerr)
        worst_g = max(worst_g, relerr)
    rep.gradient_max_relerr = worst_g
    rep.per_witness = rows

    # (c) sampled modulus of the perturbation alone
    fgraph = make_function_graph(p.eval, grad=p.derivative, dim_x=dim_x, dim_y=dim_y,
                                 kind=F.kind, name=p.name)
    fbase = GraphPoint(base.x, np.zeros(dim_y))
    vlad = _destab_ladder(p, ladder)
    extra = list(p.probes) + list(AX)
    probed = anchored(fgraph, list(zip(extra, fgraph.func(np.array(extra, dtype=float)))))
    if p.class_tag == "lip":
        mod = estimate_lip(probed, fbase, vlad)
    else:
        mod = estimate_clm(probed, fbase, vlad)
    rep.modulus_estimate = mod.reported
    margin = 0.5 * (p.gamma - p.gamma_dp)
    rep.modulus_ok = rep.modulus_estimate <= p.gamma - margin

    # (d) class structure
    if p.class_tag in ("fclm", "fclm_ss", "ssr"):
        fc = firmly_calm_test(p.eval, base.x, mod, vlad, F.kind, extra_xs=extra)
        rep.firmly_calm_ok = fc["ok"]
    if p.class_tag in ("fclm_ss", "ssr") and p.case == 1:
        ok, err = positive_homogeneity_test(p.eval, base.x, F.kind)
        rep.homogeneity_ok = ok
        if not ok:
            rep.notes.append(f"positive homogeneity violated at {err:.3e}")
    elif p.class_tag == "fclm_ss":
        # the log-interpolation cells carry an O(1) defect at every
        # scale between the anchors; the construction is semismooth*
        # at the base because f vanishes identically below the floor,
        # so the decay test has to sample that region before its tail
        ss_lad = vlad
        while (p.floor_radius > 0.0 and ss_lad.depth < 96
               and ss_lad.annuli(ss_lad.depth - 1)[1][0] > 0.125 * p.floor_radius):
            ss_lad = ss_lad.deepen(1)
        ss = semismooth_star_test(fgraph, fbase, ss_lad)
        rep.semismooth_verdict = ss.verdict

    # (e) destabilization of the sum
    G = anchored(sum_with_function(F, fgraph, name=f"{F.name}+{p.class_tag}"),
                 [(xk, yb) for xk in AX])
    if p.class_tag == "ssr":
        est = estimate_ssrg(G, base, vlad)
        rep.destabilization = list(est.per_scale)
        rep.destabilization_ok = est.reported == 0.0
        if not rep.destabilization_ok:
            rep.notes.append(f"ssrg of the perturbed map is {est.reported:g}, not 0")
    else:
        owner, jac = p.derivative(AX)
        shifted = []
        for k, g in zip(owner.tolist(), jac):
            e = p.anchor_entries[k]
            shifted.append(CoderivElement(AX[k].copy(), base.y.copy(), e.y_star.copy(),
                                          e.x_star + g.T @ e.y_star, eps=p.anchor_eps[k]))
        pool, pid = build_element_pool(G, base, vlad, extra_elements=shifted)
        est = estimate_constant("srg1p", pool, vlad, pid)
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


def firmly_calm_test(f, base_x, clm: Estimate, ladder: ScaleLadder, kind: str,
                     extra_xs: list | None = None) -> dict:
    """Empirical firm calmness: bounded calm quotients plus local stability.

    Clause A fails when moduli._diverging calls the per-annulus maxima of
    clm, estimate_clm of f's graph at the base over ladder, diverging; it
    samples nothing itself. Clause B evaluates f (rows in, as
    Perturbation.eval) once, taking central two-point slopes at three
    shrinking step sizes around offset points: 6 in the middle and 6 in
    the innermost annulus, and the first 12 extra_xs. A final slope
    exceeding eight times the first indicates a discontinuity straddled
    by the center (per-point slopes may be large, and may grow from point
    to point as x approaches the base, without failing; a zero first slope
    is ignored because it means the coarse step cleared a feature narrower
    than itself). Every maximum is a running one from 1: a NaN never
    raises it.
    """
    base_x = np.atleast_1d(np.asarray(base_x, dtype=float))
    dim = base_x.size
    extras = np.array(extra_xs or [], dtype=float).reshape(-1, dim)
    diverging = _diverging(clm.per_annulus)

    js = [ladder.depth // 2, ladder.depth - 1]
    inner, outer = (c[js] for c in ladder.annuli())
    centers = np.concatenate([sample_annuli(base_x, inner, outer, 6, ladder.seeds(89)[js], kind),
                              extras[:12]])
    t = norms(centers - base_x, kind)
    h = np.where(1e-12 > t, 1e-12, t)[:, None] * np.array([1e-2, 1e-3, 1e-4])
    # steps (center, step size, coordinate): h at that coordinate, 0.0 elsewhere
    steps = np.zeros(h.shape + (dim, dim))
    steps[:, :, range(dim), range(dim)] = h[:, :, None]
    xc = centers[:, None, None, :]
    plus, minus = (xc + steps).reshape(-1, dim), (xc - steps).reshape(-1, dim)
    values = f(np.concatenate([plus, minus]))
    num = norms(values[:len(plus)] - values[len(plus):], kind)
    slope = num.reshape(h.shape + (dim,)) / (2.0 * h[:, :, None])
    slopes = np.where(slope > 0.0, slope, 0.0).max(axis=2)  # the running max over coordinates
    # only the ratio matters: a jump straddled by the center scales
    # like 1/h at every step, so the first slope is never zero for
    # one; a zero first slope with finer structure underneath is a
    # compactly supported bump narrower than the coarse step
    coarse = slopes[:, 0] > 1e-12
    worst_growth = _running_max(slopes[coarse, -1] / slopes[coarse, 0], 1.0)

    ok = (not diverging) and worst_growth <= 8.0
    return {"ok": ok, "slope_growth": worst_growth, "diverging": diverging}


def random_calm_perturbation(seed: int):
    """A seeded calm perturbation f(x) = a x + b x sin(ln|x|), |a|+|b| <= 0.85.

    Returns (f, derivative, a, b) in the rows form of Perturbation: f maps
    rows (n, 1) to rows (n, 1), and derivative(X) returns (owner, G) with
    the row x = 0, where f has no derivative, absent from owner. The
    calmness modulus is |a| + |b|, so the perturbed identity keeps its
    strong subregularity quotient at or above 0.15 at every graph point.
    """
    u = r2_lattice(2, 2, derive_seed(seed, 131))
    a = (2.0 * float(u[0, 0]) - 1.0) * 0.5 * 0.85
    b = (2.0 * float(u[1, 1]) - 1.0) * (0.85 - abs(a))

    def evaluate(X):
        z = X[:, 0]
        out = np.zeros_like(z)
        nz = z != 0.0
        out[nz] = a * z[nz] + b * z[nz] * np.sin(_logs(np.abs(z[nz])))
        return out[:, None]

    def derivative(X):
        owner = np.flatnonzero(X[:, 0] != 0.0)
        th = _logs(np.abs(X[owner, 0]))
        return owner, (a + b * (np.sin(th) + np.cos(th)))[:, None, None]

    return evaluate, derivative, a, b
