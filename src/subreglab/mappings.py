"""Set-valued maps as records of closures, plus a catalog of test maps.

A SetValuedMap bundles image/preimage distances, a deterministic graph
sampler, and optional analytic oracles (graph normals, feature points).
Constructors build these records for function graphs, linear maps, and the
structured maps used throughout: the reciprocal interval map, the
complementarity angle, and oscillating graphs.

Feature points deserve a word. Uniform annulus sampling provably misses
measure-zero qualifying sets (the sin/cos zero fibers of x sin(1/x) occupy
an O(r) fraction of each annulus), so structured maps enumerate those fibers
deterministically. Features are graph points only; every derived quantity is
still computed from the map's own oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .geometry import (
    ScaleLadder,
    _check_kind,
    derive_seed,
    dual_sphere_grid,
    norm,
    norms,
    r2_lattice,
    sample_annulus,
)

__all__ = [
    "GraphPoint",
    "SetValuedMap",
    "CatalogEntry",
    "make_function_graph",
    "make_linear_map",
    "make_identity",
    "make_zero_map",
    "make_scale_map",
    "make_square",
    "make_abs",
    "make_xsin",
    "make_oscillating",
    "make_spiral",
    "make_interval_map",
    "make_complementarity_angle",
    "sum_with_function",
    "anchored",
    "inverse",
    "catalog",
    "resolve_map_spec",
    "graph_annuli",
    "graph_rows",
    "graph_tolerance",
    "preimage_distance_fallback",
    "preimage_distances_fallback",
]


@dataclass
class GraphPoint:
    """A point (x, y) of the graph of a set-valued map: the estimators' base point."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float))
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float))


@dataclass
class SetValuedMap:
    """Record of closures describing F: R^dim_x => R^dim_y.

    The oracles func, image_distance and preimage_distance take rows: X
    (n, dim_x) and Y (n, dim_y). image_distance(X, Y) returns the n values
    d(Y[k], F(X[k])) (inf when F(X[k]) is empty), so Y[k] lies in F(X[k])
    when it is 0; preimage_distance(X, Y) returns the n values
    d(X[k], F^{-1}(Y[k])), or the field is None, in which case callers fall
    back to preimage_distances_fallback. func(X), for single-valued maps,
    returns the (n, dim_y) values f(X[k]). Row k of every result depends on
    row k of the arguments alone, so it has the bits of the one-row call.

    sample_graph(center, r_inner, r_outer, n, seed) returns graph points as
    rows (X, Y), X of shape (m, dim_x) and Y of shape (m, dim_y), with X[k]
    in the annulus around center.x (maps with vertical structure also
    return same-x points with Y[k] in the annulus around center.y). A sample
    with no point is a pair of arrays of shape (0, dim_x) and (0, dim_y).
    Callers unpack the pair, X, Y = ..., and never test its type: a wrapper
    of the sampler may hand it on as a two-item list.

    analytic_normals(X, Y) takes rows of graph points and returns (owner,
    X_star, Y_star): representative pairs (x*, y*), one per row of X_star
    (m, dim_x) and Y_star (m, dim_y), with (x*, -y*) normal to the graph at
    (X[owner[i]], Y[owner[i]]). The pairs come in row order, and within a
    row in the oracle's order; a row where the oracle has no information
    has no pairs, and the pairs of row k depend on row k alone. y* is not
    restricted to the unit sphere, so purely horizontal normals (y* = 0)
    are expressible. Function graphs offer the y* of an 8-point
    dual_sphere_grid. It is the only source of coderivative elements, and
    None on a map without one. feature_points(base_x, r_inner, r_outer)
    enumerates at most _FEATURE_CAP = 24 structural graph points per
    annulus, as rows (X, Y) like sample_graph's, empty ones included.
    grad(X), for single-valued maps, takes rows and returns (owner, G):
    owner the ascending rows of X where the map is differentiable, G of
    shape (len(owner), dim_y, dim_x) their Jacobians, G[i] from row
    owner[i] alone. A row where it is not (a kink or seam) is absent.

    kind is the norm of X and Y: every modulus of the map is measured in
    it, and the map's own oracles use it. A kind outside NORM_KINDS, or a
    dimension below 1, raises ValueError.

    memo holds what moduli derives from the map annulus by annulus (graph
    samples, element records), so each annulus is computed once per map. No
    caller sets it, and a map made by dataclasses.replace starts with an
    empty one, since its closures may sample differently.
    """

    dim_x: int
    dim_y: int
    image_distance: Callable
    sample_graph: Callable
    preimage_distance: Callable | None = None
    analytic_normals: Callable | None = None
    feature_points: Callable | None = None
    func: Callable | None = None
    grad: Callable | None = None
    name: str = "map"
    kind: str = "l1"
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_kind(self.kind)
        if self.dim_x < 1 or self.dim_y < 1:
            raise ValueError("dimensions must be positive")

    @property
    def single_valued(self) -> bool:
        return self.func is not None


def graph_annuli(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder, tag: int,
                 start: int = 0):
    """Yield (j, inner, outer, X, Y) for each annulus j >= start of the ladder, outermost first.

    The rows X (m, dim_x) and Y (m, dim_y) are the map's graph sample of the
    annulus, drawn with seed ladder.scale_seed(j, tag), followed by its
    feature points. Neither depends on the ladder's depth, so a deepened
    ladder yields the same annuli first. One annulus is held at a time.
    """
    for j, (inner, outer) in enumerate(ladder.annuli()[start:], start):
        X, Y = F.sample_graph(base, inner, outer, ladder.samples_per_scale,
                              ladder.scale_seed(j, tag))
        if F.feature_points is not None:
            FX, FY = F.feature_points(base.x, inner, outer)
            X, Y = np.concatenate([X, FX]), np.concatenate([Y, FY])
        yield j, inner, outer, X, Y


def graph_rows(F: SetValuedMap, base: GraphPoint, ladder: ScaleLadder, tag: int):
    """The rows that graph_annuli yields for every annulus, as one block (ann, X, Y):
    row k is the graph point (X[k], Y[k]) of annulus ann[k], in ladder order."""
    blocks = [(np.full(len(X), j), X, Y) for j, _, _, X, Y in graph_annuli(F, base, ladder, tag)]
    return tuple(np.concatenate(c) for c in zip(*blocks))


# ---------------------------------------------------------------------------
# function graphs


def make_function_graph(
    f: Callable,
    grad: Callable | None = None,
    dim_x: int = 1,
    dim_y: int = 1,
    kind: str = "l1",
    name: str = "function",
    preimage: Callable | None = None,
    features: Callable | None = None,
) -> SetValuedMap:
    """Wrap a single-valued function as a set-valued map via its graph.

    f maps rows (n, dim_x) to rows (n, dim_y), row k from row k alone (see
    SetValuedMap); _rows lifts a function of one point to that form. grad
    takes rows too and returns (owner, G) as SetValuedMap.grad does; the
    normal oracle asks it once per call and gives the rows absent from
    owner no pairs. Each row's pairs g.T @ eta come from one stacked
    product, which has the bits of g.T @ eta. Without grad the map has no
    Jacobian at any row.
    """

    def jacobians(X):
        if grad is None:
            return np.zeros(0, dtype=int), np.zeros((0, dim_y, dim_x))
        owner, G = grad(X)
        owner = np.asarray(owner, dtype=int)
        return owner, np.asarray(G, dtype=float).reshape(len(owner), dim_y, dim_x)

    def image_distance(X, Y):
        return norms(Y - f(X), kind)

    def sample(center: GraphPoint, r_inner, r_outer, n, seed):
        X = sample_annulus(center.x, r_inner, r_outer, n, seed, kind)
        return X, f(X)

    etas = dual_sphere_grid(kind, dim_y, 8)
    etas.flags.writeable = False  # its rows are the y* of every call of normals

    def normals(X, Y):
        owner, G = jacobians(X)
        # (n, 1, dim_x, dim_y) against (1, 8, dim_y, 1): g.T @ eta for each
        # row and eta; etas @ G would round differently
        X_star = np.matmul(np.swapaxes(G, 1, 2)[:, None], etas[None, :, :, None])
        return (np.repeat(owner, len(etas)), X_star.reshape(-1, dim_x),
                np.tile(etas, (len(owner), 1)))

    return SetValuedMap(
        dim_x=dim_x,
        dim_y=dim_y,
        image_distance=image_distance,
        preimage_distance=preimage,
        sample_graph=sample,
        analytic_normals=normals,
        feature_points=features,
        func=f,
        grad=jacobians,
        name=name,
        kind=kind,
    )


def _rows(fn: Callable, *shape: int) -> Callable:
    """fn of one row of each argument, lifted to rows.

    Row k of the result is fn(A[k], B[k], ...) for the row arrays A, B, ...
    passed, each of the given shape: none for a distance, (dim_y,) for the
    value of a function of one point.
    """

    def lifted(*arrays):
        out = [fn(*row) for row in zip(*arrays)]
        return np.array(out, dtype=float).reshape((len(out),) + shape)

    return lifted


def _logs(v: np.ndarray) -> np.ndarray:
    """math.log of each element: np.log may round differently from math.log."""
    return np.fromiter(map(math.log, v.tolist()), dtype=float, count=len(v))


def _case_normals(case: Callable, table: list) -> Callable:
    """The normal oracle of a map R => R whose pairs depend on a case per
    point: case(x, y) gives the int case of each row of the columns x and
    y, and row k has the pairs (x*, y*) of table[case[k]], in their order
    (see SetValuedMap.analytic_normals)."""
    width = max(map(len, table))
    pairs = np.array([t + [(0.0, 0.0)] * (width - len(t)) for t in table], dtype=float)
    counts = np.array([len(t) for t in table])

    def normals(X, Y):
        c = case(X[:, 0], Y[:, 0])
        keep = np.arange(width) < counts[c][:, None]  # row by row, each row's pairs in order
        P = pairs[c][keep]
        return np.nonzero(keep)[0], P[:, :1], P[:, 1:]

    return normals


def make_linear_map(A, kind: str = "l1", name: str | None = None) -> SetValuedMap:
    """F(x) = {Ax} with closed-form image and preimage distances.

    Each row is multiplied by A and solved with A on its own, by a stacked
    np.matmul and np.linalg.solve, which give it the bits of A @ x and
    np.linalg.solve(A, y); one solve with many right-hand sides would not.
    A singular or non-square A measures each row's distance to its fiber
    with _fiber_distance.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    dy, dx = A.shape

    # A (dy, dx) against a stack (n, dx, 1) is broadcast to one A per row
    def f(X):
        return np.matmul(A, X[..., None])[..., 0]

    def preimage_distances(X, Y):
        if dy == dx:
            try:
                return norms(X - np.linalg.solve(A, Y[..., None])[..., 0], kind)
            except np.linalg.LinAlgError:  # A is singular, and so is every row's A
                pass
        return np.array([_fiber_distance(A, x, y, kind) for x, y in zip(X, Y)], dtype=float)

    def grad(X):
        return np.arange(len(X)), np.repeat(A[None], len(X), 0)

    return make_function_graph(f, grad=grad, dim_x=dx, dim_y=dy, kind=kind,
                               name=name or "linear", preimage=preimage_distances)


def _fiber_distance(A: np.ndarray, x: np.ndarray, y: np.ndarray, kind: str) -> float:
    """d(x, {z : Az = y}): the norm of the smallest step w with A w = y - Ax.

    The least-squares w is the smallest step in l2; l1 and linf find theirs
    with a linear program. When A w misses y - Ax by more than 1e-9 times
    max(1, ||y - Ax||), y is not in the range of A and the distance is inf.
    """
    r = y - A @ x
    w, *_ = np.linalg.lstsq(A, r, rcond=None)
    if norm(A @ w - r, kind) > 1e-9 * max(1.0, norm(r, kind)):
        return math.inf
    if kind == "l2":
        return norm(w, kind)
    from scipy.optimize import linprog  # imported here: it takes a second to load

    dy, dx = A.shape
    # variables (w, t) with |w_i| <= t_i (l1, minimizing the sum of t) or
    # |w_i| <= t (linf, minimizing t)
    T = np.eye(dx) if kind == "l1" else np.ones((dx, 1))
    k = T.shape[1]
    eye = np.eye(dx)
    res = linprog(np.r_[np.zeros(dx), np.ones(k)], A_ub=np.block([[eye, -T], [-eye, -T]]),
                  b_ub=np.zeros(2 * dx), A_eq=np.hstack([A, np.zeros((dy, k))]), b_eq=r,
                  bounds=[(None, None)] * dx + [(0, None)] * k, method="highs")
    return norm(res.x[:dx], kind) if res.status == 0 else math.nan


def make_identity(dim: int = 1, kind: str = "l1") -> SetValuedMap:
    return make_linear_map(np.eye(dim), kind=kind, name="identity")


def make_zero_map(kind: str = "l1") -> SetValuedMap:
    def preimage(X, Y):
        return np.where(norms(Y, kind) == 0.0, 0.0, math.inf)

    return make_function_graph(
        lambda X: np.zeros((len(X), 1)),
        grad=lambda X: (np.arange(len(X)), np.zeros((len(X), 1, 1))),
        kind=kind,
        name="zero",
        preimage=preimage,
    )


def make_scale_map(lam: float = 2.0, kind: str = "l1") -> SetValuedMap:
    return make_linear_map([[float(lam)]], kind=kind, name=f"scale({lam:g})")


def _nearer(x: np.ndarray, y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """min(|x - r|, |x + r|), inf where y < 0 (no real root; -0.0 has the root 0)."""
    a, b = np.abs(x - r), np.abs(x + r)
    return np.where(y < 0.0, math.inf, np.where(b < a, b, a))


def make_square(kind: str = "l1") -> SetValuedMap:
    def preimage(X, Y):
        y = Y[:, 0]
        return _nearer(X[:, 0], y, np.sqrt(np.where(0.0 > y, 0.0, y)))  # sqrt(max(y, 0))

    return make_function_graph(
        lambda X: X * X,
        grad=lambda X: (np.arange(len(X)), 2.0 * X[:, :, None]),
        kind=kind,
        name="square",
        preimage=preimage,
    )


def make_abs(kind: str = "l1") -> SetValuedMap:
    def grad(X):
        owner = np.flatnonzero(X[:, 0] != 0.0)  # the kink at 0 has no Jacobian
        return owner, np.where(X[owner] > 0, 1.0, -1.0)[:, :, None]

    def preimage(X, Y):
        return _nearer(X[:, 0], Y[:, 0], Y[:, 0])

    return make_function_graph(np.abs, grad=grad, kind=kind, name="abs", preimage=preimage)


_FEATURE_CAP = 24  # feature points per annulus, at most


def _stride_indices(count: int, cap: int) -> list[int]:
    """Deterministic selection of at most cap indices from range(count)."""
    if count <= cap:
        return list(range(count))
    # float bounds: count may exceed any machine integer at fine scales; past
    # 2^53 a rounded position can pass count - 1
    pos = np.linspace(0.0, float(count - 1), cap)
    return sorted({min(int(round(p)), count - 1) for p in pos})


def make_xsin(kind: str = "l1") -> SetValuedMap:
    """Graph of f(x) = x sin(1/x), f(0) = 0.

    The derivative sin(1/x) - cos(1/x)/x is unbounded near 0; the feature
    oracle enumerates three fiber families per annulus: sin zeros
    (x = 1/(k pi)), cos zeros, and the fixed points of tan u = u, each
    refined by Newton steps to machine accuracy.
    """

    def f(X):
        z = X[:, 0]
        nz = z != 0.0
        u = np.divide(1.0, z, out=np.zeros_like(z), where=nz)
        # np.sin agrees with math.sin bit for bit (tests/test_mappings.py)
        return np.where(nz, z * np.sin(u), 0.0)[:, None]

    def grad(X):
        owner = np.flatnonzero(X[:, 0] != 0.0)
        u = 1.0 / X[owner]
        # np.cos agrees with math.cos bit for bit too (tests/test_mappings.py)
        return owner, (np.sin(u) - u * np.cos(u))[:, :, None]

    def fibers(base_x, r_inner, r_outer) -> list[float]:
        bx = float(np.atleast_1d(base_x)[0])
        if abs(bx) > 1e-12 or r_inner <= 0:
            return []
        xs: list[float] = []
        u_lo, u_hi = 1.0 / r_outer, 1.0 / r_inner
        per = max(2, _FEATURE_CAP // 6)
        # keep k implicit: at fine scales the index range has ~1/r_inner
        # members and must never be materialized
        k_lo = max(1, int(math.ceil(u_lo / math.pi)))
        k_hi = int(math.floor(u_hi / math.pi))
        n_k = max(0, k_hi - k_lo + 1)
        for sign in (1.0, -1.0):
            # sin zeros: u = k pi exactly
            for i in _stride_indices(n_k, per):
                xs.append(sign / ((k_lo + i) * math.pi))
            # cos zeros: Newton on cos from u0 = (k + 1/2) pi
            for i in _stride_indices(n_k, per):
                u = (k_lo + i + 0.5) * math.pi
                for _ in range(2):
                    u = u + math.cos(u) / math.sin(u)
                if u_lo <= u <= u_hi:
                    xs.append(sign / u)
            # tan u = u fixed points: Newton on sin u - u cos u
            for i in _stride_indices(n_k, per):
                u = (k_lo + i + 0.5) * math.pi
                u = u - 1.0 / u
                for _ in range(3):
                    h = math.sin(u) - u * math.cos(u)
                    dh = u * math.sin(u)
                    if dh != 0.0:
                        u = u - h / dh
                if u_lo <= u <= u_hi:
                    xs.append(sign / u)
        return xs

    def features(base_x, r_inner, r_outer):
        X = np.array(fibers(base_x, r_inner, r_outer), dtype=float).reshape(-1, 1)
        return X, f(X)

    return make_function_graph(f, grad=grad, kind=kind, name="xsin", features=features)


def make_oscillating(kind: str = "l1") -> SetValuedMap:
    """Graph of f(x) = x sin(ln |x|), f(0) = 0.

    Log-periodic: every modulus of this map oscillates with period pi in
    ln x, which makes it the package's standing counterexample to the
    semismoothness test (the defect does not decay with scale).
    """

    def f(X):
        z = X[:, 0]
        out = np.zeros_like(z)
        nz = z != 0.0
        out[nz] = z[nz] * np.sin(_logs(np.abs(z[nz])))
        return out[:, None]

    def grad(X):
        owner = np.flatnonzero(X[:, 0] != 0.0)
        th = _logs(np.abs(X[owner, 0]))
        return owner, (np.sin(th) + np.cos(th))[:, None, None]

    theta_min = math.atan(-0.5)  # argmin of max(|sin|, |sin + cos|)

    def fibers(base_x, r_inner, r_outer) -> list[float]:
        bx = float(np.atleast_1d(base_x)[0])
        if abs(bx) > 1e-12 or r_inner <= 0:
            return []
        xs: list[float] = []
        lo, hi = math.log(r_inner), math.log(r_outer)
        per = max(2, _FEATURE_CAP // 6)
        for sign in (1.0, -1.0):
            for off in (theta_min, 0.0, math.pi / 2.0):
                ms = range(int(math.ceil((lo - off) / math.pi)), int(math.floor((hi - off) / math.pi)) + 1)
                ms = list(ms)
                for i in _stride_indices(len(ms), per):
                    xs.append(sign * math.exp(off + ms[i] * math.pi))
        return xs

    def features(base_x, r_inner, r_outer):
        X = np.array(fibers(base_x, r_inner, r_outer), dtype=float).reshape(-1, 1)
        return X, f(X)

    return make_function_graph(f, grad=grad, kind=kind, name="oscillating", features=features)


def make_spiral(kind: str = "l2") -> SetValuedMap:
    """Complex squaring z -> z^2 on R^2; smooth with rotating derivative.

    Its witness directions never stabilize, which exercises the
    distinct-direction (cone) branch of the perturbation builders.
    """

    def f(X):
        a, b = X[:, 0], X[:, 1]
        return np.stack([a * a - b * b, 2.0 * a * b], axis=1)

    def grad(X):
        a, b = X[:, 0], X[:, 1]
        G = np.stack([2.0 * a, -2.0 * b, 2.0 * b, 2.0 * a], axis=1)
        return np.arange(len(X)), G.reshape(len(X), 2, 2)

    def preimage(X, Y):
        # the roots +-sqrt(y) of each row, y read as one complex number
        r = np.sqrt(np.ascontiguousarray(Y, dtype=float).view(complex))
        c = np.concatenate([r.real, r.imag], axis=1)
        a, b = norms(X - c, kind), norms(X + c, kind)
        return np.where(b < a, b, a)

    return make_function_graph(
        f, grad=grad, dim_x=2, dim_y=2, kind=kind, name="spiral", preimage=preimage
    )


# ---------------------------------------------------------------------------
# structured set-valued maps


_RECIP_TOL = 1e-9


def make_interval_map(kind: str = "l1") -> SetValuedMap:
    """F(x) = [-x, x] when x = 1/k for an integer k >= 1, else {x}.

    Reciprocal detection accepts x > 0 with |1/x - round(1/x)| <=
    _RECIP_TOL * (1/x)^2, i.e. an absolute x-window of about _RECIP_TOL
    around each 1/k. That is unambiguous while the windows stay separated,
    which holds for x above roughly sqrt(2 * _RECIP_TOL); the catalog
    ladders stay well inside that range. The image distance and the normal
    oracle test every row at once; the preimage distance searches the
    fibers near each row on its own.
    """

    def recip_k(x: np.ndarray) -> np.ndarray:
        """The k with x = 1/k within the tolerance, else 0.0, for each x."""
        # np.rint rounds half to even, as round does; 1/x and (1/x)^2 may
        # overflow to inf, as they do in Python floats, and a nan x is no 1/k
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q = 1.0 / x
            k = np.rint(q)
            hit = (x > 0.0) & (k >= 1.0) & (np.abs(q - k) <= _RECIP_TOL * q * q)
        return np.where(hit, k, 0.0)

    def image_distance(X, Y):
        x, y = X[:, 0], Y[:, 0]
        with np.errstate(invalid="ignore"):  # inf - inf is nan, as in Python floats
            inside, off = np.abs(y) - x, np.abs(y - x)
        # Python's max(0.0, v) is v only where v > 0.0
        return np.where(recip_k(x) != 0.0, np.where(inside > 0.0, inside, 0.0), off)

    def preimage_distance(x, y):
        xv = float(np.atleast_1d(x)[0])
        yv = float(np.atleast_1d(y)[0])
        best = abs(xv - yv)  # the diagonal point y itself
        ay = abs(yv)
        if ay <= 1.0 + 1e-15:
            k_max = int(math.floor(1.0 / ay)) if ay > 1e-300 else 10**15
            if k_max >= 1:
                cands = {k_max}
                if xv > 0:
                    kc = int(round(1.0 / xv))
                    for k in (kc - 1, kc, kc + 1):
                        if 1 <= k <= k_max:
                            cands.add(k)
                for k in cands:
                    best = min(best, abs(xv - 1.0 / k))
        return best

    def sample(center: GraphPoint, r_inner, r_outer, n, seed):
        cx = float(center.x[0])
        cy = float(center.y[0])
        diagonal = sample_annulus(center.x, r_inner, r_outer, max(2, n // 2), seed, kind)
        xy: list[tuple[float, float]] = []  # the fiber points
        # vertical fibers whose foot lies in the x-annulus
        for lo, hi in ((cx + r_inner, cx + r_outer), (cx - r_outer, cx - r_inner)):
            a, b = max(lo, 1e-300), hi
            if b <= a:
                continue
            k_lo = int(math.ceil(1.0 / b))
            k_hi = int(math.floor(1.0 / a)) if 1.0 / a < 1e15 else k_lo + 64
            ks = [k for k in range(k_lo, min(k_hi, k_lo + 512) + 1) if k >= 1]
            u = r2_lattice(4 * max(1, len(ks)), 1, derive_seed(seed, 7))
            for i in _stride_indices(len(ks), 12):
                k = ks[i]
                xk = 1.0 / k
                xy += [(xk, yv) for yv in (0.0, xk, -xk, 0.5 * xk, -0.5 * xk)]
                for j in range(3):
                    yv = (2.0 * float(u[3 * i % len(u), 0] + 0.31 * j) % 2.0 - 1.0) * xk
                    xy.append((xk, yv))
        # same-x fiber around a vertical center
        kc = recip_k(center.x)[0]
        if kc:
            xk = 1.0 / kc if abs(cx * kc - 1.0) < 1e-12 else cx
            u = r2_lattice(8, 1, derive_seed(seed, 11))
            for j in range(8):
                yv = cy + (r_outer - (r_outer - r_inner) * float(u[j, 0])) * (1 if j % 2 else -1)
                if -xk <= yv <= xk:
                    xy.append((cx, yv))
        P = np.array(xy, dtype=float).reshape(-1, 2)
        return np.concatenate([diagonal, P[:, :1]]), np.concatenate([diagonal, P[:, 1:]])

    def features(base_x, r_inner, r_outer):
        bx = float(np.atleast_1d(base_x)[0])
        if abs(bx) > 1e-12:
            return np.zeros((0, 1)), np.zeros((0, 1))
        xy: list[tuple[float, float]] = []
        a, b = max(r_inner, 1e-300), r_outer
        # implicit index range: at fine scales floor(1/a) is astronomically
        # large and must never be turned into a list
        k_lo = max(1, int(math.ceil(1.0 / b)))
        k_hi = int(math.floor(min(1.0 / a, 1e18)))
        n_k = max(0, k_hi - k_lo + 1)
        for i in _stride_indices(n_k, max(2, _FEATURE_CAP // 3)):
            xk = 1.0 / (k_lo + i)
            if not (a < xk <= b):
                continue
            xy += [(xk, yv) for yv in (0.0, xk, -xk)]
        P = np.array(xy, dtype=float).reshape(-1, 2)
        return P[:, :1], P[:, 1:]

    def case(x, y):
        # off the 1/k; at a fiber end y = +-x, y > 0 or not; inside a fiber
        with np.errstate(invalid="ignore"):  # inf - inf is nan, as in Python floats
            end = np.abs(np.abs(y) - x) <= 1e-12 * np.where(x > 1.0, x, 1.0)  # max(1.0, x)
        return np.where(recip_k(x) == 0.0, 0, np.where(end, np.where(y > 0.0, 1, 2), 3))

    return SetValuedMap(
        dim_x=1,
        dim_y=1,
        image_distance=image_distance,
        preimage_distance=_rows(preimage_distance),
        sample_graph=sample,
        analytic_normals=_case_normals(case, [[(1.0, 1.0), (-1.0, -1.0)], [(-1.0, -1.0)],
                                              [(1.0, 1.0)], [(1.0, 0.0), (-1.0, 0.0)]]),
        feature_points=features,
        name="interval",
        kind=kind,
    )


def make_complementarity_angle(kind: str = "l1") -> SetValuedMap:
    """The complementarity angle {x >= 0, y >= 0, xy = 0} read as a map R => R.

    F(x) = {0} for x > 0, [0, inf) at x = 0, empty for x < 0.
    """

    def distance(s, v):
        # d(v, [0, inf)) where s = 0, |v| where s > 0; the image distance
        # reads s = x, v = y and the preimage distance s = y, v = x
        return np.where(s > 0.0, np.abs(v),
                        np.where(s == 0.0, np.where(-v > 0.0, -v, 0.0), math.inf))

    def sample(center: GraphPoint, r_inner, r_outer, n, seed):
        cx = float(center.x[0])
        cy = float(center.y[0])
        X = sample_annulus(center.x, r_inner, r_outer, max(2, n // 2), seed, kind)
        X = X[X[:, 0] > 0.0]  # the horizontal ray
        s = np.zeros(0)  # the vertical ray's y
        if abs(cx) <= r_outer:
            u = r2_lattice(max(2, n // 2), 1, derive_seed(seed, 3))[:, 0]
            sign = np.where(np.arange(len(u)) % 2, 1.0, -1.0)
            s = cy + (r_outer - (r_outer - r_inner) * u) * sign
            s = s[s >= 0.0]
        return (np.concatenate([X, np.zeros((len(s), 1))]),
                np.concatenate([np.zeros_like(X), s[:, None]]))

    def case(x, y):
        # the horizontal ray, the vertical ray, else the origin, whose pairs
        # span the polar cone of the angle itself
        return np.where((x > 0.0) & (np.abs(y) <= 1e-15), 0,
                        np.where((np.abs(x) <= 1e-15) & (y > 0.0), 1, 2))

    return SetValuedMap(
        dim_x=1,
        dim_y=1,
        image_distance=lambda X, Y: distance(X[:, 0], Y[:, 0]),
        preimage_distance=lambda X, Y: distance(Y[:, 0], X[:, 0]),
        sample_graph=sample,
        analytic_normals=_case_normals(case, [[(0.0, 1.0), (0.0, -1.0)], [(1.0, 0.0), (-1.0, 0.0)],
                                              [(-1.0, 0.0), (0.0, 1.0), (-1.0, 1.0)]]),
        name="compl_angle",
        kind=kind,
    )


# ---------------------------------------------------------------------------
# combinators


def sum_with_function(F: SetValuedMap, f: SetValuedMap, name: str | None = None) -> SetValuedMap:
    """The map x -> F(x) + f(x) for a single-valued map f (a function graph).

    f.func shifts the graph and f.grad shifts the normal oracles at points
    where it exists (the shift is exact there): one f.grad call gives the
    rows where it exists, which are shifted back with one f.func call, and
    each pair (x*, y*) of F there becomes (x* + g.T @ y*, y*). The sum's
    grad keeps the rows where both summands have a Jacobian. f must have
    F's dimensions; ValueError otherwise.
    """
    if (f.dim_x, f.dim_y) != (F.dim_x, F.dim_y):
        raise ValueError(f"cannot add {f.name} ({f.dim_x}->{f.dim_y}) to {F.name} "
                         f"({F.dim_x}->{F.dim_y}): a summand needs the map's dimensions")
    fv, gv = f.func, f.grad

    def image_distance(X, Y):
        return F.image_distance(X, Y - fv(X))

    def shifted(X, Y):
        return X, Y + fv(X)

    centers = {}  # the shifted center of each center asked about: f once there, not per annulus

    def sample(center: GraphPoint, r_inner, r_outer, n, seed):
        key = (center.x.tobytes(), center.y.tobytes())
        if key not in centers:
            centers[key] = GraphPoint(center.x, center.y - fv(center.x[None])[0])
        return shifted(*F.sample_graph(centers[key], r_inner, r_outer, n, seed))

    def normals(X, Y):
        rows, G = gv(X)
        owner, X_star, Y_star = F.analytic_normals(X[rows], Y[rows] - fv(X[rows]))
        shift = np.matmul(np.swapaxes(G[owner], 1, 2), Y_star[..., None])[..., 0]
        return rows[owner], X_star + shift, Y_star

    def features(base_x, r_inner, r_outer):
        return shifted(*F.feature_points(base_x, r_inner, r_outer))

    def func(X):
        return F.func(X) + fv(X)

    def grad_total(X):
        ra, A = F.grad(X)
        rb, B = gv(X)
        owner, ia, ib = np.intersect1d(ra, rb, assume_unique=True, return_indices=True)
        return owner, A[ia] + B[ib]

    return SetValuedMap(
        dim_x=F.dim_x,
        dim_y=F.dim_y,
        image_distance=image_distance,
        preimage_distance=None,
        sample_graph=sample,
        analytic_normals=normals if F.analytic_normals is not None else None,
        feature_points=features if F.feature_points is not None else None,
        func=func if F.func is not None else None,
        grad=grad_total if F.grad is not None else None,
        name=name or f"{F.name}+perturbation",
        kind=F.kind,
    )


def anchored(F: SetValuedMap, anchors) -> SetValuedMap:
    """F whose sampler also returns the (x, y) graph points anchors whose x
    lies in the requested annulus, after its own sample and in their order.

    Constructed witness points are measure-zero in their annuli; anchoring
    them keeps them visible to the estimators.
    """
    AX = np.array([a for a, _ in anchors], dtype=float).reshape(len(anchors), F.dim_x)
    AY = np.array([b for _, b in anchors], dtype=float).reshape(len(anchors), F.dim_y)

    def sample(center: GraphPoint, r_inner, r_outer, n, seed):
        X, Y = F.sample_graph(center, r_inner, r_outer, n, seed)
        t = norms(AX - center.x, F.kind)
        inside = (r_inner < t) & (t <= r_outer)
        return np.concatenate([X, AX[inside]]), np.concatenate([Y, AY[inside]])

    return replace(F, sample_graph=sample)


def inverse(F: SetValuedMap, name: str | None = None) -> SetValuedMap:
    """The inverse map, with image/preimage distances swapped exactly.

    The sampler reuses F's sampler over a spread of shells, asking each
    for max(1, n // 2) points, and filters to the requested annulus in the
    swapped coordinate, so annuli fill only approximately for strongly
    nonlinear maps.
    """

    def image_distance(U, V):
        if F.preimage_distance is not None:
            return F.preimage_distance(V, U)
        return preimage_distances_fallback(F, V, U)

    def preimage_distance(U, V):
        return F.image_distance(V, U)

    def sample(center: GraphPoint, r_inner, r_outer, n, seed):
        inner_center = GraphPoint(center.y, center.x)
        us, vs = [], []  # the swapped rows (y, x) of each shell inside the annulus
        shells = [(r_inner, r_outer), (r_inner * 0.25, r_outer), (r_inner, r_outer * 4.0),
                  (r_inner * 0.0625, r_outer * 2.0)]
        for i, (a, b) in enumerate(shells):
            X, Y = F.sample_graph(inner_center, a, b, max(1, n // 2), derive_seed(seed, i))
            t = norms(Y - center.x, F.kind)
            inside = (r_inner < t) & (t <= r_outer)
            us.append(Y[inside])
            vs.append(X[inside])
            if sum(map(len, us)) >= n:
                break
        return np.concatenate(us)[:2 * n], np.concatenate(vs)[:2 * n]

    def normals(U, V):
        owner, X_star, Y_star = F.analytic_normals(V, U)
        # (x*, -y*) normal at (x, y) becomes (-y*, x*) normal at (y, x);
        # in coderivative pairs: (a, b) -> (-b, -a)
        return owner, -Y_star, -X_star

    return SetValuedMap(
        dim_x=F.dim_y,
        dim_y=F.dim_x,
        image_distance=image_distance,
        preimage_distance=preimage_distance,
        sample_graph=sample,
        analytic_normals=normals if F.analytic_normals is not None else None,
        name=name or f"inv({F.name})",
        kind=F.kind,
    )


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _grids(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Row p is np.linspace(lo[p], hi[p], n), bit for bit.

    np.linspace with array endpoints switches every row to its zero-step
    formula as soon as one row has a zero step, so those rows are made apart.
    """
    grid = np.empty((len(lo), n))
    flat = (hi - lo) / (n - 1) == 0
    for rows in (flat, ~flat):
        if rows.any():
            grid[rows] = np.linspace(lo[rows], hi[rows], n, axis=1)
    return grid


def _refine(fb: Callable, lo: np.ndarray, hi: np.ndarray, glo: np.ndarray, y_br: np.ndarray,
            a: np.ndarray, b: np.ndarray, y_min: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints of the brackets [lo, hi] of fb(., y_br) after 80 bisection
    steps (glo = fb(lo, y_br)), and of the intervals [a, b] after 90
    golden-section steps on |fb(., y_min)|.

    One loop advances both: each step evaluates the new points of every
    bracket (steps 0-79) and every interval in one fb call. A step that
    moves no bracket's lo or hi leaves every bracket at a fixed point,
    since its next step would evaluate fb at the same midpoints and repeat
    its choices; the brackets leave the loop then, and the later steps
    evaluate the golden-section probes alone. A golden-section row whose
    step leaves its points unchanged keeps stepping and ends in that state.
    """
    m = len(a)
    y = np.concatenate((y_min, y_br))
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    gcd = np.abs(fb(np.concatenate((c, d)), np.tile(y_min, 2)))
    gc, gd = gcd[:m], gcd[m:]
    bisect = True
    for step in range(90):
        left = gc < gd  # keep [a, d], else [c, b]; one new probe p either way
        a, b = np.where(left, a, c), np.where(left, d, b)
        w = _INVPHI * (b - a)
        p = np.where(left, b - w, a + w)
        c, d = np.where(left, p, d), np.where(left, c, p)
        if bisect:
            mid = 0.5 * (lo + hi)
        z = np.concatenate((p, mid)) if bisect else p
        if not z.size:
            break
        gz = fb(z, y[:len(z)])
        gp = np.abs(gz[:m])
        gc, gd = np.where(left, gp, gd), np.where(left, gc, gp)
        if bisect:
            gm = gz[m:]
            up = (gm == 0.0) | ((glo < 0.0) == (gm < 0.0))
            nlo, nhi, glo = np.where(up, mid, lo), np.where(up, hi, mid), np.where(up, gm, glo)
            # array_equal is False on a nan end, which then keeps stepping
            bisect = step < 79 and not (np.array_equal(nlo, lo) and np.array_equal(nhi, hi))
            lo, hi = nlo, nhi
    return 0.5 * (lo + hi), 0.5 * (a + b)


def _reach(xv: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on |xv - z| as computed in floating point, over z in [lo, hi]."""
    dlo, dhi = np.abs(xv - lo), np.abs(xv - hi)
    inside = (lo <= xv) & (xv <= hi)
    return np.where(inside, 0.0, np.minimum(dlo, dhi)), np.maximum(dlo, dhi)


def _scan(fb: Callable, xv: np.ndarray, yv: np.ndarray, half: np.ndarray,
          tol: np.ndarray, n_grid: int) -> np.ndarray:
    """Per row p, the distance from xv[p] to the nearest zero of the
    residual g(z) = fb(z, yv[p]) found on a grid of half width half[p], or inf.

    Grid zeros count as they are; sign changes are bisected to machine
    accuracy; interior minima of |g| are golden-section refined and count
    when |g| <= tol[p] there, which catches even-order touches like z**2.
    The result is a minimum, so a bracket or minimum whose points all lie
    farther from xv[p] than an assured distance (a grid zero, or the far
    end of a bracket, which its bisected root is never beyond) cannot
    change it and is not refined. Both kinds are picked before either is
    refined, and _refine advances them together: one fb call for the grid,
    one to seed golden section, one per refinement step and one for the
    hit check.
    """
    m = len(xv)
    grid = _grids(xv - half, xv + half, n_grid)
    vals = fb(grid.ravel(), np.repeat(yv, n_grid)).reshape(m, n_grid)
    found = np.full(m, math.inf)

    rows, cols = np.nonzero(vals == 0.0)
    np.fmin.at(found, rows, np.abs(xv[rows] - grid[rows, cols]))

    g0, g1 = vals[:, :-1], vals[:, 1:]
    with np.errstate(invalid="ignore"):  # inf * 0 is nan, which is no sign change
        rows, cols = np.nonzero((g0 != 0.0) & (g0 * g1 < 0.0))
    near, far = _reach(xv[rows], grid[rows, cols], grid[rows, cols + 1])
    assured = found.copy()
    np.fmin.at(assured, rows, far)
    keep = near <= assured[rows]
    br, bc = rows[keep], cols[keep]

    mag = np.abs(vals)
    rows, cols = np.nonzero((mag[:, 1:-1] < mag[:, :-2]) & (mag[:, 1:-1] <= mag[:, 2:]))
    near, _ = _reach(xv[rows], grid[rows, cols], grid[rows, cols + 2])
    keep = near <= assured[rows]
    mr, mc = rows[keep], cols[keep]

    mids, zm = _refine(fb, grid[br, bc], grid[br, bc + 1], g0[br, bc], yv[br],
                       grid[mr, mc], grid[mr, mc + 2], yv[mr])
    np.fmin.at(found, br, np.abs(xv[br] - mids))
    hit = np.abs(fb(zm, yv[mr])) <= tol[mr]
    np.fmin.at(found, mr[hit], np.abs(xv[mr[hit]] - zm[hit]))
    return found


def _nearest_roots_1d(fb: Callable, xv: np.ndarray, yv: np.ndarray, r0: np.ndarray,
                      tol: np.ndarray, n_grid: int, max_doublings: int) -> np.ndarray:
    """Per pair p, the distance from xv[p] to the nearest zero of the
    residual z -> fb(z, yv[p]), or inf when none is found.

    Each pair scans grids of doubling half width from r0[p] (see _scan).
    Once a root is found the grid is re-centered on the remaining interval,
    up to three times, so a closer crossing between two same-sign grid
    points is not missed. Every round advances each unfinished pair by one
    scan, and the scans of a round run together: their brackets and minima
    share one refinement loop (_refine), which the brackets leave once they
    settle, so a round makes at most 93 fb calls, whatever the number of
    pairs. A pair's distance does not depend on the pairs beside it, so a
    caller may batch the pairs of several estimators: a moduli run takes
    those of rg and srg in one call (moduli.estimate_rg_srg).
    """
    out = np.full(len(xv), math.inf)
    half = np.array(r0, dtype=float)
    best = np.full(len(xv), math.inf)
    doublings = np.zeros(len(xv), dtype=int)
    refines = np.zeros(len(xv), dtype=int)
    live = np.arange(len(xv) if max_doublings > 0 else 0)
    while live.size:
        found = _scan(fb, xv[live], yv[live], half[live], tol[live], n_grid)
        searching = np.isinf(best[live])
        grow = searching & np.isinf(found)
        closer = found < best[live] * (1.0 - 1e-9)  # the first root is closer than inf
        half[live[grow]] *= 2.0
        doublings[live[grow]] += 1
        best[live[closer]] = half[live[closer]] = found[closer]
        refines[live[closer & ~searching]] += 1
        done = ((grow & (doublings[live] == max_doublings)) | ~(grow | closer)
                | (refines[live] == 3))
        out[live[done]] = best[live[done]]
        live = live[~done]
    return out


def graph_tolerance(Y, kind: str) -> np.ndarray:
    """1e-10 max(1, ||y||) for each row y of Y: a pair (x, y) whose image
    distance d(y, F(x)) is at most this counts as a graph point."""
    ny = norms(Y, kind)
    return 1e-10 * np.where(ny > 1.0, ny, 1.0)  # Python's max(1.0, ny), nan included


def preimage_distances_fallback(F: SetValuedMap, xs, ys) -> np.ndarray:
    """d(x, F^{-1}(y)) for every pair (x, y) at once, for a map without a
    preimage oracle; a pair whose image distance is at most
    graph_tolerance(y) is at distance 0, and one without a point found is nan.

    A 1-D map takes the root scan of _nearest_roots_1d: grid zeros,
    sign-change bisection and golden-section touch refinement resolve
    accumulating fibers (reciprocal zero families and the like) to machine
    accuracy. On a function graph the residual is f(z) - y, whose crossings
    are exactly the fiber, and a pair without a root reads inf. On a map
    without func it is d(y, F(z)), which only touches 0, so the scan cannot
    tell an empty preimage from a missed one. A single-valued map of higher
    dimension takes Gauss-Newton steps z -= pinv(G) (f(z) - y) from z = x,
    all rows in lockstep with one func and one grad call per step, until
    ||f(z) - y|| is at most the tolerance; z need not be the nearest point
    of the fiber, so the distance bounds d(x, F^{-1}(y)) from above. A row
    without a finite Jacobian or with a non-finite step stops. Each result
    depends on its own pair alone, however many pairs a call takes.
    """
    X = np.asarray(xs, dtype=float).reshape(len(xs), F.dim_x)
    Y = np.asarray(ys, dtype=float).reshape(len(ys), F.dim_y)
    tol = graph_tolerance(Y, F.kind)
    off = ~(F.image_distance(X, Y) <= tol)  # the other pairs are at distance 0
    out = np.where(off, math.nan, 0.0)
    if F.dim_x == F.dim_y == 1:
        nx = norms(X, F.kind)
        q = 0.25 * np.where(1e-6 > nx, 1e-6, nx)
        r0 = np.where(q > 1e-8, q, 1e-8)
        f = F.func
        fb = ((lambda z, y: f(z[:, None])[:, 0] - y) if f is not None
              else lambda z, y: F.image_distance(z[:, None], y[:, None]))
        d = _nearest_roots_1d(fb, X[off, 0], Y[off, 0], r0[off], tol[off],
                              48, 8)  # grid points per scan, doublings
        out[off] = np.where(np.isinf(d) & (f is None), math.nan, d)
    elif F.grad is not None:
        Z, live = X.copy(), np.flatnonzero(off)
        for _ in range(50):
            R = F.func(Z[live]) - Y[live]
            done = norms(R, F.kind) <= tol[live]
            out[live[done]] = norms(X[live[done]] - Z[live[done]], F.kind)
            live, R = live[~done], R[~done]
            if not live.size:
                break
            owner, G = F.grad(Z[live])
            fin = np.isfinite(G).all(axis=(1, 2))  # one nan fails pinv of the whole stack
            live, R = live[owner[fin]], R[owner[fin]]
            Z[live] -= np.matmul(np.linalg.pinv(G[fin]), R[..., None])[..., 0]
            live = live[np.isfinite(Z[live]).all(axis=1)]
    return out


def preimage_distance_fallback(F: SetValuedMap, x, y) -> float:
    """d(x, F^{-1}(y)) without a preimage oracle: the one-pair call of
    preimage_distances_fallback."""
    return float(preimage_distances_fallback(F, [x], [y])[0])


# ---------------------------------------------------------------------------
# catalog


@dataclass
class CatalogEntry:
    """A named map factory with its known values and ladder hint.

    factory(kind, **params) builds the map. Every catalog map is based at
    the origin: (0, 0) of its own dimensions lies on its graph, and the
    known values hold there.
    """

    id: str
    factory: Callable
    known: dict = field(default_factory=dict)
    ladder_hint: dict = field(default_factory=dict)
    notes: str = ""

    def make(self, kind: str = "l1", params: dict | None = None) -> SetValuedMap:
        return self.factory(kind=kind, **(params or {}))


def _known(**kv):
    out = {}
    for name, (value, prov) in kv.items():
        out[name] = {"value": value, "provenance": prov}
    return out


def catalog() -> dict[str, CatalogEntry]:
    """Registry of the built-in test maps with closed-form reference values."""
    entries = [
        CatalogEntry(
            id="identity", factory=lambda kind, dim=1: make_identity(dim, kind),
            known=_known(
                rg=(1.0, "closed form"), srg=(1.0, "closed form"), ssrg=(1.0, "closed form"),
                srg1=(1.0, "closed form"), srg2=(1.0, "closed form"), srg4=(1.0, "closed form"),
                srg1p=(2.0, "sum of unit ratio and unit dual norm"),
                clm=(1.0, "closed form"), lip=(1.0, "closed form"),
            ),
        ),
        CatalogEntry(
            id="zero", factory=lambda kind: make_zero_map(kind=kind),
            known=_known(
                srg=(math.inf, "empty quotient set: every point is in the preimage"),
                srg1=(0.0, "all elements vanish"), srg1p=(0.0, "all elements vanish"),
                srg2=(0.0, "all elements vanish"), rg=(0.0, "closed form"),
                clm=(0.0, "closed form"), lip=(0.0, "closed form"),
            ),
        ),
        CatalogEntry(
            id="scale", factory=lambda kind, lam=2.0: make_scale_map(lam, kind),
            known=_known(
                rg=(2.0, "closed form at lam=2"), srg=(2.0, "closed form at lam=2"),
                srg1=(2.0, "closed form at lam=2"), srg1p=(4.0, "closed form at lam=2"),
                clm=(2.0, "closed form at lam=2"), lip=(2.0, "closed form at lam=2"),
            ),
        ),
        CatalogEntry(
            id="linear", factory=lambda kind, matrix=((2.0, 0.0), (0.0, 0.5)): make_linear_map(matrix, kind),
            known=_known(rg=(0.5, "smallest singular value, l2 norms")),
            ladder_hint={"samples_per_scale": 768},
            notes="reference values assume the default matrix and l2 norms",
        ),
        CatalogEntry(
            id="square", factory=lambda kind: make_square(kind),
            known=_known(
                srg1=(0.0, "derivative vanishes at the base"), srg2=(0.0, "derivative vanishes at the base"),
                clm=(0.0, "closed form"), ssrg=(0.0, "quotient |x| -> 0"),
            ),
        ),
        CatalogEntry(
            id="abs", factory=lambda kind: make_abs(kind),
            known=_known(
                clm=(1.0, "closed form"), lip=(1.0, "closed form"), srg=(1.0, "closed form"),
                ssrg=(1.0, "closed form"), srg1=(1.0, "unit slopes on both sides"),
                srg1p=(2.0, "unit ratio plus unit dual norm"),
            ),
        ),
        CatalogEntry(
            id="xsin", factory=lambda kind: make_xsin(kind),
            known=_known(
                clm=(1.0, "sup |sin(1/x)| = 1"),
                srg2=(0.0, "ratio vanishes along x = 1/(k pi)"),
                srg4=(1.0, "ratio 1 along the cos zeros, defect filter removes the sin zeros"),
                srg4p=(1.0, "coincides with srg4 on exact element pools"),
                srg1=(1.0, "approached along the tan fixed points"),
            ),
        ),
        CatalogEntry(
            id="interval", factory=lambda kind: make_interval_map(kind),
            known=_known(
                srg2=(1.0, "unit ratio on the diagonal; fiber interiors carry no unit-y* elements"),
                srg2p=(1.0, "coincides with srg2 on exact element pools"),
                ssrg=(0.0, "vertical fibers at x = 1/k reach y = 0"),
                clm=(1.0, "closed form"),
            ),
            notes="the base point is not isolated in the preimage of 0",
        ),
        CatalogEntry(
            id="compl_angle", factory=lambda kind: make_complementarity_angle(kind),
            known=_known(
                srg1=(0.0, "horizontal ray elements vanish"),
                srg2=(0.0, "horizontal ray elements vanish"),
            ),
        ),
        CatalogEntry(
            id="oscillating", factory=lambda kind: make_oscillating(kind),
            known=_known(
                srg1=(1.0 / math.sqrt(5.0), "min over phase of max(|sin t|, |sin t + cos t|)"),
                srg2=(0.0, "ratio vanishes along ln x = k pi"),
                clm=(1.0, "sup |sin(ln x)|"), lip=(math.sqrt(2.0), "sup |sin + cos|"),
            ),
            ladder_hint={"theta": 0.04, "depth": 8},
            notes="log-periodic with period pi in ln x; annulus log-width must exceed the period",
        ),
        CatalogEntry(
            id="spiral", factory=lambda kind: make_spiral(kind),
            known=_known(srg1=(0.0, "derivative vanishes at the base"), clm=(0.0, "closed form")),
        ),
        CatalogEntry(
            id="square_plus_identity",
            factory=lambda kind: sum_with_function(make_square(kind), make_identity(1, kind),
                                                   "square_plus_identity"),
            known=_known(srg1=(1.0, "unit derivative at the base after the shift")),
        ),
        CatalogEntry(
            id="inverse_abs", factory=lambda kind: inverse(make_abs(kind), "inverse_abs"),
        ),
    ]
    return {e.id: e for e in entries}


def resolve_map_spec(spec: dict, kind: str = "l1") -> tuple[SetValuedMap, CatalogEntry]:
    """Build a map from a config spec {id, params, wrap}.

    params the factory refuses raise ValueError. wrap is an ordered list of
    {op: inverse} or {op: sum, fn: <map spec>} steps.
    """
    mid = spec.get("id")
    if not isinstance(mid, str):
        raise ValueError("map spec needs a string 'id'")
    params = spec.get("params") or {}
    if not isinstance(params, dict):
        raise ValueError("map spec 'params' must be a mapping")
    entries = catalog()
    if mid not in entries:
        raise ValueError(f"unknown catalog id {mid!r}")
    entry = entries[mid]
    try:
        m = entry.make(kind=kind, params=params)
    except (TypeError, ValueError) as err:
        if not params:
            raise
        raise ValueError(f"invalid params for {mid!r}: {err}") from err
    wrap = spec.get("wrap") or []
    if not (isinstance(wrap, list) and all(isinstance(step, dict) for step in wrap)):
        raise ValueError("map spec 'wrap' must be a list of mappings")
    for step in wrap:
        op = step.get("op")
        if op == "inverse":
            m = inverse(m)
        elif op == "sum":
            fn_spec = step.get("fn")
            if not isinstance(fn_spec, dict):
                raise ValueError("sum wrap step needs a 'fn' map spec")
            fn_map, _ = resolve_map_spec(fn_spec, kind=kind)
            if not fn_map.single_valued:
                raise ValueError("sum wrap step needs a single-valued fn")
            m = sum_with_function(m, fn_map)
        else:
            raise ValueError(f"unknown wrap op {op!r}")
    return m, entry
