"""Norms, dual pairings, scale ladders, and deterministic annulus sampling.

Three guarantees made here carry the rest of the package:

* norm kinds come in matched primal/dual pairs (l1/linf, l2/l2, linf/l1).
  A map's kind measures both X and Y, and the product space X x Y is
  measured with the sum norm on the primal side and the max norm on the
  dual side;
* norming elements are exact where floating point allows it. The functional
  returned for a vector attains the norm (bitwise for l1/linf, to 1e-12 for
  l2), and the vector returned for a unit dual functional attains pairing
  exactly 1.0;
* every sampler is a seeded additive-recurrence lattice with no hidden RNG
  state, so identical arguments give bit-identical points on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

_DUAL = {"l1": "linf", "l2": "l2", "linf": "l1"}

NORM_KINDS = ("l1", "l2", "linf")

__all__ = [
    "NORM_KINDS",
    "ScaleLadder",
    "dual_kind",
    "dual_norm",
    "dual_sphere_grid",
    "norm",
    "norming_functional",
    "norming_functionals",
    "norming_vector",
    "norms",
    "pairing",
    "r2_lattice",
    "sample_annulus",
    "sample_annuli",
    "derive_seed",
]


def _check_kind(kind: str) -> None:
    if kind not in _DUAL:
        raise ValueError(f"unknown norm kind {kind!r}, expected one of {NORM_KINDS}")


def dual_kind(kind: str) -> str:
    """Dual norm kind: l1 <-> linf, l2 is self dual."""
    _check_kind(kind)
    return _DUAL[kind]


def _as_vec(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    return a


def norm(v, kind: str = "l2") -> float:
    """Norm of a vector under the given kind: the one-row call of norms."""
    return float(norms(_as_vec(v)[None], kind)[0])


def norms(V, kind: str = "l2") -> np.ndarray:
    """The norm of each row of V (n, d) under the given kind.

    A row of one coordinate gives its absolute value. l1 sums absolute
    values correctly rounded, as math.fsum does, so that the norming
    functional recovers it bitwise: rows of two coordinates are one IEEE
    addition |a| + |b|, which is that sum, and where two finite magnitudes
    sum past the largest float this raises OverflowError, as fsum does;
    rows of three or more coordinates keep math.fsum. l2 rows take the
    stacked self-dot, the same dot np.linalg.norm makes on a 1-D vector;
    einsum and (V * V).sum(1) round differently.
    """
    _check_kind(kind)
    V = np.asarray(V, dtype=float)
    if V.shape[1] == 1:
        return np.abs(V[:, 0])
    if kind == "l1":
        if V.shape[1] == 2:
            a, b = np.abs(V[:, 0]), np.abs(V[:, 1])
            with np.errstate(over="ignore"):
                s = a + b
            over = np.isinf(s)
            if over.any() and (over & np.isfinite(a) & np.isfinite(b)).any():
                raise OverflowError("intermediate overflow in fsum")
            return s
        return np.array([math.fsum(abs(c) for c in row) for row in V.tolist()], dtype=float)
    if kind == "l2":
        return np.sqrt(np.matmul(V[:, None, :], V[:, :, None])[:, 0, 0])
    return np.abs(V).max(axis=1)


def dual_norm(v, kind: str = "l2") -> float:
    """Norm of a dual vector, i.e. the norm of kind's dual."""
    return norm(v, dual_kind(kind))


def pairing(v_star, v) -> float:
    """Duality pairing <v*, v>, summed with fsum for reproducible exactness."""
    a = _as_vec(v_star)
    b = _as_vec(v)
    if a.shape != b.shape:
        raise ValueError(f"pairing shape mismatch {a.shape} vs {b.shape}")
    if a.size == 1:
        return float(a[0]) * float(b[0])
    return math.fsum(float(x) * float(y) for x, y in zip(a, b))


def norming_functional(u, kind: str = "l2") -> np.ndarray:
    """A dual vector u* with ||u*||_dual = 1 and <u*, u> = ||u||: the one-row
    call of norming_functionals. Raises ValueError on the zero vector."""
    a = _as_vec(u)[None]
    if norms(a, kind)[0] == 0.0:
        raise ValueError("no norming functional for the zero vector")
    return norming_functionals(a, kind)[0]


def norming_functionals(V, kind: str = "l2") -> np.ndarray:
    """The norming functional of each row of V (n, d). Every row must have a
    nonzero norm. Ties (linf kind: several coordinates attain the max) break
    to the lowest index."""
    _check_kind(kind)
    V = np.asarray(V, dtype=float)
    if kind == "l1":
        return np.sign(V)
    if kind == "l2":
        return V / norms(V, "l2")[:, None]
    rows = np.arange(len(V))
    i0 = np.argmax(np.abs(V), axis=1)  # the lowest index on ties
    E = np.zeros_like(V)
    E[rows, i0] = np.where(V[rows, i0] >= 0.0, 1.0, -1.0)
    return E


def norming_vector(y_star, kind: str = "l2") -> np.ndarray:
    """A primal vector v with <y*, v> exactly 1.0 for a unit dual vector y*.

    Requires ||y*||_dual = 1 within 1e-9. The returned v is rescaled so the
    pairing is exactly 1.0 in floating point (builders rely on that for exact
    interpolation); ||v|| is then 1 within the same 1e-9 slack the
    precondition admits. Ties break to the lowest index.
    """
    _check_kind(kind)
    ys = _as_vec(y_star)
    dn = dual_norm(ys, kind)
    if abs(dn - 1.0) > 1e-9:
        raise ValueError(f"norming_vector needs a unit dual vector, got norm {dn!r}")
    dk = dual_kind(kind)
    if dk == "l2":
        v = ys.copy()
    elif dk == "linf":
        # primal is l1: v = sign(y*_i0) e_i0 at the largest coordinate
        i0 = int(np.argmax(np.abs(ys)))
        v = np.zeros_like(ys)
        v[i0] = 1.0 if ys[i0] >= 0.0 else -1.0
    else:
        # primal is linf: v = sign(y*) componentwise attains the l1 dual norm
        v = np.sign(ys)
        v[v == 0.0] = 1.0
    c = pairing(ys, v)
    if c <= 0.0:
        raise ValueError("degenerate dual vector")
    v = v / c
    # one polish step kills the last-ulp residue when the division rounds
    c2 = pairing(ys, v)
    if c2 != 1.0 and c2 != 0.0:
        v = v / c2
    return v


# ---------------------------------------------------------------------------
# seeded low-discrepancy lattice


def _splitmix64(state: int):
    """Deterministic 64-bit mixer used to derive per-stream offsets."""
    mask = (1 << 64) - 1
    x = state & mask

    def nxt() -> int:
        nonlocal x
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    return nxt


def derive_seed(seed: int, *tags: int) -> int:
    """Fold integer tags into a seed, giving independent deterministic streams."""
    nxt = _splitmix64(seed)
    acc = nxt()
    for t in tags:
        nxt2 = _splitmix64(acc ^ (t & ((1 << 64) - 1)))
        acc = nxt2()
    return acc & ((1 << 63) - 1)


@cache
def _plastic(dim: int) -> float:
    # unique real root > 1 of x**(dim+1) = x + 1, by fixed-point iteration
    x = 2.0
    for _ in range(64):
        x = (1.0 + x) ** (1.0 / (dim + 1))
    return x


def r2_lattice(n: int, dim: int, seed: int = 0) -> np.ndarray:
    """n points of the seeded R2 additive recurrence in [0, 1)^dim: the
    one-seed call of _r2_lattices."""
    return _r2_lattices(n, dim, [seed])


def _r2_lattices(n: int, dim: int, seeds) -> np.ndarray:
    """r2_lattice(n, dim, s) for each s of seeds, stacked into (len(seeds) * n, dim)."""
    if n <= 0 or not len(seeds):
        return np.zeros((0, dim))
    g = _plastic(dim)
    alpha = np.array([((1.0 / g) ** (k + 1)) % 1.0 for k in range(dim)])
    offs = np.array([[nxt() / 2.0**64 for _ in range(dim)]
                     for nxt in (_splitmix64(derive_seed(seed)) for seed in seeds)])
    idx = np.arange(1, n + 1, dtype=float)[:, None]
    return ((offs[:, None, :] + idx * alpha[None, :]) % 1.0).reshape(-1, dim)


def _directions(u: np.ndarray, kind: str) -> np.ndarray:
    """Map lattice rows in [0,1)^k to unit-norm directions in R^k (kind norm)."""
    d = u.shape[1]
    if d == 1:
        return np.where(u[:, :1] < 0.5, -1.0, 1.0)
    from scipy.special import ndtri  # imported on the first draw in two or more dimensions

    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.sum(np.abs(g), axis=1) if kind == "l1" else (
        np.linalg.norm(g, axis=1) if kind == "l2" else np.max(np.abs(g), axis=1)
    )
    norms = np.where(norms == 0.0, 1.0, norms)
    return g / norms[:, None]


def sample_annulus(
    center,
    r_inner: float,
    r_outer: float,
    n: int,
    seed: int = 0,
    kind: str = "l2",
) -> np.ndarray:
    """n deterministic points p with r_inner < ||p - center||_kind <= r_outer:
    the one-annulus call of sample_annuli."""
    return sample_annuli(center, [r_inner], [r_outer], n, [seed], kind)


def sample_annuli(center, inner, outer, n: int, seeds, kind: str = "l2") -> np.ndarray:
    """n deterministic points p with inner[i] < ||p - center||_kind <= outer[i]
    for each annulus i, drawn with seeds[i], the points of annulus i after
    those of annulus i - 1: shape (len(seeds) * n, len(center)).

    Radii fill each annulus uniformly (the outer bound is attained, the
    inner is not); directions come from an inverse-normal push of the same
    lattice. Every row depends on its annulus, seed and index alone, so
    annulus i has the bits it has when drawn alone. Same arguments, same
    bits.
    """
    _check_kind(kind)
    inner, outer = np.asarray(inner, dtype=float), np.asarray(outer, dtype=float)
    for a, b in zip(inner.tolist(), outer.tolist()):
        if not (0.0 <= a < b):
            raise ValueError(f"bad annulus radii ({a}, {b}]")
    c = _as_vec(center)
    u = _r2_lattices(n, c.size + 1, seeds)
    lo, hi = np.repeat(inner, max(n, 0)), np.repeat(outer, max(n, 0))
    radii = hi - (hi - lo) * u[:, 0]
    dirs = _directions(u[:, 1:], kind)
    return c[None, :] + radii[:, None] * dirs


def dual_sphere_grid(kind: str, dim: int, m: int = 16) -> np.ndarray:
    """Deterministic mesh of unit vectors in the dual norm of `kind`.

    Includes the signed coordinate axes first (those are exact for every
    kind), then fills with normalized directions: equal angles for dim 2, a
    Fibonacci sphere for dim >= 3.
    """
    _check_kind(kind)
    dk = dual_kind(kind)
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    rows = []
    for i in range(dim):
        for s in (1.0, -1.0):
            e = np.zeros(dim)
            e[i] = s
            rows.append(e)
    need = max(0, m - len(rows))
    if dim == 2:
        for j in range(need):
            th = 2.0 * math.pi * (j + 0.5) / max(need, 1)
            rows.append(np.array([math.cos(th), math.sin(th)]))
    elif need > 0:
        for row in _directions(r2_lattice(need, dim, seed=0x5D00), dk):
            rows.append(row)
    R = np.array(rows)
    nv = norms(R, dk)
    on = nv > 0
    return R[on] / nv[on, None]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaleLadder:
    """Geometric radius ladder r_j = r0 * theta**j with a sampling budget.

    Annulus j is the shell (r_{j+1}, r_j], never empty; depth annuli cover
    (r_depth, r0]. The seed is the root of every derived sampling stream.
    """

    r0: float = 0.5
    theta: float = 0.5
    depth: int = 12
    samples_per_scale: int = 512
    seed: int = 0

    def __post_init__(self):
        if not (self.r0 > 0.0):
            raise ValueError("r0 must be positive")
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta must lie in (0, 1)")
        for name in ("depth", "samples_per_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
        for j, (inner, outer) in enumerate(self.annuli()):
            if not inner < outer:  # rounded or underflowed to the next radius
                raise ValueError(f"annulus {j} ({inner!r}, {outer!r}] is empty: "
                                 f"r0 * theta**{j + 1} is not below r0 * theta**{j}")

    def radius(self, j: int) -> float:
        return self.r0 * self.theta**j

    def annuli(self) -> list[tuple[float, float]]:
        """(inner, outer] bounds for each scale, outermost first."""
        return [(self.radius(j + 1), self.radius(j)) for j in range(self.depth)]

    def scale_seed(self, j: int, tag: int = 0) -> int:
        return derive_seed(self.seed, j + 1, tag)

    def deepen(self, extra: int) -> "ScaleLadder":
        return replace(self, depth=self.depth + extra)
