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


_MASK = (1 << 64) - 1
_GOLDEN, _M1, _M2, _LOW63 = map(np.uint64, (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                                           0x94D049BB133111EB, (1 << 63) - 1))


def _u64(x) -> np.ndarray:
    """x (ints, or an integer array) as a 1-D uint64 column, each int modulo 2**64."""
    a = np.asarray(x).reshape(-1)
    if a.dtype.kind not in "iu":  # ints past int64 or uint64, a mix of both, or none
        a = np.array(x, dtype=object).reshape(-1) & _MASK
    return a.astype(np.uint64, copy=False)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's output of each state of the uint64 array z. Array
    arithmetic wraps modulo 2**64 silently, where numpy scalars would warn."""
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def derive_seed(seed, *tags):
    """Fold integer tags into a seed, giving independent deterministic streams
    (splitmix64). Ints and integer arrays broadcast, modulo 2**64, to an
    int64 column of seeds; ints alone give the one seed as a Python int."""
    acc = _mix(_u64(seed) + _GOLDEN)
    for t in tags:
        acc = _mix((acc ^ _u64(t)) + _GOLDEN)
    acc = (acc & _LOW63).astype(np.int64)
    return int(acc[0]) if all(isinstance(v, (int, np.integer)) for v in (seed, *tags)) else acc


@cache
def _alpha(dim: int) -> np.ndarray:
    """The R2 recurrence's step: (1/g)**k mod 1 for k = 1 .. dim, g the real
    root > 1 of x**(dim+1) = x + 1, by fixed-point iteration."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    alpha = np.array([((1.0 / g) ** (k + 1)) % 1.0 for k in range(dim)])
    alpha.flags.writeable = False
    return alpha


def r2_lattice(n: int, dim: int, seed: int = 0) -> np.ndarray:
    """n points of the seeded R2 additive recurrence in [0, 1)^dim: the
    one-seed call of _r2_lattices."""
    return _r2_lattices(n, dim, [seed])


def _r2_lattices(n: int, dim: int, seeds) -> np.ndarray:
    """r2_lattice(n, dim, s) for each s of seeds, stacked into (len(seeds) * n, dim)."""
    if n <= 0 or not len(seeds):
        return np.zeros((0, dim))
    # offset k of a seed: the k-th splitmix64 output after derive_seed(seed), over 2**64
    steps = _GOLDEN * np.arange(1, dim + 1, dtype=np.uint64)
    offs = _mix((derive_seed(seeds).astype(np.uint64)[:, None] + steps).ravel())
    idx = np.arange(1, n + 1, dtype=float)[:, None]
    return ((offs.reshape(-1, 1, dim) / 2.0**64 + idx * _alpha(dim)) % 1.0).reshape(-1, dim)


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
    bad = np.flatnonzero(~((0.0 <= inner) & (inner < outer)))  # nan is bad too
    if bad.size:
        raise ValueError(f"bad annulus radii ({float(inner[bad[0]])}, {float(outer[bad[0]])}]")
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
        inner, outer = self.annuli()
        j = np.argmin(inner < outer)  # the first annulus rounded or underflowed to empty, if any
        if not inner[j] < outer[j]:
            raise ValueError(f"annulus {j} ({float(inner[j])!r}, {float(outer[j])!r}] is empty: "
                             f"r0 * theta**{j + 1} is not below r0 * theta**{j}")

    def radius(self, j: int) -> float:
        return self.r0 * self.theta**j

    def annuli(self, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """The (inner, outer] float columns of the annuli j >= start, outermost
        first, with the bits of radius(j) (np.power rounds differently)."""
        r = np.array([self.r0 * self.theta**j for j in range(start, self.depth + 1)])
        return r[1:], r[:-1]

    def seeds(self, tag: int = 0, start: int = 0) -> np.ndarray:
        """The seed of the tag's stream on each annulus j >= start, as an int64
        column: annulus j's is derive_seed(seed, j + 1, tag)."""
        return derive_seed(self.seed, np.arange(start + 1, self.depth + 1), tag)

    def deepen(self, extra: int) -> "ScaleLadder":
        return replace(self, depth=self.depth + extra)
