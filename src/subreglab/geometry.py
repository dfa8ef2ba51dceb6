"""Norms, dual pairings, scale ladders, and deterministic annulus sampling.

Three guarantees made here carry the rest of the package:

* norm kinds come in matched primal/dual pairs (l1/linf, l2/l2, linf/l1),
  and the product space X x Y is measured with the sum norm on the primal
  side and the max norm on the dual side;
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

import numpy as np
from scipy.special import ndtri

_DUAL = {"l1": "linf", "l2": "l2", "linf": "l1"}

NORM_KINDS = ("l1", "l2", "linf")

__all__ = [
    "NORM_KINDS",
    "NormContext",
    "ScaleLadder",
    "dual_kind",
    "dual_norm",
    "dual_sphere_grid",
    "norm",
    "norming_functional",
    "norming_vector",
    "pairing",
    "product_norm",
    "product_norm_dual",
    "r2_lattice",
    "sample_annulus",
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
    """Norm of a vector under the given kind.

    l1 sums absolute values with math.fsum (correctly rounded), so that the
    norming functional recovers it bitwise.
    """
    _check_kind(kind)
    a = _as_vec(v)
    if a.size == 1:
        return abs(float(a[0]))
    if kind == "l1":
        return math.fsum(abs(float(c)) for c in a)
    if kind == "l2":
        return float(np.linalg.norm(a))
    return float(np.max(np.abs(a)))


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


def product_norm(x, y, kind: str = "l2") -> float:
    """Primal norm on X x Y: ||x|| + ||y||."""
    return norm(x, kind) + norm(y, kind)


def product_norm_dual(x_star, y_star, kind: str = "l2") -> float:
    """Dual norm on (X x Y)*: max(||x*||_dual, ||y*||_dual)."""
    return max(dual_norm(x_star, kind), dual_norm(y_star, kind))


def norming_functional(u, kind: str = "l2") -> np.ndarray:
    """A dual vector u* with ||u*||_dual = 1 and <u*, u> = ||u||.

    Ties (linf kind: several coordinates attain the max) break to the lowest
    index. Raises ValueError on the zero vector.
    """
    _check_kind(kind)
    a = _as_vec(u)
    n = norm(a, kind)
    if n == 0.0:
        raise ValueError("no norming functional for the zero vector")
    if kind == "l1":
        s = np.sign(a)
        # keep ||s||_inf = 1 even if some coordinates vanish
        if np.all(s == 0.0):  # unreachable given n > 0
            raise ValueError("no norming functional for the zero vector")
        return s
    if kind == "l2":
        return a / n
    i0 = int(np.argmax(np.abs(a)))
    e = np.zeros_like(a)
    e[i0] = 1.0 if a[i0] >= 0.0 else -1.0
    return e


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


def _plastic(dim: int) -> float:
    # unique real root > 1 of x**(dim+1) = x + 1, by fixed-point iteration
    x = 2.0
    for _ in range(64):
        x = (1.0 + x) ** (1.0 / (dim + 1))
    return x


def r2_lattice(n: int, dim: int, seed: int = 0) -> np.ndarray:
    """n points of the seeded R2 additive recurrence in [0, 1)^dim."""
    if n <= 0:
        return np.zeros((0, dim))
    g = _plastic(dim)
    alpha = np.array([((1.0 / g) ** (k + 1)) % 1.0 for k in range(dim)])
    nxt = _splitmix64(derive_seed(seed))
    offs = np.array([nxt() / 2.0**64 for _ in range(dim)])
    idx = np.arange(1, n + 1, dtype=float)[:, None]
    return (offs[None, :] + idx * alpha[None, :]) % 1.0


def _directions(u: np.ndarray, kind: str) -> np.ndarray:
    """Map lattice rows in [0,1)^k to unit-norm directions in R^k (kind norm)."""
    d = u.shape[1]
    if d == 1:
        return np.where(u[:, :1] < 0.5, -1.0, 1.0)
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
    """n deterministic points p with r_inner < ||p - center||_kind <= r_outer.

    Radii fill the annulus uniformly (the outer bound is attained, the inner
    is not); directions come from an inverse-normal push of the same lattice.
    Same arguments, same bits.
    """
    _check_kind(kind)
    if not (0.0 <= r_inner < r_outer):
        raise ValueError(f"bad annulus radii ({r_inner}, {r_outer}]")
    c = _as_vec(center)
    d = c.size
    u = r2_lattice(n, d + 1, seed)
    radii = r_outer - (r_outer - r_inner) * u[:, 0]
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
    out = []
    for v in rows:
        nv = norm(v, dk)
        if nv > 0:
            out.append(v / nv)
    return np.array(out)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormContext:
    """Primal norm kind plus the dimensions of domain and range.

    The dual kind is implied. The product space X x Y carries the sum norm on
    points and the max norm on dual pairs.
    """

    kind: str = "l1"
    dim_x: int = 1
    dim_y: int = 1

    def __post_init__(self):
        _check_kind(self.kind)
        if self.dim_x < 1 or self.dim_y < 1:
            raise ValueError("dimensions must be positive")

    def norm(self, v) -> float:
        return norm(v, self.kind)

    def dual_norm(self, v) -> float:
        return dual_norm(v, self.kind)

    def product_norm(self, x, y) -> float:
        return product_norm(x, y, self.kind)

    def product_norm_dual(self, x_star, y_star) -> float:
        return product_norm_dual(x_star, y_star, self.kind)


@dataclass(frozen=True)
class ScaleLadder:
    """Geometric radius ladder r_j = r0 * theta**j with a sampling budget.

    Annulus j is the shell (r_{j+1}, r_j]; depth annuli cover (r_depth, r0].
    The seed is the root of every derived sampling stream.
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

    def radius(self, j: int) -> float:
        return self.r0 * self.theta**j

    def annuli(self) -> list[tuple[float, float]]:
        """(inner, outer] bounds for each scale, outermost first."""
        return [(self.radius(j + 1), self.radius(j)) for j in range(self.depth)]

    def scale_seed(self, j: int, tag: int = 0) -> int:
        return derive_seed(self.seed, j + 1, tag)

    def deepen(self, extra: int) -> "ScaleLadder":
        return replace(self, depth=self.depth + extra)
