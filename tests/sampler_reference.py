"""One-annulus reference copies of the samplers that now draw a block of annuli.

Each function below is the sampler or feature oracle that subreglab.mappings
ran one annulus at a time before its maps drew every annulus of a ladder in
one call. Tests ask them annulus by annulus and compare the block's rows
with theirs, bit for bit. Each returns the rows (X, Y) of its one annulus.
"""

import math

import numpy as np

from subreglab.geometry import derive_seed, norms, r2_lattice, sample_annulus
from subreglab.mappings import _FEATURE_CAP, _RECIP_TOL, GraphPoint, _stride_indices


def _recip_k(x: float) -> float:
    """The k with x = 1/k within the interval map's tolerance, else 0.0."""
    q = 1.0 / x if x > 0.0 else math.inf
    if math.isinf(q):
        return 0.0
    k = float(round(q))  # half to even, as np.rint
    return k if k >= 1.0 and abs(q - k) <= _RECIP_TOL * q * q else 0.0


def interval_sample(center, r_inner, r_outer, n, seed, kind):
    cx = float(center.x[0])
    cy = float(center.y[0])
    diagonal = sample_annulus(center.x, r_inner, r_outer, max(2, n // 2), seed, kind)
    xy = []  # the fiber points
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
    kc = _recip_k(cx)
    if kc:
        xk = 1.0 / kc if abs(cx * kc - 1.0) < 1e-12 else cx
        u = r2_lattice(8, 1, derive_seed(seed, 11))
        for j in range(8):
            yv = cy + (r_outer - (r_outer - r_inner) * float(u[j, 0])) * (1 if j % 2 else -1)
            if -xk <= yv <= xk:
                xy.append((cx, yv))
    P = np.array(xy, dtype=float).reshape(-1, 2)
    return np.concatenate([diagonal, P[:, :1]]), np.concatenate([diagonal, P[:, 1:]])


def interval_features(base_x, r_inner, r_outer):
    bx = float(np.atleast_1d(base_x)[0])
    if abs(bx) > 1e-12:
        return np.zeros((0, 1)), np.zeros((0, 1))
    xy = []
    a, b = max(r_inner, 1e-300), r_outer
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


def compl_angle_sample(center, r_inner, r_outer, n, seed, kind):
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


def inverse_sample(F, center, r_inner, r_outer, n, seed):
    """The sample of the inverse of F: F's sampler asked for one annulus of
    each shell in turn, until the annulus holds n points; past the fourth
    shell, until it holds one."""
    inner_center = GraphPoint(center.y, center.x)
    us, vs = [], []  # the swapped rows (y, x) of each shell inside the annulus
    shells = [(r_inner, r_outer), (r_inner * 0.25, r_outer), (r_inner, r_outer * 4.0),
              (r_inner * 0.0625, r_outer * 2.0)]
    shells += [(r_outer * 4.0**k, r_outer * 4.0**(k + 1)) for k in range(1, 17)]
    for i, (a, b) in enumerate(shells):
        if not b < math.inf:  # a shell past the largest float is left out
            continue
        _, X, Y = F.sample_graph(inner_center, [a], [b], max(1, n // 2), [derive_seed(seed, i)])
        t = norms(Y - center.x, F.kind)
        inside = (r_inner < t) & (t <= r_outer)
        us.append(Y[inside])
        vs.append(X[inside])
        if sum(map(len, us)) >= (n if i < 3 else 1):
            break
    return np.concatenate(us)[:2 * n], np.concatenate(vs)[:2 * n]
