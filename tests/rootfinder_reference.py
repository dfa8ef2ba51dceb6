"""Reference copy of the 1-D preimage root finder that scans one width per round.

nearest_roots_1d below is subreglab.mappings._nearest_roots_1d as it ran
when every round scanned one grid per unfinished pair: a pair without a
root scanned its next doubling width in the next round, and every round
made its own refinement loop. Tests compare the package's root finder with
it, bit for bit. scan and refine are that version's _scan and _refine;
_grids and _reach are the helpers they read, copied with them.
"""

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _grids(lo, hi, n):
    grid = np.empty((len(lo), n))
    flat = (hi - lo) / (n - 1) == 0
    for rows in (flat, ~flat):
        if rows.any():
            grid[rows] = np.linspace(lo[rows], hi[rows], n, axis=1)
    return grid


def refine(fb, lo, hi, glo, y_br, a, b, y_min):
    """Bracket midpoints after bisection and interval midpoints after golden
    section, both advanced in one loop of at most 90 steps."""
    m = len(a)
    y = np.concatenate((y_min, y_br))
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    gcd = np.abs(fb(np.concatenate((c, d)), np.tile(y_min, 2)))
    gc, gd = gcd[:m], gcd[m:]
    bisect = True
    for step in range(90):
        left = gc < gd
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
            bisect = step < 79 and not (np.array_equal(nlo, lo) and np.array_equal(nhi, hi))
            lo, hi = nlo, nhi
    return 0.5 * (lo + hi), 0.5 * (a + b)


def _reach(xv, lo, hi):
    dlo, dhi = np.abs(xv - lo), np.abs(xv - hi)
    inside = (lo <= xv) & (xv <= hi)
    return np.where(inside, 0.0, np.minimum(dlo, dhi)), np.maximum(dlo, dhi)


def scan(fb, xv, yv, half, tol, n_grid):
    """Per row, the distance from xv to the nearest root found on one grid
    of half width half, or inf."""
    m = len(xv)
    grid = _grids(xv - half, xv + half, n_grid)
    vals = fb(grid.ravel(), np.repeat(yv, n_grid)).reshape(m, n_grid)
    found = np.full(m, math.inf)

    rows, cols = np.nonzero(vals == 0.0)
    np.fmin.at(found, rows, np.abs(xv[rows] - grid[rows, cols]))

    g0, g1 = vals[:, :-1], vals[:, 1:]
    with np.errstate(invalid="ignore"):
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

    mids, zm = refine(fb, grid[br, bc], grid[br, bc + 1], g0[br, bc], yv[br],
                      grid[mr, mc], grid[mr, mc + 2], yv[mr])
    np.fmin.at(found, br, np.abs(xv[br] - mids))
    hit = np.abs(fb(zm, yv[mr])) <= tol[mr]
    np.fmin.at(found, mr[hit], np.abs(xv[mr[hit]] - zm[hit]))
    return found


def nearest_roots_1d(fb, xv, yv, r0, tol, n_grid, max_doublings):
    """Per pair, the distance from xv to the nearest root of fb(., yv), or
    inf: one scan per unfinished pair and round, the half width doubling
    while a pair has no root and re-centred up to three times after one."""
    out = np.full(len(xv), math.inf)
    half = np.array(r0, dtype=float)
    best = np.full(len(xv), math.inf)
    doublings = np.zeros(len(xv), dtype=int)
    refines = np.zeros(len(xv), dtype=int)
    live = np.arange(len(xv) if max_doublings > 0 else 0)
    while live.size:
        found = scan(fb, xv[live], yv[live], half[live], tol[live], n_grid)
        searching = np.isinf(best[live])
        grow = searching & np.isinf(found)
        closer = found < best[live] * (1.0 - 1e-9)
        half[live[grow]] *= 2.0
        doublings[live[grow]] += 1
        best[live[closer]] = half[live[closer]] = found[closer]
        refines[live[closer & ~searching]] += 1
        done = ((grow & (doublings[live] == max_doublings)) | ~(grow | closer)
                | (refines[live] == 3))
        out[live[done]] = best[live[done]]
        live = live[~done]
    return out
