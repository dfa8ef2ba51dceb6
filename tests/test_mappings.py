import dataclasses
import math

import numpy as np
import pytest

import pins
import sampler_reference
from conftest import setup_map
import subreglab.mappings as mappings
from subreglab.geometry import (
    NORM_KINDS,
    ScaleLadder,
    dual_norm,
    dual_sphere_grid,
    norm,
    norms,
)
from subreglab.mappings import (
    GraphPoint,
    _nearest_roots_1d,
    _rows,
    anchored,
    catalog,
    graph_rows,
    inverse,
    make_function_graph,
    make_interval_map,
    make_linear_map,
    make_square,
    preimage_distance_fallback,
    preimage_distances_fallback,
    resolve_map_spec,
    sum_with_function,
)

ALL_IDS = sorted(catalog().keys())


def _one(oracle, x, y) -> float:
    """A row oracle's value on the one pair (x, y)."""
    return float(oracle(np.atleast_2d(np.asarray(x, dtype=float)),
                        np.atleast_2d(np.asarray(y, dtype=float)))[0])


def _preimage(F, x, y):
    if F.preimage_distance is not None:
        return _one(F.preimage_distance, x, y)
    return preimage_distance_fallback(F, x, y)


@pytest.mark.parametrize("mid", ALL_IDS)
def test_catalog_base_points_lie_on_the_graph(mid):
    F, entry = resolve_map_spec({"id": mid})
    assert entry.id == mid
    assert _one(F.image_distance, np.zeros(F.dim_x), np.zeros(F.dim_y)) == 0.0


def test_a_map_checks_its_norm_kind_and_dimensions():
    """A map's kind measures every modulus of it, so a kind outside
    NORM_KINDS or a space of no dimension is refused when it is built."""
    with pytest.raises(ValueError, match="unknown norm kind 'l7'"):
        make_interval_map(kind="l7")
    with pytest.raises(ValueError, match="dimensions must be positive"):
        make_linear_map([[]])
    with pytest.raises(ValueError, match="dimensions must be positive"):
        dataclasses.replace(make_square(), dim_x=0)


def test_function_graph_evaluates_and_differentiates():
    F = make_function_graph(lambda X: X ** 2,
                            grad=lambda X: (np.arange(len(X)), 2.0 * X[:, :, None]),
                            dim_x=1, dim_y=1, kind="l1", name="sq")
    assert F.single_valued
    assert F.func(np.array([[3.0], [-2.0]])).tolist() == [[9.0], [4.0]]
    owner, G = F.grad(np.array([[3.0], [-2.0]]))
    assert owner.tolist() == [0, 1] and G.tolist() == [[[6.0]], [[-4.0]]]
    assert _one(F.image_distance, [2.0], [5.0]) == 1.0
    assert _one(F.image_distance, [2.0], [4.0]) <= 1e-9
    assert _one(F.image_distance, [2.0], [4.5]) > 1e-9


def test_identity_and_scale_preimage_closed_forms():
    F, _ = setup_map("identity")
    assert _preimage(F, [0.3], [0.1]) == pytest.approx(0.2, abs=1e-12)
    S, _ = setup_map("scale")
    # fiber of y under x -> 2x is {y/2}
    assert _preimage(S, [0.3], [0.1]) == pytest.approx(0.25, abs=1e-12)


def test_square_preimage_closed_form():
    F = make_square("l1")
    d = _preimage(F, [0.1], [0.25])
    assert d == pytest.approx(0.4, abs=1e-9)  # fiber {+-0.5}, nearer root 0.5
    d = _preimage(F, [-0.1], [0.25])
    assert d == pytest.approx(0.4, abs=1e-9)


def _roots(f, xv, yv, r0, n_grid=64, max_doublings=24, tol=1e-12):
    """The batched root finder on pairs (xv[p], yv[p]) of the residual
    f(z) - y, with common settings."""
    xv = np.asarray(xv, dtype=float)
    return _nearest_roots_1d(lambda z, y: f(z) - y, xv, np.asarray(yv, dtype=float),
                             np.full(len(xv), r0), np.full(len(xv), tol), n_grid, max_doublings)


def _sin_recip(z):
    nz = z != 0.0
    return np.where(nz, np.sin(np.divide(1.0, z, out=np.zeros_like(z), where=nz)), 0.0)


def test_nearest_root_linear_and_even_touch():
    d = _roots(lambda z: z, [0.5], [0.75], 0.1)[0]
    assert d == pytest.approx(0.25, abs=1e-10)
    # (z - 0.3)^2 never changes sign; the minimum search must still find it
    d = _roots(lambda z: (z - 0.3) ** 2, [0.1], [0.0], 0.05)[0]
    assert d == pytest.approx(0.2, abs=1e-8)


def _nan_below(z):
    with np.errstate(invalid="ignore"):
        return np.where(z < 0.25, np.nan, z - 0.3)


# (fb, xv, yv, r0) -> hex of each pair's distance, taken from the separate
# bisection and golden-section loops the root finder once had
_ROOT_CASES = {
    # sign changes at 0.3 and a constant |g|: brackets, no interior minimum
    "brackets only": ((lambda z: np.sign(z - 0.3), [0.1, -0.2], [0.0, 0.0], 0.05),
                      ["0x1.999999999999bp-3", "0x1.0000000000000p-1"]),
    # an even touch at 0.3 and no root at all: interior minima, no bracket
    "minima only": ((lambda z: (z - 0.3) ** 2, [0.1, 0.1], [0.0, -0.01], 0.05),
                    ["0x1.999999999999bp-3", "inf"]),
    # nan below 0.25, and a nan y whose every residual is nan
    "nan residuals": ((_nan_below, [0.1, 0.4, 0.1], [0.0, 0.0, np.nan], 0.05),
                      ["0x1.999999999999bp-3", "0x1.9999999999998p-4", "inf"]),
    # a bracket a few dozen ulps wide: bisection settles after five steps
    "early fixed point": ((lambda z: z, [1000.0], [1000.0 + 3e-11], 1e-10),
                          ["0x1.0800000000000p-35"]),
}


@pytest.mark.parametrize("case", sorted(_ROOT_CASES))
def test_nearest_root_cases_are_pinned(case):
    (fb, xv, yv, r0), want = _ROOT_CASES[case]
    assert pins.hexes(_roots(fb, xv, yv, r0)) == want


def test_a_settled_bracket_leaves_the_refinement_loop():
    # the "early fixed point" bracket settles after about five bisection
    # steps; from then on fb takes the golden-section probe alone, not the
    # bracket's unchanged midpoint too up to step 79
    (f, xv, yv, r0), want = _ROOT_CASES["early fixed point"]
    calls = []
    d = _roots(lambda z: calls.append(len(z)) or f(z), xv, yv, r0)
    assert pins.hexes(d) == want
    steps = calls[2:92]  # after the grid and the golden-section seed
    paired = steps.count(2)
    assert paired <= 8 and steps == [2] * paired + [1] * (90 - paired)


def test_one_scan_makes_one_func_call_per_refinement_step():
    # at most 1 call for the grid, 2 to seed golden section, 90 refinement
    # steps and 1 hit check, however many brackets and minima the scan has
    calls = []

    def fb(z, y):
        calls.append(len(z))
        return (z - 0.3) ** 2 - y

    # sign changes at 0.2 and 0.4, and minima of |g| beside them
    found = mappings._scan(fb, np.array([0.1]), np.array([0.01]), np.array([0.5]),
                           np.array([1e-12]), 48)
    assert found[0] == pytest.approx(0.1, abs=1e-12)
    assert len(calls) <= 94


def test_nearest_root_accumulating_zeros():
    # zeros of sin(1/z) at 1/(k pi); nearest to 1.5e-4 is the k below or above
    xv = 1.5e-4
    d = _roots(_sin_recip, [xv], [0.0], 1e-5)[0]
    ks = range(1, 100001)
    exact = min(abs(xv - 1.0 / (k * math.pi)) for k in ks)
    assert d == pytest.approx(exact, rel=1e-9)


def _scalar_function_ids():
    ids = []
    for mid in ALL_IDS:
        F, _ = resolve_map_spec({"id": mid})
        if F.func is not None and F.dim_x == 1 and F.dim_y == 1:
            ids.append(mid)
    return ids


def _scalar_reference(mid, v: float) -> float:
    """f(v) of a scalar catalog map, point by point as the map once computed it."""
    one = np.array([v])
    if mid in ("identity", "scale"):
        return float((np.array([[1.0 if mid == "identity" else 2.0]]) @ one)[0])
    if mid == "square_plus_identity":
        return float((one * one + np.eye(1) @ one)[0])
    return {
        "zero": lambda: 0.0,
        "square": lambda: v * v,
        "abs": lambda: abs(v),
        "xsin": lambda: 0.0 if v == 0.0 else v * math.sin(1.0 / v),
        "oscillating": lambda: 0.0 if v == 0.0 else v * math.sin(math.log(abs(v))),
    }[mid]()


@pytest.mark.parametrize("mid", _scalar_function_ids())
def test_batch_evaluator_matches_the_scalar_func_bit_for_bit(mid):
    # F.func on rows against f point by point (_scalar_reference): np.sin
    # agrees with math.sin, and oscillating keeps math.log, whose last bit
    # np.log does not always share
    F, _ = resolve_map_spec({"id": mid})
    mags = 10.0 ** np.random.default_rng(20260).uniform(-11.0, 1.0, 4000)
    z = np.concatenate([mags, -mags, [0.0, -0.0]])
    rows = F.func(z[:, None])
    assert rows.shape == (len(z), 1)
    want = np.array([_scalar_reference(mid, v) for v in z.tolist()])
    assert np.array_equal(rows[:, 0].view(np.int64), want.view(np.int64))


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def _signed_magnitudes(rng, shape, zeros: float = 0.0) -> np.ndarray:
    """Entries of random sign, magnitudes log-uniform in [1e-12, 1]; a share zeros of them -0.0."""
    v = np.exp(rng.uniform(math.log(1e-12), 0.0, shape)) * rng.choice([-1.0, 1.0], shape)
    v[rng.random(shape) < zeros] = -0.0
    return v


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_forms_match_the_per_row_forms_bit_for_bit(d):
    # 300 matrices times 320 rows: the stacked np.matmul and np.linalg.solve
    # of make_linear_map, which broadcast A to every row, against A @ x and
    # the per-row solve, and geometry.norms against geometry.norm in every kind
    rng = np.random.default_rng(20261 + d)
    for _ in range(300):
        A = _signed_magnitudes(rng, (d, d))
        X = _signed_magnitudes(rng, (320, d), zeros=0.05)
        prod = np.matmul(A, X[..., None])[..., 0]
        assert np.array_equal(_bits(prod), _bits([A @ x for x in X]))
        sol = np.linalg.solve(A, X[..., None])[..., 0]
        assert np.array_equal(_bits(sol), _bits([np.linalg.solve(A, x) for x in X]))
        for kind in NORM_KINDS:
            assert np.array_equal(_bits(norms(X, kind)), _bits([norm(x, kind) for x in X]))


def _linear_maps(kind):
    rng = np.random.default_rng(31)
    maps = {mid: resolve_map_spec({"id": mid}, kind=kind)[0]
            for mid in ("identity", "scale", "linear")}
    maps["random3x3"] = make_linear_map(rng.normal(size=(3, 3)), kind)
    maps["singular2x2"] = make_linear_map([[1.0, 2.0], [2.0, 4.0]], kind)
    maps["row1x3"] = make_linear_map([[1.0, 2.0, 3.0]], kind)
    return maps


# one sum without a preimage oracle and one inverse of a map without one
_WRAPS = {"sum": {"id": "spiral", "wrap": [{"op": "sum", "fn": {"id": "linear"}}]},
          "inverse": {"id": "xsin", "wrap": [{"op": "inverse"}]}}


@pytest.mark.parametrize("kind", NORM_KINDS)
@pytest.mark.parametrize("mid", ALL_IDS + sorted(_WRAPS))
def test_every_oracle_takes_rows_and_row_k_is_the_one_row_call(mid, kind):
    F, _ = resolve_map_spec(_WRAPS.get(mid, {"id": mid}), kind=kind)
    base = GraphPoint(np.zeros(F.dim_x), np.zeros(F.dim_y))
    _, X, Y = F.sample_graph(base, [0.01], [0.5], 32, [5])
    X, Y = X[:32], Y[:32]  # pairs on the graph, then off it
    rng = np.random.default_rng(97)
    X = np.concatenate([X, rng.uniform(-0.5, 0.5, (64 - len(X), F.dim_x))])
    Y = np.concatenate([Y, rng.uniform(-0.5, 0.5, (64 - len(Y), F.dim_y))])
    X[-8:-4], Y[-4:], X[-1] = 0.0, 0.0, -0.0
    for name in ("image_distance", "preimage_distance", "func"):
        oracle = getattr(F, name)
        if oracle is None:
            continue
        args = (X,) if name == "func" else (X, Y)
        out = oracle(*args)
        assert out.shape == ((64, F.dim_y) if name == "func" else (64,)), name
        one = [oracle(*(a[k:k + 1] for a in args)) for k in range(64)]
        assert np.array_equal(_bits(out), _bits(np.concatenate(one))), name


def _spiral_jacobian(x):
    a, b = float(x[0]), float(x[1])
    return np.array([[2.0 * a, -2.0 * b], [2.0 * b, 2.0 * a]])


def _xsin_jacobian(u):  # at x = 1/u
    return np.array([[math.sin(u) - u * math.cos(u)]])


def _oscillating_jacobian(th):  # at |x| = exp(th)
    return np.array([[math.sin(th) + math.cos(th)]])


# the Jacobian of each single-valued catalog map and of the sum wrap at one
# point, as grad once computed it point by point: None at a kink
_GRAD_REFERENCE = {
    "identity": lambda x: np.eye(1),
    "scale": lambda x: np.array([[2.0]]),
    "linear": lambda x: np.array([[2.0, 0.0], [0.0, 0.5]]),
    "zero": lambda x: np.zeros((1, 1)),
    "square": lambda x: np.array([[2.0 * float(x[0])]]),
    "square_plus_identity": lambda x: np.array([[2.0 * float(x[0])]]) + np.eye(1),
    "abs": lambda x: None if x[0] == 0.0 else np.array([[1.0 if x[0] > 0 else -1.0]]),
    "xsin": lambda x: None if x[0] == 0.0 else _xsin_jacobian(1.0 / float(x[0])),
    "oscillating": lambda x: (None if x[0] == 0.0
                              else _oscillating_jacobian(math.log(abs(float(x[0]))))),
    "spiral": _spiral_jacobian,
    "sum": lambda x: _spiral_jacobian(x) + np.array([[2.0, 0.0], [0.0, 0.5]]),
}


def test_every_single_valued_map_has_a_grad_reference():
    single = [mid for mid in ALL_IDS + sorted(_WRAPS)
              if resolve_map_spec(_WRAPS.get(mid, {"id": mid}))[0].single_valued]
    assert sorted(_GRAD_REFERENCE) == sorted(single)


@pytest.mark.parametrize("mid", sorted(_GRAD_REFERENCE))
def test_every_catalog_grad_takes_rows_and_row_k_is_the_one_row_call(mid):
    """grad(X) returns (owner, G); row k has the bits of the one-row call
    and of the point-by-point reference, and a kink row is absent."""
    F, _ = resolve_map_spec(_WRAPS.get(mid, {"id": mid}))
    rng = np.random.default_rng(29)
    X = np.concatenate([rng.uniform(-0.5, 0.5, (96, F.dim_x)),
                        np.exp(rng.uniform(-30.0, 0.0, (32, F.dim_x)))
                        * rng.choice([-1.0, 1.0], (32, F.dim_x))])
    X[-4:-2], X[-1] = 0.0, -0.0
    owner, G = F.grad(X)
    assert G.shape == (len(owner), F.dim_y, F.dim_x)
    assert np.all(np.diff(owner) > 0)
    jac = dict(zip(owner.tolist(), G))
    for k, x in enumerate(X):
        want = _GRAD_REFERENCE[mid](x)
        one, g = F.grad(X[k:k + 1])
        if want is None:
            assert k not in jac and len(one) == 0 and g.shape == (0, F.dim_y, F.dim_x), k
            continue
        assert one.tolist() == [0], k
        assert np.array_equal(_bits(jac[k]), _bits(want)), k
        assert np.array_equal(_bits(g[0]), _bits(want)), k
    empty = F.grad(X[:0])
    assert [a.shape for a in empty] == [(0,), (0, F.dim_y, F.dim_x)]


@pytest.mark.parametrize("kind", NORM_KINDS)
@pytest.mark.parametrize("mid", ALL_IDS + sorted(_WRAPS))
def test_every_normal_oracle_takes_rows_and_row_k_is_the_one_row_call(mid, kind):
    F, _ = resolve_map_spec(_WRAPS.get(mid, {"id": mid}), kind=kind)
    base = GraphPoint(np.zeros(F.dim_x), np.zeros(F.dim_y))
    _, X, Y = F.sample_graph(base, [0.01], [0.5], 32, [5])
    X = np.concatenate([X[:40], base.x[None]])  # abs has no pairs at the base
    Y = np.concatenate([Y[:40], base.y[None]])
    owner, X_star, Y_star = F.analytic_normals(X, Y)
    assert X_star.shape == (len(owner), F.dim_x) and Y_star.shape == (len(owner), F.dim_y)
    assert np.all(np.diff(owner) >= 0) and len(owner) > 0
    for k in range(len(X)):
        one, xs, ys = F.analytic_normals(X[k:k + 1], Y[k:k + 1])
        assert not one.any()
        assert np.array_equal(_bits(xs), _bits(X_star[owner == k])), k
        assert np.array_equal(_bits(ys), _bits(Y_star[owner == k])), k
    empty = F.analytic_normals(X[:0], Y[:0])
    assert [a.shape for a in empty] == [(0,), (0, F.dim_x), (0, F.dim_y)]


@pytest.mark.parametrize("kind", NORM_KINDS)
@pytest.mark.parametrize("dy,dx", [(1, 1), (2, 2), (3, 3), (1, 2), (2, 1)])
def test_graph_normals_are_the_per_pair_products_bit_for_bit(kind, dy, dx):
    """A function graph's pairs are (g.T @ eta, eta) and a sum's are (x* +
    g.T @ y*, y*), each product on its own, though both are stacked."""
    rng = np.random.default_rng(7 * dy + dx)
    M, N = _signed_magnitudes(rng, (dy, dx)), _signed_magnitudes(rng, (dy, dx), zeros=0.1)

    def grad_one(x):  # a Jacobian that changes from row to row; none where x[0] < -0.4
        return None if x[0] < -0.4 else M * math.sin(50.0 * x[0]) + N

    def grad(X):
        owner = np.flatnonzero(~(X[:, 0] < -0.4))
        return owner, M * np.sin(50.0 * X[owner, 0])[:, None, None] + N

    F = make_function_graph(lambda X: np.zeros((len(X), dy)), grad=grad, dim_x=dx, dim_y=dy,
                            kind=kind)
    X = rng.uniform(-0.5, 0.5, (400, dx))
    Y = np.zeros((400, dy))
    etas = dual_sphere_grid(kind, dy, 8)
    owner, X_star, Y_star = F.analytic_normals(X, Y)
    want = [(k, g.T @ eta, eta) for k, x in enumerate(X) if (g := grad_one(x)) is not None
            for eta in etas]
    assert owner.tolist() == [k for k, _, _ in want]
    assert np.array_equal(_bits(X_star), _bits([a for _, a, _ in want]))
    assert np.array_equal(_bits(Y_star), _bits([b for _, _, b in want]))
    # the sum of F and a linear map: F's pairs at (x, y - Ax) shifted by A.T @ y*
    A = make_linear_map(_signed_magnitudes(rng, (dy, dx)), kind)
    S = sum_with_function(F, A)
    Y = rng.uniform(-0.5, 0.5, (400, dy))
    owner, X_star, Y_star = S.analytic_normals(X, Y)
    a = A.grad(X[:1])[1][0]
    want = [(k, xs + a.T @ ys, ys) for k, (x, y) in enumerate(zip(X, Y))
            for xs, ys in zip(*F.analytic_normals(x[None], (y - a @ x)[None])[1:])]
    assert owner.tolist() == [k for k, _, _ in want]
    assert np.array_equal(_bits(X_star), _bits([p for _, p, _ in want]))
    assert np.array_equal(_bits(Y_star), _bits([q for _, _, q in want]))


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_the_inverse_of_a_scalar_graph_takes_its_rows_in_one_fallback_call(kind, monkeypatch):
    # and so does the inverse of spiral + linear, a 2-D map without a preimage oracle
    F, _ = resolve_map_spec({"id": "xsin"}, kind=kind)
    rng = np.random.default_rng(5)
    U = np.concatenate([[[0.1], [-0.2], [0.0]], rng.uniform(-0.5, 0.5, (21, 1))])
    V = np.concatenate([F.func(U[:12]), rng.uniform(-0.5, 0.5, (12, 1))])
    S, _ = resolve_map_spec({"id": "spiral", "wrap": [{"op": "sum", "fn": {"id": "linear"}}]},
                            kind=kind)
    V2 = rng.uniform(-0.5, 0.5, (24, 2))
    U2 = np.concatenate([S.func(V2[:12]), rng.uniform(-0.5, 0.5, (12, 2))])
    cases = [(F, U, V), (S, U2, V2)]
    wants = [[preimage_distance_fallback(M, v, u) for u, v in zip(A, B)] for M, A, B in cases]
    calls = []
    batched = mappings.preimage_distances_fallback
    monkeypatch.setattr(mappings, "preimage_distances_fallback",
                        lambda *a: calls.append(1) or batched(*a))
    for (M, A, B), want in zip(cases, wants):
        calls.clear()
        assert np.array_equal(_bits(inverse(M).image_distance(A, B)), _bits(want)), M.name
        assert len(calls) == 1
    assert np.isfinite(wants[1]).sum() > 12


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_linear_batch_oracles_match_the_per_pair_oracles_bit_for_bit(kind):
    # the row oracles against one product, norm and solve per pair
    rng = np.random.default_rng(41)
    for name, F in _linear_maps(kind).items():
        X = rng.normal(size=(24, F.dim_x))
        Y = rng.normal(size=(24, F.dim_y))
        A = F.grad(X[:1])[1][0]
        Y[::4] = X[::4] @ A.T  # some pairs on the graph
        Y[1::4] = 0.0
        assert np.array_equal(_bits(F.func(X)), _bits([A @ x for x in X])), name
        assert np.array_equal(_bits(F.image_distance(X, Y)),
                              _bits([norm(y - A @ x, kind) for x, y in zip(X, Y)])), name
        if name != "singular2x2" and F.dim_x == F.dim_y:
            assert np.array_equal(
                _bits(F.preimage_distance(X, Y)),
                _bits([norm(x - np.linalg.solve(A, y), kind) for x, y in zip(X, Y)])), name


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_linear_preimage_distance_is_the_distance_to_the_fiber(kind):
    # one-row maps: d(x, {z : a.z = b}) = |a.x - b| / ||a||_dual
    rng = np.random.default_rng(43)
    for a in ([1.0, 1.0], [1.0, 2.0, 3.0], [0.5, -2.0, 0.25]):
        F = make_linear_map([a], kind)
        for _ in range(8):
            x, b = rng.normal(size=len(a)), rng.normal()
            exact = abs(np.dot(a, x) - b) / dual_norm(a, kind)
            assert _one(F.preimage_distance, x, [b]) == pytest.approx(exact, rel=1e-9)
    # points on their fiber, at 5.0 and 4.24 from the least-squares solution
    flat = make_linear_map([[1.0, 0.0], [0.0, 0.0]], kind)
    assert _one(flat.preimage_distance, [0.0, 5.0], [0.0, 0.0]) == 0.0
    assert _one(make_linear_map([[1.0, 1.0]], kind).preimage_distance, [3.0, -3.0], [0.0]) == 0.0
    # the fiber of (1, 0) under the flat map is the line z1 = 1
    assert _one(flat.preimage_distance, [0.25, 5.0], [1.0, 0.0]) == pytest.approx(0.75, rel=1e-12)
    # a value off the range of A has an empty fiber
    assert _one(flat.preimage_distance, [0.0, 5.0], [0.0, 1.0]) == math.inf
    assert _one(make_linear_map([[1.0], [1.0]], kind).preimage_distance,
                [0.0], [1.0, -1.0]) == math.inf


def test_root_finder_gives_each_pair_the_result_it_gets_alone():
    fb = lambda z: (z - 0.3) ** 2
    # a pair whose zero is a grid point of its first scan
    n_grid, r0, x_grid = 48, 0.05, 0.9
    z0 = np.linspace(x_grid - r0, x_grid + r0, n_grid)[5]
    xv = [0.1, 0.1, 0.1, x_grid, 5.0]
    yv = [0.0,          # even touch at 0.3
          -1.0,         # no root anywhere: inf
          0.01,         # sign changes at 0.2 and 0.4
          fb(z0),       # exact zero on the grid
          0.0]          # the touch lies beyond many doublings
    together = _roots(fb, xv, yv, r0, n_grid=n_grid)
    alone = [_roots(fb, [x], [y], r0, n_grid=n_grid)[0] for x, y in zip(xv, yv)]
    assert together.tolist() == alone
    assert together[0] == pytest.approx(0.2, abs=1e-8)
    assert together[1] == math.inf
    assert together[2] == pytest.approx(0.1, abs=1e-12)
    assert together[3] == abs(x_grid - z0)
    assert together[4] == pytest.approx(4.7, abs=1e-8)


@pytest.mark.parametrize("mid", ["xsin", "oscillating", "square_plus_identity"])
def test_map_without_a_batch_form_gives_the_same_distances(mid):
    # the catalog's f evaluated a row at a time, as a user's function of
    # one point lifted by _rows is
    F, _ = resolve_map_spec({"id": mid})
    user = make_function_graph(_rows(lambda x: F.func(x[None])[0], 1), name=f"user-{mid}")
    rng = np.random.default_rng(11)
    xs = [np.array([v]) for v in rng.uniform(-0.3, 0.3, 40)]
    ys = [np.array([v]) for v in rng.uniform(-0.05, 0.05, 40)]
    ours = preimage_distances_fallback(F, xs, ys)
    theirs = preimage_distances_fallback(user, xs, ys)
    assert ours.tolist() == theirs.tolist()
    assert [preimage_distance_fallback(F, x, y) for x, y in zip(xs, ys)] == ours.tolist()
    assert (np.isfinite(ours) & (ours > 0.0)).sum() > 30


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_newton_fallback_matches_the_oracle_of_an_invertible_linear_map(kind):
    F = make_linear_map([[2.0, 1.0], [-0.5, 1.5]], kind)
    rng = np.random.default_rng(13)
    X, Y = rng.uniform(-0.5, 0.5, (64, 2)), rng.uniform(-0.5, 0.5, (64, 2))
    got = preimage_distances_fallback(dataclasses.replace(F, preimage_distance=None), X, Y)
    np.testing.assert_allclose(got, F.preimage_distance(X, Y), rtol=1e-12, atol=0.0)


def test_newton_fallback_leaves_a_row_without_a_finite_jacobian_at_nan():
    A = np.array([[2.0, 1.0], [-0.5, 1.5]])

    def grad(X):  # nan where x1 < 0
        return np.arange(len(X)), np.where((X[:, 0] < 0.0)[:, None, None], np.nan, A)

    F = make_function_graph(lambda X: X @ A.T, grad=grad, dim_x=2, dim_y=2, kind="l2")
    X, Y = np.array([[0.3, 0.1], [-0.3, 0.1]]), np.full((2, 2), 0.2)
    d = preimage_distances_fallback(F, X, Y)
    assert d[0] == pytest.approx(norm(X[0] - np.linalg.solve(A, Y[0]), "l2"), rel=1e-12)
    assert math.isnan(d[1])


def test_batched_fallback_reads_nan_off_the_graph_of_a_2d_map_without_func():
    # inv(spiral) + linear has neither func nor a preimage oracle
    F, _ = resolve_map_spec({"id": "spiral", "wrap": [
        {"op": "inverse"}, {"op": "sum", "fn": {"id": "linear"}}]}, kind="l2")
    L, _ = resolve_map_spec({"id": "linear"}, kind="l2")
    assert F.func is None and F.preimage_distance is None
    u = np.array([0.08, 0.06])  # (0.3 + 0.1i)^2, so (u, (0.3, 0.1)) lies on inv(spiral)
    y = np.array([0.3, 0.1]) + L.func(u[None])[0]
    d = preimage_distances_fallback(F, [u, u], [y, y + 0.1])
    assert d[0] == 0.0 and math.isnan(d[1])


def test_xsin_fallback_resolves_the_reciprocal_fiber():
    F, _ = setup_map("xsin")
    xv = 1.5e-4
    exact = min(abs(xv - 1.0 / (k * math.pi)) for k in range(1, 100001))
    exact = min(exact, xv)  # 0 itself is in the fiber of 0
    d = preimage_distance_fallback(F, [xv], [0.0])
    assert d == pytest.approx(exact, rel=1e-9)


def test_xsin_feature_points_are_structural():
    F, _ = setup_map("xsin")
    _, X, Y = F.feature_points(np.zeros(1), [0.01], [0.02])
    assert 0 < len(X) <= 24
    xv = np.abs(X[:, 0])
    assert np.all((0.01 < xv) & (xv <= 0.02 + 1e-15))
    assert np.all(F.image_distance(X, Y) <= 1e-9)
    # the sin-zero family x = 1/(k pi) must be represented
    assert np.any(np.abs(Y[:, 0]) <= 1e-12)


def test_interval_map_semantics():
    F, _ = setup_map("interval")
    # x = 1/4 carries the fiber [-x, x]
    assert _one(F.image_distance, [0.25], [0.2]) <= 1e-9
    assert _one(F.image_distance, [0.25], [-0.25]) <= 1e-9
    assert _one(F.image_distance, [0.25], [0.3]) > 1e-9
    assert _one(F.image_distance, [0.25], [0.3]) == pytest.approx(0.05, abs=1e-12)
    # off the reciprocal grid the map is the identity
    assert _one(F.image_distance, [0.3], [0.3]) <= 1e-9
    assert _one(F.image_distance, [0.3], [0.2]) > 1e-9
    assert _one(F.image_distance, [0.3], [0.2]) == pytest.approx(0.1, abs=1e-12)


def test_interval_map_preimage_prefers_the_nearest_fiber():
    F, _ = setup_map("interval")
    # y = 0.15 is reached on the diagonal at x = 0.15 and inside every
    # interval fiber at x = 1/k with 1/k >= 0.15, so from x = 0.16 the
    # nearest preimage point is x = 1/6
    d = _one(F.preimage_distance, [0.16], [0.15])
    assert d == pytest.approx(1.0 / 6.0 - 0.16, abs=1e-12)
    # from below, the diagonal is nearer
    d = _one(F.preimage_distance, [0.151], [0.15])
    assert d == pytest.approx(0.001, abs=1e-12)


# the point-by-point oracles of the interval map and the complementarity
# angle, in Python floats: the references for their row forms
def _recip_k_reference(xv):
    if xv <= 0.0:
        return 0
    q = 1.0 / xv
    k = round(q)
    if k >= 1 and abs(q - k) <= mappings._RECIP_TOL * q * q:
        return int(k)
    return 0


def _interval_distance_reference(xv, yv):
    if _recip_k_reference(xv):
        return max(0.0, abs(yv) - xv)
    return abs(yv - xv)


def _interval_normals_reference(xv, yv):
    if not _recip_k_reference(xv):
        return [(1.0, 1.0), (-1.0, -1.0)]
    if abs(abs(yv) - xv) <= 1e-12 * max(1.0, xv):
        s = -1.0 if yv > 0 else 1.0
        return [(s, s)]
    return [(1.0, 0.0), (-1.0, 0.0)]


def _angle_normals_reference(xv, yv):
    if xv > 0.0 and abs(yv) <= 1e-15:
        return [(0.0, 1.0), (0.0, -1.0)]
    if abs(xv) <= 1e-15 and yv > 0.0:
        return [(1.0, 0.0), (-1.0, 0.0)]
    return [(-1.0, 0.0), (0.0, 1.0), (-1.0, 1.0)]


def _interval_rows():
    """(X, Y) rows at and around the reciprocal windows and the fiber ends:
    x = 1/k + d for d of 0, +-1e-12, +-3e-10 and the window's edge, ties of
    round(1/x), +-0.0, negative x, x > 1, inf and 1e-300; for each x, y at +-x,
    at +-(x +- 1e-12 max(1, x)) and a little past, +-0.0, inside and outside
    the fiber, nan and +-inf."""
    xs = [1.0 / k + d for k in (1, 2, 3, 7, 100, 1000, 10**5)
          for d in (0.0, 1e-12, -1e-12, 3e-10, -3e-10, 1e-9, -1e-9, 1.5e-9, -1.5e-9)]
    xs += [1.0 / 2.5, 1.0 / 3.5, 2.0 / 3.0, 0.0, -0.0, -0.25, -1.0, -1e-300, 1e-300,
           1.5, 2.0, 2.5, 3.0, 1e300, math.inf, 0.3, 0.16]
    rows = []
    for x in xs:
        e = 1e-12 * max(1.0, x)
        ys = [x + d for d in (0.0, e, -e, 1.01 * e, -1.01 * e)]
        ys += [-y for y in ys] + [0.0, -0.0, 0.5 * x, -0.5 * x, 2.0 * x, 0.1, math.nan,
                                  math.inf, -math.inf]
        rows += [(x, y) for y in ys]
    return np.array(rows)[:, :1], np.array(rows)[:, 1:]


def _angle_rows():
    vals = [0.0, -0.0, 1e-15, -1e-15, 1.01e-15, -1.01e-15, 0.99e-15, 2e-15, 0.5, -0.5,
            1e-300, -1e-300, math.nan, math.inf, -math.inf]
    P = np.array([(x, y) for x in vals for y in vals])
    return P[:, :1], P[:, 1:]


def _lifted_reference(fn, X, Y):
    pairs = [(k, xs, ys) for k, (x, y) in enumerate(zip(X[:, 0].tolist(), Y[:, 0].tolist()))
             for xs, ys in fn(x, y)]
    return ([k for k, _, _ in pairs], [[xs] for _, xs, _ in pairs], [[ys] for _, _, ys in pairs])


@pytest.mark.parametrize("mid,rows,reference", [
    ("interval", _interval_rows, _interval_normals_reference),
    ("compl_angle", _angle_rows, _angle_normals_reference),
])
def test_interval_and_angle_normals_are_the_per_point_oracles(mid, rows, reference):
    """owner, x* and y* bit for bit, signed zeros included, against the
    point-by-point oracle, on every case's boundary, and on empty rows."""
    F, _ = setup_map(mid)
    X, Y = rows()
    owner, X_star, Y_star = F.analytic_normals(X, Y)
    want_owner, want_x, want_y = _lifted_reference(reference, X, Y)
    assert owner.tolist() == want_owner
    assert np.array_equal(_bits(X_star), _bits(want_x))
    assert np.array_equal(_bits(Y_star), _bits(want_y))
    assert len({len(reference(x, y)) for x, y in zip(X[:, 0].tolist(), Y[:, 0].tolist())}) > 1
    empty = F.analytic_normals(X[:0], Y[:0])
    assert [(a.shape, a.dtype.kind) for a in empty] == [((0,), "i"), ((0, 1), "f"),
                                                        ((0, 1), "f")]


def test_interval_image_distances_are_the_per_point_oracle():
    F, _ = setup_map("interval")
    X, Y = _interval_rows()
    got = F.image_distance(X, Y)
    want = [_interval_distance_reference(x, y) for x, y in zip(X[:, 0].tolist(), Y[:, 0].tolist())]
    assert np.array_equal(_bits(got), _bits(want))
    assert {_recip_k_reference(x) > 0 for x in X[:, 0].tolist()} == {True, False}
    assert F.image_distance(X[:0], Y[:0]).shape == (0,)


def test_interval_oracles_read_a_nan_or_overflowing_x_as_off_the_reciprocals():
    """round(1/x) raised on a nan x, and on an x whose 1/x overflows; the
    row forms read such an x as no 1/k: |y - x| and the diagonal's pairs."""
    F, _ = setup_map("interval")
    X, Y = np.array([[math.nan], [5e-324], [1e-310]]), np.array([[0.0], [0.0], [1e-310]])
    assert pins.hexes(F.image_distance(X, Y)) == pins.hexes([math.nan, 5e-324, 0.0])
    owner, X_star, Y_star = F.analytic_normals(X, Y)
    assert owner.tolist() == [0, 0, 1, 1, 2, 2]
    assert X_star[:, 0].tolist() == Y_star[:, 0].tolist() == [1.0, -1.0] * 3


def test_sum_with_function_shifts_the_graph():
    F = make_square("l1")
    G = sum_with_function(F, make_function_graph(
        lambda X: X.copy(), grad=lambda X: (np.arange(len(X)), np.ones((len(X), 1, 1)))),
        name="sq+id")
    assert _one(G.image_distance, [2.0], [6.0]) <= 1e-9  # 4 + 2
    assert _one(G.image_distance, [2.0], [7.0]) == pytest.approx(1.0, abs=1e-12)
    assert G.func(np.array([[3.0]]))[0, 0] == 12.0
    assert G.grad(np.array([[3.0]]))[1].tolist() == [[[7.0]]]


def test_sum_with_perturbation_object_and_anchors():
    f = make_function_graph(lambda X: -X ** 2,
                            grad=lambda X: (np.arange(len(X)), -2.0 * X[:, :, None]))
    F = make_square("l1")
    G = anchored(sum_with_function(F, f, name="sq-cancel"),
                 [(np.array([0.5]), np.array([0.0]))])
    assert G.func(np.array([[0.5]]))[0, 0] == 0.0
    base = GraphPoint(np.zeros(1), np.zeros(1))
    _, X, _ = G.sample_graph(base, [0.25], [1.0], 30, [1])
    assert 0.5 in X[:, 0]


def test_anchored_appends_the_anchors_of_the_annulus_to_the_sample():
    F = make_square("l1")
    F.memo["key"] = ["value"]
    anchors = [(np.array([x]), np.array([x * x])) for x in (0.3, -0.6, 0.9, 0.5)]
    G = anchored(F, anchors)
    base = GraphPoint(np.zeros(1), np.zeros(1))
    _, OX, OY = F.sample_graph(base, [0.25], [0.75], 30, [1])
    ann, X, Y = G.sample_graph(base, [0.25], [0.75], 30, [1])
    kept = [anchors[i] for i in (0, 1, 3)]  # 0.9 lies outside the annulus
    assert X.tolist() == OX.tolist() + [a.tolist() for a, _ in kept]
    assert Y.tolist() == OY.tolist() + [b.tolist() for _, b in kept]
    assert ann.tolist() == [0] * len(X)
    assert not any(np.shares_memory(X, a) or np.shares_memory(Y, b) for a, b in anchors)
    assert (G.name, G.image_distance, G.analytic_normals) == (F.name, F.image_distance,
                                                              F.analytic_normals)
    assert G.memo == {}  # a map that samples differently starts its own memo


def test_inverse_swaps_domain_and_range():
    F, _ = setup_map("abs")
    inv = inverse(F)
    assert _one(inv.image_distance, [1.0], [-1.0]) <= 1e-9
    assert _one(inv.image_distance, [1.0], [1.0]) <= 1e-9
    assert _one(inv.image_distance, [1.0], [0.5]) > 1e-9
    assert _one(inv.image_distance, [1.0], [0.5]) == pytest.approx(0.5, abs=1e-12)


def test_resolve_map_spec_combinators_and_errors():
    G, _ = resolve_map_spec({"id": "square_plus_identity"})
    assert _one(G.image_distance, [2.0], [6.0]) <= 1e-9
    H, _ = resolve_map_spec({"id": "inverse_abs"})
    assert _one(H.image_distance, [1.0], [-1.0]) <= 1e-9
    with pytest.raises(ValueError):
        resolve_map_spec({"id": "no_such_map"})
    with pytest.raises(ValueError):
        resolve_map_spec({"id": "abs", "wrap": [{"op": "no_such_wrap"}]})


def test_feature_points_respect_the_cap():
    F, _ = setup_map("xsin")
    _, X, Y = F.feature_points(np.zeros(1), [1e-4], [2e-4])
    assert len(X) == len(Y)
    assert len(X) <= 24
    assert len(X) > 0


# the rows X and Y of graph_rows (tag 61, depth 6, 32 samples, seed 7), annulus by annulus, as
# hex floats, kept in the pin group "sample" under "map/norm": every catalog
# map, the sum, inverse and anchored wraps, square at the base (0.5, 0.25),
# and the sampler branches of _BRANCHES
_SAMPLE_LADDER = ScaleLadder(depth=6, samples_per_scale=32, seed=7)
# name: (map spec, base (x, y), ladder fields other than _SAMPLE_LADDER's).
# interval on its fibers x = 1/2 and 1/3 draws the same-x fiber and the
# vertical fibers left of the base; compl_angle on its vertical and its
# horizontal ray; the inverse of square at 1 and 3 samples per scale
# samples past its first shell; interval at r0 = 1e-30 counts its vertical
# fibers where 1/x passes 1e15
_BRANCHES = {
    "interval_at_half": ({"id": "interval"}, (0.5, 0.0), {}),
    "interval_at_third": ({"id": "interval"}, (1 / 3, 0.2), {}),
    "compl_angle_on_y": ({"id": "compl_angle"}, (0.0, 0.25), {}),
    "compl_angle_on_x": ({"id": "compl_angle"}, (0.2, 0.0), {}),
    "inverse_square_1": ({"id": "square", "wrap": [{"op": "inverse"}]}, (0.0, 0.0),
                         {"samples_per_scale": 1}),
    "inverse_square_3": ({"id": "square", "wrap": [{"op": "inverse"}]}, (0.0, 0.0),
                         {"samples_per_scale": 3}),
    "interval_fine": ({"id": "interval"}, (0.0, 0.0), {"r0": 1e-30, "depth": 4}),
}
_SAMPLE_CASES = sorted(f"{mid}/{kind}" for kind in NORM_KINDS for mid in
                       ALL_IDS + sorted(_WRAPS) + ["anchored", "square_off_origin"]
                       + sorted(_BRANCHES))
# square with anchors in four of the six annuli, and one (0.9) beyond them
_ANCHORS = [(np.array([x]), np.array([x * x])) for x in (0.3, -0.2, 0.04, -0.01, 0.9)]


def _sample_map(mid, kind):
    """(map, base) of a sample case's map."""
    if mid == "anchored":
        return anchored(make_square(kind), _ANCHORS), GraphPoint([0.0], [0.0])
    if mid == "square_off_origin":
        return make_square(kind), GraphPoint([0.5], [0.25])
    if mid in _BRANCHES:
        spec, (x, y), _ = _BRANCHES[mid]
        return resolve_map_spec(spec, kind=kind)[0], GraphPoint([x], [y])
    F, _ = resolve_map_spec(_WRAPS.get(mid, {"id": mid}), kind=kind)
    return F, GraphPoint(np.zeros(F.dim_x), np.zeros(F.dim_y))


@pins.pinned("sample", _SAMPLE_CASES)
def _sample_dump(key: str) -> list:
    mid, kind = key.split("/")
    F, base = _sample_map(mid, kind)
    ladder = dataclasses.replace(_SAMPLE_LADDER, **_BRANCHES.get(mid, (None, None, {}))[2])
    ann, X, Y = graph_rows(F, base, ladder, 61)
    return [{"X": [pins.hexes(row) for row in X[ann == j]],
             "Y": [pins.hexes(row) for row in Y[ann == j]]} for j in range(ladder.depth)]


@pytest.mark.parametrize("key", _SAMPLE_CASES)
def test_graph_samples_are_pinned(key):
    assert _sample_dump(key) == pins.stored("sample", key)


def _per_annulus_rows(F, base, ladder, tag, start=0):
    """The reference for graph_rows: the map's sampler and feature oracle
    asked one annulus at a time, the rows of each annulus after those of
    the annulus outside it, as (ann, X, Y)."""
    blocks = [(np.zeros(0, dtype=int), np.zeros((0, F.dim_x)), np.zeros((0, F.dim_y)))]
    seeds = ladder.seeds(tag).tolist()
    for j, (inner, outer) in enumerate(zip(*(c.tolist() for c in ladder.annuli(start))), start):
        ann, X, Y = F.sample_graph(base, [inner], [outer], ladder.samples_per_scale, [seeds[j]])
        assert not ann.any()
        if F.feature_points is not None:
            ann, FX, FY = F.feature_points(base.x, [inner], [outer])
            assert not ann.any()
            X, Y = np.concatenate([X, FX]), np.concatenate([Y, FY])
        blocks.append((np.full(len(X), j), X, Y))
    return tuple(np.concatenate(c) for c in zip(*blocks))


@pytest.mark.parametrize("key", _SAMPLE_CASES)
def test_graph_rows_are_the_per_annulus_loop(key):
    """graph_rows gives every map (the sum, inverse and anchored wraps too)
    the rows of the per-annulus loop, bit for bit, on a ladder that
    reaches the fine scales where the feature oracles enumerate fibers."""
    F, base = _sample_map(*key.split("/"))
    ladder = ScaleLadder(theta=0.3, depth=10, samples_per_scale=24, seed=3)
    for start in (0, 7, 10):  # the whole ladder, the annuli a deepening adds, none
        got = graph_rows(F, base, ladder, 19, start)
        want = _per_annulus_rows(_sample_map(*key.split("/"))[0], base, ladder, 19, start)
        assert [a.shape for a in got] == [a.shape for a in want]
        for a, b in zip(got, want):
            assert np.array_equal(_bits(a), _bits(b)), start


# (map spec, base (x, y)) of the maps whose samplers draw a block of annuli by
# hand, at bases on and off their fibers
_BLOCK_SAMPLER_CASES = [
    ({"id": "interval"}, (0.0, 0.0)), ({"id": "interval"}, (0.5, 0.0)),
    ({"id": "interval"}, (1 / 3, 0.2)), ({"id": "interval"}, (0.3, 0.3)),
    ({"id": "compl_angle"}, (0.0, 0.0)), ({"id": "compl_angle"}, (0.0, 0.25)),
    ({"id": "compl_angle"}, (0.2, 0.0)), ({"id": "compl_angle"}, (-0.1, 0.5)),
    ({"id": "square", "wrap": [{"op": "inverse"}]}, (0.0, 0.0)),
    ({"id": "square", "wrap": [{"op": "inverse"}]}, (0.25, 0.5)),
    ({"id": "xsin", "wrap": [{"op": "inverse"}]}, (0.0, 0.0)),
]


def _reference_annulus(spec, F, base, inner, outer, n, seed):
    """The rows (X, Y) of one annulus from the one-annulus reference of the
    map's sampler, then of its feature oracle."""
    if spec.get("wrap"):
        inner_map, _ = resolve_map_spec({"id": spec["id"]}, kind=F.kind)
        return sampler_reference.inverse_sample(inner_map, base, inner, outer, n, seed)
    if spec["id"] == "compl_angle":
        return sampler_reference.compl_angle_sample(base, inner, outer, n, seed, F.kind)
    X, Y = sampler_reference.interval_sample(base, inner, outer, n, seed, F.kind)
    FX, FY = sampler_reference.interval_features(base.x, inner, outer)
    return np.concatenate([X, FX]), np.concatenate([Y, FY])


@pytest.mark.parametrize("spec, xy", _BLOCK_SAMPLER_CASES)
def test_block_samplers_are_the_one_annulus_reference(spec, xy):
    """graph_rows gives the interval, compl_angle and inverse maps the rows
    their one-annulus samplers gave (tests/sampler_reference.py), bit for
    bit, at 1 to 64 samples per scale and from r0 = 2 down to 1e-30."""
    base = GraphPoint([xy[0]], [xy[1]])
    for kind in NORM_KINDS:
        F, _ = resolve_map_spec(spec, kind=kind)
        for r0 in (2.0, 0.5, 1e-3, 1e-12, 1e-30):
            for n in (1, 2, 3, 16, 64):
                ladder = ScaleLadder(r0=r0, depth=5, samples_per_scale=n, seed=11)
                got = graph_rows(F, base, ladder, 29)
                parts = [_reference_annulus(spec, F, base, inner, outer, n, seed)
                         for inner, outer, seed in zip(*(c.tolist() for c in ladder.annuli()),
                                                       ladder.seeds(29).tolist())]
                want = (np.repeat(np.arange(ladder.depth), [len(X) for X, _ in parts]),
                        *(np.concatenate([p[i] for p in parts]) for i in (0, 1)))
                assert [a.shape for a in got] == [a.shape for a in want], (kind, r0, n)
                for a, b in zip(got, want):
                    assert np.array_equal(_bits(a), _bits(b)), (kind, r0, n)


_FEATURE_ANNULI = [(0.0625, 0.125), (0.01, 0.02), (1e-4, 2e-4)]


@pytest.mark.parametrize("mid", ALL_IDS + sorted(_WRAPS) + ["anchored"])
def test_catalog_sample_graph_returns_graph_points(mid):
    """The sampler contract, in every norm: sample_graph and feature_points
    return float rows (X, Y) of the map's dimensions, every row on the
    graph; feature rows lie in their annulus, at most 24 of them."""
    for kind in NORM_KINDS:
        F, base = _sample_map(mid, kind)
        ann, X, Y = F.sample_graph(base, [0.0625], [0.125], 40, [3])
        assert len(X) > 0 and ann.tolist() == [0] * len(X)
        features = [F.feature_points(base.x, [inner], [outer])[1:]
                    for inner, outer in _FEATURE_ANNULI if F.feature_points is not None]
        for X, Y in [(X, Y)] + features:
            assert X.dtype == Y.dtype == np.float64
            assert X.shape == (len(X), F.dim_x) and Y.shape == (len(X), F.dim_y)
            assert np.all(F.image_distance(X, Y) <= 1e-7), kind
        for (inner, outer), (X, Y) in zip(_FEATURE_ANNULI, features):
            t = norms(X - base.x, kind)
            assert np.all((inner < t) & (t <= outer * (1 + 1e-12)))
            assert len(X) <= 24
            assert np.all(F.image_distance(X, Y) <= 1e-9)
            if mid == "xsin":  # the sin-zero fibers x = 1/(k pi) are represented
                assert np.any(np.abs(Y[:, 0]) <= 1e-12)


def test_empty_samples_are_rows_that_graph_rows_concatenates():
    """Features off the origin, and at r_inner = 0 for xsin and
    oscillating, are arrays of shape (0,) and (0, 1), as are the anchors of
    an annulus that holds none, and a call for no annulus at all gives
    them too; graph_rows then gives the sample alone."""
    for mid in ("xsin", "oscillating", "interval"):
        F, _ = setup_map(mid)
        cases = [(np.array([0.5]), [0.0625], [0.125]), (np.array([0.5]), [], [])]
        if mid != "interval":
            cases.append((np.zeros(1), [0.0], [0.125]))
        for case in cases:
            assert [a.shape for a in F.feature_points(*case)] == [(0,), (0, 1), (0, 1)], \
                (mid, case)
        base = GraphPoint([0.5], [0.0])  # the samplers read it as the annuli's center
        ladder = ScaleLadder(depth=3, samples_per_scale=16, seed=7)
        got = graph_rows(F, base, ladder, 61)
        want = F.sample_graph(base, *ladder.annuli(), 16, ladder.seeds(61))
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
    for kind in NORM_KINDS:
        G, base = _sample_map("anchored", kind)
        F = make_square(kind)  # no anchor lies in (0.0625, 0.125]
        got = G.sample_graph(base, [0.0625], [0.125], 32, [5])
        want = F.sample_graph(base, [0.0625], [0.125], 32, [5])
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert [a.shape for a in G.sample_graph(base, [], [], 32, [])] == [(0,), (0, 1), (0, 1)]


def test_the_inverse_samples_at_one_point_per_scale():
    """Each shell of the inverse's sampler asks for max(1, n // 2) points;
    with n // 2 the shells drew none at one sample per scale, and the
    moduli of the inverse read nan."""
    F, _ = resolve_map_spec(_WRAPS["inverse"])
    base = GraphPoint(np.zeros(1), np.zeros(1))
    ladder = ScaleLadder(depth=4, samples_per_scale=1, seed=7)
    ann, _, _ = graph_rows(F, base, ladder, 31)
    assert (ann == 0).any()


@pytest.mark.parametrize("depth", [6, 12])
def test_the_inverse_of_a_flat_map_reaches_every_annulus(depth):
    """The inverse of square at the origin needs x near sqrt(r_outer), far
    outside the four shells around an inner annulus; the shells that grow
    by 4 give every annulus a row, so calmness reads a number."""
    from subreglab.moduli import estimate_clm

    F, _ = resolve_map_spec({"id": "square", "wrap": [{"op": "inverse"}]}, kind="l1")
    base = GraphPoint([0.0], [0.0])
    ladder = ScaleLadder(depth=depth, samples_per_scale=512, seed=7)
    ann, _, _ = graph_rows(F, base, ladder, 31)
    assert np.bincount(ann, minlength=depth).min() > 0
    assert not math.isnan(estimate_clm(F, base, ladder).reported)


def test_the_inverse_leaves_out_shells_past_the_largest_float():
    """The inverse of zero has no graph point off u = 0, so every annulus
    takes every growing shell; at r0 = 1e300 those shells pass the largest
    float and are left out, without an overflow warning, as the one-annulus
    reference leaves them out."""
    spec = {"id": "zero", "wrap": [{"op": "inverse"}]}
    F, _ = resolve_map_spec(spec, kind="l1")
    base = GraphPoint([0.0], [0.0])
    ladder = ScaleLadder(r0=1e300, depth=3, samples_per_scale=8, seed=7)
    got = graph_rows(F, base, ladder, 29)
    parts = [_reference_annulus(spec, F, base, inner, outer, 8, seed)
             for inner, outer, seed in zip(*(c.tolist() for c in ladder.annuli()),
                                           ladder.seeds(29).tolist())]
    want = (np.repeat(np.arange(3), [len(X) for X, _ in parts]),
            *(np.concatenate([p[i] for p in parts]) for i in (0, 1)))
    for a, b in zip(got, want):
        assert np.array_equal(_bits(a), _bits(b))
