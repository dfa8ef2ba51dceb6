import math

import numpy as np
import pytest

from conftest import setup_map
import subreglab.mappings as mappings
from subreglab.geometry import (
    NORM_KINDS,
    NormContext,
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
    inverse,
    make_function_graph,
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


@pytest.mark.parametrize("mid", ALL_IDS)
def test_catalog_sample_graph_returns_graph_points(mid):
    F, _ = resolve_map_spec({"id": mid})
    base = GraphPoint(np.zeros(F.dim_x), np.zeros(F.dim_y))
    pts = F.sample_graph(base, 0.0625, 0.125, 40, seed=3)
    assert len(pts) > 0
    for gp in pts:
        assert _one(F.image_distance, gp.x, gp.y) <= 1e-7, (mid, gp.x, gp.y)


def test_function_graph_evaluates_and_differentiates():
    F = make_function_graph(lambda X: X ** 2,
                            grad=lambda x: np.array([[2.0 * x[0]]]),
                            dim_x=1, dim_y=1, kind="l1", name="sq")
    assert F.single_valued
    assert F.func(np.array([[3.0], [-2.0]])).tolist() == [[9.0], [4.0]]
    assert F.grad([3.0])[0][0] == 6.0
    assert _one(F.image_distance, [2.0], [5.0]) == 1.0
    assert _one(F.image_distance, [2.0], [4.0]) <= 1e-9
    assert _one(F.image_distance, [2.0], [4.5]) > 1e-9


def test_identity_and_scale_preimage_closed_forms():
    F, _, _ = setup_map("identity")
    assert _preimage(F, [0.3], [0.1]) == pytest.approx(0.2, abs=1e-12)
    S, _, _ = setup_map("scale")
    # fiber of y under x -> 2x is {y/2}
    assert _preimage(S, [0.3], [0.1]) == pytest.approx(0.25, abs=1e-12)


def test_square_preimage_closed_form():
    F = make_square("l1")
    d = _preimage(F, [0.1], [0.25])
    assert d == pytest.approx(0.4, abs=1e-9)  # fiber {+-0.5}, nearer root 0.5
    d = _preimage(F, [-0.1], [0.25])
    assert d == pytest.approx(0.4, abs=1e-9)


def _roots(fb, xv, yv, r0, n_grid=64, max_doublings=24, tol=1e-12):
    """The batched root finder on pairs (xv[p], yv[p]) with common settings."""
    xv = np.asarray(xv, dtype=float)
    return _nearest_roots_1d(fb, xv, np.asarray(yv, dtype=float), np.full(len(xv), r0),
                             np.full(len(xv), tol), n_grid, max_doublings)


def _sin_recip(z):
    nz = z != 0.0
    return np.where(nz, np.sin(np.divide(1.0, z, out=np.zeros_like(z), where=nz)), 0.0)


def test_nearest_root_linear_and_even_touch():
    d = _roots(lambda z: z, [0.5], [0.75], 0.1)[0]
    assert d == pytest.approx(0.25, abs=1e-10)
    # (z - 0.3)^2 never changes sign; the minimum search must still find it
    d = _roots(lambda z: (z - 0.3) ** 2, [0.1], [0.0], 0.05)[0]
    assert d == pytest.approx(0.2, abs=1e-8)


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
    pts = F.sample_graph(base, 0.01, 0.5, 32, 5)[:32]  # pairs on the graph, then off it
    rng = np.random.default_rng(97)
    X = np.concatenate([[p.x for p in pts], rng.uniform(-0.5, 0.5, (64 - len(pts), F.dim_x))])
    Y = np.concatenate([[p.y for p in pts], rng.uniform(-0.5, 0.5, (64 - len(pts), F.dim_y))])
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


@pytest.mark.parametrize("kind", NORM_KINDS)
@pytest.mark.parametrize("mid", ALL_IDS + sorted(_WRAPS))
def test_every_normal_oracle_takes_rows_and_row_k_is_the_one_row_call(mid, kind):
    F, _ = resolve_map_spec(_WRAPS.get(mid, {"id": mid}), kind=kind)
    base = GraphPoint(np.zeros(F.dim_x), np.zeros(F.dim_y))
    pts = F.sample_graph(base, 0.01, 0.5, 32, 5)[:40] + [base]  # abs has no pairs at the base
    X = np.array([p.x for p in pts]).reshape(len(pts), F.dim_x)
    Y = np.array([p.y for p in pts]).reshape(len(pts), F.dim_y)
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

    def grad(x):  # a Jacobian that changes from row to row; none where x[0] < -0.4
        return None if x[0] < -0.4 else M * math.sin(50.0 * x[0]) + N

    F = make_function_graph(lambda X: np.zeros((len(X), dy)), grad=grad, dim_x=dx, dim_y=dy,
                            kind=kind)
    X = rng.uniform(-0.5, 0.5, (400, dx))
    Y = np.zeros((400, dy))
    etas = dual_sphere_grid(kind, dy, 8)
    owner, X_star, Y_star = F.analytic_normals(X, Y)
    want = [(k, g.T @ eta, eta) for k, x in enumerate(X) if (g := grad(x)) is not None
            for eta in etas]
    assert owner.tolist() == [k for k, _, _ in want]
    assert np.array_equal(_bits(X_star), _bits([a for _, a, _ in want]))
    assert np.array_equal(_bits(Y_star), _bits([b for _, _, b in want]))
    # the sum of F and a linear map: F's pairs at (x, y - Ax) shifted by A.T @ y*
    A = make_linear_map(_signed_magnitudes(rng, (dy, dx)), kind)
    S = sum_with_function(F, A)
    Y = rng.uniform(-0.5, 0.5, (400, dy))
    owner, X_star, Y_star = S.analytic_normals(X, Y)
    a = A.grad(X[0])
    want = [(k, xs + a.T @ ys, ys) for k, (x, y) in enumerate(zip(X, Y))
            for xs, ys in zip(*F.analytic_normals(x[None], (y - a @ x)[None])[1:])]
    assert owner.tolist() == [k for k, _, _ in want]
    assert np.array_equal(_bits(X_star), _bits([p for _, p, _ in want]))
    assert np.array_equal(_bits(Y_star), _bits([q for _, _, q in want]))


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_the_inverse_of_a_scalar_graph_takes_its_rows_in_one_fallback_call(kind, monkeypatch):
    F, _ = resolve_map_spec({"id": "xsin"}, kind=kind)
    G = inverse(F)
    rng = np.random.default_rng(5)
    U = np.concatenate([[[0.1], [-0.2], [0.0]], rng.uniform(-0.5, 0.5, (21, 1))])
    V = np.concatenate([F.func(U[:12]), rng.uniform(-0.5, 0.5, (12, 1))])
    want = [preimage_distance_fallback(F, v, u) for u, v in zip(U, V)]
    calls = []
    batched = mappings.preimage_distances_fallback
    monkeypatch.setattr(mappings, "preimage_distances_fallback",
                        lambda *a: calls.append(1) or batched(*a))
    assert np.array_equal(_bits(G.image_distance(U, V)), _bits(want))
    assert len(calls) == 1


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_linear_batch_oracles_match_the_per_pair_oracles_bit_for_bit(kind):
    # the row oracles against one product, norm and solve per pair
    rng = np.random.default_rng(41)
    for name, F in _linear_maps(kind).items():
        X = rng.normal(size=(24, F.dim_x))
        Y = rng.normal(size=(24, F.dim_y))
        Y[::4] = X[::4] @ F.grad(X[0]).T  # some pairs on the graph
        Y[1::4] = 0.0
        A = F.grad(X[0])
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


@pytest.mark.parametrize("mid", ["xsin", "oscillating"])
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


def test_batched_fallback_refuses_maps_that_are_not_scalar_graphs():
    F, _, _ = setup_map("spiral")
    with pytest.raises(ValueError):
        preimage_distances_fallback(F, [np.zeros(2)], [np.ones(2)])


def test_xsin_fallback_resolves_the_reciprocal_fiber():
    F, _, _ = setup_map("xsin")
    xv = 1.5e-4
    exact = min(abs(xv - 1.0 / (k * math.pi)) for k in range(1, 100001))
    exact = min(exact, xv)  # 0 itself is in the fiber of 0
    d = preimage_distance_fallback(F, [xv], [0.0])
    assert d == pytest.approx(exact, rel=1e-9)


def test_xsin_feature_points_are_structural():
    F, _, _ = setup_map("xsin")
    pts = F.feature_points(np.zeros(1), 0.01, 0.02)
    assert 0 < len(pts) <= 24
    for gp in pts:
        xv = abs(float(gp.x[0]))
        assert 0.01 < xv <= 0.02 + 1e-15
        assert _one(F.image_distance, gp.x, gp.y) <= 1e-9
    # the sin-zero family x = 1/(k pi) must be represented
    has_fiber = any(abs(float(gp.y[0])) <= 1e-12 for gp in pts)
    assert has_fiber


def test_interval_map_semantics():
    F, _, _ = setup_map("interval")
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
    F, _, _ = setup_map("interval")
    # y = 0.15 is reached on the diagonal at x = 0.15 and inside every
    # interval fiber at x = 1/k with 1/k >= 0.15, so from x = 0.16 the
    # nearest preimage point is x = 1/6
    d = _one(F.preimage_distance, [0.16], [0.15])
    assert d == pytest.approx(1.0 / 6.0 - 0.16, abs=1e-12)
    # from below, the diagonal is nearer
    d = _one(F.preimage_distance, [0.151], [0.15])
    assert d == pytest.approx(0.001, abs=1e-12)


def test_sum_with_function_shifts_the_graph():
    F = make_square("l1")
    G = sum_with_function(F, make_function_graph(lambda X: X.copy(),
                                                 grad=lambda x: np.array([[1.0]])), name="sq+id")
    assert _one(G.image_distance, [2.0], [6.0]) <= 1e-9  # 4 + 2
    assert _one(G.image_distance, [2.0], [7.0]) == pytest.approx(1.0, abs=1e-12)
    assert G.func(np.array([[3.0]]))[0, 0] == 12.0
    assert G.grad([3.0])[0][0] == 7.0


def test_sum_with_perturbation_object_and_anchors():
    f = make_function_graph(lambda X: -X ** 2,
                            grad=lambda x: np.array([[-2.0 * x[0]]]))
    F = make_square("l1")
    G = anchored(sum_with_function(F, f, name="sq-cancel"),
                 [(np.array([0.5]), np.array([0.0]))])
    assert G.func(np.array([[0.5]]))[0, 0] == 0.0
    base = GraphPoint(np.zeros(1), np.zeros(1))
    pts = G.sample_graph(base, 0.25, 1.0, 30, seed=1)
    assert any(float(gp.x[0]) == 0.5 for gp in pts)


def test_anchored_appends_the_anchors_of_the_annulus_to_the_sample():
    F = make_square("l1")
    F.memo["key"] = ["value"]
    anchors = [(np.array([x]), np.array([x * x])) for x in (0.3, -0.6, 0.9, 0.5)]
    G = anchored(F, anchors)
    base = GraphPoint(np.zeros(1), np.zeros(1))
    own = F.sample_graph(base, 0.25, 0.75, 30, 1)
    pts = G.sample_graph(base, 0.25, 0.75, 30, 1)
    kept = [anchors[i] for i in (0, 1, 3)]  # 0.9 lies outside the annulus
    want = [p.x.tolist() for p in own] + [a.tolist() for a, _ in kept]
    assert [p.x.tolist() for p in pts] == want
    assert all(p.x is not a and p.y is not b for p, (a, b) in zip(pts[len(own):], kept))
    assert (G.name, G.image_distance, G.analytic_normals) == (F.name, F.image_distance,
                                                              F.analytic_normals)
    assert G.memo == {}  # a map that samples differently starts its own memo


def test_inverse_swaps_domain_and_range():
    F, _, _ = setup_map("abs")
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
    F, _, _ = setup_map("xsin")
    pts = F.feature_points(np.zeros(1), 1e-4, 2e-4)
    assert len(pts) <= 24
    assert len(pts) > 0
