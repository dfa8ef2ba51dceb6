import math

import numpy as np
import pytest

from conftest import setup_map
from subreglab.geometry import NormContext, ScaleLadder
from subreglab.mappings import (
    GraphPoint,
    _nearest_roots_1d,
    batch_func,
    catalog,
    inverse,
    make_function_graph,
    make_square,
    preimage_distance_fallback,
    preimage_distances_fallback,
    resolve_map_spec,
    sum_with_function,
)

ALL_IDS = sorted(catalog().keys())


def _preimage(F, x, y):
    if F.preimage_distance is not None:
        return F.preimage_distance(x, y)
    return preimage_distance_fallback(F, x, y)


@pytest.mark.parametrize("mid", ALL_IDS)
def test_catalog_base_points_lie_on_the_graph(mid):
    F, entry = resolve_map_spec({"id": mid})
    assert entry.id == mid
    assert F.image_distance(np.zeros(F.dim_x), np.zeros(F.dim_y)) == 0.0


@pytest.mark.parametrize("mid", ALL_IDS)
def test_catalog_sample_graph_returns_graph_points(mid):
    F, _ = resolve_map_spec({"id": mid})
    base = GraphPoint(np.zeros(F.dim_x), np.zeros(F.dim_y))
    pts = F.sample_graph(base, 0.0625, 0.125, 40, seed=3)
    assert len(pts) > 0
    for gp in pts:
        assert F.image_distance(gp.x, gp.y) <= 1e-7, (mid, gp.x, gp.y)


def test_function_graph_evaluates_and_differentiates():
    F = make_function_graph(lambda x: np.array([x[0] ** 2]),
                            grad=lambda x: np.array([[2.0 * x[0]]]),
                            dim_x=1, dim_y=1, kind="l1", name="sq")
    assert F.single_valued
    assert F.func([3.0])[0] == 9.0
    assert F.grad([3.0])[0][0] == 6.0
    assert F.image_distance([2.0], [5.0]) == 1.0
    assert F.image_distance([2.0], [4.0]) <= 1e-9
    assert F.image_distance([2.0], [4.5]) > 1e-9


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


@pytest.mark.parametrize("mid", _scalar_function_ids())
def test_batch_evaluator_matches_the_scalar_func_bit_for_bit(mid):
    F, _ = resolve_map_spec({"id": mid})
    mags = 10.0 ** np.random.default_rng(20260).uniform(-11.0, 1.0, 4000)
    z = np.concatenate([mags, -mags, [0.0]])
    scalar = np.array([float(F.func(np.array([v]))[0]) for v in z])
    batch = batch_func(F)(z)
    assert batch.shape == z.shape
    assert np.array_equal(batch.view(np.int64), scalar.view(np.int64))


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
    F, _ = resolve_map_spec({"id": mid})
    assert F.func_batch is not None
    user = make_function_graph(lambda x: F.func(x), name=f"user-{mid}")
    assert user.func_batch is None
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
        assert F.image_distance(gp.x, gp.y) <= 1e-9
    # the sin-zero family x = 1/(k pi) must be represented
    has_fiber = any(abs(float(gp.y[0])) <= 1e-12 for gp in pts)
    assert has_fiber


def test_interval_map_semantics():
    F, _, _ = setup_map("interval")
    # x = 1/4 carries the fiber [-x, x]
    assert F.image_distance([0.25], [0.2]) <= 1e-9
    assert F.image_distance([0.25], [-0.25]) <= 1e-9
    assert F.image_distance([0.25], [0.3]) > 1e-9
    assert F.image_distance([0.25], [0.3]) == pytest.approx(0.05, abs=1e-12)
    # off the reciprocal grid the map is the identity
    assert F.image_distance([0.3], [0.3]) <= 1e-9
    assert F.image_distance([0.3], [0.2]) > 1e-9
    assert F.image_distance([0.3], [0.2]) == pytest.approx(0.1, abs=1e-12)


def test_interval_map_preimage_prefers_the_nearest_fiber():
    F, _, _ = setup_map("interval")
    # y = 0.15 is reached on the diagonal at x = 0.15 and inside every
    # interval fiber at x = 1/k with 1/k >= 0.15, so from x = 0.16 the
    # nearest preimage point is x = 1/6
    d = F.preimage_distance([0.16], [0.15])
    assert d == pytest.approx(1.0 / 6.0 - 0.16, abs=1e-12)
    # from below, the diagonal is nearer
    d = F.preimage_distance([0.151], [0.15])
    assert d == pytest.approx(0.001, abs=1e-12)


def test_sum_with_function_shifts_the_graph():
    F = make_square("l1")
    G = sum_with_function(F, make_function_graph(lambda x: np.array([x[0]]),
                                                 grad=lambda x: np.array([[1.0]])), name="sq+id")
    assert G.image_distance([2.0], [6.0]) <= 1e-9  # 4 + 2
    assert G.image_distance([2.0], [7.0]) == pytest.approx(1.0, abs=1e-12)
    assert G.func([3.0])[0] == 12.0
    assert G.grad([3.0])[0][0] == 7.0


def test_sum_with_perturbation_object_and_anchors():
    f = make_function_graph(lambda x: np.array([-x[0] ** 2]),
                            grad=lambda x: np.array([[-2.0 * x[0]]]))
    F = make_square("l1")
    G = sum_with_function(F, f, name="sq-cancel", anchors=[(np.array([0.5]), np.array([0.0]))])
    assert G.func([0.5])[0] == 0.0
    base = GraphPoint(np.zeros(1), np.zeros(1))
    pts = G.sample_graph(base, 0.25, 1.0, 30, seed=1)
    assert any(float(gp.x[0]) == 0.5 for gp in pts)


def test_inverse_swaps_domain_and_range():
    F, _, _ = setup_map("abs")
    inv = inverse(F)
    assert inv.image_distance([1.0], [-1.0]) <= 1e-9
    assert inv.image_distance([1.0], [1.0]) <= 1e-9
    assert inv.image_distance([1.0], [0.5]) > 1e-9
    assert inv.image_distance([1.0], [0.5]) == pytest.approx(0.5, abs=1e-12)


def test_resolve_map_spec_combinators_and_errors():
    G, _ = resolve_map_spec({"id": "square_plus_identity"})
    assert G.image_distance([2.0], [6.0]) <= 1e-9
    H, _ = resolve_map_spec({"id": "inverse_abs"})
    assert H.image_distance([1.0], [-1.0]) <= 1e-9
    with pytest.raises(ValueError):
        resolve_map_spec({"id": "no_such_map"})
    with pytest.raises(ValueError):
        resolve_map_spec({"id": "abs", "wrap": [{"op": "no_such_wrap"}]})


def test_feature_points_respect_the_cap():
    F, _, _ = setup_map("xsin")
    pts = F.feature_points(np.zeros(1), 1e-4, 2e-4)
    assert len(pts) <= 24
    assert len(pts) > 0
