import math

import numpy as np
import pytest

import pins
from conftest import ladder12, setup_map
from subreglab.geometry import ScaleLadder, dual_kind, norms
from subreglab.mappings import GraphPoint, make_function_graph
from subreglab.variational import (
    CoderivElement,
    defect_quotients,
    element_quotient,
    elements_at_point,
    positive_homogeneity_test,
    semismooth_star_test,
)

def _elem(x, y, y_star, x_star, **kw):
    return CoderivElement(np.atleast_1d(np.asarray(x, float)),
                          np.atleast_1d(np.asarray(y, float)),
                          np.atleast_1d(np.asarray(y_star, float)),
                          np.atleast_1d(np.asarray(x_star, float)), **kw)


def test_element_quotient_closed_form():
    base = GraphPoint(np.zeros(1), np.zeros(1))
    # x = 0.5, y = 0.25, x* = 1, y* = 1 in l1/linf pairing:
    # numerator |0.5 - 0.25| = 0.25, product norm 0.75, dual norm 1
    e = _elem([0.5], [0.25], [1.0], [1.0])
    assert element_quotient(e, base, "l1") == pytest.approx(0.25 / 0.75, rel=1e-14)


def test_element_quotient_edge_cases():
    base = GraphPoint(np.zeros(1), np.zeros(1))
    at_base = _elem([0.0], [0.0], [1.0], [1.0])
    assert element_quotient(at_base, base, "l1") == 0.0
    zero_dual = _elem([0.5], [0.5], [0.0], [0.0])
    assert math.isinf(element_quotient(zero_dual, base, "l1"))


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
@pytest.mark.parametrize("dim_x, dim_y", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_defect_quotients_row_k_is_element_quotient(kind, dim_x, dim_y):
    # random elements around a random base, with rows at the base point
    # (dist 0), rows with a zero dual pair and rows with a NaN y*
    rng = np.random.default_rng(29 + 4 * dim_x + dim_y)
    n = 600
    base = GraphPoint(rng.normal(size=dim_x), rng.normal(size=dim_y))

    def wide(d):
        return rng.normal(size=(n, d)) * np.ldexp(1.0, rng.integers(-30, 31, (n, 1)))

    X, Y = base.x + wide(dim_x), base.y + wide(dim_y)
    X_star, Y_star = wide(dim_x), wide(dim_y)
    at_base = rng.random(n) < 0.1
    X[at_base], Y[at_base] = base.x, base.y
    zero = rng.random(n) < 0.1
    X_star[zero], Y_star[zero] = 0.0, 0.0
    Y_star[rng.random(n) < 0.1, 0] = np.nan
    DU, DV = X - base.x, Y - base.y
    got = defect_quotients(X_star, Y_star, DU, DV, norms(X_star, dual_kind(kind)),
                           norms(Y_star, dual_kind(kind)), norms(DU, kind) + norms(DV, kind))
    want = np.array([element_quotient(CoderivElement(x, y, ys, xs), base, kind)
                     for x, y, xs, ys in zip(X, Y, X_star, Y_star)])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert np.isnan(want).any() and np.isinf(want).any() and (want == 0.0).any()


def test_elements_at_point_use_the_analytic_oracle():
    F, base = setup_map("square")
    gp = GraphPoint(np.array([0.5]), np.array([0.25]))
    elems = elements_at_point(F, gp)
    assert elems
    for e in elems:
        # the graph of x^2 is smooth: x* = f'(x) y* = 2 * 0.5 * y*
        assert e.x_star[0] == pytest.approx(1.0 * e.y_star[0], rel=1e-12)
        assert e.eps == 0.0


@pytest.mark.parametrize("mid", ["abs", "square", "compl_angle"])
def test_semismooth_star_passes_on_benign_maps(mid):
    F, base = setup_map(mid)
    rep = semismooth_star_test(F, base, ladder12())
    assert rep.verdict == "pass"
    for delta, worst, n in rep.scales:
        assert delta > 0.0
        assert n >= 0


def test_semismooth_star_fails_on_the_oscillating_map():
    F, base = setup_map("oscillating")
    rep = semismooth_star_test(F, base, ladder12())
    assert rep.verdict == "fail"
    finite = [w for _, w, n in rep.scales if n > 0 and not math.isnan(w)]
    assert finite[-1] > 0.05  # the defect does not decay toward the base
    assert rep.worst_witness is not None


def test_semismooth_star_report_rows_are_triples():
    F, base = setup_map("abs")
    rep = semismooth_star_test(F, base, ScaleLadder(depth=4, samples_per_scale=64, seed=5))
    deltas = [row[0] for row in rep.scales]
    assert deltas == sorted(deltas, reverse=True)
    assert all(len(row) == 3 for row in rep.scales)


def test_positive_homogeneity_detects_cones_and_rejects_parabolas():
    cone = lambda X: np.abs(X) + 0.5 * X
    ok, err = positive_homogeneity_test(cone, np.zeros(1), "l1")
    assert ok and err <= 1e-12
    bent = lambda X: X ** 2
    ok, err = positive_homogeneity_test(bent, np.zeros(1), "l1")
    assert not ok
    assert err > 1e-3


def test_semismooth_star_on_a_smooth_graph_sees_curvature_decay():
    F = make_function_graph(np.sin,
                            grad=lambda X: (np.arange(len(X)), np.cos(X)[:, :, None]),
                            dim_x=1, dim_y=1, kind="l1", name="sin")
    base = GraphPoint(np.zeros(1), np.zeros(1))
    rep = semismooth_star_test(F, base, ladder12())
    assert rep.verdict == "pass"


# semismooth_star_test rows on xsin as hex floats (delta, worst quotient,
# element count) at ladder depth 8, 16 samples, seed 7
@pins.pinned("semismooth_xsin", ["xsin"])
def _semismooth_rows(mid: str) -> list:
    F, base = setup_map(mid)
    rep = semismooth_star_test(F, base, ScaleLadder(depth=8, samples_per_scale=16, seed=7))
    return [[*pins.hexes([d, w]), n] for d, w, n in rep.scales]


def test_semismooth_star_scales_are_pinned_on_xsin():
    assert _semismooth_rows("xsin") == pins.stored("semismooth_xsin", "xsin")
