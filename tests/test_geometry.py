import math

import numpy as np
import pytest

from subreglab.geometry import (
    NormContext,
    ScaleLadder,
    derive_seed,
    dual_kind,
    dual_norm,
    dual_sphere_grid,
    norm,
    norming_functional,
    norming_vector,
    pairing,
    product_norm,
    product_norm_dual,
    r2_lattice,
    sample_annulus,
)

KINDS = ("l1", "l2", "linf")


def test_norm_closed_forms():
    v = [3.0, -4.0]
    assert norm(v, "l1") == 7.0
    assert norm(v, "l2") == 5.0
    assert norm(v, "linf") == 4.0
    assert norm([0.0, 0.0], "l2") == 0.0


def test_norm_rejects_unknown_kind():
    with pytest.raises(ValueError):
        norm([1.0], "l3")


def test_dual_kind_pairing():
    assert dual_kind("l1") == "linf"
    assert dual_kind("linf") == "l1"
    assert dual_kind("l2") == "l2"


def test_dual_norm_is_norm_in_dual_kind():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=4)
        for kind in KINDS:
            assert dual_norm(v, kind) == norm(v, dual_kind(kind))


def test_pairing_is_euclidean_inner_product():
    assert pairing([1.0, -2.0], [3.0, 5.0]) == -7.0


def test_product_norms():
    x, y = [1.0, -1.0], [2.0]
    for kind in KINDS:
        assert product_norm(x, y, kind) == norm(x, kind) + norm(y, kind)
        assert product_norm_dual(x, y, kind) == max(
            dual_norm(x, kind), dual_norm(y, kind))


@pytest.mark.parametrize("kind", KINDS)
def test_norming_functional_attains_the_norm(kind):
    rng = np.random.default_rng(5)
    for _ in range(25):
        u = rng.normal(size=3)
        if norm(u, kind) == 0.0:
            continue
        u_star = norming_functional(u, kind)
        assert pairing(u_star, u) == pytest.approx(norm(u, kind), rel=1e-12)
        assert dual_norm(u_star, kind) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_norming_vector_pairs_to_exactly_one(kind):
    rng = np.random.default_rng(6)
    for _ in range(25):
        raw = rng.normal(size=3)
        y_star = raw / dual_norm(raw, kind)
        v = norming_vector(y_star, kind)
        assert pairing(y_star, v) == 1.0  # exact, builders rely on it
        assert norm(v, kind) == pytest.approx(1.0, abs=1e-9)


def test_norming_vector_rejects_non_unit_input():
    with pytest.raises(ValueError):
        norming_vector([2.0, 0.0], "l2")


def test_derive_seed_is_deterministic_and_tag_sensitive():
    a = derive_seed(7, 1, 31)
    assert a == derive_seed(7, 1, 31)
    seen = {derive_seed(7, j, tag) for j in range(16) for tag in (31, 37, 41)}
    assert len(seen) == 48
    assert all(isinstance(s, int) and s >= 0 for s in seen)


def test_r2_lattice_deterministic_unit_cube():
    pts = r2_lattice(64, 3, seed=9)
    assert pts.shape == (64, 3)
    assert np.all(pts >= 0.0) and np.all(pts < 1.0)
    assert np.array_equal(pts, r2_lattice(64, 3, seed=9))
    assert not np.array_equal(pts, r2_lattice(64, 3, seed=10))


@pytest.mark.parametrize("kind", KINDS)
def test_sample_annulus_respects_the_shell(kind):
    center = np.array([0.25, -1.0])
    for seed in range(4):
        pts = sample_annulus(center, 0.125, 0.25, 60, seed=seed, kind=kind)
        r = np.array([norm(p - center, kind) for p in pts])
        assert np.all(r > 0.125 - 1e-12)
        assert np.all(r <= 0.25 + 1e-12)
    again = sample_annulus(center, 0.125, 0.25, 60, seed=2, kind=kind)
    assert np.array_equal(again, sample_annulus(center, 0.125, 0.25, 60, seed=2, kind=kind))


def test_sample_annulus_rejects_bad_radii():
    with pytest.raises(ValueError):
        sample_annulus([0.0], 0.5, 0.25, 8)
    with pytest.raises(ValueError):
        sample_annulus([0.0], -1.0, 0.25, 8)


@pytest.mark.parametrize("kind", KINDS)
def test_dual_sphere_grid_unit_dual_vectors(kind):
    dk = dual_kind(kind)
    grid = dual_sphere_grid(kind, 3, m=24)
    assert len(grid) >= 6
    for v in grid:
        assert norm(v, dk) == pytest.approx(1.0, rel=1e-12)
    # the signed axes lead the grid in every kind
    axes = {tuple(np.sign(v)) for v in grid[:6]}
    assert len(axes) == 6


def test_dual_sphere_grid_dim_one():
    grid = dual_sphere_grid("l1", 1)
    assert sorted(v[0] for v in grid) == [-1.0, 1.0]


def test_scale_ladder_radii_and_annuli():
    lad = ScaleLadder(r0=0.5, theta=0.5, depth=4, samples_per_scale=8, seed=1)
    assert lad.radius(0) == 0.5
    assert lad.radius(3) == 0.0625
    assert [lad.radius(j) for j in range(4)] == [0.5, 0.25, 0.125, 0.0625]
    shells = lad.annuli()
    assert len(shells) == 4
    assert shells[0] == (0.25, 0.5)
    assert shells[-1] == (0.03125, 0.0625)


def test_scale_ladder_deepen_preserves_the_prefix():
    lad = ScaleLadder(depth=6, samples_per_scale=32, seed=3)
    deeper = lad.deepen(4)
    assert deeper.depth == 10
    assert [deeper.radius(j) for j in range(6)] == [lad.radius(j) for j in range(6)]
    assert deeper.seed == lad.seed
    assert deeper.scale_seed(2, tag=41) == lad.scale_seed(2, tag=41)


def test_scale_ladder_validation():
    with pytest.raises(ValueError):
        ScaleLadder(r0=0.0)
    with pytest.raises(ValueError):
        ScaleLadder(theta=1.0)
    with pytest.raises(ValueError):
        ScaleLadder(depth=0)
    with pytest.raises(ValueError):
        ScaleLadder(samples_per_scale=0)


def test_norm_context_dispatch():
    ctx = NormContext(kind="l1", dim_x=2, dim_y=1)
    assert dual_kind(ctx.kind) == "linf"
    assert ctx.norm([1.0, -2.0]) == 3.0
    assert ctx.dual_norm([1.0, -2.0]) == 2.0
    assert ctx.product_norm([1.0, -2.0], [4.0]) == 7.0
    assert ctx.product_norm_dual([1.0, -2.0], [4.0]) == 4.0
    with pytest.raises(ValueError):
        NormContext(kind="l7")
    with pytest.raises(ValueError):
        NormContext(kind="l1", dim_x=0)
