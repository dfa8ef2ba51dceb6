import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import ladder12, setup_map
import subreglab.moduli as moduli
from subreglab.geometry import NormContext, ScaleLadder, derive_seed
from subreglab.mappings import (
    GraphPoint,
    catalog,
    make_function_graph,
    make_linear_map,
    preimage_distance_fallback,
    resolve_map_spec,
)
from subreglab.moduli import (
    CONSTANT_KINDS,
    ElementRecords,
    Estimate,
    _pool_scales,
    _quotients,
    build_element_pool,
    check_relations,
    eckart_young_check,
    estimate_all_constants,
    estimate_clm,
    estimate_constant,
    estimate_lip,
    estimate_rg,
    estimate_srg,
    estimate_ssrg,
    subregularity_consistency,
)
from subreglab.perturb import _collect_candidates


def _finalized(vals, radii=None):
    est = Estimate(name="t")
    radii = radii or [0.5 * 0.5 ** j for j in range(len(vals))]
    est.per_scale = list(zip(radii, vals))
    return est.finalize()


def test_estimate_finalize_reports_the_innermost_value():
    est = _finalized([3.0, 2.0, 1.5])
    assert est.reported == 1.5
    assert est.trend == "decreasing"


def test_estimate_trend_labels():
    assert _finalized([1.0, 2.0, 3.0]).trend == "increasing"
    assert _finalized([1.0, 1.0, 1.0]).trend == "flat"
    assert _finalized([1.0, 2.0, 1.0]).trend == "oscillating"
    assert _finalized([math.inf, math.inf]).trend == "flat"


def test_estimate_convergence_rule():
    # |last - prev| <= max(1e-3, 0.02 |last|)
    assert _finalized([1.0, 1.0, 1.015]).converged
    assert not _finalized([1.0, 1.0, 1.05]).converged
    assert _finalized([0.0, 0.0005]).converged
    assert _finalized([math.inf, math.inf]).converged
    assert not _finalized([1.0, math.inf]).converged


def test_identity_moduli_are_exactly_one():
    F, base, ctx = setup_map("identity")
    lad = ladder12()
    for fn in (estimate_clm, estimate_lip, estimate_rg, estimate_srg, estimate_ssrg):
        est = fn(F, base, lad, ctx)
        assert est.reported == pytest.approx(1.0, abs=1e-9), fn.__name__
        assert est.converged


def test_scale_map_moduli_are_exactly_two():
    F, base, ctx = setup_map("scale")
    lad = ladder12()
    assert estimate_clm(F, base, lad, ctx).reported == pytest.approx(2.0, abs=1e-9)
    assert estimate_lip(F, base, lad, ctx).reported == pytest.approx(2.0, abs=1e-9)
    assert estimate_srg(F, base, lad, ctx).reported == pytest.approx(2.0, abs=1e-9)


def test_abs_map_moduli():
    F, base, ctx = setup_map("abs")
    lad = ladder12()
    assert estimate_clm(F, base, lad, ctx).reported == pytest.approx(1.0, abs=1e-9)
    assert estimate_srg(F, base, lad, ctx).reported == pytest.approx(1.0, abs=1e-9)
    assert estimate_ssrg(F, base, lad, ctx).reported == pytest.approx(1.0, abs=1e-9)


def test_square_map_clm_decays_with_the_ladder():
    # the calm quotient |x^2|/|x| equals |x|, so the reported value sits at
    # the finest sampled radius rather than at a fixed constant
    F, base, ctx = setup_map("square")
    lad = ladder12()
    est = estimate_clm(F, base, lad, ctx)
    assert est.reported <= 2.0 * lad.radius(lad.depth - 1)
    assert est.trend == "decreasing"


def test_zero_map_moduli():
    F, base, ctx = setup_map("zero")
    lad = ladder12()
    srg = estimate_srg(F, base, lad, ctx)
    assert math.isinf(srg.reported)
    assert "empty quotient set" in srg.note
    assert estimate_clm(F, base, lad, ctx).reported == 0.0
    assert estimate_lip(F, base, lad, ctx).reported == 0.0
    assert estimate_ssrg(F, base, lad, ctx).reported == 0.0


@pytest.mark.parametrize("mid", ["abs", "square"])
def test_a_tiny_negative_value_has_no_preimage(mid):
    # y < 0 has no real root however small |y| is; -0.0 has the root 0
    F, base, ctx = setup_map(mid)
    d = F.preimage_distance(np.array([[0.0], [1e-300], [0.5]]),
                            np.array([[-1e-300], [-5e-324], [-0.0]]))
    assert d.tolist() == [math.inf, math.inf, 0.5]
    # so rg reads 0 (the empty-preimage quotient) on ladders far below 1e-15
    for r0 in (1e-300, 1e-322):
        est = estimate_rg(F, base, ScaleLadder(r0=r0, depth=4, samples_per_scale=8, seed=7), ctx)
        assert [v for _, v in est.per_scale] == [0.0] * 4 and est.trend == "flat"


_NEWTON_NOTE = ("preimage distances are Newton projections onto the fibers, "
                "so they bound d(x, F^-1(y)) only from above")


def test_preimage_distances_the_fallback_misses_are_left_out():
    """The spiral's f made into a graph without grad has no Jacobian for
    the Newton projection, so no pair gets a preimage point: rg and srg
    read nan with a note, not 0.0 "converged"."""
    S, _ = resolve_map_spec({"id": "spiral"}, kind="l2")
    F = make_function_graph(S.func, dim_x=2, dim_y=2, kind="l2", name="spiral-without-grad")
    base = GraphPoint(np.zeros(2), np.zeros(2))
    ctx = NormContext(kind="l2", dim_x=2, dim_y=2)
    lad = ScaleLadder(depth=3, samples_per_scale=8, seed=7)
    assert math.isnan(preimage_distance_fallback(F, [0.1, 0.2], [0.05, 0.0]))
    for est in (estimate_rg(F, base, lad, ctx), estimate_srg(F, base, lad, ctx)):
        assert math.isnan(est.reported) and not est.converged
        assert all(math.isnan(v) for _, v in est.per_scale)
        assert est.note == ("no preimage point found for 24 of 24 pairs; "
                            "their quotients are left out; " + _NEWTON_NOTE)


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_newton_projection_estimates_rg_and_srg_of_spiral_plus_linear(kind):
    """spiral + linear has no preimage oracle, and DG(0) = diag(2, 0.5)
    gives rg = srg = 0.5 at the origin in every norm."""
    F, _ = resolve_map_spec({"id": "spiral", "wrap": [{"op": "sum", "fn": {"id": "linear"}}]},
                            kind=kind)
    base = GraphPoint(np.zeros(2), np.zeros(2))
    ctx = NormContext(kind=kind, dim_x=2, dim_y=2)
    for est in (estimate_rg(F, base, ladder12(), ctx), estimate_srg(F, base, ladder12(), ctx)):
        assert est.reported == pytest.approx(0.5, rel=0.05), est.name
        assert est.note == _NEWTON_NOTE


def _plus_half_x(mid: str):
    """The catalog map mid plus x -> 0.5 x (l1), its base and context: a
    1-D map without func or preimage oracle."""
    F, _ = resolve_map_spec({"id": mid, "wrap": [{"op": "sum", "fn": {
        "id": "scale", "params": {"lam": 0.5}}}]})
    assert F.func is None and F.preimage_distance is None
    return F, GraphPoint(np.zeros(1), np.zeros(1)), NormContext(kind="l1", dim_x=1, dim_y=1)


def test_interval_plus_scale_finds_every_preimage_point():
    # the scan refines the touches of d(y, F(z)): every pair gets a point
    F, base, ctx = _plus_half_x("interval")
    est = estimate_srg(F, base, ScaleLadder(depth=6, samples_per_scale=32, seed=7), ctx)
    assert "no preimage point found" not in est.note
    assert est.reported == pytest.approx(1.5, rel=1e-9)


def test_complementarity_angle_plus_scale_takes_infinite_image_distances():
    # d(y, F(z)) is inf for z < 0; the scan reads it without a RuntimeWarning
    # (warnings are errors here). F(x) = {x / 2} for x > 0, so srg = 0.5;
    # y < 0 has an empty preimage, which a scan of touches cannot tell from
    # a missed one, so rg leaves those pairs out with a note
    F, base, ctx = _plus_half_x("compl_angle")
    lad = ScaleLadder(depth=6, samples_per_scale=32, seed=7)
    srg = estimate_srg(F, base, lad, ctx)
    assert srg.reported == pytest.approx(0.5, rel=1e-9) and srg.note == ""
    rg = estimate_rg(F, base, lad, ctx)
    assert rg.note.startswith("no preimage point found for ")


def test_an_empty_innermost_annulus_is_named_in_the_note():
    """None of the points the inverse of xsin draws at one sample per scale
    falls in the fourth annulus, so clm reads nan there; the note says
    which annulus held no graph point."""
    F, _ = resolve_map_spec({"id": "xsin", "wrap": [{"op": "inverse"}]})
    base = GraphPoint(np.zeros(1), np.zeros(1))
    ctx = NormContext(kind="l1", dim_x=1, dim_y=1)
    est = estimate_clm(F, base, ScaleLadder(depth=4, samples_per_scale=1, seed=7), ctx)
    assert math.isnan(est.reported) and not math.isnan(est.per_scale[-2][1])
    assert est.note == ("annulus 3 (0.0312, 0.0625] held no graph point, "
                        "so the innermost scale reads nan")
    # an innermost annulus with a point leaves the note empty
    assert estimate_lip(F, base, ScaleLadder(depth=4, samples_per_scale=1, seed=7),
                        ctx).note == ""


def test_linear_map_rg_matches_the_smallest_singular_value():
    A = np.array([[2.0, 0.0], [0.0, 0.5]])
    F = make_linear_map(A, kind="l2")
    base = GraphPoint(np.zeros(2), np.zeros(2))
    ctx = NormContext(kind="l2", dim_x=2, dim_y=2)
    lad = ScaleLadder(depth=8, samples_per_scale=512, seed=7)
    est = estimate_rg(F, base, lad, ctx, pairs_per_scale=512)
    assert abs(est.reported - 0.5) / 0.5 <= 0.05


def test_xsin_constants():
    F, base, ctx = setup_map("xsin")
    sx = estimate_all_constants(F, base, ladder12(), ctx)
    assert sx["srg2"].reported <= 1e-10
    assert sx["srg4"].reported == pytest.approx(1.0, abs=0.05)
    assert sx["srg4p"].reported == pytest.approx(1.0, abs=0.05)
    est = estimate_clm(F, base, ladder12(), ctx)
    assert est.reported == pytest.approx(1.0, abs=0.02)


def test_interval_ssrg_vanishes_on_the_reciprocal_fibers():
    F, base, ctx = setup_map("interval")
    est = estimate_ssrg(F, base, ladder12(), ctx)
    assert est.reported == 0.0
    assert est.witnesses
    for w in est.witnesses:
        xv = float(np.atleast_1d(w["x"])[0])
        k = round(1.0 / xv)
        assert k >= 1
        assert xv == pytest.approx(1.0 / k, rel=1e-9)


def test_estimators_are_deterministic():
    A = np.array([[2.0, 0.0], [0.0, 0.5]])
    F = make_linear_map(A, kind="l2")
    base = GraphPoint(np.zeros(2), np.zeros(2))
    ctx = NormContext(kind="l2", dim_x=2, dim_y=2)
    lad = ScaleLadder(depth=8, samples_per_scale=256, seed=7)
    a = estimate_rg(F, base, lad, ctx)
    b = estimate_rg(F, base, lad, ctx)
    assert a.per_scale == b.per_scale
    assert a.reported == b.reported
    c = estimate_rg(F, base, ScaleLadder(depth=8, samples_per_scale=256, seed=8), ctx)
    assert c.per_scale != a.per_scale  # seed actually feeds the sampler


@pytest.mark.parametrize("mid", ["identity", "abs", "interval"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dual_constants_per_scale_never_decrease(mid, seed):
    """Infima over shrinking element pools can only go up toward the base."""
    F, base, ctx = setup_map(mid)
    lad = ScaleLadder(depth=10, samples_per_scale=256, seed=seed)
    consts = estimate_all_constants(F, base, lad, ctx)
    for name in ("srg1", "srg2", "srg4"):
        vals = [v for _, v in consts[name].per_scale]
        for a, b in zip(vals, vals[1:]):
            if math.isinf(a):
                assert math.isinf(b)
            else:
                assert b >= a - 1e-12, (name, vals)


def test_all_constants_share_one_element_pool():
    F, base, ctx = setup_map("identity")
    consts = estimate_all_constants(F, base, ladder12(), ctx)
    ids = {e.pool_id for e in consts.values()}
    assert len(ids) == 1


def test_check_relations_rejects_mixed_pools():
    F, base, ctx = setup_map("identity")
    consts = estimate_all_constants(F, base, ladder12(), ctx)
    consts["srg1"].pool_id = "someone_else"
    with pytest.raises(ValueError, match="different pools"):
        check_relations(consts)


@pytest.mark.parametrize("mid", ["identity", "abs", "xsin"])
def test_check_relations_zero_slack(mid):
    F, base, ctx = setup_map(mid)
    consts = estimate_all_constants(F, base, ladder12(), ctx)
    rel = check_relations(consts)
    assert rel["ok"], rel
    for row in rel["relations"]:
        assert row["ok"]
        assert row["violation"] == 0.0


def test_subregularity_consistency_alarm():
    good = subregularity_consistency(_finalized([1.0, 1.0]), _finalized([1.0, 1.0]))
    assert good["ok"]
    bad = subregularity_consistency(_finalized([1.0, 1.0]), _finalized([0.0, 0.0]))
    assert not bad["ok"]
    assert "contradicts" in bad["message"]
    # a dual constant at 0 asserts nothing about the primal one
    quiet = subregularity_consistency(_finalized([0.0, 0.0]), _finalized([0.0, 0.0]))
    assert quiet["ok"]


def test_eckart_young_check_on_a_fixed_matrix():
    A = np.array([[2.0, 0.0], [0.0, 0.5]])
    out = eckart_young_check(A, seed=3)
    assert out["sigma_min"] == pytest.approx(0.5, rel=1e-14)
    assert out["b_norm_error"] <= 1e-12
    assert abs(out["det_after"]) <= 1e-12
    assert out["rg_rel_error"] <= 0.05
    assert out["ok"]


def test_eckart_young_check_on_a_random_matrix():
    rng = np.random.default_rng(17)
    A = rng.normal(size=(3, 3)) + 0.5 * np.eye(3)
    out = eckart_young_check(A, seed=5)
    sig = np.linalg.svd(A, compute_uv=False)[-1]
    assert out["sigma_min"] == pytest.approx(sig, rel=1e-12)
    assert out["ok"], out


# per_scale values of rg and srg on the maps without a preimage oracle, as
# hex floats, at ladder depth 8, 16 samples, seed 7. They pin the bits of
# the preimage root finder (mappings._nearest_roots_1d) across code changes.
_FALLBACK_PIN = {
    ('xsin', 'rg'): [
        '0x0.0p+0',
        '0x0.0p+0',
        '0x1.a6353a91ab894p-2',
        '0x1.a6353a91ab894p-2',
        '0x1.7bbbe2089aa11p-1',
        '0x1.9ba3559f56bc6p-1',
        '0x1.9ba3559f56bc6p-1',
        '0x1.9ba3559f56bc6p-1',
    ],
    ('xsin', 'srg'): [
        '0x1.42e5e8d966708p+1',
        '0x1.80bf32bf4af04p+1',
        '0x1.d6e98c399fa6fp+2',
        '0x1.cc5d2002083c8p+3',
        '0x1.b41bfa832c3a2p+4',
        '0x1.a301ca3e47132p+5',
        '0x1.c0653d282309ep+6',
        '0x1.d52e293c71c90p+7',
    ],
    ('oscillating', 'rg'): [
        '0x1.f95381e08a0c8p-6',
        '0x1.0254d540cf52dp-5',
        '0x1.0254d540cf52dp-5',
        '0x1.0254d540cf52dp-5',
        '0x1.0254d540cf52dp-5',
        '0x1.5c9c39611c64cp-4',
        '0x1.a0ec2198b62bdp-2',
        '0x1.a0ec2198b62bdp-2',
    ],
    ('oscillating', 'srg'): [
        '0x1.5be30a4b1377ap-1',
        '0x1.5be30a4b1377ap-1',
        '0x1.5be30a4b1377ap-1',
        '0x1.5be30a4b1377ap-1',
        '0x1.5be30a4b1377ap-1',
        '0x1.0264f7f69cb9ap+0',
        '0x1.18a1033f6c64dp+0',
        '0x1.18a1033f6c64dp+0',
    ],
    ('square_plus_identity', 'rg'): [
        '0x0.0p+0',
        '0x1.8bac683dc7fe3p-2',
        '0x1.7e30d40e06e77p-1',
        '0x1.c69caf83b8c38p-1',
        '0x1.e477aa15ce56fp-1',
        '0x1.f361caca2ac6fp-1',
        '0x1.f865a25eace6ep-1',
        '0x1.fc55898227f29p-1',
    ],
    ('square_plus_identity', 'srg'): [
        '0x1.04f8f80af3688p-1',
        '0x1.8b376fdf8bc3dp-1',
        '0x1.c315f8748f028p-1',
        '0x1.e035772bad3e2p-1',
        '0x1.f0c561456636fp-1',
        '0x1.f88d1c3ba88fcp-1',
        '0x1.fc596b31ff8d2p-1',
        '0x1.fe0ea7109907bp-1',
    ],
}


@pytest.mark.parametrize("mid,name", sorted(_FALLBACK_PIN))
def test_fallback_moduli_bits_are_pinned(mid, name):
    F, base, ctx = setup_map(mid)
    ladder = ScaleLadder(depth=8, samples_per_scale=16, seed=7)
    est = {"rg": estimate_rg, "srg": estimate_srg}[name](F, base, ladder, ctx)
    assert [float(v).hex() for _, v in est.per_scale] == _FALLBACK_PIN[(mid, name)]


# sha256 of the hex floats, one a line, of every distance that
# preimage_distances_fallback returns to estimate_rg and then estimate_srg
# (256 pairs), at ladder depth 8, 16 samples, l1. _FALLBACK_PIN pins only
# the pooled per-scale minima; these pin each pair's root-finder result.
_FALLBACK_PAIR_DIGESTS = {
    ("oscillating", 7): "3feef741d49ac7fdf59dfc5d27ebdd201f28b2a416dd9938d89aedb857adb1ab",
    ("oscillating", 23): "847aa1bb5704572f9a8ee1bbeba14b1e049f256eaa16076284ca07ea59f0c922",
    ("square_plus_identity", 7): "ce79de59a9487354b1a8a712ea1a9c9373886147fb299ab561ac5f63b44cfe5d",
    ("square_plus_identity", 23): "ae7bf343041d0ab8a78773d321c7654d50985eb5f89d5bb872d7fbf86f454869",
    ("xsin", 7): "e45c0229bf9fc2e9f1f71de8e9b837dcd139a54b771ea3a2da28fd1c1925a71c",
    ("xsin", 23): "b1fa8a785199322c0b464fcad0dc2ad935f8c7b1bb14ceec8724312af456dc56",
}


@pytest.mark.parametrize("mid,seed", sorted(_FALLBACK_PAIR_DIGESTS))
def test_fallback_pair_distances_are_pinned(mid, seed, monkeypatch):
    F, base, ctx = setup_map(mid)
    ladder = ScaleLadder(depth=8, samples_per_scale=16, seed=seed)
    seen = []
    batched = moduli.preimage_distances_fallback
    monkeypatch.setattr(moduli, "preimage_distances_fallback",
                        lambda *a: seen.append(batched(*a)) or seen[-1])
    estimate_rg(F, base, ladder, ctx)
    estimate_srg(F, base, ladder, ctx)
    dist = np.concatenate(seen)
    assert len(seen) == 2 and len(dist) == 256
    text = "\n".join(float(v).hex() for v in dist)
    assert hashlib.sha256(text.encode()).hexdigest() == _FALLBACK_PAIR_DIGESTS[(mid, seed)]


# per_scale values of the graph-sampled moduli clm, lip and ssrg, as hex
# floats, at ladder depth 8, 16 samples, seed 7: xsin and oscillating are 1-D
# maps with feature points, spiral (l2) takes lip's stride-pair branch. They
# pin the per-annulus graph sampler and the suffix pooling across code changes.
_GRAPH_PIN = {
    ('oscillating', 'clm'): [
        '0x1.0000000000000p+0',
        '0x1.0000000000000p+0',
        '0x1.0000000000000p+0',
        '0x1.0000000000000p+0',
        '0x1.0000000000000p+0',
        '0x1.0000000000000p+0',
        '0x1.f64971a1a16f5p-1',
        '0x1.557fdfcd55281p-1',
    ],
    ('oscillating', 'lip'): [
        '0x1.6a08c9f7fb8bbp+0',
        '0x1.6a08c9f7fb8bbp+0',
        '0x1.6a08c9f7fb8bbp+0',
        '0x1.69c8391bd5277p+0',
        '0x1.69c8391bd5277p+0',
        '0x1.69c8391bd5277p+0',
        '0x1.69c8391bd5277p+0',
        '0x1.677395cfcb5bcp+0',
    ],
    ('oscillating', 'ssrg'): [
        '0x1.1a62633145c07p-53',
        '0x1.1a62633145c07p-53',
        '0x1.1a62633145c07p-53',
        '0x1.1a62633145c07p-53',
        '0x1.19ac51fd123c9p-3',
        '0x1.19ac51fd123c9p-3',
        '0x1.19ac51fd123c9p-3',
        '0x1.19ac51fd123c9p-3',
    ],
    ('spiral', 'clm'): [
        '0x1.fd556ac6ba9edp-2',
        '0x1.f590950149e08p-3',
        '0x1.f98bfa48059f5p-4',
        '0x1.ffb9fac9a34c4p-5',
        '0x1.eff2ff5a6e4c2p-6',
        '0x1.f048c275d1857p-7',
        '0x1.f70b67a9a5a36p-8',
        '0x1.f2714f01b1d5ap-9',
    ],
    ('spiral', 'lip'): [
        '0x1.cc41fc9dbaf68p-1',
        '0x1.93bdeccc595e4p-2',
        '0x1.a595489dae760p-3',
        '0x1.9cb6e816d7b9ap-4',
        '0x1.b1950345c2c57p-5',
        '0x1.7561c6ded496fp-6',
        '0x1.4faffbc516c67p-7',
        '0x1.88cd3d0cf0296p-8',
    ],
    ('spiral', 'ssrg'): [
        '0x1.14b778c3e8c20p-9',
        '0x1.14b778c3e8c20p-9',
        '0x1.14b778c3e8c20p-9',
        '0x1.14b778c3e8c20p-9',
        '0x1.14b778c3e8c20p-9',
        '0x1.14b778c3e8c20p-9',
        '0x1.14b778c3e8c20p-9',
        '0x1.14b778c3e8c20p-9',
    ],
    ('xsin', 'clm'): [
        '0x1.0000000000000p+0',
        '0x1.0000000000000p+0',
        '0x1.0000000000000p+0',
        '0x1.0000000000000p+0',
        '0x1.0000000000000p+0',
        '0x1.0000000000000p+0',
        '0x1.0000000000000p+0',
        '0x1.0000000000000p+0',
    ],
    ('xsin', 'lip'): [
        '0x1.4467675b33dc7p+8',
        '0x1.4467675b33dc7p+8',
        '0x1.4467675b33dc7p+8',
        '0x1.4467675b33dc7p+8',
        '0x1.4467675b33dc7p+8',
        '0x1.4467675b33dc7p+8',
        '0x1.4467675b33dc7p+8',
        '0x1.4467675b33dc7p+8',
    ],
    ('xsin', 'ssrg'): [
        '0x1.1a62633145c07p-53',
        '0x1.1a62633145c07p-52',
        '0x1.a79394c9e8a0ap-52',
        '0x1.a79394c9e8a0ap-51',
        '0x1.1abdbb9ea8e6ep-50',
        '0x1.1abdbb9ea8e6ep-50',
        '0x1.a7eeed374bc71p-48',
        '0x1.1a7383c5c857ap-45',
    ],
}


@pytest.mark.parametrize("mid,name", sorted(_GRAPH_PIN))
def test_graph_moduli_bits_are_pinned(mid, name):
    F, base, ctx = setup_map(mid, "l2" if mid == "spiral" else "l1")
    ladder = ScaleLadder(depth=8, samples_per_scale=16, seed=7)
    fn = {"clm": estimate_clm, "lip": estimate_lip, "ssrg": estimate_ssrg}[name]
    est = fn(F, base, ladder, ctx)
    assert [float(v).hex() for _, v in est.per_scale] == _GRAPH_PIN[(mid, name)]


# per_scale values of clm, lip, rg and srg on the maps whose image and
# preimage oracles no other pin reaches (rg and srg alone on spiral, whose
# graph moduli _GRAPH_PIN holds), as hex floats at ladder depth 8, 16
# samples, seed 7, kept in oracle_pins.json under "map/norm/estimator"
_ORACLE_PIN = json.loads((Path(__file__).parent / "oracle_pins.json").read_text())


@pytest.mark.parametrize("key", sorted(_ORACLE_PIN))
def test_oracle_moduli_bits_are_pinned(key):
    mid, kind, name = key.split("/")
    F, base, ctx = setup_map(mid, kind)
    ladder = ScaleLadder(depth=8, samples_per_scale=16, seed=7)
    fn = {"clm": estimate_clm, "lip": estimate_lip, "rg": estimate_rg, "srg": estimate_srg}[name]
    est = fn(F, base, ladder, ctx)
    assert [float(v).hex() for _, v in est.per_scale] == _ORACLE_PIN[key]


# per_scale values of estimate_rg and estimate_srg on linear maps, as hex
# floats, taken while both still asked for one pair at a time: the default
# linear map in l1 and l2 at depth 8, 96 samples, seed 7, and _EY_MATRIX (the
# first matrix of the eckart_young task at seed 7) in l2 on the ladder of
# eckart_young_check for that matrix, 320 pairs per scale
_EY_MATRIX = [[float.fromhex(v) for v in row] for row in (
    ('0x1.a37f7d955418fp+0', '-0x1.47c6a24a5cc0fp-4', '0x1.3b64885ed7b8bp-3'),
    ('0x1.de0b0ff011ba0p-3', '0x1.8edcd8e761271p+0', '0x1.95783601a3910p-2'),
    ('0x1.29837f8cd514dp-3', '-0x1.46d5ef2f6bafcp-3', '0x1.cb51ccf243685p+0'),
)]
_LINEAR_PIN = {
    ('linear', 'l1', 'rg'): [
        '0x1.000cae1b7fae4p-1',
        '0x1.000cae1b7fae4p-1',
        '0x1.000cae1b7fae4p-1',
        '0x1.000cae1b7fae4p-1',
        '0x1.000cae1b7fae4p-1',
        '0x1.000cae1b7fae4p-1',
        '0x1.000cae1b7fae4p-1',
        '0x1.04cba7b84ea8ap-1',
    ],
    ('linear', 'l1', 'srg'): [
        '0x1.00f119d01edb7p-1',
        '0x1.00f119d01edb7p-1',
        '0x1.00f119d01edb7p-1',
        '0x1.00f119d01edb7p-1',
        '0x1.00f119d01edb7p-1',
        '0x1.00f119d01edb7p-1',
        '0x1.07fc0ffbb0664p-1',
        '0x1.16c1fa6ea47e6p-1',
    ],
    ('linear', 'l2', 'rg'): [
        '0x1.00000160c222cp-1',
        '0x1.00000160c222cp-1',
        '0x1.00000160c222cp-1',
        '0x1.00000160c222cp-1',
        '0x1.00000160c222cp-1',
        '0x1.00000160c222cp-1',
        '0x1.00000160c222cp-1',
        '0x1.00013f457bcc4p-1',
    ],
    ('linear', 'l2', 'srg'): [
        '0x1.0000bdb005713p-1',
        '0x1.0000bdb005713p-1',
        '0x1.0000bdb005713p-1',
        '0x1.0000bdb005713p-1',
        '0x1.0000bdb005713p-1',
        '0x1.0000bdb005713p-1',
        '0x1.003638e31e4bfp-1',
        '0x1.01c85760f8046p-1',
    ],
    ('eckart', 'l2', 'rg'): [
        '0x1.8897aab1841e0p+0',
        '0x1.8897aab1841e0p+0',
        '0x1.8897aab1841e0p+0',
        '0x1.8897aab1841e0p+0',
        '0x1.8897aab1841e0p+0',
        '0x1.8897aab1841e0p+0',
        '0x1.8897aab1841e0p+0',
        '0x1.89a1cc4d3f1bbp+0',
    ],
    ('eckart', 'l2', 'srg'): [
        '0x1.88a5b1c8a89b3p+0',
        '0x1.88a5b1c8a89b3p+0',
        '0x1.88c490c01847bp+0',
        '0x1.88c490c01847bp+0',
        '0x1.88c490c01847bp+0',
        '0x1.88c490c01847bp+0',
        '0x1.88c490c01847bp+0',
        '0x1.88c490c01847bp+0',
    ],
}


def _linear_case(mid: str, kind: str):
    if mid == "linear":
        F, base, ctx = setup_map(mid, kind)
        return F, base, ctx, ScaleLadder(depth=8, samples_per_scale=96, seed=7), None
    F = make_linear_map(_EY_MATRIX, kind)
    base = GraphPoint(np.zeros(3), np.zeros(3))
    ladder = ScaleLadder(r0=0.5, theta=0.5, depth=8, samples_per_scale=320,
                         seed=derive_seed(7, 151, 0))
    return F, base, NormContext(kind=kind, dim_x=3, dim_y=3), ladder, 320


@pytest.mark.parametrize("mid,kind,name", sorted(_LINEAR_PIN))
def test_linear_rg_and_srg_bits_are_pinned(mid, kind, name):
    F, base, ctx, ladder, pairs = _linear_case(mid, kind)
    est = (estimate_rg(F, base, ladder, ctx, pairs_per_scale=pairs) if name == "rg"
           else estimate_srg(F, base, ladder, ctx))
    assert [float(v).hex() for _, v in est.per_scale] == _LINEAR_PIN[(mid, kind, name)]


def test_rg_and_srg_ask_a_linear_map_for_no_single_pair():
    # every pair of the ladder goes through one image-distance call, and the
    # pairs off the preimage through one preimage-distance call
    F, base, ctx, ladder, pairs = _linear_case("eckart", "l2")
    calls = []

    def counted(name, oracle):
        def rows(X, Y):
            calls.append((name, len(X)))
            return oracle(X, Y)

        return rows

    G = dataclasses.replace(F, image_distance=counted("image", F.image_distance),
                            preimage_distance=counted("preimage", F.preimage_distance))
    for est, n in ((lambda: estimate_rg(G, base, ladder, ctx, pairs_per_scale=pairs), 320),
                   (lambda: estimate_srg(G, base, ladder, ctx), 96)):
        calls.clear()
        est()
        assert [name for name, _ in calls] == ["image", "preimage"]
        assert calls[0][1] == 8 * n and 0 < calls[1][1] <= 8 * n


# ssrg witnesses as hex floats (x, then y, then ratio) at the same ladder: on
# interval the exact zero quotients of the reciprocal fibers, up to four per
# annulus; on spiral no quotient vanishes, so the one witness is the pooled
# minimizer, the first one met from the innermost annulus outward
_SSRG_WITNESS_PIN = {
    ("interval", "l1"): [
        ('0x1.0000000000000p-1', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.5555555555555p-2', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.0000000000000p-2', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.0000000000000p-1', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.0000000000000p-2', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.999999999999ap-3', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.5555555555555p-3', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.2492492492492p-3', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.0000000000000p-3', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.c71c71c71c71cp-4', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.999999999999ap-4', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.745d1745d1746p-4', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.0000000000000p-4', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.e1e1e1e1e1e1ep-5', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.af286bca1af28p-5', '0x0.0p+0', '0x0.0p+0'),
        ('0x1.999999999999ap-5', '0x0.0p+0', '0x0.0p+0'),
    ],
    ("spiral", "l2"): [
        ('-0x1.e34a81467b521p-10', '-0x1.0da9cb65e0badp-10', '0x1.3a29f9b6557c8p-19', '0x1.fd15d602d0466p-19', '0x1.14b778c3e8c20p-9'),
    ],
}


@pytest.mark.parametrize("mid,kind", sorted(_SSRG_WITNESS_PIN))
def test_ssrg_witness_bits_are_pinned(mid, kind):
    F, base, ctx = setup_map(mid, kind)
    est = estimate_ssrg(F, base, ScaleLadder(depth=8, samples_per_scale=16, seed=7), ctx)
    got = [tuple(float(c).hex() for c in w["x"] + w["y"] + [w["ratio"]])
           for w in est.witnesses]
    assert got == _SSRG_WITNESS_PIN[(mid, kind)]


@pytest.mark.parametrize("mid,theta", [("oscillating", 0.5), ("xsin", 0.04)])
def test_ssrg_lists_ratio_zero_witnesses_only_when_it_reports_zero(mid, theta):
    """Outer annuli of these ladders hold graph points of ratio 0 while the
    innermost one does not, so the reported value is positive; it comes
    with the pooled winner under its own value, not with ratio-0 points."""
    F, base, ctx = setup_map(mid, "l1")
    est = estimate_ssrg(F, base, ScaleLadder(theta=theta, depth=8, samples_per_scale=16, seed=7),
                        ctx)
    assert est.reported > 1e-12
    assert [w["ratio"] for w in est.witnesses] == [est.reported]


# every CatalogEntry.known value against its estimate; the ladder takes r0,
# theta and depth from the entry's ladder_hint, else r0 0.5, theta 0.5 and
# depth 8, whose innermost radius is 0.0039. An infinite value must match
# exactly, a finite one within _KNOWN_TOL: the widest miss is linear rg in l1
# (0.5094, a sampled infimum over 64 pairs per annulus).
_ESTIMATORS = {"clm": estimate_clm, "lip": estimate_lip, "rg": estimate_rg,
               "srg": estimate_srg, "ssrg": estimate_ssrg}
_KNOWN_TOL = 0.01


@pytest.mark.parametrize("kind", ["l1", "l2"])
@pytest.mark.parametrize("mid", sorted(m for m, e in catalog().items() if e.known))
def test_every_known_catalog_value_is_estimated(mid, kind):
    entry = catalog()[mid]
    F, base, ctx = setup_map(mid, kind)
    hint = entry.ladder_hint
    ladder = ScaleLadder(r0=hint.get("r0", 0.5), theta=hint.get("theta", 0.5),
                         depth=hint.get("depth", 8), samples_per_scale=64, seed=7)
    consts = (estimate_all_constants(F, base, ladder, ctx)
              if set(entry.known) - set(_ESTIMATORS) else {})
    misses = []
    for name, known in entry.known.items():
        est = consts[name] if name in consts else _ESTIMATORS[name](F, base, ladder, ctx)
        got = est.reported
        want = known["value"]
        if not (got == want if math.isinf(want) else abs(got - want) <= _KNOWN_TOL):
            misses.append((name, got, want))
    assert not misses


# the per-pair loops that _quotients replaced in estimate_rg and estimate_srg,
# as they were written there, each giving the quotients of every annulus
def _loop_rg(ann, dimgs, dpres, depth):
    per_annulus = [[] for _ in range(depth)]
    for j, dimg, dpre in zip(ann, dimgs, dpres):
        if dpre == 0.0 or math.isnan(dpre):
            continue
        if math.isinf(dpre):
            if not math.isinf(dimg):
                per_annulus[j].append(0.0)
            continue
        if math.isinf(dimg):
            continue
        per_annulus[j].append(dimg / dpre)
    return [[v for v in vals if not math.isnan(v)] for vals in per_annulus]


def _loop_srg(ann, dimgs, dpres, depth):
    per_annulus = [[] for _ in range(depth)]
    for j, dimg, dpre in zip(ann, dimgs, dpres):
        if dpre == 0.0 or math.isnan(dpre) or math.isinf(dimg):
            continue
        per_annulus[j].append(dimg / dpre if not math.isinf(dpre) else 0.0)
    return per_annulus


def _check_quotients(ann, dimg, dpre, depth):
    for loop, drop_nan in ((_loop_rg, True), (_loop_srg, False)):
        lists = loop(ann.tolist(), dimg.tolist(), dpre.tolist(), depth)
        got_ann, got = _quotients(ann, dimg, dpre, drop_nan)
        assert got_ann.tolist() == [j for j, vals in enumerate(lists) for _ in vals]
        assert [float(v).hex() for v in got] == [float(v).hex() for vals in lists for v in vals], \
            (ann, dimg, dpre, drop_nan)


def test_quotients_match_the_loops_they_replaced():
    # pairs come in ladder order, so the annuli ascend
    rng = np.random.default_rng(11)
    atoms = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, 1.0, 1.0, 2.0])
    for _ in range(400):
        depth, n = int(rng.integers(1, 6)), int(rng.integers(0, 12))
        _check_quotients(np.sort(rng.integers(0, depth, n)), atoms[rng.integers(0, 9, n)],
                         atoms[rng.integers(0, 9, n)], depth)
    # the branches no pin reaches: a nan image distance over an infinite
    # preimage distance gives 0.0, and over a finite one rg drops it and srg
    # keeps the nan
    ann, dimg, dpre = np.array([0, 1]), np.array([math.nan, math.nan]), np.array([math.inf, 2.0])
    _check_quotients(ann, dimg, dpre, 2)
    assert [float(v).hex() for v in _quotients(ann, dimg, dpre, True)[1]] == ["0x0.0p+0"]
    assert [float(v).hex() for v in _quotients(ann, dimg, dpre, False)[1]] == ["0x0.0p+0", "nan"]


# the five suffix loops that _pool_scales replaced, as they were written in
# estimate_clm, estimate_lip, _fill_suffix_min (rg, srg) and estimate_ssrg
def _loop_max(per_annulus, skip_inf):
    acc, out = -math.inf, []
    for vals in reversed(per_annulus):
        for v in vals:
            if not (skip_inf and math.isinf(v)):
                acc = max(acc, v)
        out.append(acc if acc > -math.inf else math.nan)
    return out[::-1]


def _loop_min(per_annulus, empty):
    acc, seen, out = math.inf, False, []
    for vals in reversed(per_annulus):
        for v in vals:
            seen = True
            if v < acc:
                acc = v
        out.append(acc if seen else empty)
    return out[::-1]


def _loop_ssrg(per_annulus):
    acc, best, out = math.inf, None, []
    for j in range(len(per_annulus) - 1, -1, -1):
        for i, v in enumerate(per_annulus[j]):
            if v < acc:
                acc, best = v, (j, i)
        out.append(acc)
    return out[::-1], best


def _random_annuli(rng):
    atoms = [math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, 1.0, 1.0, 2.0]
    return [[atoms[k] for k in rng.integers(0, len(atoms), rng.integers(0, 4))]
            for _ in range(int(rng.integers(1, 6)))]


def _hex_list(vals):
    return [float(v).hex() for v in vals]


def _flat(lists):
    """Per-annulus lists flattened to values and their annuli."""
    vals = np.array([v for vs in lists for v in vs], dtype=float)
    ann = np.array([j for j, vs in enumerate(lists) for _ in vs], dtype=int)
    return vals, ann


def _check_pool_scales(per_annulus):
    depth = len(per_annulus)
    ladder = ScaleLadder(depth=depth, samples_per_scale=1, seed=0)
    no_inf = [[v for v in vals if not math.isinf(v)] for vals in per_annulus]
    cases = [
        (dict(largest=True), per_annulus, lambda pa: _loop_max(pa, False)),  # clm
        (dict(largest=True), no_inf, lambda pa: _loop_max(pa, True)),  # lip
        ({}, per_annulus, lambda pa: _loop_min(pa, math.nan)),  # rg
        (dict(empty=math.inf), per_annulus, lambda pa: _loop_min(pa, math.inf)),  # srg
        (dict(empty=math.inf), per_annulus, lambda pa: _loop_ssrg(pa)[0]),  # ssrg
    ]
    for kwargs, lists, loop in cases:
        vals, ann = _flat(lists)
        got, own, win = _pool_scales(vals, ann, ladder, **kwargs)
        assert [r for r, _ in got] == [ladder.radius(j) for j in range(depth)]
        assert _hex_list(v for _, v in got) == _hex_list(loop(per_annulus)), (per_annulus, kwargs)
        # each annulus's own extremum is what the loop reads from that annulus alone
        assert _hex_list(own) == _hex_list(loop([vs])[0] for vs in per_annulus), \
            (per_annulus, kwargs)
    # the winner's index mapped back to its (annulus, index in the annulus)
    assert (None if win is None else (int(ann[win]), int(win - np.argmax(ann == ann[win])))
            ) == _loop_ssrg(per_annulus)[1]


def test_pool_scales_matches_the_loops_it_replaced():
    rng = np.random.default_rng(5)
    for _ in range(400):
        _check_pool_scales(_random_annuli(rng))
    # the per-annulus extrema on each branch: a NaN-only annulus, an empty
    # one, signed zeros in both orders, +inf with NaN, and a tie
    nan, inf = math.nan, math.inf
    lists = [[nan], [], [-0.0, 0.0], [0.0, -0.0], [inf, nan], [1.0, 2.0, 2.0]]
    _check_pool_scales(lists)
    ladder = ScaleLadder(depth=len(lists), samples_per_scale=1, seed=0)
    vals, ann = _flat(lists)
    for kwargs, want in ((dict(largest=True), [nan, nan, -0.0, 0.0, inf, 2.0]),
                         ({}, [inf, nan, -0.0, 0.0, inf, 1.0]),
                         (dict(empty=inf), [inf, inf, -0.0, 0.0, inf, 1.0])):
        assert _hex_list(_pool_scales(vals, ann, ladder, **kwargs)[1]) == _hex_list(want), kwargs


# per_scale and witnesses of the nine constants as hex floats, at ladder
# depth 8, 16 samples, seed 7, kept in constant_pins.json. They pin the
# element pool build and the constant reductions across code changes.
_PIN_LADDER = ScaleLadder(depth=8, samples_per_scale=16, seed=7)
_CONSTANT_PIN = json.loads((Path(__file__).parent / "constant_pins.json").read_text())


def _hexes(vals):
    return [float(v).hex() for v in vals]


def _constants_dump(mid, kind):
    F, base, ctx = setup_map(mid, kind)
    consts = estimate_all_constants(F, base, _PIN_LADDER, ctx)
    return {name: {"per_scale": _hexes(v for _, v in est.per_scale),
                   "witnesses": [_hexes(w["x"] + w["y"] + w["x_star"] + w["y_star"]
                                        + [w["t"], w["ratio"], w["xn"], w["q"]])
                                 for w in est.witnesses]}
            for name, est in consts.items()}


@pytest.mark.parametrize("key", sorted(_CONSTANT_PIN))
def test_constant_bits_are_pinned(key):
    mid, kind = key.split("/")
    got = _constants_dump(mid, kind)
    for name in CONSTANT_KINDS:
        assert got[name] == _CONSTANT_PIN[key][name], name


# pool ids of estimate_all_constants at the same ladder; the id hashes the
# map name, the norm, the base point, the ladder and a fixed 8
_POOL_ID_PIN = {
    ("linear", "l1"): "91b8c6589d411aa9",
    ("linear", "l2"): "d498473fbca5bdac",
    ("xsin", "l1"): "c48fa9366ce5b1ff",
    ("interval", "l1"): "c1f43dd0b8bc48b9",
}


@pytest.mark.parametrize("mid,kind", sorted(_POOL_ID_PIN))
def test_pool_ids_are_pinned(mid, kind):
    F, base, ctx = setup_map(mid, kind)
    consts = estimate_all_constants(F, base, _PIN_LADDER, ctx)
    assert {est.pool_id for est in consts.values()} == {_POOL_ID_PIN[mid, kind]}


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
@pytest.mark.parametrize("mid", ["linear", "spiral"])
def test_all_constants_give_the_hat_kinds_of_direct_calls(mid, kind):
    F, base, ctx = setup_map(mid, kind)
    consts = estimate_all_constants(F, base, _PIN_LADDER, ctx)
    pool, pool_id = build_element_pool(F, base, _PIN_LADDER, ctx)
    for name in ("hatsrg", "hatsrgp"):
        got, want = consts[name], estimate_constant(name, pool, _PIN_LADDER, ctx, pool_id)
        assert got.name == name
        assert [(r.hex(), v.hex()) for r, v in got.per_scale] == \
            [(r.hex(), v.hex()) for r, v in want.per_scale]
        assert float(got.reported).hex() == float(want.reported).hex()
        assert (got.trend, got.converged, got.note, got.pool_id) == \
            (want.trend, want.converged, want.note, want.pool_id)
        assert got.witnesses == want.witnesses == []


# perturb._collect_candidates at the same ladder, on the element pool (lip,
# fclm, ss) or on the graph sample (ssr, whose y* are the norming
# functionals of each norm kind): the candidate count and the sha256 of the
# candidates with every float field hexed (annulus kept as an int), in order
_CANDIDATE_PIN = {
    ("spiral", "l2", "lip", 0.05):
        (360, "14e679eab85bdcd565abd4e2ac77bd7b0a2d289dac910e39d5f60b1e897c11d7"),
    ("interval", "l1", "fclm", 1.2):
        (40, "362d0e6e83d01ba709831e465e54fb532edb80a25a87c748b9bbb1c4838d02c4"),
    ("xsin", "l1", "ss", 1.05):
        (60, "c45e110125799c14e130be70c70594971e21a5a50072836882f73d8ff8ab1be9"),
    ("identity", "l1", "ssr", 1.1):
        (16, "b85b4ac3d5478eecbbc1e59769a88bf1d5a779d97581a4e3e2a457cdaba4e880"),
    ("square", "l2", "ssr", 0.6):
        (16, "c51fb55040fa0f38e96dec4e45236a737e3e9b3749288fcec96a8d2c55c80ac7"),
    ("spiral", "l1", "ssr", 1.1):
        (119, "351c4743e9284fcd0b936912336b53295d595e187121b0b5e87cecb86633a4bb"),
    ("spiral", "l2", "ssr", 1.1):
        (118, "4be93233232a536832690e7c6b039f3f5b7d0c1f5140bce9a0285f006259438a"),
    ("spiral", "linf", "ssr", 1.1):
        (116, "4da39cc54d4387a6a35ca0f1ff91ae22db6c0b767144dbcef6fdf51b9822bdae"),
    ("linear", "linf", "ssr", 2.5):
        (109, "2641e0ce47eba2e3499d28184f893ea69d11224aa732b18271ad7e72930081b8"),
}


def _candidates_digest(mid, kind, wkind, gamma):
    F, base, ctx = setup_map(mid, kind)
    cands = _collect_candidates(F, base, wkind, gamma, _PIN_LADDER, ctx)
    dump = [{k: c[k] if k == "annulus" else _hexes(np.atleast_1d(c[k])) for k in sorted(c)}
            for c in cands]
    return len(cands), hashlib.sha256(json.dumps(dump).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(_CANDIDATE_PIN))
def test_pool_candidate_bits_are_pinned(case):
    assert _candidates_digest(*case) == _CANDIDATE_PIN[case]


# estimate_constant as it was written with per-record loops: the reference
# for the masked reduction, on records (t, ratio, xn, q, eps, x) one by one
_Record = dataclasses.make_dataclass("_Record", ["t", "ratio", "xn", "q", "eps", "x"])


def _ref_eligible(rec, kind, r):
    if rec.eps > r:
        return False
    if kind in ("srg3", "srg4", "srg4p") and rec.q > r:
        return False
    if kind in ("srg2p", "srg4p") and rec.eps * rec.xn > r:
        return False
    return True


def _ref_objective(rec, kind):
    if kind in ("srg1", "srg3", "hatsrg"):
        return max(rec.ratio, rec.xn)
    if kind in ("srg1p", "hatsrgp"):
        return rec.ratio + rec.xn
    return rec.ratio


def _ref_bucket_key(rec, base, width=0.25):
    u = (rec.x - base.x) / rec.t
    return tuple(int(round(float(c) / width)) for c in u)


def _ref_constant(kind, pool, ladder, base):
    depth = ladder.depth
    bucketed = kind in ("hatsrg", "hatsrgp")
    per_scale, witness = [], None
    for j in range(depth):
        r = ladder.radius(j)
        if not bucketed:
            best = math.inf
            for k in range(j, depth):
                for rec in pool[k]:
                    if rec.t > r * (1 + 1e-12) or not _ref_eligible(rec, kind, r):
                        continue
                    v = _ref_objective(rec, kind)
                    if v < best:
                        best = v
                        if j == depth - 1 or k >= depth - 2:
                            witness = rec
            per_scale.append((r, best))
        else:
            buckets = {}
            for k in range(j, depth):
                for rec in pool[k]:
                    if rec.t > r * (1 + 1e-12) or not _ref_eligible(rec, kind, r):
                        continue
                    key = _ref_bucket_key(rec, base)
                    v = _ref_objective(rec, kind)
                    if key not in buckets or v < buckets[key]:
                        buckets[key] = v
            per_scale.append((r, min(buckets.values()) if buckets else math.inf))
    return per_scale, witness


def _random_pool(rng, ladder, base):
    """Records with ties, empty annuli, +-inf and NaN fields, and t one ulp
    on either side of the cut r_j (1 + 1e-12) of some scale j."""
    values = [0.0, -0.0, 0.25, 0.5, 0.5, 1.0, 2.0, math.inf, -math.inf, math.nan]
    small = [0.0, 0.0, 1e-3, 0.5, 2.0, math.inf, math.nan]
    pool = []
    for k in range(ladder.depth):
        recs = []
        for _ in range(int(rng.integers(0, 6)) * int(rng.integers(0, 2))):
            cut = ladder.radius(int(rng.integers(0, ladder.depth))) * (1 + 1e-12)
            t = [math.nextafter(cut, 0.0), cut, math.nextafter(cut, math.inf),
                 ladder.radius(k), 0.7 * ladder.radius(k)][int(rng.integers(0, 5))]
            a = rng.uniform(0.0, 2.0 * math.pi)
            x = base.x + t * np.array([math.cos(a), math.sin(a)])
            recs.append(_Record(
                t=t, ratio=values[rng.integers(0, len(values))],
                xn=values[rng.integers(0, len(values))], q=small[rng.integers(0, len(small))],
                eps=small[rng.integers(0, len(small))], x=x))
        pool.append(recs)
    return pool


def _columns(recs):
    """The records of one annulus as ElementRecords, x* = 0 and y* = 1."""
    m = len(recs)
    return ElementRecords(
        *(np.array([getattr(rec, a) for rec in recs], dtype=float)
          for a in ("t", "ratio", "xn", "q", "eps")),
        x=np.array([rec.x for rec in recs], dtype=float).reshape(m, 2), y=np.zeros((m, 1)),
        x_star=np.zeros((m, 2)), y_star=np.ones((m, 1)))


def _check_constant(kind, pool, ladder, base):
    want, witness = _ref_constant(kind, pool, ladder, base)
    est = estimate_constant(kind, [_columns(recs) for recs in pool], ladder,
                            NormContext("l2", 2, 1))
    assert [r for r, _ in est.per_scale] == [r for r, _ in want]
    assert _hexes(v for _, v in est.per_scale) == _hexes(v for _, v in want), (kind, pool)
    if witness is None or kind in ("hatsrg", "hatsrgp"):
        assert est.witnesses == []
    else:
        assert len(est.witnesses) == 1
        w = est.witnesses[0]
        assert w["x"] == witness.x.tolist()
        assert _hexes([w["t"], w["ratio"], w["xn"], w["q"]]) == \
            _hexes([witness.t, witness.ratio, witness.xn, witness.q])


def test_estimate_constant_matches_the_loops_it_replaced():
    """The masked minima give the per-record loops' values and witness.

    The bucketed kinds see no NaN and no -0.0 objective: the old bucket dict
    could let a NaN poison min(buckets.values()), where the masked minimum
    ignores it, and it broke a tie of -0.0 with 0.0 by bucket order, where
    the masked minimum takes the first record. Pools built from a map hold
    neither (ratio and xn are norms of finite vectors).
    """
    rng = np.random.default_rng(11)
    base = GraphPoint(np.array([0.25, -0.5]), np.zeros(1))
    for _ in range(300):
        ladder = ScaleLadder(depth=int(rng.integers(1, 6)), samples_per_scale=1, seed=0)
        pool = _random_pool(rng, ladder, base)
        for kind in CONSTANT_KINDS:
            if kind in ("hatsrg", "hatsrgp"):
                kept = [[rec for rec in recs
                         if not (math.isnan(v := _ref_objective(rec, kind))
                                 or v == 0.0 and math.copysign(1.0, v) < 0.0)]
                        for recs in pool]
                _check_constant(kind, kept, ladder, base)
            else:
                _check_constant(kind, pool, ladder, base)
