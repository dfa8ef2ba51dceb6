import dataclasses
import json
import math

import numpy as np
import pytest

import pins
from conftest import ladder12, plus_half_x, setup_map
import subreglab.moduli as moduli
from subreglab.geometry import ScaleLadder, derive_seed
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
    F, base = setup_map("identity")
    lad = ladder12()
    for fn in (estimate_clm, estimate_lip, estimate_rg, estimate_srg, estimate_ssrg):
        est = fn(F, base, lad)
        assert est.reported == pytest.approx(1.0, abs=1e-9), fn.__name__
        assert est.converged


def test_scale_map_moduli_are_exactly_two():
    F, base = setup_map("scale")
    lad = ladder12()
    assert estimate_clm(F, base, lad).reported == pytest.approx(2.0, abs=1e-9)
    assert estimate_lip(F, base, lad).reported == pytest.approx(2.0, abs=1e-9)
    assert estimate_srg(F, base, lad).reported == pytest.approx(2.0, abs=1e-9)


def test_abs_map_moduli():
    F, base = setup_map("abs")
    lad = ladder12()
    assert estimate_clm(F, base, lad).reported == pytest.approx(1.0, abs=1e-9)
    assert estimate_srg(F, base, lad).reported == pytest.approx(1.0, abs=1e-9)
    assert estimate_ssrg(F, base, lad).reported == pytest.approx(1.0, abs=1e-9)


def test_square_map_clm_decays_with_the_ladder():
    # the calm quotient |x^2|/|x| equals |x|, so the reported value sits at
    # the finest sampled radius rather than at a fixed constant
    F, base = setup_map("square")
    lad = ladder12()
    est = estimate_clm(F, base, lad)
    assert est.reported <= 2.0 * lad.radius(lad.depth - 1)
    assert est.trend == "decreasing"


def test_zero_map_moduli():
    F, base = setup_map("zero")
    lad = ladder12()
    srg = estimate_srg(F, base, lad)
    assert math.isinf(srg.reported)
    assert "empty quotient set" in srg.note
    assert estimate_clm(F, base, lad).reported == 0.0
    assert estimate_lip(F, base, lad).reported == 0.0
    assert estimate_ssrg(F, base, lad).reported == 0.0


@pytest.mark.parametrize("mid", ["abs", "square"])
def test_a_tiny_negative_value_has_no_preimage(mid):
    # y < 0 has no real root however small |y| is; -0.0 has the root 0
    F, base = setup_map(mid)
    d = F.preimage_distance(np.array([[0.0], [1e-300], [0.5]]),
                            np.array([[-1e-300], [-5e-324], [-0.0]]))
    assert d.tolist() == [math.inf, math.inf, 0.5]
    # so rg reads 0 (the empty-preimage quotient) on ladders far below 1e-15
    for r0 in (1e-300, 1e-322):
        est = estimate_rg(F, base, ScaleLadder(r0=r0, depth=4, samples_per_scale=8, seed=7))
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
    lad = ScaleLadder(depth=3, samples_per_scale=8, seed=7)
    assert math.isnan(preimage_distance_fallback(F, [0.1, 0.2], [0.05, 0.0]))
    for est in (estimate_rg(F, base, lad), estimate_srg(F, base, lad)):
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
    for est in (estimate_rg(F, base, ladder12()), estimate_srg(F, base, ladder12())):
        assert est.reported == pytest.approx(0.5, rel=0.05), est.name
        assert est.note == _NEWTON_NOTE


def test_interval_plus_scale_finds_every_preimage_point():
    # the scan refines the touches of d(y, F(z)): every pair gets a point
    F, base = plus_half_x("interval")
    est = estimate_srg(F, base, ScaleLadder(depth=6, samples_per_scale=32, seed=7))
    assert "no preimage point found" not in est.note
    assert est.reported == pytest.approx(1.5, rel=1e-9)


def test_complementarity_angle_plus_scale_takes_infinite_image_distances():
    # d(y, F(z)) is inf for z < 0; the scan reads it without a RuntimeWarning
    # (warnings are errors here). F(x) = {x / 2} for x > 0, so srg = 0.5;
    # y < 0 has an empty preimage, which a scan of touches cannot tell from
    # a missed one, so rg leaves those pairs out with a note
    F, base = plus_half_x("compl_angle")
    lad = ScaleLadder(depth=6, samples_per_scale=32, seed=7)
    srg = estimate_srg(F, base, lad)
    assert srg.reported == pytest.approx(0.5, rel=1e-9) and srg.note == ""
    rg = estimate_rg(F, base, lad)
    assert rg.note.startswith("no preimage point found for ")


def test_an_empty_innermost_annulus_is_named_in_the_note():
    """None of the points the inverse of xsin draws at one sample per scale
    falls in the fourth annulus, so clm reads nan there; the note says
    which annulus held no graph point."""
    F, _ = resolve_map_spec({"id": "xsin", "wrap": [{"op": "inverse"}]})
    base = GraphPoint(np.zeros(1), np.zeros(1))
    est = estimate_clm(F, base, ScaleLadder(depth=4, samples_per_scale=1, seed=7))
    assert math.isnan(est.reported) and not math.isnan(est.per_scale[-2][1])
    assert est.note == ("annulus 3 (0.0312, 0.0625] held no graph point, "
                        "so the innermost scale reads nan")
    # an innermost annulus with a point leaves the note empty
    assert estimate_lip(F, base, ScaleLadder(depth=4, samples_per_scale=1, seed=7)).note == ""


def test_lip_keeps_its_neighbour_pairs_at_fine_scales():
    """estimate_lip drops a pair only when its separation is at most 1e-14
    times its distance from the base: with the floor 1e-14 max(1, t), every
    neighbour pair at r0 = 1e-12 was dropped and lip read clm, 1.0, where
    its true value is sqrt(2)."""
    F, base = setup_map("oscillating")
    ladder = ScaleLadder(r0=1e-12, depth=4, samples_per_scale=64, seed=7)
    assert estimate_lip(F, base, ladder).reported > 1.2


def test_linear_map_rg_matches_the_smallest_singular_value():
    A = np.array([[2.0, 0.0], [0.0, 0.5]])
    F = make_linear_map(A, kind="l2")
    base = GraphPoint(np.zeros(2), np.zeros(2))
    lad = ScaleLadder(depth=8, samples_per_scale=512, seed=7)
    est = estimate_rg(F, base, lad, pairs_per_scale=512)
    assert abs(est.reported - 0.5) / 0.5 <= 0.05


def test_xsin_constants():
    F, base = setup_map("xsin")
    sx = estimate_all_constants(F, base, ladder12())
    assert sx["srg2"].reported <= 1e-10
    assert sx["srg4"].reported == pytest.approx(1.0, abs=0.05)
    assert sx["srg4p"].reported == pytest.approx(1.0, abs=0.05)
    est = estimate_clm(F, base, ladder12())
    assert est.reported == pytest.approx(1.0, abs=0.02)


def test_interval_ssrg_vanishes_on_the_reciprocal_fibers():
    F, base = setup_map("interval")
    est = estimate_ssrg(F, base, ladder12())
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
    lad = ScaleLadder(depth=8, samples_per_scale=256, seed=7)
    a = estimate_rg(F, base, lad)
    b = estimate_rg(F, base, lad)
    assert a.per_scale == b.per_scale
    assert a.reported == b.reported
    c = estimate_rg(F, base, ScaleLadder(depth=8, samples_per_scale=256, seed=8))
    assert c.per_scale != a.per_scale  # seed actually feeds the sampler


@pytest.mark.parametrize("mid", ["identity", "abs", "interval"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dual_constants_per_scale_never_decrease(mid, seed):
    """Infima over shrinking element pools can only go up toward the base."""
    F, base = setup_map(mid)
    lad = ScaleLadder(depth=10, samples_per_scale=256, seed=seed)
    consts = estimate_all_constants(F, base, lad)
    for name in ("srg1", "srg2", "srg4"):
        vals = [v for _, v in consts[name].per_scale]
        for a, b in zip(vals, vals[1:]):
            if math.isinf(a):
                assert math.isinf(b)
            else:
                assert b >= a - 1e-12, (name, vals)


def test_all_constants_share_one_element_pool():
    F, base = setup_map("identity")
    consts = estimate_all_constants(F, base, ladder12())
    ids = {e.pool_id for e in consts.values()}
    assert len(ids) == 1


def test_check_relations_rejects_mixed_pools():
    F, base = setup_map("identity")
    consts = estimate_all_constants(F, base, ladder12())
    consts["srg1"].pool_id = "someone_else"
    with pytest.raises(ValueError, match="different pools"):
        check_relations(consts)


@pytest.mark.parametrize("mid", ["identity", "abs", "xsin"])
def test_check_relations_zero_slack(mid):
    F, base = setup_map(mid)
    consts = estimate_all_constants(F, base, ladder12())
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


_PIN_LADDER = ScaleLadder(depth=8, samples_per_scale=16, seed=7)


def _per_scale(est) -> list[str]:
    return pins.hexes(v for _, v in est.per_scale)


# per_scale values of rg and srg on the maps without a preimage oracle, as
# hex floats, at ladder depth 8, 16 samples, seed 7. They pin the bits of
# the preimage root finder (mappings._nearest_roots_1d) across code changes.
_FALLBACK_CASES = [(mid, name) for mid in ("oscillating", "square_plus_identity", "xsin")
                   for name in ("rg", "srg")]


@pins.pinned("fallback", _FALLBACK_CASES)
def _fallback_moduli(mid, name):
    F, base = setup_map(mid)
    return _per_scale({"rg": estimate_rg, "srg": estimate_srg}[name](F, base, _PIN_LADDER))


@pytest.mark.parametrize("mid,name", _FALLBACK_CASES)
def test_fallback_moduli_bits_are_pinned(mid, name):
    assert _fallback_moduli(mid, name) == pins.stored("fallback", (mid, name))


def _pair_distances(F, base, ladder) -> list:
    """The distances preimage_distances_fallback returns to estimate_rg and
    then estimate_srg, one array a call."""
    seen = []
    batched = moduli.preimage_distances_fallback
    moduli.preimage_distances_fallback = lambda *a: seen.append(batched(*a)) or seen[-1]
    try:
        estimate_rg(F, base, ladder)
        estimate_srg(F, base, ladder)
    finally:
        moduli.preimage_distances_fallback = batched
    return seen


# sha256 of the hex floats, one a line, of every distance that
# preimage_distances_fallback returns to estimate_rg and then estimate_srg
# (256 pairs), at ladder depth 8, 16 samples, l1. The "fallback" pins hold
# only the pooled per-scale minima; these pin each pair's root-finder result.
_FALLBACK_PAIR_CASES = [(mid, seed) for mid in ("oscillating", "square_plus_identity", "xsin")
                        for seed in (23, 7)]


@pins.pinned("fallback_pairs", _FALLBACK_PAIR_CASES)
def _fallback_pair_digest(mid, seed):
    seen = _pair_distances(*setup_map(mid), ScaleLadder(depth=8, samples_per_scale=16, seed=seed))
    dist = np.concatenate(seen)
    assert len(seen) == 2 and len(dist) == 256
    return pins.sha256("\n".join(pins.hexes(dist)))


@pytest.mark.parametrize("mid,seed", _FALLBACK_PAIR_CASES)
def test_fallback_pair_distances_are_pinned(mid, seed):
    assert _fallback_pair_digest(mid, seed) == pins.stored("fallback_pairs", (mid, seed))


# The same digests on the 1-D maps mid + 0.5 x (plus_half_x), which have no
# func: their scan refines the touches of d(y, F(z)), and compl_angle's
# empty preimages read nan. Ladder depth 6, 32 samples, l1 (384 pairs).
_TOUCH_PAIR_CASES = [(mid, seed) for mid in ("compl_angle", "interval") for seed in (23, 7)]


@pins.pinned("touch_pairs", _TOUCH_PAIR_CASES)
def _touch_pair_digest(mid, seed):
    ladder = ScaleLadder(depth=6, samples_per_scale=32, seed=seed)
    seen = _pair_distances(*plus_half_x(mid), ladder)
    dist = np.concatenate(seen)
    assert len(dist) == 384
    return pins.sha256("\n".join(pins.hexes(dist)))


@pytest.mark.parametrize("mid,seed", _TOUCH_PAIR_CASES)
def test_touch_only_pair_distances_are_pinned(mid, seed):
    assert _touch_pair_digest(mid, seed) == pins.stored("touch_pairs", (mid, seed))


# per_scale values of the graph-sampled moduli clm, lip and ssrg, as hex
# floats, at ladder depth 8, 16 samples, seed 7: xsin and oscillating are 1-D
# maps with feature points, spiral (l2) takes lip's stride-pair branch. They
# pin the per-annulus graph sampler and the suffix pooling across code changes.
_GRAPH_CASES = [(mid, name) for mid in ("oscillating", "spiral", "xsin")
                for name in ("clm", "lip", "ssrg")]


@pins.pinned("graph", _GRAPH_CASES)
def _graph_moduli(mid, name):
    F, base = setup_map(mid, "l2" if mid == "spiral" else "l1")
    fn = {"clm": estimate_clm, "lip": estimate_lip, "ssrg": estimate_ssrg}[name]
    return _per_scale(fn(F, base, _PIN_LADDER))


@pytest.mark.parametrize("mid,name", _GRAPH_CASES)
def test_graph_moduli_bits_are_pinned(mid, name):
    assert _graph_moduli(mid, name) == pins.stored("graph", (mid, name))


# per_scale values of clm, lip, rg and srg on the maps whose image and
# preimage oracles no other pin reaches (rg and srg alone on spiral, whose
# graph moduli the "graph" pins hold), as hex floats at ladder depth 8, 16
# samples, seed 7, kept under "map/norm/estimator"
_ORACLE_CASES = sorted([f"{mid}/l1/{name}" for mid in ("abs", "compl_angle", "interval",
                                                       "inverse_abs", "scale", "square", "zero")
                        for name in ("clm", "lip", "rg", "srg")]
                       + ["spiral/l2/rg", "spiral/l2/srg"])


@pins.pinned("oracle", _ORACLE_CASES)
def _oracle_moduli(key: str):
    mid, kind, name = key.split("/")
    F, base = setup_map(mid, kind)
    fn = {"clm": estimate_clm, "lip": estimate_lip, "rg": estimate_rg, "srg": estimate_srg}[name]
    return _per_scale(fn(F, base, _PIN_LADDER))


@pytest.mark.parametrize("key", _ORACLE_CASES)
def test_oracle_moduli_bits_are_pinned(key):
    assert _oracle_moduli(key) == pins.stored("oracle", key)


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
_LINEAR_CASES = [("eckart", "l2", "rg"), ("eckart", "l2", "srg"), ("linear", "l1", "rg"),
                 ("linear", "l1", "srg"), ("linear", "l2", "rg"), ("linear", "l2", "srg")]


def _linear_case(mid: str, kind: str):
    if mid == "linear":
        F, base = setup_map(mid, kind)
        return F, base, ScaleLadder(depth=8, samples_per_scale=96, seed=7), None
    F = make_linear_map(_EY_MATRIX, kind)
    base = GraphPoint(np.zeros(3), np.zeros(3))
    ladder = ScaleLadder(r0=0.5, theta=0.5, depth=8, samples_per_scale=320,
                         seed=derive_seed(7, 151, 0))
    return F, base, ladder, 320


@pins.pinned("linear", _LINEAR_CASES)
def _linear_moduli(mid, kind, name):
    F, base, ladder, pairs = _linear_case(mid, kind)
    return _per_scale(estimate_rg(F, base, ladder, pairs_per_scale=pairs) if name == "rg"
                      else estimate_srg(F, base, ladder))


@pytest.mark.parametrize("mid,kind,name", _LINEAR_CASES)
def test_linear_rg_and_srg_bits_are_pinned(mid, kind, name):
    assert _linear_moduli(mid, kind, name) == pins.stored("linear", (mid, kind, name))


def test_rg_and_srg_ask_a_linear_map_for_no_single_pair():
    # every pair of the ladder goes through one image-distance call, and the
    # pairs off the preimage through one preimage-distance call
    F, base, ladder, pairs = _linear_case("eckart", "l2")
    calls = []

    def counted(name, oracle):
        def rows(X, Y):
            calls.append((name, len(X)))
            return oracle(X, Y)

        return rows

    G = dataclasses.replace(F, image_distance=counted("image", F.image_distance),
                            preimage_distance=counted("preimage", F.preimage_distance))
    for est, n in ((lambda: estimate_rg(G, base, ladder, pairs_per_scale=pairs), 320),
                   (lambda: estimate_srg(G, base, ladder), 96)):
        calls.clear()
        est()
        assert [name for name, _ in calls] == ["image", "preimage"]
        assert calls[0][1] == 8 * n and 0 < calls[1][1] <= 8 * n


# ssrg witnesses as hex floats (x, then y, then ratio) at the same ladder: on
# interval the exact zero quotients of the reciprocal fibers, up to four per
# annulus; on spiral no quotient vanishes, so the one witness is the pooled
# minimizer, the first one met from the innermost annulus outward
_SSRG_WITNESS_CASES = [("interval", "l1"), ("spiral", "l2")]


@pins.pinned("ssrg_witness", _SSRG_WITNESS_CASES)
def _ssrg_witnesses(mid, kind):
    est = estimate_ssrg(*setup_map(mid, kind), _PIN_LADDER)
    return [pins.hexes(w["x"] + w["y"] + [w["ratio"]]) for w in est.witnesses]


@pytest.mark.parametrize("mid,kind", _SSRG_WITNESS_CASES)
def test_ssrg_witness_bits_are_pinned(mid, kind):
    assert _ssrg_witnesses(mid, kind) == pins.stored("ssrg_witness", (mid, kind))


@pytest.mark.parametrize("mid,theta", [("oscillating", 0.5), ("xsin", 0.04)])
def test_ssrg_lists_ratio_zero_witnesses_only_when_it_reports_zero(mid, theta):
    """Outer annuli of these ladders hold graph points of ratio 0 while the
    innermost one does not, so the reported value is positive; it comes
    with the pooled winner under its own value, not with ratio-0 points."""
    F, base = setup_map(mid, "l1")
    est = estimate_ssrg(F, base, ScaleLadder(theta=theta, depth=8, samples_per_scale=16, seed=7))
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
    F, base = setup_map(mid, kind)
    hint = entry.ladder_hint
    ladder = ScaleLadder(r0=hint.get("r0", 0.5), theta=hint.get("theta", 0.5),
                         depth=hint.get("depth", 8), samples_per_scale=64, seed=7)
    consts = (estimate_all_constants(F, base, ladder)
              if set(entry.known) - set(_ESTIMATORS) else {})
    misses = []
    for name, known in entry.known.items():
        est = consts[name] if name in consts else _ESTIMATORS[name](F, base, ladder)
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
        assert pins.hexes(got) == pins.hexes(v for vals in lists for v in vals), \
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
    assert pins.hexes(_quotients(ann, dimg, dpre, True)[1]) == ["0x0.0p+0"]
    assert pins.hexes(_quotients(ann, dimg, dpre, False)[1]) == ["0x0.0p+0", "nan"]


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
        assert pins.hexes(v for _, v in got) == pins.hexes(loop(per_annulus)), \
            (per_annulus, kwargs)
        # each annulus's own extremum is what the loop reads from that annulus alone
        assert pins.hexes(own) == pins.hexes(loop([vs])[0] for vs in per_annulus), \
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
        assert pins.hexes(_pool_scales(vals, ann, ladder, **kwargs)[1]) == pins.hexes(want), kwargs


# per_scale and witnesses of the nine constants as hex floats, at ladder
# depth 8, 16 samples, seed 7, kept under "map/norm". They pin the element
# pool build and the constant reductions across code changes.
_CONSTANT_CASES = ["interval/l1", "linear/l1", "linear/l2", "linear/linf", "spiral/l1",
                   "spiral/l2", "spiral/linf", "xsin/l1"]


@pins.pinned("constant", _CONSTANT_CASES)
def _constants_dump(key: str) -> dict:
    consts = estimate_all_constants(*setup_map(*key.split("/")), _PIN_LADDER)
    return {name: {"per_scale": _per_scale(est),
                   "witnesses": [pins.hexes(w["x"] + w["y"] + w["x_star"] + w["y_star"]
                                            + [w["t"], w["ratio"], w["xn"], w["q"]])
                                 for w in est.witnesses]}
            for name, est in consts.items()}


@pytest.mark.parametrize("key", _CONSTANT_CASES)
def test_constant_bits_are_pinned(key):
    assert _constants_dump(key) == pins.stored("constant", key)


# pool ids of estimate_all_constants at the same ladder; the id hashes the
# map name, the norm, the base point, the ladder and a fixed 8
_POOL_ID_CASES = [("interval", "l1"), ("linear", "l1"), ("linear", "l2"), ("xsin", "l1")]


@pins.pinned("pool_id", _POOL_ID_CASES)
def _pool_id(mid, kind):
    (pool_id,) = {est.pool_id for est in estimate_all_constants(*setup_map(mid, kind),
                                                                _PIN_LADDER).values()}
    return pool_id


@pytest.mark.parametrize("mid,kind", _POOL_ID_CASES)
def test_pool_ids_are_pinned(mid, kind):
    assert _pool_id(mid, kind) == pins.stored("pool_id", (mid, kind))


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
@pytest.mark.parametrize("mid", ["linear", "spiral"])
def test_all_constants_give_the_hat_kinds_of_direct_calls(mid, kind):
    F, base = setup_map(mid, kind)
    consts = estimate_all_constants(F, base, _PIN_LADDER)
    pool, pool_id = build_element_pool(F, base, _PIN_LADDER)
    for name in ("hatsrg", "hatsrgp"):
        got, want = consts[name], estimate_constant(name, pool, _PIN_LADDER, pool_id)
        assert got.name == name
        assert pins.canon(got.per_scale) == pins.canon(want.per_scale)
        assert pins.hexes(got.reported) == pins.hexes(want.reported)
        assert (got.trend, got.converged, got.note, got.pool_id) == \
            (want.trend, want.converged, want.note, want.pool_id)
        assert got.witnesses == want.witnesses == []


# perturb._collect_candidates at the same ladder, on the element pool (lip,
# fclm, ss) or on the graph sample (ssr, whose y* are the norming
# functionals of each norm kind): the candidate count and the sha256 of the
# candidates with every float field hexed (annulus kept as an int), in order.
# A case with a fifth part collects from that annulus on, on the pin ladder
# deepened by 8, as extract_witness collects the annuli a deepening appends.
_CANDIDATE_CASES = [
    ("compl_angle", "l1", "ss", 0.5),
    ("identity", "l1", "ssr", 1.1), ("interval", "l1", "fclm", 1.2),
    ("linear", "linf", "ssr", 2.5), ("spiral", "l1", "ssr", 1.1), ("spiral", "l2", "lip", 0.05),
    ("spiral", "l2", "ssr", 1.1), ("spiral", "l2", "ssr", 1.1, 12),
    ("spiral", "linf", "ssr", 1.1), ("square", "l2", "ssr", 0.6),
    ("xsin", "l1", "ss", 1.05), ("xsin", "l1", "ss", 1.05, 12),
]


def _candidate_dump(cands) -> list:
    return [{k: c[k] if k == "annulus" else pins.hexes(c[k]) for k in sorted(c)} for c in cands]


@pins.pinned("candidate", _CANDIDATE_CASES)
def _candidates_digest(mid, kind, wkind, gamma, start=0):
    ladder = _PIN_LADDER.deepen(8) if start else _PIN_LADDER
    cands = _collect_candidates(*setup_map(mid, kind), wkind, gamma, ladder, start)
    return [len(cands), pins.sha256(json.dumps(_candidate_dump(cands)))]


@pytest.mark.parametrize("case", _CANDIDATE_CASES)
def test_pool_candidate_bits_are_pinned(case):
    assert _candidates_digest(*case) == pins.stored("candidate", case)


@pytest.mark.parametrize("first, then", [(1.1, 0.9), (0.9, 1.1)])
@pytest.mark.parametrize("kind", ["l1", "linf"])
def test_ssr_candidates_do_not_depend_on_an_earlier_gamma(kind, first, then):
    # the map's memo serves the second collection; it must hold nothing that
    # the first one's gamma decided (a memo cut at 0.9 would starve 1.1)
    F, base = setup_map("linear", kind)
    _collect_candidates(F, base, "ssr", first, _PIN_LADDER)
    got = _collect_candidates(F, base, "ssr", then, _PIN_LADDER)
    want = _collect_candidates(*setup_map("linear", kind), "ssr", then, _PIN_LADDER)
    assert got and _candidate_dump(got) == _candidate_dump(want)


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
    est = estimate_constant(kind, [_columns(recs) for recs in pool], ladder)
    assert [r for r, _ in est.per_scale] == [r for r, _ in want]
    assert _per_scale(est) == pins.hexes(v for _, v in want), (kind, pool)
    if witness is None or kind in ("hatsrg", "hatsrgp"):
        assert est.witnesses == []
    else:
        assert len(est.witnesses) == 1
        w = est.witnesses[0]
        assert w["x"] == witness.x.tolist()
        assert pins.hexes([w["t"], w["ratio"], w["xn"], w["q"]]) == \
            pins.hexes([witness.t, witness.ratio, witness.xn, witness.q])


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
