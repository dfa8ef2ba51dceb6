import dataclasses
import hashlib
import json
import math
import types

import numpy as np
import pytest

import subreglab.perturb as perturb
from conftest import ladder12, setup_map
from subreglab.geometry import NormContext, ScaleLadder, derive_seed
from subreglab.mappings import GraphPoint, make_function_graph, sum_with_function
from subreglab.moduli import estimate_clm, estimate_ssrg
from subreglab.perturb import (
    WitnessError,
    build_fclm_perturbation,
    build_lip_perturbation,
    build_ss_perturbation,
    build_ssr_destabilizer,
    extract_witness,
    firmly_calm_test,
    load_perturbation,
    random_calm_perturbation,
    validate_witness,
    verify_builder,
)

# the full builder matrix: every entry must extract, build, and verify
BUILD_MATRIX = [
    ("identity", "lip", 2.5),
    ("zero", "lip", 0.01),
    ("square", "lip", 0.5),
    ("xsin", "lip", 1.5),
    ("zero", "fclm", 0.1),
    ("interval", "fclm", 1.2),
    ("xsin", "fclm", 0.1),
    ("square", "ss", 0.5),
    ("compl_angle", "ss", 0.5),
    ("spiral", "ss", 0.5),
    ("abs", "ss", 1.5),
    ("xsin", "ss", 1.05),
    ("identity", "ssr", 1.1),
    ("square", "ssr", 0.6),
]

BUILDERS = {
    "lip": build_lip_perturbation,
    "fclm": build_fclm_perturbation,
    "ss": build_ss_perturbation,
}


def _build(mid, kind, gamma, seed=7):
    F, base, ctx = setup_map(mid)
    lad = ladder12(seed)
    if kind == "ssr":
        p = build_ssr_destabilizer(F, base, gamma, lad, ctx)
    else:
        w = extract_witness(F, base, kind, gamma, lad, ctx)
        p = BUILDERS[kind](w, gamma)
    return F, base, ctx, lad, p


def test_witness_extraction_invariants():
    F, base, ctx = setup_map("identity")
    w = extract_witness(F, base, "lip", 2.5, ladder12(), ctx)
    assert w.kind == "lip"
    assert w.gamma == 2.5
    assert w.gamma_prime < 2.5
    ts = w.scales
    assert all(a > b for a, b in zip(ts, ts[1:]))  # strictly shrinking scales
    for e in w.entries:
        assert e.t > 0.0
        assert ctx.norm(e.x - base.x) == pytest.approx(e.t, rel=1e-12)
    assert validate_witness(w, ctx) == []


def test_validate_witness_flags_tampering():
    F, base, ctx = setup_map("identity")
    w = extract_witness(F, base, "lip", 2.5, ladder12(), ctx)
    w.entries[0], w.entries[1] = w.entries[1], w.entries[0]
    problems = validate_witness(w, ctx)
    assert problems
    assert any("scale" in p or "decreas" in p for p in problems)


def test_extraction_refuses_below_the_modulus():
    # the identity map has lip = 1; no destabilizer exists below that
    F, base, ctx = setup_map("identity")
    with pytest.raises(WitnessError, match="no witness below gamma"):
        extract_witness(F, base, "lip", 0.5, ladder12(), ctx)


def test_fclm_extraction_refuses_on_the_interval_map():
    F, base, ctx = setup_map("interval")
    with pytest.raises(WitnessError, match="no witness below gamma"):
        extract_witness(F, base, "fclm", 0.8, ladder12(), ctx)


@pytest.mark.parametrize("gamma", [0.5, 0.9])
def test_ssr_destabilizer_refuses_below_the_quotient(gamma):
    F, base, ctx = setup_map("identity")
    with pytest.raises(WitnessError, match="no destabilizer below gamma"):
        build_ssr_destabilizer(F, base, gamma, ladder12(), ctx)


@pytest.mark.parametrize("mid,kind,gamma", BUILD_MATRIX)
def test_builder_matrix_verifies(mid, kind, gamma):
    F, base, ctx, lad, p = _build(mid, kind, gamma)
    rep = verify_builder(p, F, base, lad, ctx)
    assert rep.passed, (rep.notes, rep.destabilization[-3:])
    assert rep.interpolation_max_err <= 1e-14
    assert rep.base_value_err == 0.0
    assert rep.gradient_max_relerr <= 1e-5
    assert rep.modulus_ok
    assert rep.gamma_dp < gamma
    finite = [v for _, v in rep.destabilization if not math.isinf(v)]
    assert finite[-1] <= 0.05


def test_interpolation_is_bitwise_exact():
    F, base, ctx, lad, p = _build("square", "ss", 0.5)
    assert np.array_equal(p.eval(base.x), np.zeros(p.dim_y))
    for (xk, yb_anchor), tgt in zip(p.anchors, p.anchor_targets):
        got = p.eval(xk)
        assert np.array_equal(got, tgt), (xk, got, tgt)
        assert np.array_equal(yb_anchor, base.y)
        # F + f passes through (x_k, yb) exactly
        assert np.array_equal(tgt + np.asarray(F.func(xk)), base.y)


def test_supports_are_disjoint():
    for mid, kind, gamma in (("identity", "lip", 2.5), ("xsin", "ss", 1.05)):
        F, base, ctx, lad, p = _build(mid, kind, gamma)
        rng = np.random.default_rng(23)
        for _ in range(400):
            x = rng.uniform(-0.6, 0.6, size=p.dim_x)
            assert p.component_count(x) <= 1
        for xk, _ in p.anchors:
            assert p.component_count(xk) == 1


def test_anchor_eps_vanishes_for_bump_and_case1_builds():
    _, _, _, _, p_lip = _build("identity", "lip", 2.5)
    assert all(e == 0.0 for e in p_lip.anchor_eps)
    _, _, _, _, p_cone = _build("spiral", "ss", 0.5)
    assert p_cone.case == 1
    assert all(e == 0.0 for e in p_cone.anchor_eps)


def test_case2_build_has_a_positive_floor():
    _, _, _, _, p = _build("square", "ss", 0.5)
    assert p.case == 2
    assert p.floor_radius > 0.0
    # below the floor the perturbation vanishes identically
    for frac in (0.5, 0.1, 0.01):
        x = np.array([p.floor_radius * frac])
        assert np.array_equal(p.eval(x), np.zeros(1))


@pytest.mark.parametrize("mid,kind,gamma", [
    ("identity", "lip", 2.5),
    ("xsin", "fclm", 0.1),
    ("square", "ss", 0.5),
    ("identity", "ssr", 1.1),
])
def test_serialization_round_trip_is_bit_identical(mid, kind, gamma):
    F, base, ctx, lad, p = _build(mid, kind, gamma)
    desc = json.loads(json.dumps(p.describe()))
    q = load_perturbation(desc)
    rng = np.random.default_rng(31)
    xs = [rng.uniform(-0.7, 0.7, size=p.dim_x) for _ in range(300)]
    xs += [xk for xk, _ in p.anchors]
    xs += list(p.probes)
    for x in xs:
        assert np.array_equal(p.eval(x), q.eval(x))
        dp, dq = p.derivative(x), q.derivative(x)
        if dp is None or dq is None:
            assert dp is None and dq is None
        else:
            assert np.array_equal(dp, dq)


def test_reloaded_perturbation_verifies():
    F, base, ctx, lad, p = _build("xsin", "fclm", 0.1)
    q = load_perturbation(json.loads(json.dumps(p.describe())))
    rep = verify_builder(q, F, base, lad, ctx)
    assert rep.passed


def test_tampered_description_is_rejected():
    # replaying a witness with a stronger claim than it certifies must fail
    F, base, ctx, lad, p = _build("identity", "lip", 2.5)
    desc = p.describe()
    desc["gamma"] = float(0.9).hex()
    with pytest.raises(WitnessError):
        load_perturbation(desc)


def test_description_with_understated_stats_is_rejected():
    # halved ratios and dual norms would certify a lip constant half the
    # true one; the stored points give the real values back
    F, base, ctx = setup_map("identity")
    lad = ScaleLadder(depth=12, samples_per_scale=128, seed=7)
    p = build_lip_perturbation(extract_witness(F, base, "lip", 2.5, lad, ctx), 2.5)
    desc = json.loads(json.dumps(p.describe()))
    for d in desc["witness"]["entries"]:
        for key in ("ratio", "xn"):
            d[key] = (0.5 * float.fromhex(d[key])).hex()
    desc["witness"]["gamma_prime"] = (0.5 * float.fromhex(desc["witness"]["gamma_prime"])).hex()
    desc["gamma"] = float(1.3).hex()
    with pytest.raises(WitnessError, match="ratio"):
        load_perturbation(desc)


def test_description_violating_a_witness_invariant_is_rejected():
    F, base, ctx, lad, p = _build("identity", "lip", 2.5)
    desc = json.loads(json.dumps(p.describe()))
    d = desc["witness"]["entries"][0]
    d["y_star"] = [(2.0 * float.fromhex(c)).hex() for c in d["y_star"]]
    with pytest.raises(WitnessError, match="unit sphere"):
        load_perturbation(desc)


def test_firmly_calm_accepts_a_kinked_but_calm_function():
    f = lambda x: np.array([abs(x[0])])
    out = firmly_calm_test(f, np.zeros(1), ladder12(),
                           NormContext(kind="l1", dim_x=1, dim_y=1))
    assert out["ok"]


def test_firmly_calm_rejects_a_jump():
    c = 0.01

    def f(x):
        return np.array([0.0 if x[0] < c else 1.0])

    out = firmly_calm_test(f, np.zeros(1), ladder12(),
                           NormContext(kind="l1", dim_x=1, dim_y=1),
                           extra_points=[np.array([c])])
    assert not out["ok"]


def test_firmly_calm_rejects_divergent_quotients():
    f = lambda x: np.array([math.sqrt(abs(x[0]))])
    out = firmly_calm_test(f, np.zeros(1), ladder12(),
                           NormContext(kind="l1", dim_x=1, dim_y=1))
    assert not out["ok"]


def test_random_calm_perturbation_contract():
    for seed in range(12):
        fe, fg, a, b = random_calm_perturbation(seed)
        assert abs(a) + abs(b) <= 0.85 + 1e-15
        assert fe(np.zeros(1))[0] == 0.0
        assert fg(np.zeros(1)) is None
        # derivative matches a central difference away from the base
        for xv in (0.3, -0.2, 0.05):
            h = 1e-7
            fd = (fe([xv + h])[0] - fe([xv - h])[0]) / (2 * h)
            assert fg([xv])[0][0] == pytest.approx(fd, abs=1e-6)


def test_random_calm_perturbations_leave_ssrg_positive():
    F, base, ctx = setup_map("identity")
    lad = ladder12()
    for i in range(5):
        fe, fg, a, b = random_calm_perturbation(derive_seed(7, 173, i))
        G = sum_with_function(F, make_function_graph(fe, grad=fg), name="identity+calm")
        est = estimate_ssrg(G, base, lad, ctx)
        assert est.reported >= 1.0 - (abs(a) + abs(b)) - 0.05
        assert est.reported >= 0.05


def test_ssr_destabilizer_kills_ssrg_exactly():
    F, base, ctx, lad, p = _build("identity", "ssr", 1.1)
    rep = verify_builder(p, F, base, lad, ctx)
    assert rep.passed
    assert rep.destabilization_ok
    vals = [v for _, v in rep.destabilization]
    assert vals[-1] == 0.0
    # the sum map attains the base value at every anchor
    G = sum_with_function(F, make_function_graph(p.eval, grad=p.derivative),
                          name="identity+ssr", anchors=p.anchors)
    for xk, _ in p.anchors:
        assert G.image_distance(xk, base.y) <= 1e-15


def test_sampled_modulus_stays_below_gamma():
    F, base, ctx, lad, p = _build("xsin", "fclm", 0.1)
    fgraph = make_function_graph(p.eval, grad=p.derivative, dim_x=1, dim_y=1,
                                 kind="l1", name="f")
    fbase = GraphPoint(base.x, np.zeros(1))
    est = estimate_clm(fgraph, fbase, lad, ctx)
    assert est.reported <= 0.1


def _build128(mid, kind, gamma):
    F, base, ctx = setup_map(mid)
    lad = ScaleLadder(depth=12, samples_per_scale=128, seed=7)
    return F, base, ctx, lad, BUILDERS[kind](extract_witness(F, base, kind, gamma, lad, ctx), gamma)


def _shifted_eval(p, dy):
    return lambda x: p.eval(x) + dy


def _doubled_derivative(p):
    return lambda x: None if (d := p.derivative(x)) is None else 2.0 * d


@pytest.mark.parametrize("tamper,note", [
    # gamma and gamma'' lowered below the modulus 1.83 the bumps have
    pytest.param(lambda p: dataclasses.replace(p, gamma=1.5, gamma_dp=1.4),
                 "sampled modulus 1.83331 exceeds gamma - margin = 1.45", id="modulus"),
    pytest.param(lambda p: dataclasses.replace(
                     p, anchor_targets=[t + 1e-3 for t in p.anchor_targets]),
                 "interpolation error 1.000e-03 exceeds 1e-14 * 1", id="interpolation"),
    pytest.param(lambda p: dataclasses.replace(p, eval=_shifted_eval(p, 1e-3)),
                 "value at the base is 1.000e-03, not 0", id="base_value"),
    pytest.param(lambda p: dataclasses.replace(p, derivative=_doubled_derivative(p)),
                 "Jacobian relative error 5.000e-01 exceeds 1e-05", id="jacobian"),
])
def test_a_failed_build_names_each_failed_check(tamper, note):
    F, base, ctx, lad, p = _build128("identity", "lip", 2.5)
    assert verify_builder(p, F, base, lad, ctx).notes == []
    rep = verify_builder(tamper(p), F, base, lad, ctx)
    assert not rep.passed
    assert note in rep.notes, rep.notes


def test_a_failed_class_check_is_named(monkeypatch):
    F, base, ctx, lad, p = _build128("xsin", "fclm", 0.1)
    monkeypatch.setattr(perturb, "firmly_calm_test", lambda *a, **k: {"ok": False})
    rep = verify_builder(p, F, base, lad, ctx)
    assert not rep.passed
    assert rep.notes == ["firm calmness test failed"]

    F, base, ctx, lad, p = _build128("square", "ss", 0.5)
    assert p.case == 2
    monkeypatch.setattr(perturb, "semismooth_star_test",
                        lambda *a, **k: types.SimpleNamespace(verdict="fail"))
    rep = verify_builder(p, F, base, lad, ctx)
    assert not rep.passed
    assert "semismooth* verdict is 'fail', not 'pass'" in rep.notes


# extract_witness on a small ladder: the sha256 of the hexed sequence
# (direction mode, k_hat, gamma', u, every entry field, in order), or the
# exact refusal text
_WITNESS_LADDER = ScaleLadder(depth=8, samples_per_scale=16, seed=7)
_WITNESS_PIN = {
    ('identity', 'l1', 'lip', 2.5, 'auto'):
        'fb98db0e8facaf04523bb7cfb72b8a2f494a599227f7b958d32416f21b64dffc',
    ('zero', 'l1', 'lip', 0.01, 'auto'):
        'fb868a6da9d0fbcf44e7b787bdd9cabb2c9b79387e6e700e1a02a3399d4ab462',
    ('spiral', 'l1', 'lip', 0.05, 'auto'):
        'e7f60499f7820fcde7944e02a44eae843b7b879bea763e4c74dd556964b7be40',
    ('xsin', 'l1', 'fclm', 0.1, 'auto'):
        '6078b12c49b3dc560195c1ce564212b6778221e18d7837cd8704a840fb87d57d',
    ('interval', 'l1', 'fclm', 1.2, 'auto'):
        '4a53ecd965eee4919ff48a1ba50612cd7bc209034599c9ab4e93131113d81b7e',
    ('interval', 'l1', 'fclm', 0.8, 'auto'):
        'insufficient depth: fewer than 4 thinned fclm entries above the scale floor 1e-11',
    ('xsin', 'l1', 'ss', 1.05, 'auto'):
        '8ae18edf50367274d4835fe95f02e4ccfc12a0fba7679f07cae4bf71818535bf',
    ('spiral', 'l2', 'ss', 0.5, 'auto'):
        '1c5097530e4bf3af3ca0a6745af787622e5b16668169e9e43539dcb80b618870',
    ('square', 'l1', 'ss', 0.5, 'stationary'):
        'b67d30d5bdad3b4ac67ee01765f63b9b83fa10e854e4741fa47a1469587c942b',
    ('abs', 'l1', 'ss', 1.5, 'distinct'):
        'insufficient depth: fewer than 4 thinned ss entries above the scale floor 1e-11',
    ('compl_angle', 'l1', 'ss', 0.5, 'auto'):
        '68a48a58abe4cb183e3c3a8b1b46d76f37a712eeae36f92c8b615b59b15625ec',
    ('identity', 'l1', 'ssr', 1.1, 'auto'):
        '46722e189fd942a60db7abed85e41589ee6e3f294872cd746de61b23d3d549da',
    ('identity', 'l1', 'ssr', 0.9, 'auto'):
        'no witness below gamma: no ssr candidate beats 0.9 down to radius 4.547e-13',
    ('square', 'l1', 'ssr', 0.6, 'auto'):
        '667b2d1dee8791103be871048d44c53d9fa31f4f21de7abc2bf8c5241f8ae453',
}


def _witness_digest(mid, norm_kind, kind, gamma, mode):
    F, base, ctx = setup_map(mid, norm_kind)
    try:
        w = extract_witness(F, base, kind, gamma, _WITNESS_LADDER, ctx, mode)
    except WitnessError as err:
        return str(err)
    hexes = perturb._hex_vec
    dump = [w.direction_mode, w.k_hat, float(w.gamma_prime).hex(),
            None if w.u is None else hexes(w.u),
            [[e.index] + [hexes(getattr(e, name)) for name in
                          ("t", "x", "y", "x_star", "y_star", "eps", "ratio", "xn", "q", "u")]
             for e in w.entries]]
    return hashlib.sha256(json.dumps(dump).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(_WITNESS_PIN))
def test_witness_bits_are_pinned(case):
    assert _witness_digest(*case) == _WITNESS_PIN[case]


def test_bump_supports_are_placed_in_the_norm_they_use():
    # in l1 the spiral's first lip entry has t = 1.50e-2 but an l2 distance
    # of 1.07e-2 to the base, below its bump radius 1.13e-2: that l2 bump
    # would hold the base point, so the build refuses
    F, base, ctx = setup_map("spiral", "l1")
    w = extract_witness(F, base, "lip", 0.05,
                        ScaleLadder(depth=12, samples_per_scale=64, seed=7), ctx)
    assert perturb._l2(w.entries[0].x - base.x) < 0.75 * w.entries[0].t
    with pytest.raises(WitnessError, match="bump supports overlap; thinning insufficient"):
        build_lip_perturbation(w, 0.05)
