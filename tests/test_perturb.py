import copy
import dataclasses
import functools
import json
import math
import types

import numpy as np
import pytest

import perturb_reference
import pins
import subreglab.perturb as perturb
from conftest import ladder12, setup_map
from perturb_reference import annulus_candidates, component_count, reference
from subreglab.geometry import ScaleLadder, derive_seed, norm, norming_functional
from subreglab.mappings import GraphPoint, make_function_graph, sum_with_function
from subreglab.moduli import ElementRecords, estimate_clm, estimate_ssrg
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
    ("spiral", "ssr", 1.1),
]

BUILDERS = {
    "lip": build_lip_perturbation,
    "fclm": build_fclm_perturbation,
    "ss": build_ss_perturbation,
}


def _build(mid, kind, gamma, seed=7):
    F, base = setup_map(mid)
    lad = ladder12(seed)
    if kind == "ssr":
        p = build_ssr_destabilizer(F, base, gamma, lad)
    else:
        w = extract_witness(F, base, kind, gamma, lad)
        p = BUILDERS[kind](w, gamma)
    return F, base, lad, p


@functools.cache
def _verified(mid, kind, gamma):
    """A BUILD_MATRIX build and its verify_builder report, once per session."""
    F, base, lad, p = _build(mid, kind, gamma)
    return p, verify_builder(p, F, base, lad)


def _anchor_xs(p):
    """The points x_k of the anchors (x_k, yb) of F + f, from the anchor entries."""
    return [e.x for e in p.anchor_entries]


def _dims(p):
    """(dim_x, dim_y) of a perturbation: the sizes of its witness entries' x and y."""
    e = p.witness.entries[0]
    return e.x.size, e.y.size


def test_witness_extraction_invariants():
    F, base = setup_map("identity")
    w = extract_witness(F, base, "lip", 2.5, ladder12())
    assert w.kind == "lip"
    assert w.gamma == 2.5
    assert w.gamma_prime < 2.5
    ts = w.scales
    assert all(a > b for a, b in zip(ts, ts[1:]))  # strictly shrinking scales
    for e in w.entries:
        assert e.t > 0.0
        assert norm(e.x - base.x, F.kind) == pytest.approx(e.t, rel=1e-12)
    assert validate_witness(w) == []


def test_validate_witness_flags_tampering():
    F, base = setup_map("identity")
    w = extract_witness(F, base, "lip", 2.5, ladder12())
    w.entries[0], w.entries[1] = w.entries[1], w.entries[0]
    problems = validate_witness(w)
    assert problems
    assert any("scale" in p or "decreas" in p for p in problems)


def test_extraction_refuses_below_the_modulus():
    # the identity map has lip = 1; no destabilizer exists below that
    F, base = setup_map("identity")
    with pytest.raises(WitnessError, match="no witness below gamma"):
        extract_witness(F, base, "lip", 0.5, ladder12())


def test_fclm_extraction_refuses_on_the_interval_map():
    F, base = setup_map("interval")
    with pytest.raises(WitnessError, match="no witness below gamma"):
        extract_witness(F, base, "fclm", 0.8, ladder12())


@pytest.mark.parametrize("gamma", [0.5, 0.9])
def test_ssr_destabilizer_refuses_below_the_quotient(gamma):
    F, base = setup_map("identity")
    with pytest.raises(WitnessError, match="no destabilizer below gamma"):
        build_ssr_destabilizer(F, base, gamma, ladder12())


@pytest.mark.parametrize("mid,kind,gamma", BUILD_MATRIX)
def test_builder_matrix_verifies(mid, kind, gamma):
    _, rep = _verified(mid, kind, gamma)
    assert rep.passed, (rep.notes, rep.destabilization[-3:])
    assert rep.interpolation_max_err <= 1e-14
    assert rep.base_value_err == 0.0
    assert rep.gradient_max_relerr <= 1e-5
    assert rep.modulus_ok
    assert rep.gamma_dp < gamma
    finite = [v for _, v in rep.destabilization if not math.isinf(v)]
    assert finite[-1] <= 0.05


def _probe_rows(mid, kind, gamma) -> np.ndarray:
    """The recorded probe rows x of a BUILD_MATRIX pin: the base, the
    anchors, the probes, points just inside, on and just outside each bump
    support and cone cap, and the case-2 cell and floor boundaries. No code
    makes these rows, so a build without them stops here, by name."""
    case = pins.key((mid, kind, gamma))
    if case not in pins.load("perturbation"):
        raise LookupError(f"BUILD_MATRIX build {case} has no recorded probe rows: write its "
                          f"rows x into tests/pin_data/perturbation.json first")
    rows = pins.stored("perturbation", case)["x"]
    return np.array([[float.fromhex(c) for c in row] for row in rows])


def test_a_build_without_recorded_probe_rows_is_named():
    """A BUILD_MATRIX entry added without its probe rows stops the pin
    writer with a message that names it, not with a bare KeyError."""
    with pytest.raises(LookupError, match="build identity/lip/0.123 has no recorded probe rows"):
        _probe_rows("identity", "lip", 0.123)


# every BUILD_MATRIX perturbation, kept under "map/kind/gamma": its eval and
# derivative as hex floats (a derivative of None on a seam) at its probe
# rows x, which the pin carries as they were first recorded, and every field
# of its verify_builder report
@pins.pinned("perturbation", BUILD_MATRIX)
def _perturbation_pin(mid, kind, gamma) -> dict:
    p, rep = _verified(mid, kind, gamma)
    X = _probe_rows(mid, kind, gamma)
    owner, G = p.derivative(X)
    jac = dict(zip(owner.tolist(), G))
    return {"case": p.case, "class_tag": p.class_tag, "x": [pins.hexes(x) for x in X],
            "eval": [pins.hexes(v) for v in p.eval(X)],
            "derivative": [pins.hexes(jac[k]) if k in jac else None for k in range(len(X))],
            "report": pins.canon(dataclasses.asdict(rep))}


@pytest.mark.parametrize("mid,kind,gamma", BUILD_MATRIX)
def test_perturbation_values_are_pinned(mid, kind, gamma):
    got, pin = _perturbation_pin(mid, kind, gamma), pins.stored("perturbation", (mid, kind, gamma))
    assert {**got, "report": None} == {**pin, "report": None}


@pytest.mark.parametrize("mid,kind,gamma", BUILD_MATRIX)
def test_builder_reports_are_pinned(mid, kind, gamma):
    got = _perturbation_pin(mid, kind, gamma)["report"]
    assert got == pins.stored("perturbation", (mid, kind, gamma))["report"]


def _bits(a) -> list:
    return np.asarray(a, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("mid,kind,gamma", BUILD_MATRIX)
def test_every_perturbation_takes_rows_and_row_k_is_the_one_row_call(mid, kind, gamma):
    """eval(X) and derivative(X) -> (owner, G) on rows: row k has the bits
    of the one-row call and of the point-by-point reference construction,
    a seam row is absent from owner, and no rows give empty results. The
    rows are the pinned points (seams included), jitter around the
    anchors at three widths, and points of the unit box."""
    p, _ = _verified(mid, kind, gamma)
    ref_eval, ref_derivative = reference(p)
    pin = pins.stored("perturbation", (mid, kind, gamma))
    rng = np.random.default_rng(13)
    AX = np.array(_anchor_xs(p))
    dim_x, dim_y = _dims(p)
    near = AX[rng.integers(len(AX), size=(3, 24))]
    jitter = [1.0 + rng.uniform(-w, w, near.shape[1:]) for w in (0.3, 0.02, 1e-3)]
    X = np.concatenate([_probe_rows(mid, kind, gamma)] + [a * j for a, j in zip(near, jitter)]
                       + [rng.uniform(-0.6, 0.6, (24, dim_x))])
    values = p.eval(X)
    owner, G = p.derivative(X)
    assert values.shape == (len(X), dim_y) and G.shape == (len(owner), dim_y, dim_x)
    assert np.all(np.diff(owner) > 0)
    jac = dict(zip(owner.tolist(), G))
    seams = 0
    for k, x in enumerate(X):
        assert _bits(values[k]) == _bits(ref_eval(x)) == _bits(p.eval(X[k:k + 1])[0]), k
        want = ref_derivative(x)
        one, g = p.derivative(X[k:k + 1])
        if want is None:
            seams += 1
            assert k not in jac and len(one) == 0 and g.shape == (0, dim_y, dim_x), k
        else:
            assert _bits(jac[k]) == _bits(want) == _bits(g[0]), k
    assert seams >= pin["derivative"].count(None)
    assert p.eval(X[:0]).shape == (0, dim_y)
    assert [a.shape for a in p.derivative(X[:0])] == [(0,), (0, dim_y, dim_x)]


def test_interpolation_is_bitwise_exact():
    F, base, lad, p = _build("square", "ss", 0.5)
    assert np.array_equal(p.eval(base.x[None]), np.zeros((1, _dims(p)[1])))
    yb = p.witness.base.y
    assert np.array_equal(yb, base.y)
    for e in p.anchor_entries:
        got = p.eval(e.x[None])[0]
        assert np.array_equal(got, yb - e.y), (e.x, got, yb - e.y)
        # F + f passes through (x_k, yb) exactly
        assert np.array_equal(yb - e.y + F.func(e.x[None])[0], base.y)


def test_supports_are_disjoint():
    for mid, kind, gamma in (("identity", "lip", 2.5), ("xsin", "ss", 1.05)):
        F, base, lad, p = _build(mid, kind, gamma)
        count = component_count(p)
        rng = np.random.default_rng(23)
        for _ in range(400):
            x = rng.uniform(-0.6, 0.6, size=_dims(p)[0])
            assert count(x) <= 1
        for xk in _anchor_xs(p):
            assert count(xk) == 1


def test_anchor_eps_vanishes_for_bump_and_case1_builds():
    *_, p_lip = _build("identity", "lip", 2.5)
    assert all(e == 0.0 for e in p_lip.anchor_eps)
    *_, p_cone = _build("spiral", "ss", 0.5)
    assert p_cone.case == 1
    assert all(e == 0.0 for e in p_cone.anchor_eps)


def test_case2_build_has_a_positive_floor():
    *_, p = _build("square", "ss", 0.5)
    assert p.case == 2
    assert p.floor_radius > 0.0
    # below the floor the perturbation vanishes identically
    for frac in (0.5, 0.1, 0.01):
        x = np.array([[p.floor_radius * frac]])
        assert np.array_equal(p.eval(x), np.zeros((1, 1)))


def _cone_axis(p):
    """(u*, w, bs) of a case-2 build: its cone's norming functional and axis,
    and the scales alpha of its shells, largest first."""
    base = p.witness.base
    d = p.witness.entries[-1].x - base.x
    u = norming_functional(d, p.witness.norm_kind)
    w = d / float(u @ d)
    return u, w, sorted((float(u @ (e.x - base.x)) for e in p.anchor_entries), reverse=True)


def _case2_cells(p, X):
    """The cell of each row as the reference numbers them (0 above bs[0],
    k in [bs[k], bs[k-1]), len(bs) in the ramp), -1 at alpha <= floor."""
    u, _, bs = _cone_axis(p)
    alpha = (X - p.witness.base.x) @ u
    cell = len(bs) - np.searchsorted(bs[::-1], alpha, side="right")
    return np.where(alpha <= p.floor_radius, -1, cell)


@pytest.mark.parametrize("mid,kind,gamma", [("square", "ss", 0.5), ("identity", "ssr", 1.1)])
@pytest.mark.parametrize("place", ["cell 0", "middle cell", "ramp cell", "outside"])
def test_case2_rows_all_in_one_place_are_the_reference(mid, kind, gamma, place):
    """A batch whose rows all lie in one cell of the log cone, or all where f
    vanishes (below the floor, at the base, on the far side of the cone),
    gives each row the bits of the point-by-point reference: every other
    cell's group of rows is empty."""
    p, _ = _verified(mid, kind, gamma)
    assert p.case == 2
    _, w, bs = _cone_axis(p)
    floor = p.floor_radius
    alphas = {
        "cell 0": np.geomspace(bs[0], 2.0 * bs[0], 17)[:-1],
        "middle cell": np.geomspace(bs[2], bs[1], 17)[:-1],
        "ramp cell": np.geomspace(floor, bs[-1], 18)[1:-1],
        "outside": np.concatenate([np.geomspace(1e-3 * floor, floor, 8), [0.0],
                                   -np.geomspace(floor, 2.0 * bs[0], 8)]),
    }[place]
    X = p.witness.base.x + alphas[:, None] * w
    want_cell = {"cell 0": 0, "middle cell": 2, "ramp cell": len(bs), "outside": -1}[place]
    assert np.all(_case2_cells(p, X) == want_cell)
    ref_eval, ref_derivative = reference(p)
    values = p.eval(X)
    owner, G = p.derivative(X)
    jac = dict(zip(owner.tolist(), G))
    for k, x in enumerate(X):
        assert _bits(values[k]) == _bits(ref_eval(x)), k
        want = ref_derivative(x)
        assert k not in jac if want is None else _bits(jac[k]) == _bits(want), k


def test_case2_takes_one_log_pass_per_call(monkeypatch):
    """One eval and one derivative call each take the math.log weights of
    all their rows in one _logs pass, however many cells the rows span."""
    p, _ = _verified("square", "ss", 0.5)
    _, w, bs = _cone_axis(p)
    alphas = [1.5 * bs[0], math.sqrt(bs[0] * bs[1]), math.sqrt(bs[1] * bs[2]),
              math.sqrt(bs[2] * bs[3]), math.sqrt(p.floor_radius * bs[-1])]
    X = p.witness.base.x + np.array(alphas)[:, None] * w
    assert len(set(_case2_cells(p, X).tolist()) - {0}) >= 3
    calls = []
    logs = perturb._logs
    monkeypatch.setattr(perturb, "_logs", lambda v: calls.append(len(v)) or logs(v))
    p.eval(X)
    assert calls == [4]
    calls.clear()
    p.derivative(X)
    assert calls == [4]


@pytest.mark.parametrize("mid,kind,gamma", [
    ("identity", "lip", 2.5),
    ("xsin", "fclm", 0.1),
    ("square", "ss", 0.5),
    ("spiral", "ss", 0.5),
    ("identity", "ssr", 1.1),
    ("spiral", "ssr", 1.1),
])
def test_serialization_round_trip_is_bit_identical(mid, kind, gamma):
    F, base, lad, p = _build(mid, kind, gamma)
    desc = json.loads(json.dumps(p.describe()))
    q = load_perturbation(desc)
    rng = np.random.default_rng(31)
    xs = [rng.uniform(-0.7, 0.7, size=_dims(p)[0]) for _ in range(300)]
    xs += _anchor_xs(p)
    xs += list(p.probes)
    X = np.array(xs)
    assert np.array_equal(p.eval(X), q.eval(X))
    (op, dp), (oq, dq) = p.derivative(X), q.derivative(X)
    assert np.array_equal(op, oq)
    assert np.array_equal(dp, dq)


def test_reloaded_perturbation_verifies():
    F, base, lad, p = _build("xsin", "fclm", 0.1)
    q = load_perturbation(json.loads(json.dumps(p.describe())))
    rep = verify_builder(q, F, base, lad)
    assert rep.passed


@pytest.mark.parametrize("mid,kind,fragment", [
    ("spiral", "l1", "is l1 on 2->2"),  # same dimensions, another norm
    ("xsin", "l2", "is l2 on 1->1"),  # same norm, 1-D
])
def test_verify_builder_refuses_a_map_unlike_the_witness(mid, kind, fragment):
    F, base = setup_map("spiral", "l2")
    lad = ScaleLadder(depth=6, samples_per_scale=32, seed=7)
    p = build_ssr_destabilizer(F, base, 1.1, lad)
    G, base_g = setup_map(mid, kind)
    with pytest.raises(WitnessError, match=fragment):
        verify_builder(p, G, base_g, lad)


def test_tampered_description_is_rejected():
    # replaying a witness with a stronger claim than it certifies must fail
    F, base, lad, p = _build("identity", "lip", 2.5)
    desc = p.describe()
    desc["gamma"] = float(0.9).hex()
    with pytest.raises(WitnessError):
        load_perturbation(desc)


def test_description_with_understated_stats_is_rejected():
    # halved ratios and dual norms would certify a lip constant half the
    # true one; the stored points give the real values back
    F, base = setup_map("identity")
    lad = ScaleLadder(depth=12, samples_per_scale=128, seed=7)
    p = build_lip_perturbation(extract_witness(F, base, "lip", 2.5, lad), 2.5)
    desc = json.loads(json.dumps(p.describe()))
    for d in desc["witness"]["entries"]:
        for key in ("ratio", "xn"):
            d[key] = (0.5 * float.fromhex(d[key])).hex()
    desc["witness"]["gamma_prime"] = (0.5 * float.fromhex(desc["witness"]["gamma_prime"])).hex()
    desc["gamma"] = float(1.3).hex()
    with pytest.raises(WitnessError, match="ratio"):
        load_perturbation(desc)


def test_description_violating_a_witness_invariant_is_rejected():
    F, base, lad, p = _build("identity", "lip", 2.5)
    desc = json.loads(json.dumps(p.describe()))
    d = desc["witness"]["entries"][0]
    d["y_star"] = [(2.0 * float.fromhex(c)).hex() for c in d["y_star"]]
    with pytest.raises(WitnessError, match="unit sphere"):
        load_perturbation(desc)


@functools.cache
def _identity_description(kind, gamma):
    """The describe() output of identity's lip or ssr build on the small
    pin ladder, as JSON text."""
    F, base = setup_map("identity")
    if kind == "ssr":
        p = build_ssr_destabilizer(F, base, gamma, _WITNESS_LADDER)
    else:
        p = build_lip_perturbation(extract_witness(F, base, kind, gamma, _WITNESS_LADDER),
                                   gamma)
    return json.dumps(p.describe())


# each malformed witness, and the end of the one problem it is reported as
_MALFORMED = {
    "no entries": ": witness has no entries",
    "empty y*": " y_star has shape (0,), not (1,)",
    "x* of two coordinates": " x_star has shape (2,), not (1,)",
    "empty u": " u has shape (0,), not (1,)",
    "empty base x": ": base point has no coordinates",
    "no eps": ": entries[1] has no field 'eps'",
    "t of zz": (": entries[1] field 't' is unreadable "
                "('zz': invalid hexadecimal floating-point string)"),
}


@pytest.mark.parametrize("kind, gamma", [("lip", 2.5), ("ssr", 1.1)])
@pytest.mark.parametrize("tamper", sorted(_MALFORMED))
def test_a_malformed_description_raises_witness_error(kind, gamma, tamper):
    desc = json.loads(_identity_description(kind, gamma))
    entries = desc["witness"]["entries"]
    if tamper == "no entries":
        entries.clear()
    elif tamper == "empty y*":
        entries[1]["y_star"] = []
    elif tamper == "x* of two coordinates":
        entries[1]["x_star"] = 2 * entries[1]["x_star"]
    elif tamper == "no eps":
        del entries[1]["eps"]
    elif tamper == "t of zz":
        entries[1]["t"] = "zz"
    elif tamper == "empty base x":  # and every x-side vector, so no shape disagrees
        desc["witness"]["base_x"] = []
        for e in entries:
            e["x"] = e["x_star"] = e["u"] = []
    else:
        entries[1]["u"] = []
    with pytest.raises(WitnessError) as err:
        load_perturbation(desc)
    assert str(err.value).endswith(_MALFORMED[tamper])
    assert ";" not in str(err.value)


# each field set outside its fixed set on identity's ssr build (None for a
# field of the description itself), and the end of the one problem it is
# reported as
_OUT_OF_SET = [
    ("witness", "norm_kind", "l7", "'l7': not one of ('l1', 'l2', 'linf'))"),
    ("witness", "norm_kind", 3, "3: not one of ('l1', 'l2', 'linf'))"),
    ("witness", "kind", "zzz", "'zzz': not one of ('lip', 'fclm', 'ss', 'ssr'))"),
    ("witness", "direction_mode", "auto", "'auto': not one of ('distinct', 'stationary'))"),
    (None, "class_tag", "zzz", "'zzz': not one of ('ssr',))"),
    (None, "class_tag", "lip", "'lip': not one of ('ssr',))"),
]


@pytest.mark.parametrize("part, key, value, end", _OUT_OF_SET)
def test_a_description_field_outside_its_set_raises_witness_error(part, key, value, end):
    """A witness kind, direction mode or norm kind outside its set, or a
    class tag other than the witness kind's, is a WitnessError naming the
    field, not a ValueError of the builders."""
    desc = json.loads(_identity_description("ssr", 1.1))
    (desc if part is None else desc[part])[key] = value
    with pytest.raises(WitnessError) as err:
        load_perturbation(desc)
    where = "description" if part is None else "witness"
    assert str(err.value) == f"invalid witness: {where} field {key!r} is unreadable ({end}"


def _firmly_calm(f, extra_xs=None):
    """firmly_calm_test of a 1-D rows-form f at 0 over ladder12 in l1, with
    the calmness estimate of f's graph as clause A's source."""
    lad = ladder12()
    base = GraphPoint(np.zeros(1), f(np.zeros((1, 1)))[0])
    clm = estimate_clm(make_function_graph(f), base, lad)
    return firmly_calm_test(f, np.zeros(1), clm, lad, "l1", extra_xs=extra_xs)


def test_firmly_calm_accepts_a_kinked_but_calm_function():
    out = _firmly_calm(np.abs)
    assert out["ok"] and not out["diverging"]


def test_firmly_calm_rejects_a_jump():
    c = 0.01

    def f(X):
        return np.where(X < c, 0.0, 1.0)

    out = _firmly_calm(f, extra_xs=[np.array([c])])
    assert not out["ok"]


def test_firmly_calm_rejects_divergent_quotients():
    out = _firmly_calm(lambda X: np.sqrt(np.abs(X)))
    assert not out["ok"] and out["diverging"]


def test_phase_d_draws_no_sample_of_its_own(monkeypatch):
    """Phase (d) takes its calmness quotients from the estimate of phase
    (c): during verify_builder of an fclm build no annulus of the
    verification ladder is sampled with seed tag 83, which a clause-A
    sample of its own would use."""
    F, base, lad, p = _build("xsin", "fclm", 0.1)
    seeds = []
    draw = perturb.sample_annuli
    monkeypatch.setattr(perturb, "sample_annuli",
                        lambda *a, **k: seeds.extend(a[4]) or draw(*a, **k))
    rep = verify_builder(p, F, base, lad)
    assert rep.firmly_calm_ok
    vlad = perturb._destab_ladder(p, lad)
    assert seeds and not set(seeds) & set(vlad.seeds(83).tolist())


def test_random_calm_perturbation_contract():
    for seed in range(12):
        fe, fg, a, b = random_calm_perturbation(seed)
        assert abs(a) + abs(b) <= 0.85 + 1e-15
        assert fe(np.zeros((1, 1))).tolist() == [[0.0]]
        assert fg(np.zeros((1, 1)))[0].tolist() == []  # no derivative at the base
        # derivative matches a central difference away from the base
        for xv in (0.3, -0.2, 0.05):
            h = 1e-7
            up, down = fe(np.array([[xv + h], [xv - h]]))[:, 0]
            fd = (up - down) / (2 * h)
            assert fg(np.array([[xv]]))[1][0, 0, 0] == pytest.approx(fd, abs=1e-6)


def test_random_calm_perturbations_leave_ssrg_positive():
    F, base = setup_map("identity")
    lad = ladder12()
    for i in range(5):
        fe, fg, a, b = random_calm_perturbation(derive_seed(7, 173, i))
        G = sum_with_function(F, make_function_graph(fe, grad=fg), name="identity+calm")
        est = estimate_ssrg(G, base, lad)
        assert est.reported >= 1.0 - (abs(a) + abs(b)) - 0.05
        assert est.reported >= 0.05


def test_ssr_destabilizer_kills_ssrg_exactly():
    F, base, lad, p = _build("identity", "ssr", 1.1)
    rep = verify_builder(p, F, base, lad)
    assert rep.passed
    assert rep.destabilization_ok
    vals = [v for _, v in rep.destabilization]
    assert vals[-1] == 0.0
    # the sum map attains the base value at every anchor
    G = sum_with_function(F, make_function_graph(p.eval, grad=p.derivative),
                          name="identity+ssr")
    for xk in _anchor_xs(p):
        assert G.image_distance(xk[None], base.y[None])[0] <= 1e-15


def test_sampled_modulus_stays_below_gamma():
    F, base, lad, p = _build("xsin", "fclm", 0.1)
    fgraph = make_function_graph(p.eval, grad=p.derivative, dim_x=1, dim_y=1,
                                 kind="l1", name="f")
    fbase = GraphPoint(base.x, np.zeros(1))
    est = estimate_clm(fgraph, fbase, lad)
    assert est.reported <= 0.1


def _build128(mid, kind, gamma):
    F, base = setup_map(mid)
    lad = ScaleLadder(depth=12, samples_per_scale=128, seed=7)
    return F, base, lad, BUILDERS[kind](extract_witness(F, base, kind, gamma, lad), gamma)


def _shifted_eval(p, dy):
    return lambda x: p.eval(x) + dy


def _doubled_derivative(p):
    def derivative(X):
        owner, G = p.derivative(X)
        return owner, 2.0 * G
    return derivative


@pytest.mark.parametrize("tamper,note", [
    # gamma and gamma'' lowered below the modulus 1.83 the bumps have
    pytest.param(lambda p: dataclasses.replace(p, gamma=1.5, gamma_dp=1.4),
                 "sampled modulus 1.83331 exceeds gamma - margin = 1.45", id="modulus"),
    # each anchor entry's y lowered by 1e-3, so each target yb - y_k rises by it
    pytest.param(lambda p: dataclasses.replace(p, anchor_entries=[
                     dataclasses.replace(e, y=e.y - 1e-3) for e in p.anchor_entries]),
                 "interpolation error 1.000e-03 exceeds 1e-14 * 1", id="interpolation"),
    pytest.param(lambda p: dataclasses.replace(p, eval=_shifted_eval(p, 1e-3)),
                 "value at the base is 1.000e-03, not 0", id="base_value"),
    pytest.param(lambda p: dataclasses.replace(p, derivative=_doubled_derivative(p)),
                 "Jacobian relative error 5.000e-01 exceeds 1e-05", id="jacobian"),
])
def test_a_failed_build_names_each_failed_check(tamper, note):
    F, base, lad, p = _build128("identity", "lip", 2.5)
    assert verify_builder(p, F, base, lad).notes == []
    rep = verify_builder(tamper(p), F, base, lad)
    assert not rep.passed
    assert note in rep.notes, rep.notes


def _entry(index, x, y_star):
    """A witness entry of the identity at x with unit ratio and (x*, y*) = (y*, y*)."""
    x = np.array([x])
    return perturb.WitnessEntry(index=index, t=abs(x[0]), x=x, y=x.copy(),
                                x_star=np.array([y_star]), y_star=np.array([y_star]),
                                eps=0.0, ratio=1.0, xn=1.0, q=0.0, u=np.sign(x))


def test_phase_e_shifts_each_anchor_by_its_own_witness_entry(monkeypatch):
    """A case-1 witness with two entries in the direction +1: the cones
    keep the finer one and are sorted by -t, so the anchors are the
    entries at 0.2 and -0.1, not the witness's first two. Each element
    that phase (e) injects carries its own anchor's x* and y*."""
    F, base = setup_map("identity")
    w = perturb.WitnessSequence(
        kind="ss", entries=[_entry(1, 0.4, 1.0), _entry(2, 0.2, -1.0), _entry(3, -0.1, 1.0)],
        gamma=1.5, gamma_prime=1.0, direction_mode="distinct", u=None, k_hat=1,
        base=GraphPoint(np.zeros(1), np.zeros(1)), norm_kind="l1")
    p = build_ss_perturbation(w, 1.5)
    assert p.case == 1 and [xk.tolist() for xk in _anchor_xs(p)] == [[0.2], [-0.1]]
    injected = []
    pool = perturb.build_element_pool
    monkeypatch.setattr(perturb, "build_element_pool",
                        lambda *a, **k: injected.extend(k["extra_elements"]) or pool(*a, **k))
    verify_builder(p, F, base, ScaleLadder(depth=6, samples_per_scale=16, seed=7))
    own = {e.x[0]: e for e in w.entries}
    assert [elem.x.tolist() for elem in injected] == [[0.2], [-0.1]]
    assert [elem.y_star.tolist() for elem in injected] == [[-1.0], [1.0]]
    _, G = p.derivative(np.array([[0.2], [-0.1]]))
    for elem, g in zip(injected, G):
        e = own[elem.x[0]]
        assert elem.x_star.tolist() == (e.x_star + g.T @ e.y_star).tolist()


def test_a_failed_class_check_is_named(monkeypatch):
    F, base, lad, p = _build128("xsin", "fclm", 0.1)
    monkeypatch.setattr(perturb, "firmly_calm_test", lambda *a, **k: {"ok": False})
    rep = verify_builder(p, F, base, lad)
    assert not rep.passed
    assert rep.notes == ["firm calmness test failed"]

    F, base, lad, p = _build128("square", "ss", 0.5)
    assert p.case == 2
    monkeypatch.setattr(perturb, "semismooth_star_test",
                        lambda *a, **k: types.SimpleNamespace(verdict="fail"))
    rep = verify_builder(p, F, base, lad)
    assert not rep.passed
    assert "semismooth* verdict is 'fail', not 'pass'" in rep.notes


# extract_witness on a small ladder: the sha256 of the hexed sequence
# (direction mode, k_hat, gamma', u, every entry field, in order), or the
# exact refusal text
_WITNESS_LADDER = ScaleLadder(depth=8, samples_per_scale=16, seed=7)
_WITNESS_CASES = sorted([
    ('identity', 'l1', 'lip', 2.5, 'auto'),
    ('zero', 'l1', 'lip', 0.01, 'auto'),
    ('spiral', 'l1', 'lip', 0.05, 'auto'),
    ('xsin', 'l1', 'fclm', 0.1, 'auto'),
    ('interval', 'l1', 'fclm', 1.2, 'auto'),
    ('interval', 'l1', 'fclm', 0.8, 'auto'),
    ('xsin', 'l1', 'ss', 1.05, 'auto'),
    ('spiral', 'l2', 'ss', 0.5, 'auto'),
    ('square', 'l1', 'ss', 0.5, 'stationary'),
    ('abs', 'l1', 'ss', 1.5, 'distinct'),
    ('compl_angle', 'l1', 'ss', 0.5, 'auto'),
    ('identity', 'l1', 'ssr', 1.1, 'auto'),
    ('identity', 'l1', 'ssr', 0.9, 'auto'),
    ('square', 'l1', 'ssr', 0.6, 'auto'),
])


@pins.pinned("witness", _WITNESS_CASES)
def _witness_digest(mid, norm_kind, kind, gamma, mode):
    F, base = setup_map(mid, norm_kind)
    try:
        w = extract_witness(F, base, kind, gamma, _WITNESS_LADDER, mode)
    except WitnessError as err:
        return str(err)
    hexes = perturb._hex_vec
    dump = [w.direction_mode, w.k_hat, float(w.gamma_prime).hex(),
            None if w.u is None else hexes(w.u),
            [[e.index] + [hexes(getattr(e, name)) for name in
                          ("t", "x", "y", "x_star", "y_star", "eps", "ratio", "xn", "q", "u")]
             for e in w.entries]]
    return pins.sha256(json.dumps(dump))


@pytest.mark.parametrize("case", _WITNESS_CASES)
def test_witness_bits_are_pinned(case):
    assert _witness_digest(*case) == pins.stored("witness", case)


# witnesses of every kind, in both direction modes, in one and two dimensions
_VALIDATE_CASES = [
    ("identity", "l1", "lip", 2.5, "auto"),
    ("spiral", "l1", "lip", 0.05, "auto"),
    ("xsin", "l1", "fclm", 0.1, "auto"),
    ("spiral", "l2", "ss", 0.5, "auto"),
    ("square", "l1", "ss", 0.5, "stationary"),
    ("identity", "l1", "ssr", 1.1, "auto"),
    ("spiral", "l2", "ssr", 1.1, "auto"),
]


@functools.cache
def _small_witness(mid, norm_kind, kind, gamma, mode):
    F, base = setup_map(mid, norm_kind)
    return extract_witness(F, base, kind, gamma, _WITNESS_LADDER, mode)


def _tamper(w, how):
    es = w.entries
    if how == "swapped":
        es[0], es[1] = es[1], es[0]
    elif how == "halved":
        for e in es:
            e.t, e.ratio, e.xn, e.q = 0.5 * e.t, 0.5 * e.ratio, 0.5 * e.xn, 0.5 * e.q
    elif how == "doubled y*":
        es[0].y_star = 2.0 * es[0].y_star
    elif how == "clustered":
        w.direction_mode = "distinct"
        for e in es:
            e.u = es[0].u.copy()
    elif how == "at the base":
        es[-1].x = w.base.x.copy()
    elif how == "nan":
        es[1].y_star[0] = math.nan
        es[2].ratio = math.nan


@pytest.mark.parametrize("how", [None, "swapped", "halved", "doubled y*", "clustered",
                                 "at the base", "nan"])
@pytest.mark.parametrize("case", _VALIDATE_CASES)
def test_validate_witness_is_the_per_entry_check(case, how):
    w = copy.deepcopy(_small_witness(*case))
    _tamper(w, how)
    got = validate_witness(w)
    assert got == perturb_reference.validate_witness(w)
    if how is None:
        assert got == []
    elif how != "clustered" or case[2] in ("ss", "ssr"):
        assert got


# coordinates on the key grid of width 0.25, at its half-widths (rounded half
# to even) and between, signed zeros included
_KEY_GRID = np.array([0.25 * k + h for k in range(-4, 5) for h in (-0.125, 0.0, 0.125)]
                     + [-0.0])


def _random_annulus(rng, n, dim_x, dim_y):
    """Records whose u, payload and y* hit key half-widths exactly (t a power
    of two, the base at the origin), with ties in the objective, u0 and t,
    NaN objectives and zero payloads; and a random kept subset."""
    t = rng.choice([0.5, 1.0, 2.0], n)
    y = rng.choice(_KEY_GRID, (n, dim_y))
    y[rng.random(n) < 0.15] = rng.choice([0.0, -0.0])
    cols = {"t": t, "ratio": rng.choice([0.1, 0.2, 0.3], n), "xn": rng.choice([0.0, 0.5], n),
            "q": rng.random(n), "eps": rng.choice([0.0, 1e-3], n),
            "x": rng.choice(_KEY_GRID, (n, dim_x)) * t[:, None], "y": y,
            "x_star": rng.choice(_KEY_GRID, (n, dim_x)),
            "y_star": rng.choice(_KEY_GRID, (n, dim_y))}
    obj = rng.choice([0.0, -0.0, 0.1, 0.1, 0.2, np.nan], n)
    keep = np.flatnonzero(rng.random(n) < 0.85)
    base = GraphPoint(np.zeros(dim_x), np.zeros(dim_y))
    return ElementRecords(**cols), obj, keep, base


def _candidate_bits(cands):
    return [{k: c[k] if k == "annulus" else pins.hexes(c[k]) for k in sorted(c)} for c in cands]


def _share_a_key(a, b):
    """b with its first record's t, x, y and y* those of a's first record,
    so that the two records share an orientation key."""
    cols = {f: getattr(b, f).copy() for f in ("t", "x", "y", "y_star")}
    for f, col in cols.items():
        col[0] = getattr(a, f)[0]
    return dataclasses.replace(b, **cols)


def test_columnar_candidates_are_the_per_record_loop():
    # 1-4 annuli per trial, each against the loop on its own; when annuli
    # hold records, the first two share a kept record's orientation key
    rng = np.random.default_rng(16)
    for trial in range(300):
        dims = rng.integers(1, 3, 2)
        js = np.sort(rng.choice(16, int(rng.integers(1, 5)), replace=False)).tolist()
        parts = [_random_annulus(rng, int(rng.integers(0, 40)), *dims) for _ in js]
        if len(parts) > 1 and len(parts[0][0]) and len(parts[1][0]):
            for k in (0, 1):
                recs, obj, keep, base = parts[k]
                parts[k] = (_share_a_key(parts[0][0], recs) if k else recs, obj,
                            np.union1d(keep, [0]), base)
        if trial % 10 == 0:
            parts[-1] = (*parts[-1][:2], parts[-1][2][:0], parts[-1][3])  # no kept record
        base = parts[0][3]
        want = [c for j, (recs, obj, keep, _) in zip(js, parts)
                for c in annulus_candidates(recs, obj, keep, j, base)]
        sizes = [len(p[0]) for p in parts]
        offsets = np.cumsum([0] + sizes[:-1])
        got = perturb._candidates(ElementRecords.concat([p[0] for p in parts]),
                                  np.concatenate([p[1] for p in parts]),
                                  np.concatenate([p[2] + o for p, o in zip(parts, offsets)]),
                                  np.repeat(js, sizes), base)
        assert _candidate_bits(got) == _candidate_bits(want), trial


@pytest.mark.parametrize("col, value, exc", [
    ("x", math.nan, ValueError), ("x", math.inf, OverflowError),
    ("x", -math.inf, OverflowError), ("y", math.nan, ValueError),
    ("y_star", math.nan, ValueError), ("y_star", math.inf, OverflowError),
    ("y_star", -math.inf, OverflowError), ("y_star", 1e308, OverflowError),
])
def test_a_non_finite_key_coordinate_raises_as_the_loop_did(col, value, exc):
    # u takes x's value; a payload is NaN when y holds a NaN and otherwise
    # lies in [-1, 1]; 1e308 keys to inf, as float division overflows
    rng = np.random.default_rng(5)
    recs, obj, _, base = _random_annulus(rng, 12, 2, 2)
    cols = {f.name: getattr(recs, f.name).copy() for f in dataclasses.fields(recs)}
    cols[col][7, 1] = value
    recs, keep = ElementRecords(**cols), np.arange(12)
    with pytest.raises(exc):
        annulus_candidates(recs, obj, keep, 0, base)
    with pytest.raises(exc):
        perturb._candidates(recs, obj, keep, np.zeros(12, dtype=int), base)


def test_bump_supports_are_placed_in_the_norm_they_use():
    # in l1 the spiral's first lip entry has t = 1.50e-2 but an l2 distance
    # of 1.07e-2 to the base, below its bump radius 1.13e-2: that l2 bump
    # would hold the base point, so the build refuses
    F, base = setup_map("spiral", "l1")
    w = extract_witness(F, base, "lip", 0.05,
                        ScaleLadder(depth=12, samples_per_scale=64, seed=7))
    assert norm(w.entries[0].x - base.x, "l2") < 0.75 * w.entries[0].t
    with pytest.raises(WitnessError, match="bump supports overlap; thinning insufficient"):
        build_lip_perturbation(w, 0.05)
