"""The memo on each map: shared annuli, deepening, extras and run isolation."""

import dataclasses
import json
import math

import numpy as np
import pytest

import pins
import subreglab.moduli as moduli
import subreglab.perturb as perturb
import subreglab.radius_cli as cli
from conftest import setup_map
from subreglab.geometry import ScaleLadder, dual_norm, norm
from subreglab.mappings import (
    GraphPoint,
    catalog,
    graph_annuli,
    make_identity,
    make_square,
    sum_with_function,
)
from subreglab.moduli import build_element_pool
from subreglab.perturb import WitnessError, extract_witness
from subreglab.variational import CoderivElement, element_quotient, elements_at_point

_LADDER = ScaleLadder(depth=12, samples_per_scale=64, seed=7)


def _record_dump(records):
    return [_fields(annulus) for annulus in records]


@pytest.mark.parametrize("mid,kind", [("interval", "l1"), ("xsin", "l1"), ("spiral", "l2")])
def test_pool_views_equal_fresh_pools_at_every_depth(mid, kind):
    """One map's memo, read at growing and shrinking depths, gives the
    records of a fresh map each time."""
    F, base = setup_map(mid, kind)
    for depth in (12, 20, 28, 20):
        lad = ScaleLadder(depth=depth, samples_per_scale=64, seed=7)
        got, got_id = build_element_pool(F, base, lad)
        want, want_id = build_element_pool(setup_map(mid, kind)[0], base, lad)
        assert got_id == want_id
        assert len(got) == depth
        assert _record_dump(got) == _record_dump(want)


def _witness_dump(seq):
    return [seq.kind, seq.direction_mode, seq.k_hat, pins.hexes([seq.gamma, seq.gamma_prime])]\
        + [(e.index, pins.hexes([e.t, e.eps, e.ratio, e.xn, e.q]),
            *map(pins.hexes, (e.x, e.y, e.x_star, e.y_star, e.u))) for e in seq.entries]


def _extraction(F, base, kind, gamma):
    try:
        return _witness_dump(extract_witness(F, base, kind, gamma, _LADDER))
    except WitnessError as err:
        return str(err)


@pytest.mark.parametrize("mid,calls", [
    ("interval", [("fclm", 1.2, False), ("fclm", 0.8, True)]),
    ("xsin", [("fclm", 0.1, False), ("ss", 1.05, False)]),
    ("identity", [("ssr", 1.1, False), ("ssr", 0.9, True)]),
])
def test_a_shared_pool_gives_the_witnesses_of_fresh_pools(mid, calls):
    """Extractions in pipeline order on one map match one fresh map each,
    down to the text of the refusals."""
    F, base = setup_map(mid)
    moduli.estimate_all_constants(F, base, _LADDER)
    for kind, gamma, refused in calls:
        shared = _extraction(F, base, kind, gamma)
        assert shared == _extraction(setup_map(mid)[0], base, kind, gamma)
        assert isinstance(shared, str) == refused


@pytest.mark.parametrize("mid,kind,gamma", [("interval", "fclm", 1.2), ("xsin", "ss", 1.05),
                                            ("identity", "ssr", 1.1)])
def test_deepening_appends_the_candidates_of_the_new_annuli(monkeypatch, mid, kind, gamma):
    """The selection after a deepening sees what one collection over the
    whole deepened ladder gives, in the same order."""
    F, base = setup_map(mid)
    ladders, offered = [], []
    collect, select = perturb._collect_candidates, perturb._try_select

    def collect_logged(*args):
        ladders.append(args[4])
        return collect(*args)

    def select_logged(cands, *args):
        offered.append(list(cands))
        return select(cands, *args)

    monkeypatch.setattr(perturb, "_collect_candidates", collect_logged)
    monkeypatch.setattr(perturb, "_try_select", select_logged)
    extract_witness(F, base, kind, gamma, _LADDER)
    assert ladders[-1].depth == 20  # one deepening
    whole = collect(setup_map(mid)[0], base, kind, gamma, ladders[-1])
    assert len(offered[-1]) == len(whole)
    for a, b in zip(offered[-1], whole):
        assert a.keys() == b.keys()
        assert all(pins.hexes(a[k]) == pins.hexes(b[k]) for k in a)


def test_extras_follow_the_shared_records_and_are_not_memoized():
    F, base = setup_map("xsin")
    plain, plain_id = build_element_pool(F, base, _LADDER)
    # y*-scaled copies of elements of every other annulus, moved to the x of
    # the next record so that they are not sampled elements
    extras = [CoderivElement(recs.x[1], recs.y[0], 2.0 * recs.y_star[0], 2.0 * recs.x_star[0])
              for recs in plain[::2] if len(recs) > 1]
    assert len(extras) >= 3
    with_extras, extras_id = build_element_pool(F, base, _LADDER, extra_elements=extras)
    assert extras_id == plain_id
    added = []  # the records after the shared ones, annulus by annulus
    for (inner, outer), recs, more in zip(_LADDER.annuli(), plain, with_extras):
        n, whole = len(recs), _fields(more)
        assert {name: vals[:n] for name, vals in whole.items()} == _fields(recs)
        added += [{name: vals[i] for name, vals in whole.items()} for i in range(n, len(more))]
        assert all(inner < t <= outer for t in more.t[n:])
    assert [rec["x"] for rec in added] == [pins.hexes(e.x) for e in extras]
    for rec, e in zip(added, extras):
        unit = CoderivElement(e.x, e.y, 0.5 * e.y_star, 0.5 * e.x_star)
        assert rec["y_star"] == pins.hexes(unit.y_star)
        assert rec["t"] + rec["xn"] + rec["q"] == pins.hexes(
            [norm(e.x - base.x, F.kind), dual_norm(unit.x_star, F.kind),
             element_quotient(unit, base, F.kind)])
    # nothing of the extras stays in the memo: a deeper ladder reads the
    # records the plain pool read
    again, _ = build_element_pool(F, base, _LADDER.deepen(4))
    assert all(a is b for a, b in zip(again, plain))
    fresh, _ = build_element_pool(setup_map("xsin")[0], base, _LADDER.deepen(4))
    assert _record_dump(again) == _record_dump(fresh)


def test_the_memo_keeps_base_points_and_norms_apart():
    """Two maps, one per norm, each read at two base points, interleaved,
    give a fresh map's records for each pair, and keep one memo entry per
    base point: a map has one norm, so its memo needs no norm in its key."""
    maps = {kind: setup_map("square", kind)[0] for kind in ("l1", "l2")}
    bases = [GraphPoint([0.0], [0.0]), GraphPoint([0.5], [0.25])]
    for _ in range(2):
        for base in bases:
            for kind, F in maps.items():
                got, got_id = build_element_pool(F, base, _LADDER)
                want, want_id = build_element_pool(setup_map("square", kind)[0], base, _LADDER)
                assert got_id == want_id
                assert _record_dump(got) == _record_dump(want)
    assert [len(F.memo) for F in maps.values()] == [2, 2]


def test_runs_share_nothing(monkeypatch):
    calls = []
    records = moduli._annulus_records

    def counted(*args, **kwargs):
        calls.append(1)
        return records(*args, **kwargs)

    monkeypatch.setattr(moduli, "_annulus_records", counted)
    config = cli.parse_config({"task": "verify_radius", "seed": 7, "map": "interval",
                               "ladder": {"depth": 12, "samples": 64}})
    runs = []
    for _ in range(2):
        calls.clear()
        payload = cli.run(config).payload()
        runs.append((json.dumps(payload, sort_keys=True), len(calls)))
    assert runs[0] == runs[1]
    assert runs[0][1] > 0


# the per-element loop that built each annulus's records before they were
# columns: the reference for the columnar build, computed with one geometry
# call per point and per element
def _reference_records(groups, inner, outer, base, kind):
    """(t, ratio, xn, q, eps, x, y, x*, y*) per element, from (x, y, [(x*, y*,
    eps), ...]) groups in group order."""
    recs = []
    for x, y, elems in groups:
        du = x - base.x
        t = norm(du, kind)
        if t == 0.0 or not (inner < t <= outer * (1 + 1e-12)):
            continue
        dv = y - base.y
        yn = norm(dv, kind)
        ratio, dist = yn / t, t + yn
        for x_star, y_star, eps in elems:
            ysn = dual_norm(y_star, kind)
            if ysn == 0.0:
                continue
            if abs(ysn - 1.0) > 1e-12:
                y_star, x_star = y_star / ysn, x_star / ysn
                ysn = dual_norm(y_star, kind)
            xn = dual_norm(x_star, kind)
            den = max(xn, ysn)
            if dist == 0.0:
                q = 0.0
            elif den == 0.0:
                q = math.inf
            else:
                q = abs(float(x_star @ du) - float(y_star @ dv)) / (den * dist)
            recs.append((t, ratio, xn, q, eps, x, y, x_star, y_star))
    return recs


_FIELDS = ("t", "ratio", "xn", "q", "eps", "x", "y", "x_star", "y_star")


def _reference_fields(recs):
    return {name: [pins.hexes(rec[i]) for rec in recs] for i, name in enumerate(_FIELDS)}


def _fields(annulus):
    """The records of one annulus of a pool, field by field, as hex floats."""
    return {name: [pins.hexes(v) for v in getattr(annulus, name)] for name in _FIELDS}


def _reference_pool(F, base, ladder, extras=()):
    pool = []
    for j, inner, outer, X, Y in graph_annuli(F, base, ladder, 61):
        pts = [GraphPoint(x, y) for x, y in zip(X, Y)]
        groups = [(gp.x, gp.y, [(e.x_star, e.y_star, e.eps) for e in elements_at_point(F, gp)])
                  for gp in pts]
        groups += [(e.x, e.y, [(e.x_star, e.y_star, e.eps)]) for e in extras
                   if inner < norm(e.x - base.x, F.kind) <= outer]
        pool.append(_reference_records(groups, inner, outer, base, F.kind))
    return pool


def _assert_pool_is_the_reference(pool, want):
    assert len(pool) == len(want)
    for j, (annulus, recs) in enumerate(zip(pool, want)):
        got, ref = _fields(annulus), _reference_fields(recs)
        for name in _FIELDS:
            assert got[name] == ref[name], (j, name)


_REF_LADDER = ScaleLadder(depth=6, samples_per_scale=32, seed=7)


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
@pytest.mark.parametrize("mid", sorted(catalog()))
def test_pool_records_are_the_per_element_loop(mid, kind):
    """Every catalog map (each has a normal oracle) in every norm, against
    the per-element loop, field by field and bit for bit."""
    F, base = setup_map(mid, kind)
    pool, _ = build_element_pool(F, base, _REF_LADDER)
    want = _reference_pool(setup_map(mid, kind)[0], base, _REF_LADDER)
    assert sum(map(len, want)) > 0
    _assert_pool_is_the_reference(pool, want)


def test_pool_records_off_the_origin_are_the_per_element_loop():
    F, _ = setup_map("square", "l2")
    base = GraphPoint([0.5], [0.25])
    pool, _ = build_element_pool(F, base, _REF_LADDER)
    _assert_pool_is_the_reference(pool, _reference_pool(setup_map("square", "l2")[0], base,
                                                         _REF_LADDER))


def _extra(x, y, y_star, x_star, eps=0.0):
    return CoderivElement(np.array(x), np.array(y), np.array(y_star), np.array(x_star), eps=eps)


def test_extras_are_the_per_element_loop_through_every_branch():
    """Extras that are rescaled (|y*| = 2 and 1 + 1e-9), excluded (y* = 0),
    kept as they are (|y*| = 1 + 1e-13), or carry a NaN dual norm. y* =
    inf is rescaled to a NaN y* beside x* = 0, so the dual product norm is
    max(0.0, nan) = 0.0 and q = inf, which pins max's NaN rule (np.maximum
    would give nan and q = nan)."""
    F, base = setup_map("xsin")
    r = [outer for _, outer in _REF_LADDER.annuli()]
    extras = [_extra([0.9 * r[0]], [0.1], [2.0], [3.0], eps=0.25),
              _extra([-0.9 * r[1]], [0.0], [0.0], [1.0]),
              _extra([0.8 * r[1]], [0.2], [1.0 + 1e-9], [0.5], eps=1e-3),
              _extra([0.7 * r[2]], [-0.1], [1.0 + 1e-13], [-0.5]),
              _extra([0.6 * r[3]], [0.3], [math.nan], [0.25]),
              _extra([0.9 * r[4]], [0.0], [math.inf], [4.0]),
              _extra([-r[5]], [0.5], [-0.5], [0.0]),
              _extra([0.0], [0.0], [1.0], [1.0])]  # at the base, in no annulus
    with np.errstate(invalid="ignore"):  # inf / inf
        pool, _ = build_element_pool(F, base, _REF_LADDER, extra_elements=extras)
        want = _reference_pool(setup_map("xsin")[0], base, _REF_LADDER, extras)
    extra_recs = [rec for recs in want for rec in recs if rec[5].tolist() in
                  [e.x.tolist() for e in extras]]
    assert len(extra_recs) == 6
    assert pins.hexes([rec[3] for rec in extra_recs if math.isnan(rec[8][0])]) == \
        ["nan", "inf"]
    _assert_pool_is_the_reference(pool, want)


def test_a_two_dimensional_pool_with_extras_is_the_per_element_loop():
    F, base = setup_map("spiral", "linf")
    extras = [_extra([0.3, -0.1], [0.05, 0.2], [1.5, -0.5], [0.25, 2.0], eps=0.1),
              _extra([-0.02, 0.01], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])]
    pool, _ = build_element_pool(F, base, _REF_LADDER, extra_elements=extras)
    want = _reference_pool(setup_map("spiral", "linf")[0], base, _REF_LADDER, extras)
    _assert_pool_is_the_reference(pool, want)


@pytest.mark.parametrize("mid,kind", [("xsin", "l1"), ("interval", "l1"), ("spiral", "l2"),
                                      ("square_plus_identity", "linf"), ("inverse_abs", "l2")])
def test_the_pool_asks_the_normal_oracle_once_per_build(mid, kind):
    """One call for the rows of every annulus of a fresh pool, none on a
    memo hit, and one for the rows of the annuli a deepening adds."""
    F, base = setup_map(mid, kind)
    calls = []
    normals = F.analytic_normals

    def counted(X, Y):
        calls.append(len(X))
        return normals(X, Y)

    G = dataclasses.replace(F, analytic_normals=counted)
    build_element_pool(G, base, _LADDER)
    assert len(calls) == 1
    build_element_pool(G, base, _LADDER)
    assert len(calls) == 1
    build_element_pool(G, base, _LADDER.deepen(3), extra_elements=[
        CoderivElement(np.full(F.dim_x, 0.1), np.zeros(F.dim_y), np.ones(F.dim_y),
                       np.ones(F.dim_x))])
    assert len(calls) == 2  # the new annuli only; extras bring their pairs
    rows = [len(X) for _, _, _, X, _ in graph_annuli(F, base, _LADDER.deepen(3), 61)]
    assert calls == [sum(rows[:_LADDER.depth]), sum(rows[_LADDER.depth:])]


def test_a_sum_shifts_its_sampler_center_once():
    """A sum's pool build evaluates f at the center once, not once per
    annulus, and a deepening does not evaluate it there again."""
    F = make_square("l1")
    ident = make_identity(1, "l1")
    calls = []

    def counted(X):
        calls.append(len(X))
        return ident.func(X)

    S = sum_with_function(F, dataclasses.replace(ident, func=counted))
    base = GraphPoint([0.5], [0.75])
    build_element_pool(S, base, _LADDER)
    assert calls.count(1) == 1
    build_element_pool(S, base, _LADDER.deepen(3))
    assert calls.count(1) == 1
    assert _record_dump(build_element_pool(S, base, _LADDER)[0]) == _record_dump(
        build_element_pool(sum_with_function(F, ident), base, _LADDER)[0])


def test_pairs_out_of_row_order_keep_each_annulus_in_the_oracle_order():
    """An oracle that gives its pairs last row first gives each annulus's
    records in the reverse of the pool order."""
    F, base = setup_map("interval")
    normals = F.analytic_normals

    def reversed_normals(X, Y):
        return tuple(a[::-1] for a in normals(X, Y))

    pool, _ = build_element_pool(F, base, _LADDER)
    rev, _ = build_element_pool(dataclasses.replace(F, analytic_normals=reversed_normals), base,
                                _LADDER)
    assert [{name: vals[::-1] for name, vals in _fields(recs).items()} for recs in pool] == \
        _record_dump(rev)
