"""The memo on each map: shared annuli, deepening, extras and run isolation."""

import json

import numpy as np
import pytest

import subreglab.moduli as moduli
import subreglab.perturb as perturb
import subreglab.radius_cli as cli
from conftest import setup_map
from subreglab.geometry import NormContext, ScaleLadder
from subreglab.mappings import GraphPoint
from subreglab.moduli import build_element_pool
from subreglab.perturb import WitnessError, extract_witness
from subreglab.variational import CoderivElement, element_quotient, elements_at_point

_LADDER = ScaleLadder(depth=12, samples_per_scale=64, seed=7)


def _hexes(vals):
    return [float(v).hex() for v in np.atleast_1d(np.asarray(vals, dtype=float))]


def _record_dump(records):
    return [[(_hexes([rec.t, rec.ratio, rec.xn, rec.q, rec.eps]),
              _hexes(rec.elem.x), _hexes(rec.elem.y), _hexes(rec.elem.x_star),
              _hexes(rec.elem.y_star), _hexes(rec.elem.eps))
             for rec in annulus] for annulus in records]


@pytest.mark.parametrize("mid,kind", [("interval", "l1"), ("xsin", "l1"), ("spiral", "l2")])
def test_pool_views_equal_fresh_pools_at_every_depth(mid, kind):
    """One map's memo, read at growing and shrinking depths, gives the
    records of a fresh map each time."""
    F, base, ctx = setup_map(mid, kind)
    for depth in (12, 20, 28, 20):
        lad = ScaleLadder(depth=depth, samples_per_scale=64, seed=7)
        got, got_id = build_element_pool(F, base, lad, ctx)
        want, want_id = build_element_pool(setup_map(mid, kind)[0], base, lad, ctx)
        assert got_id == want_id
        assert len(got) == depth
        assert _record_dump(got) == _record_dump(want)


def _witness_dump(seq):
    return [seq.kind, seq.direction_mode, seq.k_hat, _hexes([seq.gamma, seq.gamma_prime])]\
        + [(e.index, _hexes([e.t, e.eps, e.ratio, e.xn, e.q]), _hexes(e.x), _hexes(e.y),
            _hexes(e.x_star), _hexes(e.y_star), _hexes(e.u)) for e in seq.entries]


def _extraction(F, base, ctx, kind, gamma):
    try:
        return _witness_dump(extract_witness(F, base, kind, gamma, _LADDER, ctx))
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
    F, base, ctx = setup_map(mid)
    moduli.estimate_all_constants(F, base, _LADDER, ctx)
    for kind, gamma, refused in calls:
        shared = _extraction(F, base, ctx, kind, gamma)
        assert shared == _extraction(setup_map(mid)[0], base, ctx, kind, gamma)
        assert isinstance(shared, str) == refused


@pytest.mark.parametrize("mid,kind,gamma", [("interval", "fclm", 1.2), ("xsin", "ss", 1.05),
                                            ("identity", "ssr", 1.1)])
def test_deepening_appends_the_candidates_of_the_new_annuli(monkeypatch, mid, kind, gamma):
    """The selection after a deepening sees what one collection over the
    whole deepened ladder gives, in the same order."""
    F, base, ctx = setup_map(mid)
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
    extract_witness(F, base, kind, gamma, _LADDER, ctx)
    assert ladders[-1].depth == 20  # one deepening
    whole = collect(setup_map(mid)[0], base, kind, gamma, ladders[-1], ctx)
    assert len(offered[-1]) == len(whole)
    for a, b in zip(offered[-1], whole):
        assert a.keys() == b.keys()
        assert all(_hexes(a[k]) == _hexes(b[k]) for k in a)


def test_extras_follow_the_shared_records_and_are_not_memoized():
    F, base, ctx = setup_map("xsin")
    plain, plain_id = build_element_pool(F, base, _LADDER, ctx)
    # y*-scaled copies of elements of every other annulus, moved to the x of
    # the next record so that they are not sampled elements
    extras = [CoderivElement(recs[1].elem.x, recs[0].elem.y, 2.0 * recs[0].elem.y_star,
                             2.0 * recs[0].elem.x_star)
              for recs in plain[::2] if len(recs) > 1]
    assert len(extras) >= 3
    with_extras, extras_id = build_element_pool(F, base, _LADDER, ctx, extra_elements=extras)
    assert extras_id == plain_id
    extra_recs = []
    for (inner, outer), recs, more in zip(_LADDER.annuli(), plain, with_extras):
        assert all(a is b for a, b in zip(more, recs))
        extra_recs += more[len(recs):]
        assert all(inner < rec.t <= outer for rec in more[len(recs):])
    assert [rec.elem.x.tolist() for rec in extra_recs] == [e.x.tolist() for e in extras]
    for rec, e in zip(extra_recs, extras):
        unit = CoderivElement(e.x, e.y, 0.5 * e.y_star, 0.5 * e.x_star)
        assert np.array_equal(rec.elem.y_star, unit.y_star)
        assert _hexes([rec.t, rec.xn, rec.q]) == _hexes(
            [ctx.norm(e.x - base.x), ctx.dual_norm(unit.x_star),
             element_quotient(unit, base, ctx)])
    # nothing of the extras stays in the memo
    again, _ = build_element_pool(F, base, _LADDER.deepen(4), ctx)
    assert [len(recs) for recs in again[:12]] == [len(recs) for recs in plain]
    assert all(a is b for a, b in zip(sum(again, []), sum(plain, [])))
    fresh, _ = build_element_pool(setup_map("xsin")[0], base, _LADDER.deepen(4), ctx)
    assert _record_dump(again) == _record_dump(fresh)


def test_the_memo_keeps_base_points_and_norms_apart():
    """One map read at two base points under two norms, interleaved, gives
    a fresh map's records for each pair, and keeps one memo entry for each."""
    F, _, _ = setup_map("square")
    bases = [GraphPoint([0.0], [0.0]), GraphPoint([0.5], [0.25])]
    ctxs = [NormContext(kind=kind) for kind in ("l1", "l2")]
    for _ in range(2):
        for base in bases:
            for ctx in ctxs:
                got, got_id = build_element_pool(F, base, _LADDER, ctx)
                want, want_id = build_element_pool(setup_map("square")[0], base, _LADDER, ctx)
                assert got_id == want_id
                assert _record_dump(got) == _record_dump(want)
    assert len(F.memo) == 4


def test_runs_share_nothing(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return elements_at_point(*args, **kwargs)

    monkeypatch.setattr(moduli, "elements_at_point", counted)
    config = cli.parse_config({"task": "verify_radius", "seed": 7, "map": "interval",
                               "ladder": {"depth": 12, "samples": 64}})
    runs = []
    for _ in range(2):
        calls.clear()
        payload = cli.run(config).payload()
        runs.append((json.dumps(payload, sort_keys=True), len(calls)))
    assert runs[0] == runs[1]
    assert runs[0][1] > 0
