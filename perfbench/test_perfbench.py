"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace as tr  # noqa: E402
import payload as pl  # noqa: E402
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402


def _spec(name, task, map_id, depth, samples):
    return wl.ConfigSpec(name, {"task": task, "seed": 5, "map": map_id, "norm": "l1",
                                "ladder": {"depth": depth, "samples": samples}},
                         expected_exits=(0, 3, 4))


# one config per layer family, small enough for a unit test
TINY = [
    _spec("moduli-xsin", "moduli", "xsin", 3, 4),
    _spec("relations-linear", "relations", "linear", 3, 8),
    _spec("verify_radius-zero", "verify_radius", "zero", 4, 8),
]


@pytest.fixture(scope="module")
def cli():
    return bench.load_package()


def _pass(cli, specs, tmp_path, label, traced=False):
    paths = wl.write_configs(specs, str(tmp_path / f"{label}-configs"))
    pass_dir = str(tmp_path / label)
    if not traced:
        return bench.run_pass(cli, specs, paths, pass_dir), None
    with tr.Tracer() as tracer:
        p = bench.run_pass(cli, specs, paths, pass_dir, tracer)
    return p, tracer


def test_traced_pass_gives_the_untraced_digests(cli, tmp_path):
    plain, _ = _pass(cli, TINY, tmp_path, "plain")
    traced, _ = _pass(cli, TINY, tmp_path, "traced", traced=True)
    assert [r.digest for r in plain.runs] == [r.digest for r in traced.runs]
    assert [r.exit for r in plain.runs] == [r.exit for r in traced.runs]
    assert all(r.digest for r in plain.runs)
    for p in (plain, traced):
        assert len(p.ref_s) == 2 * len(TINY) and min(p.ref_s) > 0
        assert p.wall_ref > 0


def test_traced_passes_repeat_their_call_counts(cli, tmp_path):
    counts = []
    for label in ("a", "b"):
        _, tracer = _pass(cli, TINY, tmp_path, label, traced=True)
        m = tracer.layer_metrics()
        counts.append({k: m[k] for k, unit in tr.LAYER_METRICS.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["mappings.preimage_fallback.calls"] > 0
    assert counts[0]["moduli.build_element_pool.calls"] > 0
    assert counts[0]["perturb.extract_witness.calls"] > 0


def test_tracer_reports_every_layer_metric_and_restores_the_package(cli, tmp_path):
    from subreglab import moduli
    original = moduli.preimage_distance_fallback
    _, tracer = _pass(cli, TINY[:1], tmp_path, "t", traced=True)
    assert moduli.preimage_distance_fallback is original
    reported = set(tracer.layer_metrics()) | {"process.cpu_s", "trace.overhead_frac"}
    assert reported == set(tr.LAYER_METRICS)


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_desk_seed_matches_golden_and_layers_stay_isolated(cli, tmp_path, workload):
    specs = wl.WORKLOADS[workload].configs(wl.DESK_SEED)
    checker = bench.Checker(workload, wl.DESK_SEED, bench.load_golden())
    assert checker.mode == "golden"
    p, tracer = _pass(cli, specs, tmp_path, workload, traced=True)
    checker.check_pass(specs, p)
    assert [m for r in p.runs for m in r.problems] == []
    assert tr.isolation_drift(workload, tracer.layer_metrics()) == []


def test_non_golden_seed_runs_the_status_only_check(cli, tmp_path):
    seed = 8
    specs = wl.WORKLOADS["constants-pool"].configs(seed)
    checker = bench.Checker("constants-pool", seed, bench.load_golden())
    assert checker.mode == "status-only"
    p, _ = _pass(cli, specs, tmp_path, "status")
    checker.check_pass(specs, p)
    assert [m for r in p.runs for m in r.problems] == []
    assert all(r.exit == 0 for r in p.runs)


def test_golden_mismatch_names_the_config_and_the_first_differing_key(cli, tmp_path):
    p, _ = _pass(cli, TINY[:1], tmp_path, "g")
    fresh = p.runs[0]
    keys = dict(fresh.keys)
    keys["estimates[2]"] = "0" * 16
    golden = {"digests": {"w": {"5": {"moduli-xsin": {
        "exit": fresh.exit, "sha256": "0" * 64, "keys": keys}}}}}
    checker = bench.Checker("w", 5, golden)
    checker.check_pass(TINY[:1], p)
    assert any("moduli-xsin (fresh)" in m and "'estimates[2]'" in m for m in fresh.problems)
    assert p.runs[1].problems  # the cache hit is checked against golden too


def test_first_difference():
    a = pl.key_digests({"x": 1.0, "y": [1, 2], "z": {"w": 0.5}})
    b = pl.key_digests({"x": 1.0, "y": [1, 3], "z": {"w": 0.5}})
    assert pl.first_difference(a, a) is None
    assert pl.first_difference(a, b) == "y[1]"
    assert pl.first_difference(a, {**a, "new": "0"}) == "new"


def test_isolation_drift_flags_a_layer_that_should_be_idle():
    assert tr.isolation_drift("constants-pool", {"mappings.preimage_fallback.calls": 3})
    assert tr.isolation_drift("moduli-fallback", {"moduli.build_element_pool.calls": 1})
    assert not tr.isolation_drift("radius-verify", {"mappings.preimage_fallback.calls": 0})


def test_a_failed_trace_check_makes_the_result_incorrect():
    idle = {"mappings.preimage_fallback.calls": 0}
    assert bench.result_line({}, 6, 0, bench.trace_failures("radius-verify", idle, []))["correct"]
    drifting = bench.trace_failures("constants-pool", {"mappings.preimage_fallback.calls": 3}, [])
    assert drifting
    assert bench.result_line({}, 6, 0, drifting)["correct"] is False
    unstable = bench.trace_failures("radius-verify", idle, ["mappings.func.calls"])
    assert bench.result_line({}, 6, 0, unstable)["correct"] is False


def test_golden_digests_cover_the_desk_and_held_out_seeds():
    golden = bench.load_golden()
    assert (golden["desk_seed"], golden["held_out_seed"]) == (wl.DESK_SEED, wl.HELD_OUT_SEED)
    for workload in wl.WORKLOADS:
        for seed in (wl.DESK_SEED, wl.HELD_OUT_SEED):
            assert bench.Checker(workload, seed, golden).mode == "golden"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "radius-verify",
                           "--seed", "7", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
