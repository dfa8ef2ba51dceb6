import contextlib
import dataclasses
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
import yaml

import pins
import subreglab.moduli as moduli
import subreglab.radius_cli as cli
from subreglab.mappings import catalog


def _write(tmp_path, name, cfg):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def _run(tmp_path, capsys, cfg, *args):
    cfg = dict(cfg)
    cfg.setdefault("output", str(tmp_path / "out"))
    path = _write(tmp_path, "cfg.yaml", cfg)
    code = cli.main(["run", path, *args])
    out = capsys.readouterr().out
    return code, out


def test_catalog_lists_every_map(capsys):
    assert cli.main(["catalog"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for mid, entry in catalog().items():
        F = entry.make()
        (line,) = [ln for ln in lines if ln.split()[:1] == [mid]]
        assert line.split()[1] == f"{F.dim_x}->{F.dim_y}"


def test_moduli_run_writes_all_artifacts(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, {
        "map": "abs", "task": "moduli", "seed": 7, "norm": "l1",
        "ladder": {"depth": 8, "samples": 128},
    }, "--format", "full")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    names = {row["name"] for row in payload["estimates"]}
    assert {"clm", "lip", "rg", "srg", "ssrg"} <= names
    out_dir = tmp_path / "out"
    for fname in ("report.json", "per_scale.csv", "summary.txt"):
        assert (out_dir / fname).exists()
    on_disk = json.loads((out_dir / "report.json").read_text())
    assert on_disk["config_hash"] == payload["config_hash"]


def test_csv_format_has_the_per_scale_header(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, {
        "map": "abs", "task": "moduli", "seed": 7,
        "ladder": {"depth": 6, "samples": 64},
    }, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "estimate,scale_index,radius,value"


@pytest.mark.parametrize("cfg,fragment", [
    ({"map": "abs", "task": "moduli", "seed": 7, "bogus": 1}, "unknown config keys"),
    ({"map": "abs", "task": "no_such_task", "seed": 7}, "'task' must be one of"),
    ({"map": "abs", "task": "moduli"}, "'seed' is mandatory"),
    ({"map": "abs", "task": "moduli", "seed": 7, "norm": "l7"}, "'norm' must be"),
    ({"task": "moduli", "seed": 7}, "requires a 'map'"),
    ({"map": "abs", "task": "moduli", "seed": 7, "gamma": 0.5}, "only valid for task"),
    ({"task": "eckart_young", "seed": 7, "matrices": 0}, "positive integer"),
    ({"map": "abs", "task": "verify_radius", "seed": 7}, "verify_radius supports maps"),
    ({"map": "square", "task": "build_perturbation", "seed": 7, "kind": "nope",
      "gamma": 0.5}, "needs 'kind'"),
])
def test_config_errors_exit_2(tmp_path, capsys, cfg, fragment):
    code, out = _run(tmp_path, capsys, cfg)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "config"
    assert fragment in err["message"]


def test_unknown_map_id_exits_2(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, {"map": "no_such", "task": "moduli", "seed": 7})
    assert code == 2
    assert "unknown catalog id" in json.loads(out)["error"]["message"]


def test_unreadable_config_exits_2(capsys):
    assert cli.main(["run", "/nonexistent/cfg.yaml"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "config"


def test_invalid_yaml_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("a: [unclosed\n")
    assert cli.main(["run", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "config"


_TINY = {"task": "moduli", "seed": 7, "ladder": {"depth": 2, "samples": 8}}


@pytest.mark.parametrize("change,fragment", [
    ({"map": {"id": "interval", "params": {"recip_tol": 1e-9}}},
     "invalid params for 'interval'"),
    ({"map": {"id": "identity", "params": {"bogus": 1}}},
     "invalid params for 'identity'"),
    ({"map": {"id": "square_plus_identity", "params": {"bogus": 1}}},
     "invalid params for 'square_plus_identity'"),
    ({"map": {"id": "abs", "params": 5}}, "'params' must be a mapping"),
    ({"map": {"id": "abs", "wrap": [1]}}, "'wrap' must be a list of mappings"),
    ({"map": {"id": "abs", "wrap": 5}}, "'wrap' must be a list of mappings"),
    ({"ladder": {"depth": 0}}, "depth must be at least 1"),
    ({"ladder": {"depth": "3"}}, "depth must be an integer"),
    ({"ladder": {"depth": 2.0}}, "depth must be an integer"),
    ({"ladder": {"samples": 8.5}}, "samples_per_scale must be an integer"),
    ({"ladder": {"theta": 1.5}}, "theta must lie in (0, 1)"),
    ({"seed": 7.9}, "'seed' must be an integer"),
    ({"seed": True}, "'seed' must be an integer"),
    ({"cache": "false"}, "'cache' must be true or false"),
    ({"task": "eckart_young", "matrices": True}, "positive integer"),
    ({"base_point": {"x": ["a"], "y": [0]}}, "'base_point' x must be a finite number"),
    ({"base_point": {"x": [float("nan")], "y": [0]}}, "'base_point' x must be a finite number"),
    ({"base_point": {"x": [0, 0], "y": [0]}}, "'base_point' must have dimensions 1->1"),
    ({"base_point": {"x": [1], "y": [0]}}, "does not lie on the graph of 'abs'"),
    ({"map": "identity", "task": "verify_radius", "base_point": [[0.5], [0.5]]},
     "'base_point' is not allowed"),
    ({"ladder": {"r0": True}}, "ladder 'r0' must be a finite number"),
    ({"ladder": {"r0": float("inf")}}, "ladder 'r0' must be a finite number"),
    ({"ladder": {"theta": "0.5"}}, "ladder 'theta' must be a finite number"),
    ({"task": "build_perturbation", "kind": "lip", "gamma": True},
     "needs a finite positive 'gamma'"),
    ({"task": "build_perturbation", "kind": "lip", "gamma": float("inf")},
     "needs a finite positive 'gamma'"),
    # a summand with other dimensions than the map
    ({"map": {"id": "abs", "wrap": [{"op": "sum", "fn": {"id": "linear"}}]}},
     "cannot add linear (2->2) to abs (1->1)"),
    ({"map": {"id": "spiral", "wrap": [{"op": "sum", "fn": {"id": "abs"}}]}},
     "cannot add abs (1->1) to spiral (2->2)"),
    # a ladder with an empty annulus: theta**2 underflows to 0, and two
    # subnormal ulps times 0.9 round back to two ulps
    ({"ladder": {"theta": 1.0e-200, "depth": 4, "samples": 8}},
     "invalid ladder: annulus 2 (0.0, 0.0] is empty"),
    ({"ladder": {"r0": 1.0e-323, "theta": 0.9, "depth": 4, "samples": 8}},
     "invalid ladder: annulus 0 (1e-323, 1e-323] is empty"),
    # a matrix of no columns: the map refuses a dimension below 1
    ({"map": {"id": "linear", "params": {"matrix": []}}},
     "invalid params for 'linear': dimensions must be positive"),
])
def test_invalid_values_exit_2(tmp_path, capsys, change, fragment):
    code, out = _run(tmp_path, capsys, {"map": "abs", **_TINY, **change})
    assert code == 2, out
    err = json.loads(out)["error"]
    assert err["kind"] == "config"
    assert fragment in err["message"]


def test_valid_values_keep_their_canonical_form():
    plain = cli.parse_config({"map": "abs", **_TINY})
    for change in ({"seed": 7.0}, {"cache": False}):
        assert cli.parse_config({"map": "abs", **_TINY, **change}).digest() == plain.digest()
    # params a factory takes, and empty params on a composite entry, still run
    for spec in ({"id": "scale", "params": {"lam": 3.0}},
                 {"id": "square_plus_identity", "params": {}}):
        assert cli.run(cli.parse_config({"map": spec, **_TINY})).status == "ok"
    # a base point given as a pair of lists is stored as {x, y}
    pair = cli.parse_config({"map": "abs", **_TINY, "base_point": [[0.5], [0.5]]})
    assert pair.canonical()["base_point"] == {"x": [0.5], "y": [0.5]}
    named = cli.parse_config({"map": "abs", **_TINY, "base_point": {"x": [0.5], "y": [0.5]}})
    assert pair.digest() == named.digest()


@pytest.mark.parametrize("spec", [
    {"id": "identity", "params": {"dim": 2}},
    {"id": "linear", "params": {"matrix": [[1, 2, 3]]}},
])
def test_params_that_change_the_dimensions_run(tmp_path, capsys, spec):
    # the default base point is the origin of the built map
    code, out = _run(tmp_path, capsys, {"map": spec, **_TINY})
    assert code == 0, out


def test_a_base_point_on_the_graph_runs(tmp_path, capsys):
    # abs at (0.5, 0.5), given as lists and as a pair of numbers
    payloads = []
    for i, base_point in enumerate(({"x": [0.5], "y": [0.5]}, [0.5, 0.5], None)):
        cfg = {"map": "abs", **_TINY}
        if base_point is not None:
            cfg["base_point"] = base_point
        code, out = _run(tmp_path / str(i), capsys, cfg, "--format", "full")
        assert code == 0, out
        payloads.append(json.loads(out)["estimates"])
    at_half, as_pair, at_origin = payloads
    assert as_pair == at_half
    assert at_half != at_origin


@pytest.mark.parametrize("cfg", [
    {"map": "square", "base_point": {"x": [0.5], "y": [0.25]}, "task": "constants"},
    {"map": {"id": "spiral", "wrap": [{"op": "sum", "fn": {"id": "linear"}}]},
     "task": "moduli", "norm": "l2"},
    {"map": {"id": "scale", "params": {"lam": 3.0}}, "task": "moduli"},
])
def test_known_values_are_shown_for_the_bare_catalog_map_only(tmp_path, capsys, cfg):
    """The catalog's known values hold for its map as listed, at the origin."""
    cfg = {**cfg, "seed": 7, "ladder": {"depth": 4, "samples": 16}}
    code, out = _run(tmp_path, capsys, cfg, "--format", "full")
    assert code == 0, out
    payload = json.loads(out)
    assert payload["provenance"] == {}
    assert not any("known" in est or "provenance" in est for est in payload["estimates"])
    mid = cfg["map"] if isinstance(cfg["map"], str) else cfg["map"]["id"]
    code, out = _run(tmp_path / "bare", capsys, {**cfg, "map": mid, "base_point": None},
                     "--format", "full")
    assert code == 0, out
    assert any("known" in est for est in json.loads(out)["estimates"])


def test_build_refusal_exits_3(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, {
        "map": "identity", "task": "build_perturbation", "kind": "ssr",
        "gamma": 0.9, "seed": 7, "ladder": {"depth": 12, "samples": 512},
    }, "--format", "full")
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "verification_fail"
    assert "no destabilizer below gamma" in payload["builder"]["refused"]


def test_build_success_exits_0_with_description(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, {
        "map": "square", "task": "build_perturbation", "kind": "ss",
        "gamma": 0.5, "seed": 7, "ladder": {"depth": 12, "samples": 512},
    }, "--format", "full")
    assert code == 0
    payload = json.loads(out)
    assert payload["builder"]["passed"] is True
    desc = payload["builder"]["description"]
    assert desc["class_tag"] == "fclm_ss"
    assert desc["witness"]["entries"]


def test_semismooth_task_reports_scale_triples(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, {
        "map": "square", "task": "semismooth", "seed": 7,
        "ladder": {"depth": 8, "samples": 128},
    }, "--format", "full")
    assert code == 0
    ss = json.loads(out)["semismooth"]
    assert ss["verdict"] == "pass"
    assert all(len(row) == 3 for row in ss["per_scale"])


def test_relations_task_is_consistent(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, {
        "map": "abs", "task": "relations", "seed": 7,
        "ladder": {"depth": 10, "samples": 256},
    }, "--format", "full")
    assert code == 0
    payload = json.loads(out)
    assert payload["relations"]["ok"] is True
    assert payload["alarms"] == []


def test_eckart_young_task(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, {
        "task": "eckart_young", "seed": 7, "matrices": 2,
    }, "--format", "full")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 1
    assert checks[0]["passed"] is True


def test_verify_radius_pipeline_zero_map(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, {
        "map": "zero", "task": "verify_radius", "seed": 7,
        "ladder": {"depth": 12, "samples": 512},
    }, "--format", "full")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["checks"]
    assert all(c["passed"] for c in payload["checks"])


@pytest.mark.parametrize("r0", [1e-19, 1e-30, 1e-200])
def test_xsin_moduli_runs_on_ladders_whose_fiber_count_passes_a_machine_integer(
        tmp_path, capsys, r0):
    # an annulus at scale r holds about 1/(pi r) fibers 1/(k pi); on these
    # ladders that count passes 2^63
    code, out = _run(tmp_path, capsys, {
        "map": "xsin", "task": "moduli", "seed": 7,
        "ladder": {"depth": 4, "samples": 16, "r0": r0},
    })
    assert code == 0, out


@pytest.mark.parametrize("spec", [
    {"id": "zero", "wrap": [{"op": "sum", "fn": {"id": "identity"}}]},
    {"id": "identity", "params": {"dim": 1}},
])
def test_verify_radius_refuses_a_wrapped_or_parametrized_map(tmp_path, capsys, spec):
    # the checks judge the catalog map's own reference values
    code, out = _run(tmp_path, capsys, {
        "map": spec, "task": "verify_radius", "seed": 7,
        "ladder": {"depth": 10, "samples": 64},
    })
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "config"
    assert "bare catalog map" in err["message"]


def test_cache_hit_skips_recomputation(tmp_path, capsys):
    cfg = {"map": "abs", "task": "moduli", "seed": 7,
           "ladder": {"depth": 8, "samples": 128},
           "output": str(tmp_path / "out")}
    path = _write(tmp_path, "cfg.yaml", cfg)
    assert cli.main(["run", path, "--format", "summary"]) == 0
    capsys.readouterr()
    fresh = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "timings" in fresh  # fresh runs record wall clock
    cache_dir = tmp_path / "out" / "cache"
    assert any(cache_dir.iterdir())
    assert cli.main(["run", path, "--format", "summary"]) == 0
    capsys.readouterr()
    cached = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "timings" not in cached  # a hit does no numeric work
    fresh.pop("timings")
    assert cached == fresh
    # --no-cache forces a recomputation
    assert cli.main(["run", path, "--format", "summary", "--no-cache"]) == 0
    capsys.readouterr()
    again = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "timings" in again


def _fresh(tmp_path, path):
    """Run the config; True when the run computed (report.json has timings)."""
    assert cli.main(["run", path, "--format", "summary"]) == 0
    return "timings" in json.loads((tmp_path / "out" / "report.json").read_text())


def test_cache_key_includes_the_code_version_and_payload_schema(tmp_path, capsys, monkeypatch):
    cfg = {"map": "abs", "task": "moduli", "seed": 7,
           "ladder": {"depth": 6, "samples": 64}, "output": str(tmp_path / "out")}
    path = _write(tmp_path, "cfg.yaml", cfg)
    assert _fresh(tmp_path, path)
    assert not _fresh(tmp_path, path)
    (name,) = os.listdir(tmp_path / "out" / "cache")
    assert f"-v{cli.__version__}-p{cli.PAYLOAD_SCHEMA}." in name
    # a payload cached by another version of the code is not served
    monkeypatch.setattr(cli, "__version__", cli.__version__ + ".other")
    assert _fresh(tmp_path, path)
    monkeypatch.setattr(cli, "PAYLOAD_SCHEMA", cli.PAYLOAD_SCHEMA + 1)
    assert _fresh(tmp_path, path)
    capsys.readouterr()


@pytest.mark.parametrize("junk", [b"{truncated", b"\xff\xfe not text", b"[1, 2]", b"{}",
                                  b'{"map_name": "x"}'])
def test_corrupt_cache_file_is_recomputed_and_rewritten(tmp_path, capsys, junk):
    cfg = {"map": "abs", "task": "moduli", "seed": 7,
           "ladder": {"depth": 6, "samples": 64}, "output": str(tmp_path / "out")}
    path = _write(tmp_path, "cfg.yaml", cfg)
    assert _fresh(tmp_path, path)
    (cache_file,) = (tmp_path / "out" / "cache").iterdir()
    good = json.loads(cache_file.read_text())
    cache_file.write_bytes(junk)
    assert _fresh(tmp_path, path)
    assert json.loads(cache_file.read_text()) == good
    assert not _fresh(tmp_path, path)
    capsys.readouterr()


def test_payload_is_deterministic_across_fresh_runs(tmp_path, capsys):
    base = {"map": "xsin", "task": "moduli", "seed": 7,
            "ladder": {"depth": 8, "samples": 128}}
    code_a, out_a = _run(tmp_path / "a", capsys, dict(base), "--format", "full")
    code_b, out_b = _run(tmp_path / "b", capsys, dict(base), "--format", "full")
    assert code_a == code_b == 0
    pa, pb = json.loads(out_a), json.loads(out_b)
    for payload in (pa, pb):
        payload.pop("config")
        payload.pop("config_hash")
    assert pa == pb


def test_seed_override_changes_the_config_hash(tmp_path, capsys):
    cfg = {"map": "abs", "task": "moduli", "seed": 7,
           "ladder": {"depth": 6, "samples": 64}}
    _, out_a = _run(tmp_path / "a", capsys, dict(cfg), "--format", "full")
    _, out_b = _run(tmp_path / "b", capsys, dict(cfg), "--format", "full", "--seed", "8")
    assert json.loads(out_a)["config"]["seed"] == 7
    assert json.loads(out_b)["config"]["seed"] == 8


def test_internal_failure_exits_4(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic estimator fault")

    monkeypatch.setattr(cli, "estimate_clm", boom)
    code, out = _run(tmp_path, capsys, {
        "map": "abs", "task": "moduli", "seed": 7,
        "ladder": {"depth": 6, "samples": 64},
    })
    assert code == 4
    err = json.loads(out)["error"]
    assert err["kind"] == "internal"
    assert err["type"] == "RuntimeError"


_REFUSED_BUILDS = {
    "identity": [("radius upper bound: calm destabilizer exists for gamma = 1.1 > ssrg", 0.1,
                  "build refused: synthetic refusal")],
    "xsin": [("fclm destabilizer with modulus gamma = 0.1 builds and verifies", 0.1,
              "refused: synthetic refusal"),
             ("fclm+ss* radius upper bound: destabilizer at gamma = 1.05 > srg4p", 0.05,
              "refused: synthetic refusal")],
    "interval": [("fclm radius upper bound: destabilizer at gamma = 1.2 > srg2p", 0.2,
                  "refused: synthetic refusal")],
    "zero": [("lip radius equals 0: destabilizer builds at gamma = 0.01", 0.01,
              "refused: synthetic refusal")],
}


@pytest.mark.parametrize("mid", sorted(_REFUSED_BUILDS))
def test_verify_radius_reports_a_refused_build_as_a_failed_check(tmp_path, capsys,
                                                                 monkeypatch, mid):
    def refuse(*args, **kwargs):
        raise cli.WitnessError("synthetic refusal")

    monkeypatch.setattr(cli, "extract_witness", refuse)
    monkeypatch.setattr(cli, "build_ssr_destabilizer", refuse)
    _, out = _run(tmp_path, capsys, {
        "map": mid, "task": "verify_radius", "seed": 7,
        "ladder": {"depth": 6, "samples": 16},
    }, "--format", "full")
    payload = json.loads(out)
    got = [(c["inequality"], c["slack"], c["detail"]) for c in payload["checks"]
           if c["detail"].endswith("refused: synthetic refusal") and not c["passed"]]
    assert got == _REFUSED_BUILDS[mid]
    assert payload.get("builder") is None


@pytest.mark.parametrize("spec,norm", [
    ("xsin", "l1"), ("oscillating", "l1"), ("square_plus_identity", "l1"),
    ({"id": "spiral", "wrap": [{"op": "sum", "fn": {"id": "linear"}}]}, "l2"),
    ({"id": "interval", "wrap": [{"op": "sum", "fn": {"id": "scale", "params": {"lam": 0.5}}}]},
     "l1"),
])
def test_moduli_rg_and_srg_rows_are_the_estimators_called_alone(spec, norm):
    config = cli.parse_config({"map": spec, "task": "moduli", "seed": 7, "norm": norm,
                               "ladder": {"depth": 6, "samples": 16}})
    rows = {row["name"]: row for row in cli.run(config).estimates}
    F, _, base, ladder = cli._resolve(config)
    for est in (cli.estimate_rg(F, base, ladder), cli.estimate_srg(F, base, ladder)):
        alone = cli._est_row(est)
        assert pins.canon({k: rows[est.name][k] for k in alone}) == pins.canon(alone), est.name


def test_a_moduli_run_takes_rg_and_srg_through_one_fallback_call(monkeypatch):
    calls = []
    batched = moduli.preimage_distances_fallback
    monkeypatch.setattr(moduli, "preimage_distances_fallback",
                        lambda *a: calls.append(a) or batched(*a))
    config = cli.parse_config({"map": "xsin", "task": "moduli", "seed": 7,
                               "ladder": {"depth": 4, "samples": 8}})
    assert cli.run(config).status == "ok"
    assert len(calls) == 1


_OUTPUT_CONFIGS = {
    "moduli/xsin": {"map": "xsin", "task": "moduli", "seed": 7,
                    "ladder": {"depth": 4, "samples": 8}},
    "relations/spiral/l2": {"map": "spiral", "task": "relations", "norm": "l2", "seed": 7,
                            "ladder": {"depth": 4, "samples": 8}},
    "verify_radius/identity": {"map": "identity", "task": "verify_radius", "seed": 7,
                               "ladder": {"depth": 8, "samples": 16}},
    "eckart_young/3": {"task": "eckart_young", "seed": 7, "matrices": 3},
    "build_perturbation/spiral/lip/1.2/l1": {  # refused: bump supports overlap
        "map": "spiral", "task": "build_perturbation", "kind": "lip", "gamma": 1.2,
        "norm": "l1", "seed": 7, "ladder": {"depth": 6, "samples": 32}},
}


# exit code and the sha256 of the three texts a run writes: the indented JSON
# payload (cache file, report.json without timings, stdout of --format full),
# per_scale.csv (stdout of --format csv) and summary.txt (of --format summary)
@pins.pinned("output", sorted(_OUTPUT_CONFIGS))
def _output_digests(name: str, fmt: str = "full") -> list:
    """The pin of a config, the same fresh and from the cache under fmt."""
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        path = _write(Path(tmp), "cfg.yaml", {**_OUTPUT_CONFIGS[name], "output": str(out)})
        for fresh in (True, False):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(["run", path, "--format", fmt])
            (cache_file,) = (out / "cache").iterdir()
            text = cache_file.read_text()
            report, csv_text, summary = ((out / f).read_text() for f in
                                         ("report.json", "per_scale.csv", "summary.txt"))
            if fresh:
                full = json.loads(report)
                assert report == json.dumps(full, indent=2, sort_keys=True) + "\n"
                assert list(full)[-1] == "timings"
                report = report[:report.rindex(',\n  "timings": ')] + "\n}\n"
            else:
                assert "timings" not in json.loads(report)
            assert report == text
            assert stdout.getvalue() == {"full": text, "csv": csv_text, "summary": summary}[fmt]
            digests.append([code, *map(pins.sha256, (text, csv_text, summary))])
    assert digests[0] == digests[1]
    return digests[0]


@pytest.mark.parametrize("name", sorted(_OUTPUT_CONFIGS))
@pytest.mark.parametrize("fmt", ["full", "csv", "summary"])
def test_fresh_and_cached_output_bytes_are_pinned(name, fmt):
    assert _output_digests(name, fmt) == pins.stored("output", name)


def test_every_payload_key_sorts_before_timings():
    # a fresh report.json is the payload's text with timings as its last member
    names = [f.name for f in dataclasses.fields(cli.RunReport)]
    assert "timings" in names
    assert all(n < "timings" for n in names if n != "timings")


def test_payload_is_a_fresh_tree():
    report = cli.run(cli.parse_config({"map": "abs", "task": "moduli", "seed": 7,
                                       "ladder": {"depth": 4, "samples": 8}}))
    before = report.payload()
    mutated = report.payload()
    mutated["estimates"][0]["per_scale"].append(["junk"])
    mutated["estimates"][0]["witnesses"].clear()
    mutated["config"]["ladder"]["depth"] = -1
    mutated["provenance"]["junk"] = 1
    assert report.payload() == before
    assert report.estimates[0]["per_scale"] == before["estimates"][0]["per_scale"]
    assert report.config["ladder"]["depth"] == 4


def test_a_run_encodes_its_payload_once(tmp_path, capsys, monkeypatch):
    encodes = []
    dumps = cli.json.dumps

    def counting(obj, *args, **kwargs):
        if kwargs.get("indent") is not None and isinstance(obj, dict) and "config_hash" in obj:
            encodes.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", counting)
    cfg = {"map": "abs", "task": "moduli", "seed": 7, "ladder": {"depth": 4, "samples": 8},
           "output": str(tmp_path / "out")}
    path = _write(tmp_path, "cfg.yaml", cfg)
    for fresh in (True, False):
        encodes.clear()
        assert cli.main(["run", path, "--format", "full"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert ("timings" in report) is fresh
        assert len(encodes) == 1
        assert json.loads(capsys.readouterr().out) == encodes[0]


def test_a_cache_file_in_another_layout_is_served_in_the_canonical_one(tmp_path, capsys):
    cfg = {"map": "abs", "task": "moduli", "seed": 7, "ladder": {"depth": 4, "samples": 8},
           "output": str(tmp_path / "out")}
    path = _write(tmp_path, "cfg.yaml", cfg)
    assert cli.main(["run", path, "--format", "full"]) == 0
    fresh = capsys.readouterr().out
    (cache_file,) = (tmp_path / "out" / "cache").iterdir()
    cache_file.write_text(json.dumps(json.loads(cache_file.read_text())))  # compact
    assert cli.main(["run", path, "--format", "full"]) == 0
    assert capsys.readouterr().out == fresh
    assert (tmp_path / "out" / "report.json").read_text() == fresh


@pytest.mark.parametrize("fmt", ["csv", "summary"])
def test_a_run_builds_each_output_text_once(tmp_path, capsys, monkeypatch, fmt):
    calls = []
    for name in ("_csv_text", "_summary_text"):
        build = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda p, name=name, build=build:
                            calls.append(name) or build(p))
    cfg = {"map": "abs", "task": "moduli", "seed": 7, "ladder": {"depth": 4, "samples": 8},
           "output": str(tmp_path / "out")}
    path = _write(tmp_path, "cfg.yaml", cfg)
    written = tmp_path / "out" / {"csv": "per_scale.csv", "summary": "summary.txt"}[fmt]
    for _ in ("fresh", "hit"):
        calls.clear()
        assert cli.main(["run", path, "--format", fmt]) == 0
        assert sorted(calls) == ["_csv_text", "_summary_text"]
        assert capsys.readouterr().out == written.read_text()


@pytest.mark.parametrize("corrupt", [{"estimates": None}, {"checks": [{"passed": True}]},
                                     {"relations": {"relations": 1}}])
def test_a_cache_hit_whose_texts_cannot_be_built_is_recomputed(tmp_path, capsys, corrupt):
    cfg = {"map": "abs", "task": "moduli", "seed": 7, "ladder": {"depth": 2, "samples": 8},
           "output": str(tmp_path / "out")}
    path = _write(tmp_path, "cfg.yaml", cfg)
    assert cli.main(["run", path, "--format", "summary"]) == 0
    fresh = capsys.readouterr().out
    (cache_file,) = (tmp_path / "out" / "cache").iterdir()
    text = cache_file.read_text()
    cache_file.write_text(json.dumps({**json.loads(text), **corrupt}))
    assert cli.main(["run", path, "--format", "summary"]) == 0
    assert capsys.readouterr().out == fresh
    assert cache_file.read_text() == text
    assert "timings" in json.loads((tmp_path / "out" / "report.json").read_text())
