import json
import os

import pytest
import yaml

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


@pytest.mark.parametrize("junk", [b"{truncated", b"\xff\xfe not text", b"[1, 2]"])
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
