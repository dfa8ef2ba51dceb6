"""Whole-run payload pins: the sha256 of run(parse_config(raw)).payload(),
floats as hex, for a sweep of tasks, maps and norms, kept in the pin group
"payload" under a name per config.

The sweep reaches what the benchmark's workloads do not: 2-D builds, linf
runs, every catalog map under every task that estimates, and seeds outside
0 <= seed < 2**64. A pin
changes only when a payload bit does.
"""

import json

import pytest

import pins
from subreglab.mappings import catalog
from subreglab.radius_cli import parse_config, run

_NORMS = ("l1", "l2", "linf")


def _configs() -> dict[str, dict]:
    out = {}
    small = {"seed": 7, "ladder": {"depth": 4, "samples": 8}}
    for task in ("moduli", "constants", "relations", "semismooth"):
        for mid in catalog():
            for norm in _NORMS:
                out[f"{task}/{mid}/{norm}"] = {"map": mid, "task": task, "norm": norm, **small}
    for mid in ("identity", "xsin", "interval", "zero"):
        for norm in _NORMS:
            out[f"verify_radius/{mid}/{norm}"] = {
                "map": mid, "task": "verify_radius", "norm": norm, "seed": 7,
                "ladder": {"depth": 8, "samples": 16}}
    for mid, kind, gamma, norm in (("spiral", "lip", 1.2, "l2"), ("spiral", "lip", 1.2, "l1"),
                                   ("spiral", "ssr", 1.1, "l1"), ("identity", "ssr", 1.1, "l1"),
                                   ("xsin", "ss", 1.05, "l1"), ("interval", "fclm", 1.2, "linf"),
                                   ("linear", "lip", 2.5, "linf")):
        out[f"build_perturbation/{mid}/{kind}/{gamma}/{norm}"] = {
            "map": mid, "task": "build_perturbation", "kind": kind, "gamma": gamma,
            "norm": norm, "seed": 7, "ladder": {"depth": 6, "samples": 32}}
    out["moduli/spiral+linear/l2"] = {
        "map": {"id": "spiral", "wrap": [{"op": "sum", "fn": {"id": "linear"}}]},
        "task": "moduli", "norm": "l2", **small}
    out["moduli/interval+scale(0.5)/l1"] = {
        "map": {"id": "interval",
                "wrap": [{"op": "sum", "fn": {"id": "scale", "params": {"lam": 0.5}}}]},
        "task": "moduli", "norm": "l1", **small}
    # seeds that only arithmetic modulo 2**64 keeps: -1 and 2**64 + 5
    for mid in ("abs", "xsin"):
        for seed in (-1, 2**64 + 5):
            out[f"moduli/{mid}/l1/seed={seed}"] = {"map": mid, "task": "moduli", "norm": "l1",
                                                   **small, "seed": seed}
    out["eckart_young/3"] = {"task": "eckart_young", "seed": 7, "matrices": 3}
    return out


_CONFIGS = _configs()


@pins.pinned("payload", sorted(_CONFIGS))
def _digest(name: str) -> str:
    payload = pins.canon(run(parse_config(_CONFIGS[name])).payload())
    return pins.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")))


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_payload_is_pinned(name):
    assert _digest(name) == pins.stored("payload", name)

