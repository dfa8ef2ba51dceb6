"""The benchmark's workloads: YAML configs for the subreglab CLI, made from a seed.

Every workload is a fixed list of CLI configs. The workload seed becomes the
`seed:` key of each config, so the same seed gives the same inputs and the
program receives nothing but the generated YAML files.

The ladders are smaller than the desk scale of the acceptance tests (depth
12, 512 samples). A desk-scale pass costs 14-39 s, and one benchmark run has
to hold the set-up probes, several passes and their cache-hit reruns inside
the run budget. The sizes below keep each workload's dominant layer the same
as at desk scale; README.md gives the shares measured by the trace.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable

import yaml

DESK_SEED = 7
HELD_OUT_SEED = 23  # the second seed with golden digests


@dataclasses.dataclass(frozen=True)
class ConfigSpec:
    """One CLI config: its name in the workload, its YAML mapping, and the
    exit codes a correct run may return at a seed without golden digests."""

    name: str
    raw: dict
    expected_exits: tuple[int, ...] = (0,)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: Callable[[int], list[ConfigSpec]]  # seed -> the workload's configs


def _cfg(task: str, seed: int, map_id: str | None = None, depth: int | None = None,
         samples: int | None = None, **extra) -> ConfigSpec:
    raw = {"task": task, "seed": seed, "norm": "l1"}
    if map_id is not None:
        raw["map"] = map_id
    if depth is not None:
        raw["ladder"] = {"depth": depth, "samples": samples}
    raw.update(extra)
    return ConfigSpec(name=f"{task}-{map_id or 'seeded'}", raw=raw)


def _moduli_fallback(seed: int) -> list[ConfigSpec]:
    # none of these maps has a preimage oracle, so rg and srg go through
    # preimage_distance_fallback for every sampled pair
    return [_cfg("moduli", seed, m, depth=8, samples=16)
            for m in ("xsin", "oscillating", "square_plus_identity")]


def _constants_pool(seed: int) -> list[ConfigSpec]:
    # 2-D maps with preimage oracles: time goes to the element pool and the
    # depth-squared constant reductions, with l1 fsum norms on the path
    return [_cfg("relations", seed, m, depth=12, samples=96) for m in ("linear", "spiral")]


def _radius_verify(seed: int) -> list[ConfigSpec]:
    # witness extraction (refusals and ladder deepening), the builders and
    # verify_builder's phases, plus estimate_rg on 3-D linear maps
    out = [_cfg("verify_radius", seed, m, depth=12, samples=64)
           for m in ("identity", "xsin", "interval", "zero")]
    # Exit 3 is a known defect, not a failed run: for about 1.4% of the
    # seeded matrices the sampled rg misses sigma_min by more than the 5%
    # tolerance (14% of seeds with 10 matrices; seed 11 is the first).
    # The benchmark reports every such verdict on its own line.
    out.append(dataclasses.replace(_cfg("eckart_young", seed, matrices=10),
                                   expected_exits=(0, 3)))
    return out


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("moduli-fallback",
             "moduli on maps without a preimage oracle: the 1-D root-finder fallback dominates",
             _moduli_fallback),
    Workload("constants-pool",
             "relations on 2-D maps: element-pool build and constant reductions, no fallback",
             _constants_pool),
    Workload("radius-verify",
             "verify_radius and eckart_young: witness extraction, builders, verify_builder phases",
             _radius_verify),
)}


def write_configs(specs: list[ConfigSpec], directory: str) -> list[str]:
    """Write each config as <name>.yaml under directory; return the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for spec in specs:
        path = os.path.join(directory, spec.name + ".yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(spec.raw, fh, sort_keys=True)
        paths.append(path)
    return paths
