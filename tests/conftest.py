"""Shared helpers for the test suite."""

import numpy as np

from subreglab.geometry import ScaleLadder
from subreglab.mappings import GraphPoint, resolve_map_spec


def setup_map(mid: str, kind: str = "l1"):
    """Catalog id -> (map in the kind's norm, base graph point at the origin)."""
    F, _ = resolve_map_spec({"id": mid}, kind=kind)
    base = GraphPoint(np.zeros(F.dim_x), np.zeros(F.dim_y))
    return F, base


def ladder12(seed: int = 7) -> ScaleLadder:
    """The desk-scale ladder used throughout the acceptance runs."""
    return ScaleLadder(depth=12, samples_per_scale=512, seed=seed)


def as_array(v) -> np.ndarray:
    return np.atleast_1d(np.asarray(v, dtype=float))
