"""Shared helpers for the test suite."""

import numpy as np

from subreglab.geometry import NormContext, ScaleLadder
from subreglab.mappings import GraphPoint, resolve_map_spec


def setup_map(mid: str, kind: str = "l1"):
    """Catalog id -> (map, base graph point at the origin, norm context)."""
    F, _ = resolve_map_spec({"id": mid}, kind=kind)
    base = GraphPoint(np.zeros(F.dim_x), np.zeros(F.dim_y))
    ctx = NormContext(kind=kind, dim_x=F.dim_x, dim_y=F.dim_y)
    return F, base, ctx


def ladder12(seed: int = 7) -> ScaleLadder:
    """The desk-scale ladder used throughout the acceptance runs."""
    return ScaleLadder(depth=12, samples_per_scale=512, seed=seed)


def as_array(v) -> np.ndarray:
    return np.atleast_1d(np.asarray(v, dtype=float))
