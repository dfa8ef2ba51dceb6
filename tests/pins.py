"""The suite's recorded values ("pins"): one JSON file per group in pin_data/.

A test module registers, with ``@pinned(group, cases)``, the function that
computes a pin from its case, and its test asserts that the function still
gives ``stored(group, case)``. A case is a tuple of the function's
arguments, or a single argument; its key in the file is its parts joined by
"/", such as "xsin/rg".

    PYTHONPATH=src python tests/pins.py

imports every test module, recomputes every group and rewrites its file.
Each file holds one key per line, in key order, so ``git diff -U0
tests/pin_data`` names each changed key on its own line.
"""

import functools
import hashlib
import importlib
import json
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

HERE = Path(__file__).parent
DATA = HERE / "pin_data"
GROUPS: dict[str, tuple[Callable, list]] = {}


def hexes(values) -> list[str]:
    """Every float of values (a scalar, a sequence, an iterator or an array
    of any shape), in order, as its exact hex string."""
    if isinstance(values, Iterator):
        values = list(values)
    return [float(v).hex() for v in np.ravel(np.asarray(values, dtype=float))]


def canon(obj):
    """obj with sorted string keys, lists for tuples and arrays, numpy
    scalars as Python ones, and every float as its exact hex string
    (float.hex spells nan, inf and -inf)."""
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return hexes(obj)
    if isinstance(obj, np.generic):
        obj = obj.item()
    return obj.hex() if isinstance(obj, float) else obj


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def key(case) -> str:
    return "/".join(map(str, case)) if isinstance(case, tuple) else str(case)


def pinned(group: str, cases):
    """Register the decorated function as the computation of group's pins,
    one for each case."""
    def register(compute):
        GROUPS[group] = (compute, list(cases))
        return compute

    return register


@functools.cache
def load(group: str) -> dict:
    return json.loads((DATA / f"{group}.json").read_text())


def stored(group: str, case):
    return load(group)[key(case)]


def dumps(pins: dict) -> str:
    """The one layout of a pin file: a line per key, in key order."""
    lines = (f"{json.dumps(k)}: {json.dumps(pins[k], sort_keys=True)}" for k in sorted(pins))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def register_all() -> dict[str, tuple[Callable, list]]:
    """Import every test module, so that each registers its groups."""
    for path in sorted(HERE.glob("test_*.py")):
        importlib.import_module(path.stem)
    return GROUPS


def write():
    for group, (compute, cases) in sorted(register_all().items()):
        pins = {key(c): compute(*c) if isinstance(c, tuple) else compute(c) for c in cases}
        (DATA / f"{group}.json").write_text(dumps(pins))


if __name__ == "__main__":
    import pins  # the copy the test modules import and register with, not __main__

    pins.write()
