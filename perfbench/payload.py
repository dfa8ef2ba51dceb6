"""Canonical hex-float payload digests and the golden-digest check.

A payload is the JSON document `subreglab run --format full` prints: the
deterministic part of report.json, without timings. Floats are written as
their exact hex form before hashing, so equal digests mean bit-identical
payloads, the same rule the acceptance tests use.
"""

from __future__ import annotations

import hashlib
import json
import math

KEY_DEPTH = 2  # per-key digests go this deep, to name the first differing key


def canon(obj):
    """Sorted keys, floats as exact hex strings, inf/nan as words."""
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj.hex()
    return obj


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def digest(payload) -> str:
    """sha256 of the canonical form of a payload."""
    return _sha(canon(payload))


def key_digests(payload) -> dict[str, str]:
    """Short digests of every sub-document down to KEY_DEPTH, in document order."""
    out: dict[str, str] = {}

    def walk(obj, path: str, depth: int):
        if depth < KEY_DEPTH and isinstance(obj, dict) and obj:
            for k, v in obj.items():
                walk(v, f"{path}.{k}" if path else k, depth + 1)
        elif depth < KEY_DEPTH and isinstance(obj, list) and obj and path:
            for i, v in enumerate(obj):
                walk(v, f"{path}[{i}]", depth + 1)
        else:
            out[path or "."] = _sha(obj)[:16]

    walk(canon(payload), "", 0)
    return out


def first_difference(expected: dict[str, str], actual: dict[str, str]) -> str | None:
    """The first key whose digest differs, is missing, or is new; None if equal."""
    for key, dig in expected.items():
        if actual.get(key) != dig:
            return key
    for key in actual:
        if key not in expected:
            return key
    return None
