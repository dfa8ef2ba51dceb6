"""The pin store itself: the layout of its files, its keys against the cases
the tests pin, and the canonical form of values. Nothing here recomputes a
pin."""

import math

import numpy as np
import pytest

import pins

_FILES = sorted(path.stem for path in pins.DATA.glob("*.json"))


@pytest.mark.parametrize("group", _FILES)
def test_pin_files_are_in_the_writer_layout(group):
    text = (pins.DATA / f"{group}.json").read_text()
    assert text == pins.dumps(pins.load(group))


def test_every_registered_group_has_a_file():
    assert sorted(pins.register_all()) == _FILES


@pytest.mark.parametrize("group", _FILES)
def test_stored_keys_are_the_pinned_cases(group):
    """No orphan pin and no unpinned case."""
    _, cases = pins.register_all()[group]
    assert sorted(pins.load(group)) == sorted(map(pins.key, cases))
    assert len(set(map(pins.key, cases))) == len(cases)


def test_canon_spells_every_kind_of_value():
    value = {"f": (-0.0, math.nan, math.inf), "a": {2: [-math.inf, np.float64(0.5)], 1: {}},
             "n": [np.int64(3), np.bool_(True), None, "s", 1],
             "v": np.array([[1.0, -2.5], [math.nan, 0.0]])}
    assert pins.canon(value) == {
        "f": ["-0x0.0p+0", "nan", "inf"], "a": {"1": {}, "2": ["-inf", "0x1.0000000000000p-1"]},
        "n": [3, True, None, "s", 1],
        "v": ["0x1.0000000000000p+0", "-0x1.4000000000000p+1", "nan", "0x0.0p+0"]}
    assert type(pins.canon(np.int64(3))) is int and type(pins.canon(np.bool_(True))) is bool

