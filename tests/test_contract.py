"""The library contract, cell by cell: every value-typed argument of a
callable in the table below, given each of the probe values, ends in a
result or a :class:`BandscopeError`, and a number it returns is finite.

A row is (callable, valid arguments): the callable takes its value-typed
arguments by keyword, and each one in turn is replaced by every probe value
while the others keep their valid values. A parameter of a bandscope type
given something else is out of scope (see the README's "Library" section),
so no row varies one.
"""

import math
import numbers
import os
from functools import partial

import numpy as np
import pytest

from bandscope import (BAND_PRESETS, BandMapping, DirectivityModel, DistanceProfile, Signal,
                       StimulusSpec, design_bank, directivity_gain, save_wav)
from bandscope.errors import BandscopeError

# value id -> a value of a type or range no argument may be assumed to refuse
VALUES = {
    "text": "1", "true": True, "none": None, "nan": math.nan, "minus-nan": -math.nan,
    "inf": math.inf, "minus-inf": -math.inf, "minus-1": -1, "1.5": 1.5, "0": 0,
    "2**70": 2**70, "1e308": 1e308, "list": [], "dict": {}, "numpy-nan": np.float64("nan"),
    "numpy-int-3": np.int64(3), "minus-0.0": -0.0,
}

_TONE = Signal(0.1 * np.ones(64), 44100)

# row -> (callable, its valid value-typed arguments by keyword)
TABLE = {
    "directivity_gain": (partial(directivity_gain, DirectivityModel.cardioid()),
                         {"theta_rad": 0.3}),
    "StimulusSpec": (partial(StimulusSpec, duration=0.1, seed=1), {"kind": "pink"}),
    # the null device takes every write, so only the encoding can fail
    "save_wav": (partial(save_wav, _TONE, os.devnull), {"encoding": "pcm16"}),
    "DistanceProfile": (DistanceProfile, {"bands": {0: ((50.0, 3.0),)}}),
    "design_bank": (partial(design_bank, BandMapping(BAND_PRESETS["ids10"])),
                    {"sample_rate": 44100, "length": 63}),
}

CELLS = [(row, position, value_id)
         for row, (_, valid) in TABLE.items() for position in valid for value_id in VALUES]


def _check_result(result) -> None:
    if isinstance(result, numbers.Real):
        assert math.isfinite(result), result


@pytest.mark.parametrize("row", list(TABLE))
def test_valid_arguments_give_a_result(row):
    call, valid = TABLE[row]
    _check_result(call(**valid))


@pytest.mark.parametrize("row, position, value_id", CELLS,
                         ids=[f"{row}-{position}-{value_id}" for row, position, value_id in CELLS])
def test_a_cell_gives_a_result_or_a_bandscope_error(row, position, value_id):
    call, valid = TABLE[row]
    try:
        result = call(**{**valid, position: VALUES[value_id]})
    except BandscopeError:
        return
    _check_result(result)
