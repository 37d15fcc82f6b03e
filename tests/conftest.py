import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bandscope import (
    BAND_PRESETS,
    BandMapping,
    Signal,
    StimulusSpec,
    design_bank,
    gen_pink,
)

FS = 44100


@pytest.fixture(scope="session")
def ids10_bank():
    """Paper-default stiff bank; shared because design is cheap but the
    acceptance-grade length matters for band-energy accuracy."""
    return design_bank(BandMapping(BAND_PRESETS["ids10"]), FS, 16383)


@pytest.fixture(scope="session")
def ids10_bank_fast():
    return design_bank(BandMapping(BAND_PRESETS["ids10"]), FS, 1023)


@pytest.fixture(scope="session")
def nl8_bank():
    return design_bank(BandMapping(BAND_PRESETS["nl8"]), FS, 16383)


@pytest.fixture(scope="session")
def white_10s():
    rng = np.random.default_rng(3)
    return Signal(0.05 * rng.standard_normal(FS * 10), FS)


@pytest.fixture(scope="session")
def white_2s():
    rng = np.random.default_rng(5)
    return Signal(0.05 * rng.standard_normal(FS * 2), FS)


@pytest.fixture(scope="session")
def pink_10s():
    return gen_pink(StimulusSpec(kind="pink", duration=10.0, seed=11, target_level=-20.0))


@pytest.fixture
def band_workers(monkeypatch):
    """``band_workers(cpus)``: the worker threads of ``filterbank._each``
    (recordings, comparison sides, the bands of a split) see ``cpus`` usable
    CPUs."""
    from bandscope import filterbank

    def use(cpus):
        monkeypatch.setattr(filterbank, "_usable_cpus", lambda: cpus)

    return use


@pytest.fixture
def signal_copies(monkeypatch):
    """A list that gains, for each :class:`Signal` made while the test runs,
    whether it copied the array it was given instead of keeping it."""
    copies = []
    post_init = Signal.__post_init__

    def counting(signal):
        given = signal.samples
        post_init(signal)
        copies.append(signal.samples is not given)

    monkeypatch.setattr(Signal, "__post_init__", counting)
    return copies
