"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest
import yaml

from rfcancel import config
from rfcancel.sigsynth import FmNoiseSpec, generate_fm_interference
from rfcancel.waveform import BasebandWaveform

FS = 200e6


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def fm_wave(n=65536, fs=FS, seed=3, power=1.0, center_freq=0.0):
    """Standard wideband FM-noise record used across canceller tests."""
    spec = FmNoiseSpec(deviation_pp=80e6, mod_noise_bw=10e6, power=power,
                       seed=seed)
    return generate_fm_interference(spec, n, fs, center_freq=center_freq)


def white_wave(n=65536, fs=FS, seed=0, power=1.0, center_freq=0.0):
    """Complex white Gaussian record."""
    r = np.random.default_rng(seed)
    x = (r.standard_normal(n) + 1j * r.standard_normal(n)) * np.sqrt(power / 2)
    return BasebandWaveform(x, fs, center_freq)


def tone_wave(freq, n=32768, fs=FS, center_freq=0.0, amp=1.0):
    t = np.arange(n) / fs
    return BasebandWaveform(amp * np.exp(2j * np.pi * freq * t), fs, center_freq)


def unique_key_loaders():
    """``config``'s duplicate-key check on each YAML reader this PyYAML
    has: the pure-Python SafeLoader, and libyaml's CSafeLoader where PyYAML
    was built with it."""
    bases = [yaml.SafeLoader, getattr(yaml, "CSafeLoader", None)]
    return [type(f"UniqueKey{b.__name__}", (config._UniqueKeys, b), {})
            for b in bases if b is not None]


def five_smooth(m):
    """True when m's only prime factors are 2, 3 and 5."""
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1
