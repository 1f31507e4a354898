"""Tests for matched filtering and oracle-timing symbol recovery."""

import numpy as np
import pytest
from scipy import signal as sig

from rfcancel.channel import fractional_delay
from rfcancel.demod import (
    DemodConfig,
    demodulate,
    symbol_count,
    valid_symbol_range,
)
from rfcancel.errors import RfCancelError, TooShort
from rfcancel.metrics import evm
from rfcancel.sigsynth import (
    FORMATS,
    SymbolStream,
    generate_soi,
    random_symbols,
    rrc_taps,
)


def loopback_evm(fmt, n=4000, sps=8, seed=0, **demod_kw):
    rng = np.random.default_rng(seed)
    tx = random_symbols(fmt, n, 5e6, rng)
    w = generate_soi(tx, sps=sps)
    rx = demodulate(w, DemodConfig(sps=sps, format=fmt, **demod_kw))
    rep = evm(SymbolStream(rx.symbols[:n], fmt, 5e6), tx)
    return rep.evm_rms_pct


class TestDemodulate:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_round_trip_all_formats(self, fmt):
        """Clean loopback recovers symbols below 0.1% EVM."""
        assert loopback_evm(fmt) < 0.1

    def test_symbol_count_formula(self):
        cfg = DemodConfig(sps=8, format="qpsk", span_symbols=16)
        rng = np.random.default_rng(1)
        for n in (100, 257, 999):
            tx = random_symbols("qpsk", n, 5e6, rng)
            w = generate_soi(tx, sps=8)
            rx = demodulate(w, cfg)
            assert rx.symbols.size == symbol_count(len(w), cfg)
            assert rx.symbols.size == n

    def test_awgn_20db_evm(self):
        """Es/N0 = 20 dB reads 10% +- 1% EVM through the matched filter."""
        n = 10_000
        sps = 8
        rng = np.random.default_rng(4)
        tx = random_symbols("qpsk", n, 5e6, rng)
        w = generate_soi(tx, sps=sps)
        clean = demodulate(w, DemodConfig(sps=sps, format="qpsk"))
        sym_rms = np.sqrt(np.mean(np.abs(clean.symbols) ** 2))
        # unit-energy matched filter passes per-sample noise variance
        # through unchanged, so sigma = symbol_rms / 10 gives 20 dB
        sigma = sym_rms / 10
        noise = (rng.standard_normal(len(w)) + 1j * rng.standard_normal(len(w)))
        noise *= sigma / np.sqrt(2)
        noisy = w.with_samples(w.samples + noise)
        rx = demodulate(noisy, DemodConfig(sps=sps, format="qpsk"))
        rep = evm(SymbolStream(rx.symbols[:n], "qpsk", 5e6), tx)
        assert rep.evm_rms_pct == pytest.approx(10.0, abs=1.0)

    def test_too_short(self):
        rng = np.random.default_rng(2)
        tx = random_symbols("qpsk", 4, 5e6, rng)
        w = generate_soi(tx, sps=2, span_symbols=8)
        cfg = DemodConfig(sps=8, format="qpsk", span_symbols=16)
        with pytest.raises(TooShort):
            demodulate(w, cfg)

    def test_integer_timing_offset(self):
        """Known integer delay is compensated exactly."""
        rng = np.random.default_rng(3)
        tx = random_symbols("qpsk", 1000, 5e6, rng)
        w = generate_soi(tx, sps=8)
        shifted = fractional_delay(w, 5 / w.sample_rate)
        rx = demodulate(shifted, DemodConfig(sps=8, format="qpsk",
                                             timing_offset=5))
        rep = evm(SymbolStream(rx.symbols[:1000], "qpsk", 5e6), tx)
        assert rep.evm_rms_pct < 0.1

    def test_fractional_timing_offset(self):
        rng = np.random.default_rng(3)
        tx = random_symbols("qpsk", 1000, 5e6, rng)
        w = generate_soi(tx, sps=8)
        shifted = fractional_delay(w, 3.5 / w.sample_rate)
        rx = demodulate(shifted, DemodConfig(sps=8, format="qpsk",
                                             timing_offset=3.5))
        first, last = valid_symbol_range(shifted,
                                         DemodConfig(sps=8, format="qpsk"))
        rep = evm(SymbolStream(rx.symbols[first:1000], "qpsk", 5e6),
                  SymbolStream(tx.symbols[first:1000], "qpsk", 5e6))
        assert rep.evm_rms_pct < 0.15

    @pytest.mark.parametrize("sps, offset", [
        (8, 0), (8, 5), (8, 3.5), (8, 200), (40, 0), (40, 17), (40, 12.25),
        (40, 700),
    ])
    def test_matches_full_convolution(self, sps, offset):
        """Symbols equal the full FFT convolution sampled at the symbol
        instants, including the truncation when a large timing offset
        pushes the trailing instants past the convolution's end."""
        rng = np.random.default_rng(6)
        w = generate_soi(random_symbols("qam16", 300, 5e6, rng), sps=sps)
        cfg = DemodConfig(sps=sps, format="qam16", timing_offset=offset)
        x = w
        frac = offset - np.floor(offset)
        if frac:
            x = fractional_delay(w, -frac / w.sample_rate)
        full = sig.fftconvolve(x.samples, rrc_taps(sps, 0.2, 16))
        idx = 16 * sps + int(np.floor(offset)) + sps * np.arange(
            symbol_count(len(w), cfg))
        want = full[idx[idx < full.size]]
        got = demodulate(w, cfg).symbols
        assert got.size == want.size
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_negative_timing_offset_rejected(self):
        with pytest.raises(RfCancelError):
            DemodConfig(sps=8, format="qpsk", timing_offset=-1.0)


class TestValidSymbolRange:
    def test_trims_invalid_edges(self):
        rng = np.random.default_rng(1)
        tx = random_symbols("qpsk", 500, 5e6, rng)
        w = generate_soi(tx, sps=8)
        w.invalid_head, w.invalid_tail = 100, 50
        cfg = DemodConfig(sps=8, format="qpsk")
        first, last = valid_symbol_range(w, cfg)
        assert first >= 100 // 8
        assert last <= symbol_count(len(w), cfg)
        assert first < last
