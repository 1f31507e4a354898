"""Tests for PSD estimation, ISR, cancellation depth, and EVM."""

import math
import tracemalloc

import numpy as np
import pytest

from rfcancel import metrics as met
from rfcancel.errors import (
    InvalidLength, InvalidSegment, OutOfBand, RateMismatch,
)
from rfcancel.sigsynth import SymbolStream, generate_soi, random_symbols
from rfcancel.waveform import BasebandWaveform

from conftest import FS, tone_wave, white_wave


class TestSegmentLength:
    """One Welch segment rule: 4096 samples, cut to a quarter of the record
    and to its valid samples, over every waveform measured together."""

    def test_short_record_takes_a_quarter(self):
        w = white_wave(10_000)
        assert met.segment_length(w) == 2500
        assert met.welch_psd(w).psd.size == 2500

    @pytest.mark.parametrize("n", [164_480, 16_384])
    def test_shipped_records_take_4096(self, n):
        """The smallest shipped record and the sweep-freq probe."""
        assert met.segment_length(white_wave(n)) == 4096

    def test_pair_takes_the_smaller(self):
        before = white_wave(20_000)
        after = before.with_samples(before.samples, invalid_head=18_000)
        assert met.segment_length(before, after) == 2000
        rep = met.cancellation_depth(before, after, (-20e6, 20e6))
        assert rep.freqs[1] - rep.freqs[0] == pytest.approx(FS / 2000)


class TestWelchPsd:
    def test_tone_peak_and_parseval(self):
        """Peak bin lands on the tone; integrated power within 1%."""
        f0 = 12.5e6
        w = tone_wave(f0, n=1 << 16)
        est = met.welch_psd(w, seg_len=4096)
        peak_freq = est.freqs[np.argmax(est.psd)]
        assert abs(peak_freq - f0) <= est.resolution_bw
        assert est.total_power() == pytest.approx(1.0, rel=0.01)

    def test_parseval_broadband(self):
        w = white_wave(1 << 17, power=3.7)
        est = met.welch_psd(w, seg_len=4096)
        assert est.total_power() == pytest.approx(w.power(), rel=0.01)

    def test_white_noise_flat(self):
        """Averaged white-noise PSD is flat within 3 dB at >= 100 segments."""
        w = white_wave(1 << 18, seed=8)
        est = met.welch_psd(w, seg_len=2048)  # 255 segments
        ratio_db = 10 * np.log10(est.psd.max() / est.psd.min())
        assert ratio_db < 3.0

    def test_zero_input(self):
        w = BasebandWaveform(np.zeros(8192, dtype=complex), FS)
        est = met.welch_psd(w, seg_len=1024)
        assert np.all(est.psd == 0)

    def test_segment_too_long(self):
        w = white_wave(1024)
        with pytest.raises(InvalidSegment):
            met.welch_psd(w, seg_len=2048)

    @pytest.mark.parametrize("seg_len, valid", [(0, 1024), (-4, 1024),
                                                (4, 0)])
    def test_empty_segment(self, seg_len, valid):
        """An empty segment, or a waveform with no valid samples, is an
        InvalidSegment, not numpy's own error."""
        w = white_wave(1024)
        w = w.with_samples(w.samples, invalid_head=1024 - valid)
        with pytest.raises(InvalidSegment):
            met.welch_psd(w, seg_len=seg_len)

    @pytest.mark.parametrize("seg_len", [1, 2])
    def test_segment_under_three_samples(self, seg_len):
        """A 2-sample Hann window is all zeros and a 1-sample PSD has no
        bin width: neither is a PSD."""
        with pytest.raises(InvalidSegment, match="within 3.."):
            met.welch_psd(white_wave(1024), seg_len)

    def test_standard_error_scales_with_segments(self):
        """Bin scatter shrinks ~1/sqrt(segments) at 10/100/1000 segments."""
        seg = 512
        scatters = []
        for n_seg in (10, 100, 1000):
            n = seg * (n_seg + 1) // 2 + seg
            w = white_wave(n, seed=n_seg)
            est = met.welch_psd(w, seg_len=seg)
            scatters.append(np.std(est.psd) / np.mean(est.psd))
        assert scatters[0] / scatters[1] == pytest.approx(math.sqrt(10), rel=0.5)
        assert scatters[1] / scatters[2] == pytest.approx(math.sqrt(10), rel=0.5)


    # overlap is the reference loop's, which the fixed 50% must match
    @pytest.mark.parametrize("n, seg, overlap", [
        (20_001, 1024, 0.5), (1_234_567, 4096, 0.5),
    ])
    def test_matches_segment_loop(self, n, seg, overlap):
        """The batched estimate equals a per-segment periodogram loop."""
        w = white_wave(n, seed=n)
        window = np.hanning(seg)
        hop = max(1, int(round(seg * (1 - overlap))))
        starts = range(0, n - seg + 1, hop)
        acc = np.zeros(seg)
        for k in starts:
            acc += np.abs(np.fft.fft(w.samples[k: k + seg] * window)) ** 2
        want = np.fft.fftshift(
            acc / (len(starts) * FS * np.sum(window**2)))
        got = met.welch_psd(w, seg_len=seg).psd
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, seg, overlap", [
        (100_000, 1024, 0.5), (20_001, 4096, 0.5), (70_000, 2048, 0.5),
    ])
    def test_matches_batch_expression(self, n, seg, overlap):
        """The reused buffers give the very bits of the batch expression
        they replace, also for a last batch of fewer than 32 frames."""
        from numpy.lib.stride_tricks import sliding_window_view

        w = white_wave(n, seed=3)
        window = np.hanning(seg)
        hop = max(1, int(round(seg * (1 - overlap))))
        frames = sliding_window_view(w.samples, seg)[::hop]
        assert frames.shape[0] % 32
        acc = np.zeros(seg)
        for k in range(0, frames.shape[0], 32):
            spectra = np.fft.fft(frames[k: k + 32] * window, axis=1)
            acc += np.sum(np.abs(spectra) ** 2, axis=0)
        want = np.fft.fftshift(
            acc / (frames.shape[0] * FS * np.sum(window**2)))
        got = met.welch_psd(w, seg_len=seg).psd
        assert np.array_equal(got, want)

    def test_peak_memory_bounded_on_long_record(self):
        """Framing the record allocates batches, not a copy per segment."""
        w = white_wave(2_631_680, seed=1)
        tracemalloc.start()
        try:
            met.welch_psd(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestIsrAt:
    def test_identical_waveforms(self):
        w = white_wave(1 << 15)
        a = met.welch_psd(w, 1024)
        b = met.welch_psd(w, 1024)
        assert met.isr_at(a, b, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_constructed_ratio(self):
        """Interference tone 100x the SOI tone in power reads 20 dB."""
        f = 5e6
        soi = tone_wave(f, n=1 << 15, amp=1.0)
        intf = tone_wave(f, n=1 << 15, amp=10.0)
        ratio = met.isr_at(met.welch_psd(soi, 2048),
                           met.welch_psd(intf, 2048), f)
        assert ratio == pytest.approx(20.0, abs=0.3)

    def test_zero_soi_returns_inf(self):
        zero = BasebandWaveform(np.zeros(8192, dtype=complex), FS)
        tone = tone_wave(1e6, n=8192)
        val = met.isr_at(met.welch_psd(zero, 1024),
                         met.welch_psd(tone, 1024), 1e6)
        assert val == math.inf

    def test_out_of_band(self):
        w = white_wave(8192)
        est = met.welch_psd(w, 1024)
        with pytest.raises(OutOfBand):
            met.isr_at(est, est, FS)


class TestCancellationDepth:
    def test_identity_is_zero(self):
        w = white_wave(1 << 15)
        rep = met.cancellation_depth(w, w, (-50e6, 50e6))
        assert rep.depth_db == pytest.approx(0.0, abs=1e-9)

    def test_power_ratio_1e3_is_30db(self):
        """after = before * 10^(-1.5) in amplitude -> 30 dB."""
        w = white_wave(1 << 15)
        after = w.with_samples(w.samples * 10 ** (-1.5))
        rep = met.cancellation_depth(w, after, (-50e6, 50e6))
        assert rep.depth_db == pytest.approx(30.0, abs=0.01)

    def test_antisymmetric(self):
        before = white_wave(1 << 14, seed=1)
        after = white_wave(1 << 14, seed=2, power=0.1)
        band = (-40e6, 40e6)
        fwd = met.cancellation_depth(before, after, band).depth_db
        rev = met.cancellation_depth(after, before, band).depth_db
        assert fwd == pytest.approx(-rev, abs=1e-9)

    def test_zero_residual_saturates(self):
        w = white_wave(8192)
        zero = w.with_samples(np.zeros(8192, dtype=complex))
        rep = met.cancellation_depth(w, zero, (-50e6, 50e6))
        assert rep.saturated
        assert rep.depth_db > 100

    def test_per_frequency_curve(self):
        w = white_wave(1 << 15)
        after = w.with_samples(w.samples * 0.1)
        rep = met.cancellation_depth(w, after, (-20e6, 20e6))
        assert np.all(np.abs(rep.curve_db - 20.0) < 1.0)

    def test_band_outside_nyquist(self):
        w = white_wave(8192)
        with pytest.raises(OutOfBand):
            met.cancellation_depth(w, w, (-FS, FS))


class TestEvm:
    def _streams(self, n=10_000, fmt="qpsk", seed=0):
        rng = np.random.default_rng(seed)
        tx = random_symbols(fmt, n, 5e6, rng)
        return tx

    def test_perfect_rx(self):
        tx = self._streams()
        rep = met.evm(tx, tx)
        assert rep.evm_rms_pct == pytest.approx(0.0, abs=1e-9)
        assert rep.n_symbols == 10_000

    def test_noise_at_minus_20db(self):
        """-20 dB circular noise reads 10% +- 0.5% at 1e4 symbols."""
        tx = self._streams()
        rng = np.random.default_rng(9)
        noise = (rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000))
        noise *= 0.1 / np.sqrt(2)
        rx = SymbolStream(tx.symbols + noise, tx.format, tx.symbol_rate)
        rep = met.evm(rx, tx)
        assert rep.evm_rms_pct == pytest.approx(10.0, abs=0.5)

    def test_rotation_absorbed(self):
        """A fixed phase rotation is gain-aligned away."""
        tx = self._streams()
        rx = SymbolStream(tx.symbols * np.exp(1.1j), tx.format, tx.symbol_rate)
        assert met.evm(rx, tx).evm_rms_pct < 1e-9

    def test_scale_invariance(self):
        """EVM is invariant to any common complex scaling of rx."""
        tx = self._streams(fmt="qam64")
        rng = np.random.default_rng(3)
        noise = 0.02 * (rng.standard_normal(10_000)
                        + 1j * rng.standard_normal(10_000))
        rx = SymbolStream(tx.symbols + noise, tx.format, tx.symbol_rate)
        base = met.evm(rx, tx).evm_rms_pct
        for c in (0.2, 3.0 * np.exp(-2.2j), 1e3j):
            scaled = SymbolStream(c * rx.symbols, tx.format, tx.symbol_rate)
            assert met.evm(scaled, tx).evm_rms_pct == pytest.approx(base,
                                                                    rel=1e-9)

    def test_length_mismatch(self):
        tx = self._streams(n=100)
        rx = SymbolStream(tx.symbols[:99], tx.format, tx.symbol_rate)
        with pytest.raises(InvalidLength):
            met.evm(rx, tx)

    def test_format_mismatch(self):
        tx = self._streams(n=64, fmt="qpsk")
        rx = SymbolStream(tx.symbols, "qam16", tx.symbol_rate)
        with pytest.raises(InvalidLength):
            met.evm(rx, tx)


def density_ratio_at_carrier(soi_est, int_est, half_band=1.5e6):
    """In-band density ratio, averaged over the flat spectrum center.

    Single-bin lookups carry the full per-bin chi-squared scatter; the flat
    region around the carrier gives the same ratio with hundreds of
    independent bins averaged.
    """
    mask = np.abs(soi_est.freqs) <= half_band
    return float(np.mean(int_est.psd[mask]) / np.mean(soi_est.psd[mask]))


class TestEvmResidualLink:
    def test_flat_residual_power_sets_evm(self):
        """EVM tracks 100*sqrt(rho) for flat in-band residual interference,
        tying the EVM curve to the cancellation model."""
        from rfcancel.demod import DemodConfig, demodulate

        rng = np.random.default_rng(6)
        n_sym = 20_000
        tx = random_symbols("qpsk", n_sym, 5e6, rng)
        w = generate_soi(tx, sps=8)
        for rho_target in (1e-3, 1e-2):
            noise = white_wave(len(w), fs=w.sample_rate, seed=12,
                               power=rho_target * 8)
            # white power rho*sps spreads over sps x the symbol bandwidth,
            # leaving in-band density rho relative to the SOI
            rx_wave = w.with_samples(w.samples + noise.samples)
            rho = density_ratio_at_carrier(met.welch_psd(w, 2048),
                                           met.welch_psd(noise, 2048))
            rx = demodulate(rx_wave, DemodConfig(sps=8, format="qpsk"))
            rep = met.evm(SymbolStream(rx.symbols[:n_sym], "qpsk", 5e6), tx)
            expect = 100 * math.sqrt(rho)
            assert rep.evm_rms_pct == pytest.approx(expect, rel=0.10)


class TestSirAgainstTruth:
    def test_known_mixture(self):
        s = white_wave(1 << 15, seed=1)
        i = white_wave(1 << 15, seed=2)
        out = s.with_samples(s.samples + 0.01 * i.samples)
        sir = met.sir_against_truth(out, s, i)
        assert sir == pytest.approx(40.0, abs=0.5)

    def test_clean_output_is_huge(self):
        s = white_wave(8192, seed=1)
        i = white_wave(8192, seed=2)
        assert met.sir_against_truth(s, s, i) > 100

    def test_unequal_lengths_raise(self):
        """Unequal records are not cut to the shortest but refused."""
        s = white_wave(8192, seed=1)
        i = white_wave(8000, seed=2)
        with pytest.raises(RateMismatch):
            met.sir_against_truth(s, s, i)


class TestCsvExports:
    def test_psd_csv(self, tmp_path):
        w = white_wave(8192)
        est = met.welch_psd(w, 1024)
        path = tmp_path / "psd.csv"
        met.export_psd_csv(est, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "freq_hz,psd_db_hz"
        assert len(lines) == 1 + est.freqs.size
        f0, p0 = map(float, lines[1].split(","))
        assert f0 == est.freqs[0]

    def test_evm_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        tx = random_symbols("qpsk", 64, 5e6, rng)
        rep = met.evm(tx, tx)
        path = tmp_path / "evm.csv"
        met.export_evm_csv(rep, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "symbol_idx,err_re,err_im"
        assert len(lines) == 65

    def test_depth_csv(self, tmp_path):
        w = white_wave(8192)
        rep = met.cancellation_depth(w, w, (-10e6, 10e6))
        met.export_depth_csv(rep, tmp_path / "d.csv")
        lines = (tmp_path / "d.csv").read_text().strip().split("\n")
        assert lines[0] == "freq_hz,depth_db"
        assert len(lines) == 1 + rep.freqs.size

    def test_psd_csv_matches_per_row_form(self, tmp_path):
        """The vectorized dB column gives the text the per-row f-string
        with a scalar floor gave, zero, subnormal, nan and inf included."""
        psd = np.array([0.0, 1e-320, 1.0, 3.7e-12, np.nan, np.inf, 2.5e-3])
        freqs = np.array([-3e6, -1e6, -0.0, 0.0, 1e6, 2e6, 3e6])
        est = met.PsdEstimate(freqs, psd, 1e3)
        met.export_psd_csv(est, tmp_path / "psd.csv")
        floor = np.finfo(float).tiny
        want = ["freq_hz,psd_db_hz"] + [
            f"{f:.10e},{10*np.log10(max(p, floor)):.10e}"
            for f, p in zip(freqs, psd)]
        assert (tmp_path / "psd.csv").read_text() == "\n".join(want) + "\n"
