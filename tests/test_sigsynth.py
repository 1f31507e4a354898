"""Tests for constellation mapping, pulse shaping and FM-noise synthesis."""

import numpy as np
import pytest
from scipy import signal as sig

from rfcancel import sigsynth as ss
from rfcancel.errors import AliasedConfig, InvalidLength, RfCancelError


def psd_db(x, fs, nfft=8192):
    """Test-local Welch-style PSD (independent of the metrics module)."""
    w = np.hanning(nfft)
    acc = np.zeros(nfft)
    hop = nfft // 2
    n_seg = (len(x) - nfft) // hop + 1
    for k in range(n_seg):
        acc += np.abs(np.fft.fft(x[k * hop: k * hop + nfft] * w)) ** 2
    psd = np.fft.fftshift(acc / n_seg)
    freqs = np.fft.fftshift(np.fft.fftfreq(nfft, 1 / fs))
    return freqs, 10 * np.log10(psd + 1e-30)


def width_at(freqs, level_db, drop_db):
    mask = level_db >= level_db.max() - drop_db
    return freqs[mask].max() - freqs[mask].min()


class TestConstellations:
    def test_unit_rms_power(self):
        """Every constellation table is normalized to mean |s|^2 = 1."""
        for fmt in ss.FORMATS:
            table = ss.constellation(fmt)
            assert table.size == 2 ** ss.bits_per_symbol(fmt)
            assert np.mean(np.abs(table) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_qpsk_zero_bits_map_to_first_quadrant(self):
        """The documented map sends 00 to (1+1j)/sqrt(2)."""
        out = ss.map_symbols([0, 0], "qpsk")
        assert out.symbols[0] == pytest.approx((1 + 1j) / np.sqrt(2))

    def test_qpsk_full_map(self):
        """One bit per axis, 0 -> +, 1 -> -."""
        bits = [0, 0, 0, 1, 1, 0, 1, 1]
        out = ss.map_symbols(bits, "qpsk").symbols * np.sqrt(2)
        assert np.allclose(out, [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])

    def test_qam16_two_symbols_in_set(self):
        out = ss.map_symbols([0, 1, 1, 0, 1, 1, 0, 0], "qam16")
        table = ss.constellation("qam16")
        assert out.symbols.size == 2
        for s in out.symbols:
            assert np.min(np.abs(table - s)) < 1e-12

    def test_gray_axis_adjacency(self):
        """Adjacent amplitude levels differ in exactly one axis bit."""
        for fmt in ("qam16", "qam64", "qam256"):
            k = ss.bits_per_symbol(fmt) // 2
            words = []
            for idx in range(1 << k):
                gray = idx ^ (idx >> 1)
                words.append(gray)
            # level order equals gray-decoded index order by construction:
            # consecutive indices must have gray words 1 bit apart
            for a, b in zip(words, words[1:]):
                assert bin(a ^ b).count("1") == 1

    def test_qam256_monte_carlo_power(self, rng):
        """Random payload keeps unit RMS power within 2%."""
        bits = rng.integers(0, 2, size=8 * 100_000)
        out = ss.map_symbols(bits, "qam256")
        assert np.mean(np.abs(out.symbols) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_bit_count_not_divisible(self):
        with pytest.raises(InvalidLength):
            ss.map_symbols([0, 1, 1], "qam16")

    def test_rejects_non_binary(self):
        with pytest.raises(RfCancelError):
            ss.map_symbols([0, 2], "qpsk")

    def test_unknown_format(self):
        with pytest.raises(RfCancelError):
            ss.map_symbols([0, 0], "qam32")


class TestGenerateSoi:
    def test_output_length(self, rng):
        stream = ss.random_symbols("qpsk", 100, 5e6, rng)
        w = ss.generate_soi(stream, sps=8, span_symbols=16)
        assert len(w) == (100 + 16) * 8
        assert w.sample_rate == 40e6

    def test_power_normalized(self, rng):
        stream = ss.random_symbols("qam16", 500, 5e6, rng)
        w = ss.generate_soi(stream, sps=4, power=2.5)
        assert w.power() == pytest.approx(2.5, rel=0.01)

    def test_single_symbol_peak_at_group_delay(self):
        stream = ss.SymbolStream([(1 + 1j) / np.sqrt(2)], "qpsk", 5e6)
        w = ss.generate_soi(stream, sps=8, span_symbols=16)
        assert np.argmax(np.abs(w.samples)) == 16 * 8 // 2

    def test_matched_filter_loopback(self, rng):
        """RRC cascade is Nyquist: symbols recovered within 1e-3 RMS."""
        n = 10_000
        stream = ss.random_symbols("qpsk", n, 5e6, rng)
        sps, span = 8, 16
        w = ss.generate_soi(stream, sps=sps, span_symbols=span)
        h = ss.rrc_taps(sps, 0.2, span)
        filtered = np.convolve(w.samples, h)
        rec = filtered[span * sps + sps * np.arange(n)]
        scale = np.vdot(rec, stream.symbols) / np.vdot(rec, rec)
        err = scale * rec - stream.symbols
        assert np.sqrt(np.mean(np.abs(err) ** 2)) < 1e-3

    def test_rrc_taps_cached_read_only(self):
        """Every caller shares one read-only array per filter."""
        h = ss.rrc_taps(8, 0.2, 16)
        assert ss.rrc_taps(8, 0.2, 16) is h
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0] = 0.0

    def test_occupied_bandwidth(self, rng):
        """5 MBd rolloff-0.2 spectrum is ~6 MHz wide at -20 dB."""
        stream = ss.random_symbols("qpsk", 20_000, 5e6, rng)
        w = ss.generate_soi(stream, sps=40, rolloff=0.2)
        freqs, p = psd_db(w.samples, w.sample_rate)
        width = width_at(freqs, p, 20.0)
        assert 5.4e6 < width < 6.6e6

    def test_bandwidth_grows_with_rolloff(self, rng):
        widths = []
        for rolloff in (0.2, 0.5, 1.0):
            stream = ss.random_symbols("qpsk", 10_000, 5e6,
                                       np.random.default_rng(5))
            w = ss.generate_soi(stream, sps=16, rolloff=rolloff)
            freqs, p = psd_db(w.samples, w.sample_rate, nfft=4096)
            widths.append(width_at(freqs, p, 20.0))
        assert widths[0] < widths[1] < widths[2]

    def test_psd_symmetric_about_zero(self, rng):
        stream = ss.random_symbols("qpsk", 30_000, 5e6, rng)
        w = ss.generate_soi(stream, sps=8, rolloff=0.2)
        freqs, p = psd_db(w.samples, w.sample_rate, nfft=512)
        band = np.abs(freqs) < 2.4e6
        fwd = p[band]
        rev = p[band][::-1]
        assert np.max(np.abs(fwd - rev)) < 1.0  # dB

    def test_sps_too_low(self, rng):
        stream = ss.random_symbols("qpsk", 16, 5e6, rng)
        with pytest.raises(AliasedConfig):
            ss.generate_soi(stream, sps=1)

    def test_span_too_short(self, rng):
        stream = ss.random_symbols("qpsk", 16, 5e6, rng)
        with pytest.raises(RfCancelError):
            ss.generate_soi(stream, sps=4, span_symbols=2)

    @pytest.mark.parametrize("span", [4, 16])
    @pytest.mark.parametrize("sps", [2, 8, 40])
    def test_matches_fftconvolve_form(self, sps, span, rng):
        """The polyphase form gives the zero-stuffed FFT convolution's
        numbers."""
        stream = ss.random_symbols("qam16", 300, 1e6, rng)
        up = np.zeros(stream.symbols.size * sps, dtype=np.complex128)
        up[::sps] = stream.symbols
        want = sig.fftconvolve(up, ss.rrc_taps(sps, 0.2, span), mode="full")
        want /= np.sqrt(np.mean(np.abs(want) ** 2))
        got = ss.generate_soi(stream, sps, span_symbols=span).samples
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestFmInterference:
    def test_zero_deviation_is_pure_tone(self):
        spec = ss.FmNoiseSpec(deviation_pp=0.0, mod_noise_bw=10e6, power=4.0)
        w = ss.generate_fm_interference(spec, 4096, 200e6)
        assert np.allclose(np.abs(w.samples), 2.0)
        phase_steps = np.diff(np.angle(w.samples))
        assert np.allclose(phase_steps, phase_steps[0], atol=1e-12)

    def test_peak_to_peak_deviation(self):
        """Realized instantaneous-frequency swing equals the spec +-2%."""
        spec = ss.FmNoiseSpec(deviation_pp=80e6, mod_noise_bw=10e6, seed=11)
        fs = 400e6
        w = ss.generate_fm_interference(spec, 1 << 17, fs)
        f_inst = np.diff(np.unwrap(np.angle(w.samples))) * fs / (2 * np.pi)
        swing = f_inst.max() - f_inst.min()
        assert swing == pytest.approx(80e6, rel=0.02)

    def test_constant_envelope(self):
        spec = ss.FmNoiseSpec(deviation_pp=80e6, mod_noise_bw=10e6, power=3.0)
        w = ss.generate_fm_interference(spec, 1 << 14, 400e6)
        assert np.max(np.abs(np.abs(w.samples) - np.sqrt(3.0))) < 1e-12

    def test_power_exact(self):
        spec = ss.FmNoiseSpec(deviation_pp=80e6, mod_noise_bw=10e6, power=2.0)
        w = ss.generate_fm_interference(spec, 8192, 400e6)
        assert w.power() == pytest.approx(2.0, abs=1e-12)

    def test_aliasing_guard(self):
        spec = ss.FmNoiseSpec(deviation_pp=80e6, mod_noise_bw=10e6)
        with pytest.raises(AliasedConfig):
            ss.generate_fm_interference(spec, 4096, 150e6)

    def test_seed_reproducibility(self):
        spec = ss.FmNoiseSpec(deviation_pp=80e6, mod_noise_bw=10e6, seed=7)
        a = ss.generate_fm_interference(spec, 8192, 400e6)
        b = ss.generate_fm_interference(spec, 8192, 400e6)
        assert np.array_equal(a.samples, b.samples)

    def test_invalid_spec(self):
        with pytest.raises(RfCancelError):
            ss.FmNoiseSpec(deviation_pp=-1.0, mod_noise_bw=10e6)
        with pytest.raises(RfCancelError):
            ss.FmNoiseSpec(deviation_pp=1.0, mod_noise_bw=0.0)
        with pytest.raises(RfCancelError):
            ss.FmNoiseSpec(deviation_pp=1.0, mod_noise_bw=1e6, power=0.0)

    @pytest.mark.parametrize("bw, fs", [
        (10e6, 200e6), (1e6, 20e6),
        # above 0.45 fs: the cutoff is clamped there
        (95e6, 200e6), (400e6, 500e6)])
    def test_taps_match_firwin(self, bw, fs):
        want = sig.firwin(257, min(bw, 0.45 * fs), fs=fs)
        assert np.max(np.abs(ss._modulation_taps(bw, fs) - want)) <= 1e-15

    @pytest.mark.parametrize("n", [100, 4096])
    def test_matches_fftconvolve_form(self, n):
        """np.convolve keeps the centre of the full convolution, also for a
        record shorter than the 257-tap filter."""
        spec = ss.FmNoiseSpec(deviation_pp=80e6, mod_noise_bw=10e6, seed=3)
        noise = np.random.default_rng(3).standard_normal(n)
        f_inst = sig.fftconvolve(noise, sig.firwin(257, 10e6, fs=200e6),
                                 mode="same")
        f_inst -= np.mean(f_inst)
        f_inst *= 80e6 / (np.max(f_inst) - np.min(f_inst))
        want = np.exp(2j * np.pi * np.cumsum(f_inst) / 200e6)
        got = ss.generate_fm_interference(spec, n, 200e6).samples
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-9
