"""Tests for reference-aided cancellation and blind source separation."""

import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize
from scipy import signal as sig

from rfcancel import canceller as canc
from rfcancel import runner
from rfcancel.channel import PathModel, apply_path, fractional_delay
from rfcancel.config import load_config
from rfcancel.errors import (
    AmbiguousLabeling,
    DegenerateReference,
    NoCoherentReference,
    RfCancelError,
    UnseparableWarning,
)
from rfcancel.metrics import sir_against_truth
from rfcancel.sigsynth import generate_soi, random_symbols
from rfcancel.waveform import BasebandWaveform

from conftest import FS, fm_wave, tone_wave, white_wave


class TestEstimateDelay:
    def test_known_fractional_delay(self):
        """A 12.25-sample injected delay is recovered within 0.05 samples."""
        ref = fm_wave(1 << 16, seed=3)
        delayed = apply_path(ref, PathModel(gain=1.0, delay=12.25 / FS))
        tau = canc.estimate_delay(delayed, ref, max_lag=100 / FS)
        assert tau * FS == pytest.approx(12.25, abs=0.05)

    def test_identical_signals_zero_lag(self):
        ref = fm_wave(1 << 14)
        tau = canc.estimate_delay(ref, ref, max_lag=64 / FS)
        assert abs(tau * FS) < 1e-3

    def test_independent_noise_raises(self):
        a = white_wave(100_000, seed=1)
        b = white_wave(100_000, seed=2)
        with pytest.raises(NoCoherentReference):
            canc.estimate_delay(a, b, max_lag=64 / FS)

    def test_max_lag_guard(self):
        a = white_wave(1024)
        with pytest.raises(RfCancelError):
            canc.estimate_delay(a, a, max_lag=400 / FS)

    def test_accuracy_at_20db_snr(self):
        """Spec floor: within 0.05 samples at in-band SNR >= 20 dB."""
        ref = fm_wave(1 << 16, seed=5)
        delayed = apply_path(ref, PathModel(gain=1.0, delay=12.25 / FS))
        noise = white_wave(1 << 16, seed=9, power=0.01)
        noisy = delayed.with_samples(delayed.samples + noise.samples)
        tau = canc.estimate_delay(noisy, ref, max_lag=100 / FS)
        assert tau * FS == pytest.approx(12.25, abs=0.05)


def _full_xcorr_peak(x, y, max_lag):
    """(lag, normalized peak) from the full correlation over all 2n-1 lags,
    cropped to |lag| <= max_lag, with the same parabolic refinement."""
    corr = sig.correlate(x, y, mode="full", method="fft")
    lags = np.arange(-(x.size - 1), x.size)
    keep = np.abs(lags) <= max_lag
    mag, lags = np.abs(corr[keep]), lags[keep]
    peak = int(np.argmax(mag))
    lag = float(lags[peak])
    if 0 < peak < mag.size - 1:
        c_m, c_0, c_p = mag[peak - 1], mag[peak], mag[peak + 1]
        denom = c_m - 2 * c_0 + c_p
        if denom < 0:
            lag += 0.5 * (c_m - c_p) / denom
    return lag, mag[peak] / (np.linalg.norm(x) * np.linalg.norm(y))


def _lagged_pair(n, lag, seed=4):
    """r_L holding r_H's content `lag` samples later, plus noise."""
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return (BasebandWaveform(np.roll(ref, lag) + 0.5 * noise, FS),
            BasebandWaveform(ref, FS))


class TestXcorrPeak:
    @pytest.mark.parametrize("lag", [-700, 37, 300])
    @pytest.mark.parametrize("max_lag", [0, 65, 500, 1024, 4095, 10000])
    def test_matches_full_correlation(self, max_lag, lag):
        """Only the lags within reach are transformed; the lag and peak are
        those of the full correlation."""
        r_l, r_h = _lagged_pair(4096, lag)
        want_lag, want_peak = _full_xcorr_peak(r_l.samples, r_h.samples,
                                               max_lag)
        got_lag, got_peak = canc._xcorr_peak(r_l, r_h, max_lag)
        assert got_lag == pytest.approx(want_lag, abs=1e-9)
        assert got_peak == pytest.approx(want_peak, rel=1e-12)


class TestEstimateGain:
    def test_exact_scaling(self):
        ref = fm_wave(8192)
        g = 0.5 * np.exp(1j * np.pi / 4)
        scaled = ref.with_samples(g * ref.samples)
        est = canc.estimate_gain(scaled, ref)
        assert est == pytest.approx(g, abs=1e-6)

    def test_monte_carlo_with_independent_soi(self):
        """w converges to the true mixture gain with ~1/sqrt(N) error."""
        n = 1 << 20
        soi = white_wave(n, seed=1)
        ref = white_wave(n, seed=2)
        r_l = soi.with_samples(soi.samples + 2.0 * ref.samples)
        est = canc.estimate_gain(r_l, ref)
        assert est == pytest.approx(2.0, abs=0.01)

    def test_zero_reference_raises(self):
        r_l = white_wave(1024)
        r_h = r_l.with_samples(np.zeros(1024, dtype=complex))
        with pytest.raises(DegenerateReference):
            canc.estimate_gain(r_l, r_h)

    def test_scale_equivariance(self):
        """Scaling the reference by c scales the estimate by 1/c."""
        ref = fm_wave(16384, seed=6)
        soi = white_wave(16384, seed=7)
        r_l = soi.with_samples(soi.samples + 1.3 * ref.samples)
        w1 = canc.estimate_gain(r_l, ref)
        c = 2.0 * np.exp(-0.7j)
        w2 = canc.estimate_gain(r_l, ref.with_samples(c * ref.samples))
        assert abs(w2 - w1 / c) / abs(w1 / c) < 1e-10


class TestCancel:
    def test_perfect_taps_interpolator_floor(self):
        """Exact taps on fractionally delayed paths leave <= -80 dB."""
        src = fm_wave(1 << 16, seed=8, center_freq=2.4e9)
        g12 = 1.4 * np.exp(0.9j)
        g22 = 0.8 * np.exp(-0.3j)
        tau12, tau22 = 5.35 / FS, 2.10 / FS
        r_l = apply_path(src, PathModel(gain=g12, delay=tau12))
        r_h = apply_path(src, PathModel(gain=g22, delay=tau22))
        taps = canc.CancellerTaps(tau12 - tau22, g12 / g22)
        out = canc.cancel(r_l, r_h, taps)
        ratio = out.power() / r_l.power()
        assert 10 * np.log10(ratio) < -80

    def test_gain_error_sets_depth(self):
        """A 3.16% gain error leaves a 30 dB residual."""
        ref = fm_wave(1 << 14, seed=4)
        taps = canc.CancellerTaps(0.0, 1.0 + 0.0316227766)
        out = canc.cancel(ref, ref, taps)
        depth = -10 * np.log10(out.power() / ref.power())
        assert depth == pytest.approx(30.0, abs=0.1)

    def test_delay_error_on_tone(self):
        """Residual of a delay error dtau on a tone is 1 - e^{-j2pi f dtau}."""
        f = 20e6
        dtau = 0.6 / FS
        tone = tone_wave(f, n=16384)
        taps = canc.CancellerTaps(dtau, 1.0)
        out = canc.cancel(tone, tone, taps)
        expect = -20 * np.log10(abs(1 - np.exp(-2j * np.pi * f * dtau)))
        sl = slice(200, 16000)
        resid = np.mean(np.abs(out.samples[sl]) ** 2)
        assert -10 * np.log10(resid) == pytest.approx(expect, abs=0.1)

    def test_linear_in_r_l(self):
        """cancel(r_L + z) = cancel(r_L) + z to machine precision."""
        r_l = white_wave(8192, seed=1)
        r_h = fm_wave(8192, seed=2)
        z = white_wave(8192, seed=3)
        taps = canc.CancellerTaps(3.25 / FS, 0.7 - 0.2j)
        a = canc.cancel(r_l.with_samples(r_l.samples + z.samples), r_h, taps)
        b = canc.cancel(r_l, r_h, taps)
        assert np.max(np.abs(a.samples - (b.samples + z.samples))) < 1e-12

    def test_perturb_taps(self):
        taps = canc.CancellerTaps(1e-8, 2.0 + 0j)
        out = canc.perturb_taps(taps, gain_error_mag=0.01,
                                gain_error_phase_deg=1.0, delay_error=1e-12)
        assert abs(out.gain) == pytest.approx(2.02)
        assert np.angle(out.gain) == pytest.approx(np.deg2rad(1.0))
        assert out.delay == pytest.approx(1e-8 + 1e-12)


def _cancel(r_l, r_h, max_lag=50 / FS):
    """Train on the whole record, then subtract the delayed reference."""
    taps, ref = canc.train(r_l, r_h, len(r_l), max_lag)
    return canc.subtract(r_l, ref, taps.gain), taps


class TestCancelAuto:
    """End-to-end cancellation: training over the whole record, then the
    subtraction of the delayed reference it returns."""

    def test_nothing_to_cancel(self):
        """With no interference in r_L the gain estimate shrinks to noise."""
        n = 1 << 16
        r_l = white_wave(n, seed=1)
        r_h = fm_wave(n, seed=2)
        out, taps = _cancel(r_l, r_h)
        assert abs(taps.gain) < 5e-3
        resid = np.mean(np.abs(out.samples - r_l.samples) ** 2)
        assert resid < 1e-4

    def test_end_to_end_cancellation(self):
        src = fm_wave(1 << 16, seed=8, center_freq=2.4e9)
        soi = white_wave(1 << 16, seed=9, power=0.1, center_freq=2.4e9)
        r_l_clean = apply_path(src, PathModel(gain=1.2 * np.exp(0.5j),
                                              delay=15e-9))
        r_l = r_l_clean.with_samples(r_l_clean.samples + soi.samples)
        r_h = apply_path(src, PathModel(gain=0.9, delay=5e-9))
        out, taps = _cancel(r_l, r_h)
        assert taps.delay == pytest.approx(10e-9, abs=0.05 / FS)
        resid = canc.cancel(r_l_clean, r_h, taps)
        depth = -10 * np.log10(resid.power() / r_l_clean.power())
        assert depth > 35

    def test_repeatable_across_seeds(self):
        """Independent records give taps within estimator scatter.

        The gain phase and the delay trade off through the carrier
        rotation, so the comparison is on the delay and on the effective
        response gain * exp(-j*2*pi*fc*delay).
        """
        fc = 2.4e9
        taps = []
        for seed in (11, 12):
            src = fm_wave(1 << 16, seed=seed, center_freq=fc)
            soi = white_wave(1 << 16, seed=100 + seed, power=1.0,
                             center_freq=fc)
            r_l_c = apply_path(src, PathModel(gain=2.0 * np.exp(0.3j),
                                              delay=15e-9))
            r_l = r_l_c.with_samples(r_l_c.samples + soi.samples)
            r_h = apply_path(src, PathModel(gain=1.0, delay=5e-9))
            _, t = _cancel(r_l, r_h)
            taps.append(t)
        assert taps[0].delay == pytest.approx(taps[1].delay, abs=0.1 / FS)
        eff = [t.gain * np.exp(-2j * np.pi * fc * t.delay) for t in taps]
        assert abs(eff[0] - eff[1]) / abs(eff[0]) < 0.02

    def test_delays_reference_once(self, monkeypatch):
        """One delayed reference feeds both the gain fit and the
        subtraction, with the numbers of estimate_gain and cancel."""
        src = fm_wave(1 << 15, seed=8, center_freq=2.4e9)
        r_l = apply_path(src, PathModel(gain=1.2 * np.exp(0.5j), delay=15e-9))
        r_h = apply_path(src, PathModel(gain=0.9, delay=5e-9))
        calls = []
        delay = canc.true_time_delay
        monkeypatch.setattr(canc, "true_time_delay",
                            lambda w, tau: calls.append(tau) or delay(w, tau))
        out, taps = _cancel(r_l, r_h)
        assert calls == [taps.delay] and taps.delay != 0
        monkeypatch.undo()
        ref = canc.true_time_delay(r_h, taps.delay)
        assert taps.gain == canc.estimate_gain(r_l, ref)
        want = canc.cancel(r_l, r_h, taps)
        assert np.array_equal(out.samples, want.samples)
        assert (out.invalid_head, out.invalid_tail) == (
            want.invalid_head, want.invalid_tail)

    def test_lag0_fallback_logs_warning(self, caplog):
        """A reference independent of r_L trains at lag 0 and says so."""
        n = 1 << 16
        caplog.set_level(logging.WARNING, logger="rfcancel.canceller")
        _, taps = _cancel(white_wave(n, seed=1), fm_wave(n, seed=2))
        assert taps.delay == 0.0
        records = [r for r in caplog.records
                   if r.name == "rfcancel.canceller"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        floor = 8.0 / np.sqrt(n)
        assert f"{floor:.4g}" in records[0].getMessage()
        assert "lag 0" in records[0].getMessage()

    def test_coherent_reference_logs_nothing(self, caplog):
        src = fm_wave(1 << 15, seed=8, center_freq=2.4e9)
        r_l = apply_path(src, PathModel(gain=1.2 * np.exp(0.5j), delay=15e-9))
        r_h = apply_path(src, PathModel(gain=0.9, delay=5e-9))
        caplog.set_level(logging.DEBUG, logger="rfcancel")
        _cancel(r_l, r_h)
        assert caplog.records == []

    def test_weak_coherent_reference(self):
        """A peak between the noise floor, 8/sqrt(N), and 0.2 locates the
        interference: estimate_delay returns the delay training uses."""
        n = 1 << 16
        src = fm_wave(n, seed=8, center_freq=2.4e9)
        soi = white_wave(n, seed=9, center_freq=2.4e9)
        r_l = apply_path(src, PathModel(gain=0.1, delay=15e-9))
        r_l = r_l.with_samples(r_l.samples + soi.samples)
        r_h = apply_path(src, PathModel(gain=0.9, delay=5e-9))
        _, peak = canc._xcorr_peak(r_l, r_h, 50)
        assert 8 / np.sqrt(n) < peak < canc.COHERENCE_THRESHOLD
        delay = canc.estimate_delay(r_l, r_h, max_lag=50 / FS)
        assert delay == pytest.approx(10e-9, abs=0.1 / FS)
        _, taps = _cancel(r_l, r_h)
        assert taps.delay == delay


class TestTrain:
    @staticmethod
    def _pair(n=1 << 16, d_l=15e-9, d_h=5e-9):
        src = fm_wave(n, seed=8, center_freq=2.4e9)
        soi = white_wave(n, seed=9, power=0.1, center_freq=2.4e9)
        r_l = apply_path(src, PathModel(gain=1.2 * np.exp(0.5j), delay=d_l))
        r_l = r_l.with_samples(r_l.samples + soi.samples)
        return r_l, apply_path(src, PathModel(gain=0.9, delay=d_h))

    @staticmethod
    def _head(w, n):
        """The first n samples of w as a record of their own."""
        return BasebandWaveform(w.samples[:n], w.sample_rate, w.center_freq,
                                w.invalid_head)

    @pytest.mark.parametrize("d_l, d_h", [(15e-9, 5e-9), (5e-9, 15.3e-9)])
    def test_window_taps_match_delayed_window(self, d_l, d_h):
        """Training on the prefix of the one full-length delayed r_H gives
        the taps of training on the window alone, bit for bit, for a
        positive and a negative delay."""
        r_l, r_h = self._pair(d_l=d_l, d_h=d_h)
        window = 20000
        want, _ = canc.train(self._head(r_l, window), self._head(r_h, window),
                             window, max_lag=50 / FS)
        taps, ref = canc.train(r_l, r_h, window, max_lag=50 / FS)
        assert taps.delay == want.delay
        assert taps.gain == want.gain
        assert taps.residual_power_db == want.residual_power_db
        full = canc.true_time_delay(r_h, taps.delay)
        assert np.array_equal(ref.samples, full.samples)
        assert (ref.invalid_head, ref.invalid_tail) == (
            full.invalid_head, full.invalid_tail)

    def test_whole_record_skips_invalid_tail(self):
        """A window that reaches the record's end leaves out r_H's invalid
        tail: the delay and gain are those of the record cut before it."""
        r_l, r_h = self._pair(d_l=5e-9, d_h=15.3e-9)
        assert (r_l.invalid_tail, r_h.invalid_tail) == (0, 64)
        n = len(r_h) - r_h.invalid_tail
        want, _ = canc.train(self._head(r_l, n), self._head(r_h, n), n,
                             max_lag=50 / FS)
        taps, _ = canc.train(r_l, r_h, len(r_l), max_lag=50 / FS)
        assert (taps.delay, taps.gain) == (want.delay, want.gain)

    def test_delays_reference_once(self, monkeypatch):
        r_l, r_h = self._pair()
        calls = []
        delay = canc.true_time_delay
        monkeypatch.setattr(canc, "true_time_delay",
                            lambda w, tau: calls.append(len(w)) or delay(w, tau))
        canc.train(r_l, r_h, 20000, max_lag=50 / FS)
        assert calls == [len(r_h)]

    def test_window_beyond_record(self):
        """A window past the record's end trains on the whole record, with
        the numbers of estimate_delay and estimate_gain."""
        r_l, r_h = self._pair(n=1 << 14)
        taps, ref = canc.train(r_l, r_h, 1 << 20, max_lag=50 / FS)
        delay = canc.estimate_delay(r_l, r_h, max_lag=50 / FS)
        gain = canc.estimate_gain(r_l, canc.true_time_delay(r_h, delay))
        assert (taps.delay, taps.gain) == (delay, gain)
        assert len(ref) == len(r_h)


def _tried(minimize, f, lo, hi, xatol):
    """(x, every point tried) of one bounded search of f."""
    points = []
    x = minimize(lambda u: points.append(u) or f(u), lo, hi, xatol)
    return x, points


def _scipy_bounded(f, lo, hi, xatol):
    return optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                    options={"xatol": xatol}).x


def _assert_same_search(f, lo, hi, xatol):
    """The in-package search tries scipy's points and returns its x, bit
    for bit."""
    x, points = _tried(canc._minimize_bounded, f, lo, hi, xatol)
    want_x, want_points = _tried(_scipy_bounded, f, lo, hi, xatol)
    assert (np.array(points, dtype=float).tobytes()
            == np.array(want_points, dtype=float).tobytes())
    assert np.float64(x).tobytes() == np.float64(want_x).tobytes()
    return points


def _objective(kind, lo, width, t, levels):
    """A test function on [lo, lo + width]; t places its feature."""
    c = lo + t * width
    width = width or 1.0
    if kind == "quadratic":
        return lambda x: (x - c) * (x - c)
    if kind == "cosine":
        # three to four minima across the bounds
        return lambda x: math.cos(7 * math.pi * (x - lo) / width + t)
    if kind == "constant":
        return lambda x: t
    if kind == "step":
        # a quantized quadratic: flat runs the parabola cannot fit
        q = width / len(levels)
        return lambda x: math.floor((x - c) * (x - c) / (q * q))
    # plateaus of a few values: exact ties between the points tried
    k = len(levels)
    return lambda x: levels[min(max(int((x - lo) / width * k), 0), k - 1)]


class TestMinimizeBounded:
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["quadratic", "cosine", "constant", "step",
                                 "plateaus"]),
           lo=st.floats(-1e3, 1e3),
           width=st.just(0.0) | st.floats(1e-6, 1e2),
           t=st.sampled_from([0.0, 1.0]) | st.floats(-2.0, 3.0),
           xatol=st.floats(1e-12, 1.0),
           levels=st.lists(st.integers(0, 2), min_size=1, max_size=60))
    @example(kind="quadratic", lo=-1.0, width=2.0, t=0.3, xatol=1e-5,
             levels=[0])
    @example(kind="quadratic", lo=-1.0, width=2.0, t=0.0, xatol=1e-5,
             levels=[0])
    @example(kind="quadratic", lo=-1.0, width=2.0, t=1.0, xatol=1e-5,
             levels=[0])
    @example(kind="quadratic", lo=-1.0, width=2.0, t=-0.5, xatol=1e-5,
             levels=[0])
    @example(kind="quadratic", lo=-1.0, width=2.0, t=1.5, xatol=1e-5,
             levels=[0])
    # no tolerance: the search stops at the 500-evaluation cap
    @example(kind="quadratic", lo=-1.0, width=2.0, t=0.5, xatol=0.0,
             levels=[0])
    # ties of the new point with the second and the third best
    @example(kind="plateaus", lo=-1.0, width=1.0, t=0.0, xatol=1e-3,
             levels=[2, 0, 2, 0, 2, 1, 2, 0, 0, 0])
    @example(kind="plateaus", lo=1.0, width=2.0, t=0.0, xatol=1e-8,
             levels=[2, 2, 2, 2, 1, 1, 0, 2, 2])
    def test_matches_scipy(self, kind, lo, width, t, xatol, levels):
        _assert_same_search(_objective(kind, lo, width, t, levels), lo,
                            lo + width, xatol)

    def test_residual_refine_objective_matches_scipy(self, monkeypatch):
        """On spectral_response_flat.yaml's training record the correlation
        objective sees the same search as scipy's, and the refine returns
        its x."""
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs"
                          / "spectral_response_flat.yaml")
        searches = []
        minimize = canc._minimize_bounded

        def spy(f, lo, hi, xatol):
            x = minimize(f, lo, hi, xatol)
            searches.append((f, lo, hi, xatol, x))
            return x

        monkeypatch.setattr(canc, "_minimize_bounded", spy)
        taps = runner.train_sweep_taps(cfg)
        (f, lo, hi, xatol, x), = searches
        assert taps.delay == x
        fs = cfg.sim.sample_rate_hz
        assert (hi - lo) * fs == pytest.approx(2.0)
        assert xatol * fs == pytest.approx(1e-7)
        points = _assert_same_search(f, lo, hi, xatol)
        assert len(points) < 20


class TestRefineValidSpan:
    """The residual refine reads only samples r_L flags valid."""

    @staticmethod
    def _refined(n, head, tail, junk):
        r_h = fm_wave(n, seed=8)
        r_l = apply_path(r_h, PathModel(gain=0.8 - 0.3j, delay=2.3 / FS))
        x = r_l.samples.copy()
        x[:head] = junk
        x[n - tail:] = junk
        r_l = r_l.with_samples(x, invalid_head=max(head, r_l.invalid_head),
                               invalid_tail=max(tail, r_l.invalid_tail))
        return canc.refine_delay_by_residual(r_l, r_h, 2.25 / FS)

    @pytest.mark.parametrize("n, head, tail", [(1 << 17, 400, 0),
                                               (1 << 15, 0, 400)])
    def test_invalid_samples_are_not_read(self, n, head, tail):
        zeros = self._refined(n, head, tail, 0.0)
        junk = self._refined(n, head, tail, 1e3)
        assert zeros == junk
        assert zeros * FS == pytest.approx(2.3, abs=1e-3)

    def test_no_valid_span_keeps_coarse_delay(self):
        r_h = fm_wave(1 << 10, seed=8)
        r_l = apply_path(r_h, PathModel(gain=0.8, delay=2.3 / FS))
        r_l = r_l.with_samples(r_l.samples, invalid_head=1000)
        assert canc.refine_delay_by_residual(r_l, r_h, 2.25 / FS) == 2.25 / FS


class TestSubtract:
    def test_in_place_matches(self):
        r_l = fm_wave(4096, seed=1)
        x = white_wave(4096, seed=2).samples
        ref = BasebandWaveform(x.copy(), FS, 0.0, 7, 3)
        gain = 0.37 - 1.21j
        want = r_l.samples - gain * x
        assert np.array_equal(canc.subtract(r_l, ref, gain).samples, want)
        got = canc.subtract(r_l, ref, gain, in_place=True)
        assert got.samples is ref.samples
        assert np.array_equal(got.samples, want)
        assert (got.invalid_head, got.invalid_tail) == (7, 3)


class TestBssSeparate:
    def _sources(self, n=1 << 17, isr=4.0):
        rng = np.random.default_rng(21)
        stream = random_symbols("qpsk", n // 8, FS / 8, rng)
        soi = generate_soi(stream, sps=8)
        soi = BasebandWaveform(soi.samples[:n], FS)
        intf = fm_wave(n, seed=22, power=isr)
        return soi, intf

    def test_identity_mixing_preserved(self):
        """ICA must not damage already separated sources.

        Symbol-rate QPSK keeps the SOI samples i.i.d.; the record length
        bounds the ICA self-noise (the statistical error of the estimated
        rotation) well below the 40 dB bar.
        """
        n = 1 << 18
        rng = np.random.default_rng(100)
        soi = BasebandWaveform(random_symbols("qpsk", n, FS, rng).symbols, FS)
        intf = fm_wave(n, seed=200, power=4.0)
        res = canc.bss_separate(soi, intf)
        res = canc.resolve_permutation(res, intf)
        assert sir_against_truth(res.outputs[0], soi, intf) >= 40
        assert sir_against_truth(res.outputs[1], intf, soi) >= 40

    def test_complex_mixing_separated(self):
        """The documented 2x2 complex mixture separates to >= 30 dB SIR."""
        soi, intf = self._sources()
        a = np.array([[1.0, 0.7 * np.exp(0.3j)],
                      [0.4 * np.exp(-1.1j), 1.0]])
        x1 = soi.with_samples(a[0, 0] * soi.samples + a[0, 1] * intf.samples)
        x2 = soi.with_samples(a[1, 0] * soi.samples + a[1, 1] * intf.samples)
        res = canc.bss_separate(x1, x2)
        assert res.converged
        assert res.free_parameters == 4
        res = canc.resolve_permutation(res, intf)
        assert sir_against_truth(res.outputs[0], soi, intf) >= 30
        assert sir_against_truth(res.outputs[1], intf, soi) >= 30

    def test_gaussian_sources_warn(self):
        a = white_wave(1 << 15, seed=1)
        b = white_wave(1 << 15, seed=2)
        x1 = a.with_samples(a.samples + 0.5 * b.samples)
        x2 = a.with_samples(0.3 * a.samples + b.samples)
        with pytest.warns(UnseparableWarning):
            canc.bss_separate(x1, x2)

    def test_deterministic(self):
        soi, intf = self._sources(n=1 << 14)
        x1 = soi.with_samples(soi.samples + 0.5 * intf.samples)
        res1 = canc.bss_separate(x1, intf)
        res2 = canc.bss_separate(x1, intf)
        assert np.array_equal(res1.demix, res2.demix)


class TestResolvePermutation:
    def _result(self, soi, intf):
        return canc.SeparationResult(
            outputs=[soi, intf], demix=np.eye(2, dtype=complex),
            iterations=1, converged=True, free_parameters=4,
        )

    def test_labels_unchanged_when_aligned(self):
        soi = white_wave(8192, seed=1)
        intf = fm_wave(8192, seed=2)
        res = canc.resolve_permutation(self._result(soi, intf), intf)
        rho = abs(np.vdot(res.outputs[1].samples, intf.samples))
        assert rho > abs(np.vdot(res.outputs[0].samples, intf.samples))
        assert res.outputs[0].power() == pytest.approx(1.0, rel=1e-6)

    def test_swapped_labels_restored(self):
        soi = white_wave(8192, seed=1)
        intf = fm_wave(8192, seed=2)
        res = canc.resolve_permutation(self._result(intf, soi), intf)
        # outputs[0] must be the SOI estimate again
        rho_soi = abs(np.vdot(res.outputs[0].samples, soi.samples)) / (
            np.linalg.norm(res.outputs[0].samples) * np.linalg.norm(soi.samples)
        )
        assert rho_soi > 0.99

    def test_reference_with_invalid_head(self):
        """Outputs and reference are compared over their common valid span:
        a reference 40 samples late, with an invalid head of 40, still
        labels the output that carries it as the interference."""
        ref = fractional_delay(fm_wave(8192, seed=2), 40 / FS)
        assert ref.invalid_head == 40
        outputs = [ref.with_samples(0.7 * ref.samples),
                   white_wave(8192, seed=1)]
        res = canc.resolve_permutation(self._result(*outputs), ref)
        assert res.outputs[1] is outputs[0]

    def test_uncorrelated_reference_raises(self):
        soi = white_wave(8192, seed=1)
        intf = fm_wave(8192, seed=2)
        other = white_wave(8192, seed=3)
        with pytest.raises(AmbiguousLabeling):
            canc.resolve_permutation(self._result(soi, intf), other)

