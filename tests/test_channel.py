"""Tests for the 2x2 mixing channel, path model, and fractional delay."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import signal as sig

from rfcancel.channel import (
    INTERP_SNAP,
    INTERP_TAPS,
    MixingScenario,
    ModulatorResponse,
    PathModel,
    RESPONSE_TAPS,
    apply_path,
    fractional_delay,
    gain_from_db,
    mix,
    path_images,
    received,
    true_time_delay,
)
from rfcancel.channel import _fast_length, _interp_kernel
from rfcancel.config import load_config
from rfcancel.errors import DelayTooLarge, RateMismatch, RfCancelError
from rfcancel.waveform import BasebandWaveform

from conftest import FS, five_smooth, fm_wave, tone_wave, white_wave

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"


class TestModulatorResponse:
    def test_flat_is_unity(self):
        r = ModulatorResponse("flat")
        assert np.allclose(r.eval([0.0, 1e9, -3e9]), 1.0)

    def test_unity_at_dc(self):
        r = ModulatorResponse("butterworth_lowpass", f3db=9e9, order=4)
        assert abs(r.eval(0.0)[0]) == pytest.approx(1.0, abs=1e-12)

    def test_minus_3db_at_cutoff(self):
        r = ModulatorResponse("butterworth_lowpass", f3db=9e9, order=4)
        mag_db = 20 * np.log10(abs(r.eval(9e9)[0]))
        assert mag_db == pytest.approx(-3.0103, abs=0.05)

    def test_order4_at_twice_cutoff(self):
        """|H| at 2x f3db follows 10*log10(1 + (f/f3db)^(2*order))."""
        r = ModulatorResponse("butterworth_lowpass", f3db=9e9, order=4)
        mag_db = 20 * np.log10(abs(r.eval(18e9)[0]))
        assert mag_db == pytest.approx(-10 * np.log10(1 + 2**8), abs=0.2)

    def test_monotone_above_cutoff(self):
        r = ModulatorResponse("butterworth_lowpass", f3db=9e9, order=4)
        mags = np.abs(r.eval(np.linspace(9e9, 40e9, 50)))
        assert np.all(np.diff(mags) < 0)

    def test_hermitian_symmetry(self):
        r = ModulatorResponse("butterworth_lowpass", f3db=9e9, order=4)
        assert r.eval(-5e9)[0] == pytest.approx(np.conj(r.eval(5e9)[0]))

    @pytest.mark.parametrize("order", range(1, 9))
    def test_butterworth_matches_scipy(self, order):
        """The pole form gives scipy's butter/freqs numbers, H(-f) = H*(f)."""
        f = np.linspace(-40e9, 40e9, 2001)
        b, a = sig.butter(order, 1.0, analog=True, output="ba")
        _, h = sig.freqs(b, a, worN=np.abs(f) / 9e9)
        want = np.where(f < 0, np.conj(h), h)
        got = ModulatorResponse("butterworth_lowpass", 9e9, order).eval(f)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("order", range(1, 9))
    def test_matches_polyval_form(self, order):
        """Horner's rule in one buffer gives the bits of np.polyval and
        np.where, negative frequencies included."""
        f = np.concatenate([np.linspace(-40e9, 40e9, 2001),
                            2.4e9 + np.fft.fftfreq(4096, d=5e-9)])
        n = order
        poles = -np.exp(1j * np.pi * np.arange(-n + 1, n, 2) / (2 * n))
        h = 1 / np.polyval(np.poly(poles).real, 1j * (np.abs(f) / 9e9))
        want = np.where(f < 0, np.conj(h), h)
        got = ModulatorResponse("butterworth_lowpass", 9e9, order).eval(f)
        assert np.array_equal(got, want)

    def test_invalid_params(self):
        with pytest.raises(RfCancelError):
            ModulatorResponse("butterworth_lowpass", f3db=-1.0)
        with pytest.raises(RfCancelError):
            ModulatorResponse("butterworth_lowpass", f3db=1e9, order=0)
        with pytest.raises(RfCancelError):
            ModulatorResponse("gaussian")


class TestFractionalDelay:
    def test_integer_shift_exact(self):
        w = white_wave(4096)
        d = fractional_delay(w, 5 / FS)
        assert np.array_equal(d.samples[5:], w.samples[:-5])
        assert np.all(d.samples[:5] == 0)
        assert d.invalid_head >= 5

    def test_half_sample_tone_phase(self):
        """Phase matches exp(-j*2*pi*f*tau) within 1e-4 rad in passband."""
        tau = 0.5 / FS
        for fnorm in (0.05, 0.2, 0.4):
            w = tone_wave(fnorm * FS, n=8192)
            d = fractional_delay(w, tau)
            sl = slice(200, 8000)
            expect = w.samples[sl] * np.exp(-2j * np.pi * fnorm * FS * tau)
            err = np.max(np.abs(np.angle(d.samples[sl] * np.conj(expect))))
            assert err < 1e-4

    def test_group_delay_error_in_passband(self):
        """Group-delay error below 1e-3 samples for |f| < 0.4 fs."""
        tau = 7.25 / FS
        for fnorm in np.linspace(-0.4, 0.4, 9):
            if abs(fnorm) < 0.01:
                continue
            w = tone_wave(fnorm * FS, n=4096)
            d = fractional_delay(w, tau)
            sl = slice(300, 3800)
            phase = np.angle(np.vdot(w.samples[sl], d.samples[sl]))
            measured = -phase / (2 * np.pi * fnorm)  # mod 1/|fnorm| samples
            period = 1 / abs(fnorm)
            k = round((7.25 - measured) / period)
            assert abs(measured + k * period - 7.25) < 1e-3

    def test_round_trip(self):
        """Delay by +tau then -tau restores the passband within -80 dB."""
        w = white_wave(16384)
        # bandlimit to 0.35 fs
        taps = np.sinc(np.arange(-64, 65) * 0.7) * 0.7 * np.hanning(129)
        x = np.convolve(w.samples, taps, mode="same")
        w = BasebandWaveform(x, FS)
        d1 = fractional_delay(w, 7.3 / FS)
        d2 = fractional_delay(d1, -7.3 / FS)
        sl = slice(400, 16000)
        err = d2.samples[sl] - w.samples[sl]
        ratio = np.mean(np.abs(err) ** 2) / np.mean(np.abs(w.samples[sl]) ** 2)
        assert 10 * np.log10(ratio) < -80

    def test_negative_delay(self):
        w = white_wave(4096)
        d = fractional_delay(w, -3 / FS)
        assert np.array_equal(d.samples[:-3], w.samples[3:])
        assert d.invalid_tail >= 3

    def test_delay_too_large(self):
        w = white_wave(256)
        with pytest.raises(DelayTooLarge):
            fractional_delay(w, 257 / FS)

    @pytest.mark.parametrize("n, delay", [
        (4096, 7 + 2 * INTERP_SNAP), (4096, 7.5), (4096, 8 - 2 * INTERP_SNAP),
        (4096, -3.3), (4096, -0.5), (40, 1.25), (40, -2.75),
        # not a whole number of 64-sample blocks, and shorter than one
        (4099, 7.5), (4099, -3.3), (63, 1.25), (63, -2.75), (63, 40.3),
        # the zero padding makes the whole head, then the whole tail
        (4096, 40.3), (4096, -40.3),
        # the bench's record
        (164480, 3.0137),
    ])
    def test_matches_fftconvolve_form(self, n, delay):
        """The direct-form filter gives the FFT convolution's numbers."""
        w = white_wave(n, seed=5)
        total = (delay / FS) * FS
        n_int = int(np.floor(total))
        full = sig.fftconvolve(w.samples, _interp_kernel(total - n_int))
        shift = n_int - INTERP_TAPS // 2
        want = np.zeros_like(w.samples)
        lo, hi = max(shift, 0), min(n, full.size + shift)
        want[lo:hi] = full[lo - shift: hi - shift]
        got = fractional_delay(w, delay / FS).samples
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(w.samples))

    @pytest.mark.parametrize("frac", [1e-4, 0.25, 0.5, 0.9999])
    def test_kernel_matches_scipy_i0_form(self, frac):
        from scipy.special import i0

        x = np.arange(INTERP_TAPS + 1) - INTERP_TAPS // 2 - frac
        arg = 1.0 - (x / (INTERP_TAPS / 2 + 1.0)) ** 2
        want = np.sinc(x) * i0(8.0 * np.sqrt(arg)) / i0(8.0)
        want /= np.sum(want)
        assert np.max(np.abs(_interp_kernel(frac) - want)) <= 1e-15

    @pytest.mark.parametrize("delay", [0.0, 5.0, 2.37, -3.3])
    @pytest.mark.parametrize("delay_line", [fractional_delay, true_time_delay])
    def test_input_is_not_written(self, delay_line, delay):
        """Each delay returns a record of its own, and the in-place
        carrier rotation never reaches the input."""
        w = white_wave(4099, center_freq=2.4e9)
        before = w.samples.copy()
        out = delay_line(w, delay / FS)
        assert np.array_equal(w.samples, before)
        assert not np.shares_memory(out.samples, w.samples)

    def test_blas_thread_count_leaves_the_bytes(self):
        """The blocked interpolator gives the same bytes on one BLAS
        thread as on two."""
        code = ("import hashlib\n"
                "import numpy as np\n"
                "from rfcancel.channel import fractional_delay\n"
                "from rfcancel.waveform import BasebandWaveform\n"
                "r = np.random.default_rng(7)\n"
                "x = r.standard_normal(164480) + 1j * r.standard_normal(164480)\n"
                "y = fractional_delay(BasebandWaveform(x, 2e8), 3.0137 / 2e8)\n"
                "print(hashlib.sha256(y.samples.tobytes()).hexdigest())\n")
        path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                             os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path,
                       OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests[0] == digests[1]

    def test_true_time_delay_rotates_carrier(self):
        w = tone_wave(1e6, n=4096, center_freq=2.4e9)
        tau = 2.5 / FS
        d = true_time_delay(w, tau)
        sl = slice(200, 3900)
        expect = (w.samples[sl] * np.exp(-2j * np.pi * 1e6 * tau)
                  * np.exp(-2j * np.pi * 2.4e9 * tau))
        assert np.max(np.abs(d.samples[sl] - expect)) < 1e-3


class TestFastLength:
    @pytest.mark.parametrize("n, m", [
        (164_480, 165_888), (164_160, 165_888), (206_400, 207_360),
        (208_000, 209_952), (16_384, 16_384), (1, 1)])
    def test_record_lengths(self, n, m):
        assert _fast_length(n) == m

    def test_least_five_smooth_length(self):
        for n in range(1, 5000):
            m = _fast_length(n)
            assert m >= n and five_smooth(m)
            assert not any(five_smooth(k) for k in range(n, m))


BUTTERWORTHS = [ModulatorResponse("butterworth_lowpass", f3db, 4)
                for f3db in (9e9, 10.5e9)]


class TestResponseFir:
    """A Butterworth path runs its response as the fitted RESPONSE_TAPS-tap
    FIR in the delay line's product."""

    @pytest.mark.parametrize("carrier", [0.1e9, 0.87e9, 2.4e9, 5.51e9, 6e9])
    @pytest.mark.parametrize("response", BUTTERWORTHS,
                             ids=["9GHz", "10.5GHz"])
    def test_tones_match_the_response(self, response, carrier):
        """Tones inside +-50 MHz leave a path as
        gain * H(fc + f) * exp(-j2pi(fc + f)tau) within -80 dB on the
        samples the path leaves valid, at whole and fractional delays."""
        gain = 0.8 * np.exp(0.7j)
        worst = 0.0
        for f in np.linspace(-50e6, 50e6, 11):
            w = tone_wave(f, n=4096, center_freq=carrier)
            for delay in (0.0, 25e-9, 12.37 / FS):
                path = PathModel(gain=gain, delay=delay, response=response)
                out = apply_path(w, path)
                want = (gain * response.eval(carrier + f)[0]
                        * np.exp(-2j * np.pi * (carrier + f) * delay))
                valid = slice(out.invalid_head, len(w) - out.invalid_tail)
                err = np.abs(out.samples[valid] - want * w.samples[valid])
                worst = max(worst, err.max() / abs(want))
        assert 20 * np.log10(worst) <= -80

    @pytest.mark.parametrize("m", [4099, 65536, 100003])
    @pytest.mark.parametrize("delay", [0.0, 25e-9])
    def test_record_length_leaves_the_bits(self, delay, m):
        """The image of a record's first m samples is the full image's
        first m - RESPONSE_TAPS // 2 samples, bit for bit."""
        path = PathModel(gain=0.9 * np.exp(0.3j), delay=delay,
                         response=BUTTERWORTHS[0])
        w = white_wave(208_000, seed=6, center_freq=0.87e9)
        head = BasebandWaveform(w.samples[:m], FS, w.center_freq)
        keep = m - RESPONSE_TAPS // 2
        assert np.array_equal(apply_path(head, path).samples[:keep],
                              apply_path(w, path).samples[:keep])

    @pytest.mark.parametrize("delay", [0.0, 25e-9, 12.37 / FS])
    def test_margins_grow_by_the_kernel(self, delay):
        """A Butterworth path flags RESPONSE_TAPS // 2 samples more at each
        end than a flat path of the same delay."""
        w = white_wave(4096, center_freq=2.4e9)
        flat = apply_path(w, PathModel(delay=delay))
        filt = apply_path(w, PathModel(delay=delay, response=BUTTERWORTHS[1]))
        margin = RESPONSE_TAPS // 2
        assert (filt.invalid_head, filt.invalid_tail) == (
            flat.invalid_head + margin, flat.invalid_tail + margin)

    @pytest.mark.parametrize("n, delay", [(4099, 5.0), (4099, -3.3),
                                          (63, 2.75), (4096, 12.37)])
    def test_kernel_matches_convolve_form(self, n, delay):
        """A complex kernel, alone or convolved with the interpolator, gives
        the full convolution's numbers."""
        w = white_wave(n, seed=8)
        kernel = [1, 1j] @ np.random.default_rng(2).standard_normal((2, 9))
        n_int = int(np.floor(delay))
        full = np.convolve(w.samples, kernel)
        if delay != n_int:
            full = np.convolve(full, _interp_kernel(delay - n_int))
        shift = n_int - (full.size - n) // 2
        want = np.zeros_like(w.samples)
        lo, hi = max(shift, 0), min(n, full.size + shift)
        want[lo:hi] = full[lo - shift: hi - shift]
        got = fractional_delay(w, delay / FS, kernel=kernel).samples
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(w.samples))


class TestApplyPath:
    def test_identity(self):
        w = white_wave(4096)
        out = apply_path(w, PathModel(gain=1.0))
        assert np.array_equal(out.samples, w.samples)

    def test_tone_delay_phase(self):
        """Delay theorem on a baseband tone, mid-record, exact shift."""
        f = 3e6
        tau = 12 / FS
        w = tone_wave(f, n=16384)
        out = apply_path(w, PathModel(gain=1.0, delay=tau))
        sl = slice(300, 16000)
        expect = w.samples[sl] * np.exp(-2j * np.pi * f * tau)
        assert np.max(np.abs(out.samples[sl] - expect)) < 1e-6

    def test_tone_fractional_delay_phase(self):
        """Fractional delays hold the theorem at the interpolator tolerance."""
        f = 3e6
        tau = 12.25 / FS
        w = tone_wave(f, n=16384)
        out = apply_path(w, PathModel(gain=1.0, delay=tau))
        sl = slice(300, 16000)
        expect = w.samples[sl] * np.exp(-2j * np.pi * f * tau)
        phase_err = np.max(np.abs(np.angle(out.samples[sl] * np.conj(expect))))
        assert phase_err < 1e-4

    def test_butterworth_3db_through_path(self):
        resp = ModulatorResponse("butterworth_lowpass", f3db=9e9, order=4)
        w = tone_wave(2e6, n=8192, center_freq=9e9 - 2e6)
        out = apply_path(w, PathModel(gain=1.0, response=resp))
        ratio_db = 20 * np.log10(
            np.sqrt(out.power() / w.power())
        )
        assert ratio_db == pytest.approx(-3.0103, abs=0.05)

    def test_noise_psd_scaling(self):
        w = BasebandWaveform(np.zeros(1 << 16, dtype=complex) + 1.0, FS)
        psd = 1e-9
        out = apply_path(w, PathModel(gain=1.0, noise_psd=psd),
                         np.random.default_rng(3))
        noise_power = np.mean(np.abs(out.samples - 1.0) ** 2)
        assert noise_power == pytest.approx(psd * FS, rel=0.05)

    def test_noise_needs_a_generator(self):
        """A noisy path without a generator fails rather than drawing the
        same default-seeded noise on every call."""
        with pytest.raises(RfCancelError, match="random generator"):
            apply_path(white_wave(1024), PathModel(gain=1.0, noise_psd=1e-9))

    def test_zero_gain(self):
        w = white_wave(1024)
        out = apply_path(w, PathModel(gain=0.0))
        assert np.all(out.samples == 0)

    def test_delay_exceeds_duration(self):
        w = white_wave(128)
        with pytest.raises(DelayTooLarge):
            apply_path(w, PathModel(gain=1.0, delay=129 / FS))


class TestMix:
    def _scenario(self, a11=1.0, a12=1.0, a22=1.0, seed=0):
        return MixingScenario(
            a11=PathModel(gain=a11),
            a12=PathModel(gain=a12),
            a22=PathModel(gain=a22),
            seed=seed,
        )

    def test_no_interference_in_r_l_when_a12_zero(self):
        soi = white_wave(100_000, seed=1)
        intf = fm_wave(100_000, seed=2)
        r_l, _ = mix(soi, intf, self._scenario(a12=0.0))
        rho = abs(np.vdot(r_l.samples, intf.samples)) / (
            np.linalg.norm(r_l.samples) * np.linalg.norm(intf.samples)
        )
        assert rho < 0.01

    def test_reference_is_soi_free(self):
        soi = white_wave(100_000, seed=1)
        intf = fm_wave(100_000, seed=2)
        _, r_h = mix(soi, intf, self._scenario())
        rho = abs(np.vdot(r_h.samples, soi.samples)) / (
            np.linalg.norm(r_h.samples) * np.linalg.norm(soi.samples)
        )
        assert rho < 0.01

    def test_power_addition(self):
        """Independent unit-power sources add their gain-squared powers."""
        soi = white_wave(1 << 17, seed=1)
        intf = fm_wave(1 << 17, seed=2)
        g11, g12 = 0.8, 1.7
        r_l, _ = mix(soi, intf, self._scenario(a11=g11, a12=g12))
        assert r_l.power() == pytest.approx(g11**2 + g12**2, rel=0.02)

    def test_linearity(self):
        soi = white_wave(4096, seed=1)
        intf = fm_wave(4096, seed=2)
        sc = self._scenario(a11=0.9, a12=1.2 * np.exp(0.4j))
        r_l1, r_h1 = mix(soi, intf, sc)
        alpha = 2.5 - 1.0j
        soi2 = soi.with_samples(alpha * soi.samples)
        intf2 = intf.with_samples(alpha * intf.samples)
        r_l2, r_h2 = mix(soi2, intf2, sc)
        assert np.max(np.abs(r_l2.samples - alpha * r_l1.samples)) < 1e-12
        assert np.max(np.abs(r_h2.samples - alpha * r_h1.samples)) < 1e-12

    def test_scaled_images_match_scaled_interference(self):
        """received(images, k) is the mix of k times the interference, with
        the same noise draws, and noiseless paths allocate no noise."""
        soi = white_wave(8192, seed=1)
        intf = fm_wave(8192, seed=2)
        sc = MixingScenario(
            a11=PathModel(gain=0.9, noise_psd=1e-10),
            a12=PathModel(gain=1.2 * np.exp(0.4j), delay=12.25 / FS,
                          noise_psd=1e-10),
            a22=PathModel(gain=1.1, delay=5 / FS),
            seed=7,
        )
        k = 3.7
        images = path_images(soi, intf, sc)
        assert images.n_h is None
        got = received(images, k)
        want = mix(soi, intf.with_samples(k * intf.samples), sc)
        for g, w in zip(got, want):
            assert np.max(np.abs(g.samples - w.samples)) < 1e-12 * k
            assert (g.invalid_head, g.invalid_tail) == (w.invalid_head,
                                                        w.invalid_tail)

    def test_clean_reference_at_unit_scale_is_the_image(self):
        """At scale 1 a clean r_H is the image y22 itself; at another scale,
        or with noise on r_H, r_H is an array of its own."""
        soi = white_wave(4096, seed=1)
        intf = fm_wave(4096, seed=2)
        images = path_images(soi, intf, self._scenario(a22=1.1))
        assert images.clean_reference
        assert received(images, 1.0)[1] is images.y22
        r_h = received(images, 2.0)[1]
        assert not np.shares_memory(r_h.samples, images.y22.samples)
        noisy = self._scenario(a22=1.1)
        noisy.a22.noise_psd = 1e-10
        images = path_images(soi, intf, noisy)
        assert not images.clean_reference
        r_h = received(images, 1.0)[1]
        assert not np.shares_memory(r_h.samples, images.y22.samples)

    def test_covariance_matches_mixing_matrix(self):
        """Sample covariance of (r_L, r_H) converges to A A^H."""
        n = 1 << 20
        soi = white_wave(n, seed=4)
        intf = fm_wave(n, seed=5)
        a = np.array([[1.0, 0.7 * np.exp(0.3j)], [0.0, 1.1 * np.exp(-0.8j)]])
        sc = MixingScenario(
            a11=PathModel(gain=a[0, 0]), a12=PathModel(gain=a[0, 1]),
            a22=PathModel(gain=a[1, 1]),
        )
        r_l, r_h = mix(soi, intf, sc)
        obs = np.vstack([r_l.samples, r_h.samples])
        cov = (obs @ obs.conj().T) / n
        expect = a @ a.conj().T
        assert np.max(np.abs(cov - expect)) < 0.03 * np.max(np.abs(expect))

    def test_rate_mismatch(self):
        soi = white_wave(1024, fs=FS)
        intf = white_wave(1024, fs=FS / 2)
        with pytest.raises(RateMismatch):
            mix(soi, intf, self._scenario())

    def test_length_mismatch(self):
        soi = white_wave(1024)
        intf = white_wave(512)
        with pytest.raises(RateMismatch):
            mix(soi, intf, self._scenario())

    def test_noise_reproducible_from_scenario_seed(self):
        soi = white_wave(8192, seed=1)
        intf = fm_wave(8192, seed=2)
        sc = MixingScenario(
            a11=PathModel(gain=1.0, noise_psd=1e-10),
            a12=PathModel(gain=1.0),
            a22=PathModel(gain=1.0, noise_psd=1e-10),
            seed=42,
        )
        r_l1, r_h1 = mix(soi, intf, sc)
        r_l2, r_h2 = mix(soi, intf, sc)
        assert np.array_equal(r_l1.samples, r_l2.samples)
        assert np.array_equal(r_h1.samples, r_h2.samples)


def test_gain_from_db():
    g = gain_from_db(6.0205999, 90.0)
    assert abs(g) == pytest.approx(2.0, abs=1e-6)
    assert np.angle(g) == pytest.approx(np.pi / 2, abs=1e-9)
