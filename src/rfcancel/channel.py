"""2x2 mixing channel with per-path gain, true-time delay, frequency
response and additive noise.

The delay element models a physical RF/optical delay line: the envelope is
shifted by tau and the carrier picks up exp(-j*2*pi*center_freq*tau).  The
carrier rotation is what makes fixed canceller taps frequency-selective
when scenarios are swept across RF carriers.

Frequency responses are evaluated at absolute RF frequency (center_freq +
baseband offset) with Hermitian symmetry, so they describe real filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DelayTooLarge, RfCancelError
from .waveform import BasebandWaveform, check_aligned, merge_invalid

INTERP_TAPS = 64
INTERP_BETA = 8.0
# fractional parts below the interpolator's own group-delay accuracy are
# realized as integer shifts; the phase error this introduces sits at the
# interpolation error floor
INTERP_SNAP = 1e-4
RESPONSE_KINDS = ("flat", "butterworth_lowpass")
# frequency bins per evaluation of a response: the evaluation's
# temporaries have this length and stay in cache, where record-length ones
# made it take as long as a transform
RESPONSE_CHUNK = 16384


@dataclass
class ModulatorResponse:
    """Front-end frequency response: flat or Butterworth lowpass."""

    kind: str = "flat"
    f3db: float = 9e9
    order: int = 4

    def __post_init__(self):
        if self.kind not in RESPONSE_KINDS:
            raise RfCancelError(f"unknown response kind {self.kind!r}")
        if self.kind == "butterworth_lowpass":
            if self.f3db <= 0:
                raise RfCancelError("f3db must be > 0")
            if self.order < 1:
                raise RfCancelError("order must be >= 1")

    def eval(self, freq_hz) -> np.ndarray:
        """Complex response at absolute RF frequency, H(-f) = conj(H(f))."""
        f = np.atleast_1d(np.asarray(freq_hz, dtype=float))
        if self.kind == "flat":
            return np.ones(f.shape, dtype=np.complex128)
        # analog Butterworth prototype: left-half-plane poles on the unit
        # circle, H(s) = 1 / prod(s - p), evaluated at s = j|f|/f3db
        n = self.order
        poles = -np.exp(1j * np.pi * np.arange(-n + 1, n, 2) / (2 * n))
        a = np.poly(poles).real
        s = 1j * (np.abs(f) / self.f3db)
        # Horner's rule, the arithmetic of np.polyval, updating h in place:
        # no temporary per coefficient, only the grid s and h are allocated
        h = np.full(f.shape, a[0], dtype=np.complex128)
        for c in a[1:]:
            h *= s
            h += c
        np.divide(1, h, out=h)
        return np.conjugate(h, out=h, where=f < 0)


@dataclass
class PathModel:
    """One entry of the mixing matrix: complex gain, delay, response, noise."""

    gain: complex = 1.0 + 0.0j
    delay: float = 0.0
    response: ModulatorResponse = field(default_factory=ModulatorResponse)
    noise_psd: float = 0.0

    def __post_init__(self):
        if self.delay < 0:
            raise RfCancelError("path delay must be >= 0")
        if self.noise_psd < 0:
            raise RfCancelError("noise_psd must be >= 0")


@dataclass
class MixingScenario:
    """The paths of the 2x2 mixer.  Its a21 entry is zero: no SOI reaches
    the reference receiver, which sees the interference alone."""

    a11: PathModel
    a12: PathModel
    a22: PathModel
    seed: int = 0


def _interp_kernel(frac: float) -> np.ndarray:
    """Windowed-sinc fractional-delay filter for 0 < frac < 1.

    The kernel's group delay is INTERP_TAPS//2 + frac samples; callers
    compensate the integer part.  The Kaiser window (INTERP_BETA) is
    evaluated continuously, centred on the fractional target, so the
    response stays symmetric about the actual delay.
    """
    x = np.arange(INTERP_TAPS + 1) - INTERP_TAPS // 2 - frac
    arg = 1.0 - (x / (INTERP_TAPS / 2 + 1.0)) ** 2
    root = np.sqrt(np.clip(arg, 0, None))
    window = np.where(arg > 0, np.i0(INTERP_BETA * root), 0.0)
    # the window's 1/i0(beta) scale cancels in the unit-DC-gain division
    h = np.sinc(x) * window
    return h / np.sum(h)


def fractional_delay(w: BasebandWaveform, tau: float,
                     snap: float = INTERP_SNAP) -> BasebandWaveform:
    """Delay the envelope by tau seconds (envelope shift only).

    Integer sample shifts move data exactly; the fractional remainder goes
    through a 64-tap Kaiser-windowed sinc interpolator.  Samples shifted in
    from outside the record are zero and flagged invalid.  ``snap`` is the
    threshold below which a fractional part is realized as an integer
    shift; continuous-search callers set it to 0.
    """
    if abs(tau) >= w.duration:
        raise DelayTooLarge(
            f"|tau| = {abs(tau):.3g} s >= waveform duration {w.duration:.3g} s"
        )
    total = tau * w.sample_rate
    n_int = int(np.floor(total))
    frac = total - n_int
    x = w.samples
    if frac < max(snap, 1e-12) or frac > 1 - max(snap, 1e-12):
        # pure integer shift (fold any full-sample remainder into n_int)
        n_int += int(round(frac))
        filt, shift, kernel_margin = x, n_int, 0
    else:
        # the full convolution delays by INTERP_TAPS // 2 + frac
        filt = np.convolve(x, _interp_kernel(frac))
        shift, kernel_margin = n_int - INTERP_TAPS // 2, INTERP_TAPS
    y = np.zeros_like(x)  # y[i] = filt[i - shift]
    lo, hi = max(shift, 0), min(x.size, filt.size + shift)
    y[lo:hi] = filt[lo - shift: hi - shift]
    head = w.invalid_head + max(n_int, 0) + kernel_margin
    tail = w.invalid_tail + max(-n_int, 0) + kernel_margin
    return w.with_samples(y, invalid_head=head, invalid_tail=tail)


def true_time_delay(w: BasebandWaveform, tau: float) -> BasebandWaveform:
    """Physical delay: envelope shift plus exp(-j*2*pi*center_freq*tau).

    This is the delay a cable or optical line applies to the RF signal the
    envelope represents; the carrier rotation makes the operation
    frequency-selective across scenario carriers.
    """
    out = fractional_delay(w, tau)
    rot = np.exp(-2j * np.pi * w.center_freq * tau)
    return out.with_samples(out.samples * rot)


def _fast_length(n: int) -> int:
    """Smallest 5-smooth length (2**a * 3**b * 5**c) >= n, which the FFT
    transforms several times faster than a length with a large prime
    factor (164,480 = 2**7 * 5 * 257 against 165,888)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that takes p35 to n or beyond
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _apply_response(w: BasebandWaveform,
                    response: ModulatorResponse) -> BasebandWaveform:
    """``w`` through the response, filtered at the 5-smooth length m >= n
    with zero padding, so the filter wraps around m, not n, samples.

    One m-sample buffer holds the record, its spectrum and the output,
    whose first n samples are returned as a view.  The buffer is
    transformed before the frequency grid exists; built first, the grid
    and H raised the benchmark's `multiband` peak RSS by about 3 MB.  H is
    evaluated and applied RESPONSE_CHUNK bins at a time, so neither H nor
    the temporaries of its evaluation are record-sized.
    """
    n = len(w)
    buf = np.zeros(_fast_length(n), dtype=np.complex128)
    buf[:n] = w.samples
    np.fft.fft(buf, out=buf)
    freqs = np.fft.fftfreq(buf.size, d=1.0 / w.sample_rate)
    freqs += w.center_freq
    for lo in range(0, buf.size, RESPONSE_CHUNK):
        buf[lo:lo + RESPONSE_CHUNK] *= response.eval(
            freqs[lo:lo + RESPONSE_CHUNK])
    del freqs
    np.fft.ifft(buf, out=buf)
    return w.with_samples(buf[:n])


def _image(w: BasebandWaveform, p: PathModel) -> BasebandWaveform:
    """Noise-free image of ``w`` through one path: gain * delayed(response(w)).

    The response filters the source before the delay line, whose new
    array frees the padded buffer.  Both are linear and time-invariant, so
    the order moves only the record edges.
    """
    if p.delay >= w.duration:
        raise DelayTooLarge(
            f"path delay {p.delay:.3g} s >= waveform duration {w.duration:.3g} s"
        )
    if p.gain == 0:
        return w.with_samples(np.zeros_like(w.samples))
    if p.response.kind == "flat":
        out = fractional_delay(w, p.delay)
    else:
        # no name holds the padded buffer: it dies as the delay line returns
        out = fractional_delay(_apply_response(w, p.response), p.delay)
    carrier_phase = np.exp(-2j * np.pi * w.center_freq * p.delay)
    # the gain forms a new array: applied in place, it read a higher peak
    # RSS on flat paths (heap layout), though it allocates one array less
    return out.with_samples(out.samples * (p.gain * carrier_phase))


def _noise(p: PathModel, w: BasebandWaveform,
           rng: np.random.Generator | None) -> np.ndarray | None:
    """White Gaussian noise of the path's PSD, or None for a silent path."""
    if p.gain == 0 or p.noise_psd == 0:
        return None
    if rng is None:
        raise RfCancelError("a path with noise needs a random generator")
    sigma = np.sqrt(p.noise_psd * w.sample_rate / 2.0)
    return sigma * (rng.standard_normal(w.samples.size)
                    + 1j * rng.standard_normal(w.samples.size))


def apply_path(w: BasebandWaveform, p: PathModel,
               rng: np.random.Generator | None = None) -> BasebandWaveform:
    """Forward model of one mixing-matrix entry.

    gain * delayed(response(w)), plus white Gaussian noise of the
    configured PSD from ``rng``, which a noisy path needs.  The delay
    rotates the carrier by exp(-j*2*pi*center_freq*delay) on top of
    shifting the envelope.
    """
    out = _image(w, p)
    noise = _noise(p, w, rng)
    if noise is not None:
        out.samples += noise
    return out


@dataclass
class PathImages:
    """The channel's output split into its linear parts.

    ``y11`` is the noise-free image of the SOI on r_L and ``y12``/``y22``
    those of the interference on r_L/r_H; ``n_l``/``n_h`` are the noise
    each receiver adds.  Because the channel is linear in the interference,
    a record at any interference amplitude ``scale`` is
    r_L = y11 + scale*y12 + n_L and r_H = scale*y22 + n_H (see
    ``received``).  A noise entry is None when its paths are noiseless.
    """

    y11: BasebandWaveform
    y12: BasebandWaveform
    y22: BasebandWaveform
    n_l: np.ndarray | None
    n_h: np.ndarray | None

    @property
    def clean_reference(self) -> bool:
        """True when r_H is the interference image alone: scale*y22."""
        return self.n_h is None

    def with_soi(self, soi: BasebandWaveform,
                 scenario: MixingScenario) -> "PathImages":
        """The same interference images and noise with another SOI's image."""
        check_aligned(soi, self.y12)
        return replace(self, y11=_image(soi, scenario.a11))


def _sum_noise(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    if a is None or b is None:
        return b if a is None else a
    a += b
    return a


def path_rngs(scenario: MixingScenario) -> list[np.random.Generator]:
    """One noise generator per mixing-matrix entry (a11, a12, a21, a22),
    each on its own independent sub-stream of the scenario seed.  The zero
    a21 entry draws nothing, but keeps its stream so that a22 keeps its
    own."""
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(scenario.seed).spawn(4)]


def path_images(soi: BasebandWaveform, interference: BasebandWaveform,
                scenario: MixingScenario) -> PathImages:
    """Noise-free path images of both sources and the per-receiver noise,
    drawn from ``path_rngs``."""
    check_aligned(soi, interference)
    rng11, rng12, _, rng22 = path_rngs(scenario)
    return PathImages(
        y11=_image(soi, scenario.a11),
        y12=_image(interference, scenario.a12),
        y22=_image(interference, scenario.a22),
        n_l=_sum_noise(_noise(scenario.a11, soi, rng11),
                       _noise(scenario.a12, interference, rng12)),
        n_h=_noise(scenario.a22, interference, rng22),
    )


def received(images: PathImages,
             scale: float = 1.0) -> tuple[BasebandWaveform, BasebandWaveform]:
    """r_L = y11 + scale*y12 + n_L, with the SOI image's metadata, and
    r_H = scale*y22 + n_H, with the interference image's.  At scale 1 a
    clean r_H is the array y22 itself, not a copy of it."""
    samples = images.y12.samples * scale
    samples += images.y11.samples
    if images.n_l is not None:
        samples += images.n_l
    head, tail = merge_invalid(images.y12, images.y11)
    r_l = images.y11.with_samples(samples, invalid_head=head,
                                  invalid_tail=tail)
    if scale == 1.0 and images.clean_reference:
        return r_l, images.y22
    samples = images.y22.samples * scale
    if images.n_h is not None:
        samples += images.n_h
    return r_l, images.y22.with_samples(samples)


def mix(soi: BasebandWaveform, interference: BasebandWaveform,
        scenario: MixingScenario) -> tuple[BasebandWaveform, BasebandWaveform]:
    """Produce the antenna signal r_L and the reference signal r_H.

    r_L = a11(soi) + a12(interference); r_H = a22(interference): the a21
    entry is zero, so r_H carries interference only.
    """
    return received(path_images(soi, interference, scenario))


def gain_from_db(gain_db: float, phase_deg: float = 0.0) -> complex:
    """Convert the config's dB-magnitude + degrees-phase into a linear gain."""
    return 10 ** (gain_db / 20.0) * np.exp(1j * np.deg2rad(phase_deg))


__all__ = [
    "INTERP_BETA",
    "INTERP_TAPS",
    "MixingScenario",
    "ModulatorResponse",
    "PathImages",
    "PathModel",
    "RESPONSE_KINDS",
    "apply_path",
    "fractional_delay",
    "gain_from_db",
    "mix",
    "path_images",
    "path_rngs",
    "received",
    "true_time_delay",
]
