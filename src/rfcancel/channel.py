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

from dataclasses import dataclass, field

import numpy as np

from .errors import DelayTooLarge, RfCancelError
from .waveform import BasebandWaveform, check_aligned, merge_invalid

INTERP_TAPS = 64
INTERP_BETA = 8.0
# fractional parts below the interpolator's own group-delay accuracy are
# realized as integer shifts; the phase error this introduces sits at the
# interpolation error floor
INTERP_SNAP = 1e-4
# FIR blocks per matrix product (each real temporary at most about 256 KB)
FIR_CHUNK = 512
RESPONSE_KINDS = ("flat", "butterworth_lowpass")
# a Butterworth response runs as a RESPONSE_TAPS-tap FIR fitted over |f| <=
# RESPONSE_BAND * sample_rate, where the config rules keep the signals
RESPONSE_TAPS = 9
RESPONSE_BAND = 0.3


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
        h = 1 / np.polyval(a, 1j * (np.abs(f) / self.f3db))
        return np.where(f < 0, np.conj(h), h)


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


# the fit grid in units of the sample rate, and the real matrix that takes
# [Re h; Im h] to [Re; Im] of sum_j h[j] exp(-2j pi g (j - RESPONSE_TAPS // 2))
_FIT_GRID = np.linspace(-RESPONSE_BAND, RESPONSE_BAND, 121)
_ARG = 2 * np.pi * np.outer(_FIT_GRID,
                            np.arange(RESPONSE_TAPS) - RESPONSE_TAPS // 2)
_DESIGN = np.block([[np.cos(_ARG), np.sin(_ARG)],
                    [-np.sin(_ARG), np.cos(_ARG)]])


def _response_kernel(response: ModulatorResponse,
                     w: BasebandWaveform) -> np.ndarray:
    """The FIR fitted to ``response`` around ``w``'s carrier by least
    squares: its taps act on w's envelope, centred on the middle one.  The
    normal equations are solved here, in real arithmetic: run by the import,
    LAPACK raised a flat-path `isr_sweep`'s peak RSS by 0.5-1 MB."""
    h = response.eval(w.center_freq + _FIT_GRID * w.sample_rate)
    u = np.linalg.solve(_DESIGN.T @ _DESIGN,
                        _DESIGN.T @ np.concatenate([h.real, h.imag]))
    return u[:RESPONSE_TAPS] + 1j * u[RESPONSE_TAPS:]


def _fir(x: np.ndarray, k: np.ndarray, start: int, n: int) -> np.ndarray:
    """y[i] = sum_t k[t] * x[start + i - t] for i < n, x zero outside its
    span, for a real or complex kernel of odd length.

    Output block b (B = k.size - 1 samples) is input rows b and b + 1 of
    the zero-padded x, cut into B-sample rows, times the two halves of the
    (2B, B) matrix of shifted kernels; real and imaginary parts run apart
    as real matrix products, FIR_CHUNK blocks at a time; a complex
    kernel's real and imaginary matrices sit side by side.
    """
    b = k.size - 1
    t = np.arange(b) + b - np.arange(2 * b)[:, None]
    mat = np.where((t >= 0) & (t < k.size), k[np.clip(t, 0, k.size - 1)], 0)
    if np.iscomplexobj(k):
        mat = np.concatenate([mat.real, mat.imag], axis=1)
    n_blocks = -(-n // b)
    rows = np.empty((2, (min(FIR_CHUNK, n_blocks) + 1) * b))
    y = np.empty(n, dtype=np.complex128)
    for b0 in range(0, n_blocks, FIR_CHUNK):
        m = min(FIR_CHUNK, n_blocks - b0)
        chunk = rows[:, :(m + 1) * b]
        first = start + (b0 - 1) * b  # x index of the chunk's first sample
        lo, hi = max(first, 0), min(first + chunk.shape[1], x.size)
        if hi - lo < chunk.shape[1]:
            chunk[:] = 0.0
        if lo < hi:
            chunk[0, lo - first:hi - first] = x.real[lo:hi]
            chunk[1, lo - first:hi - first] = x.imag[lo:hi]
        blocks = chunk.reshape(2, m + 1, b)
        out = blocks[:, :-1] @ mat[:b]
        out += blocks[:, 1:] @ mat[b:]
        if mat.shape[1] > b:  # (Re x + j Im x) * (Re k + j Im k)
            out[0, :, :b] -= out[1, :, b:]
            out[1, :, :b] += out[0, :, b:]
        seg = y[b0 * b:(b0 + m) * b]
        seg.real = out[0, :, :b].reshape(-1)[:seg.size]
        seg.imag = out[1, :, :b].reshape(-1)[:seg.size]
    return y


def fractional_delay(w: BasebandWaveform, tau: float,
                     kernel: np.ndarray | None = None) -> BasebandWaveform:
    """Delay the envelope by tau seconds (envelope shift only).

    Integer sample shifts move data exactly; the fractional remainder goes
    through a 64-tap Kaiser-windowed sinc interpolator, run as a blocked
    matrix product (``_fir``).  Samples shifted in from outside the record
    are zero and flagged invalid.  A fractional part within INTERP_SNAP of
    a whole sample is realized as an integer shift.  ``kernel``, an
    odd-length FIR centred on its middle tap, filters the envelope in the
    same product, convolved with the interpolator, and flags half its
    length more at each end.
    """
    if abs(tau) >= w.duration:
        raise DelayTooLarge(
            f"|tau| = {abs(tau):.3g} s >= waveform duration {w.duration:.3g} s"
        )
    total = tau * w.sample_rate
    n_int = int(np.floor(total))
    frac = total - n_int
    x = w.samples
    margin = 0 if kernel is None else kernel.size // 2
    if frac < INTERP_SNAP or frac > 1 - INTERP_SNAP:
        # integer shift (fold any full-sample remainder into n_int)
        n_int += int(round(frac))
    else:
        interp = _interp_kernel(frac)
        kernel = interp if kernel is None else np.convolve(kernel, interp)
        margin += INTERP_TAPS
    if kernel is None:
        y = np.empty_like(x)  # y[i] = x[i - n_int]
        lo, hi = max(n_int, 0), min(x.size, x.size + n_int)
        y[:lo] = 0
        y[hi:] = 0
        y[lo:hi] = x[lo - n_int:hi - n_int]
    else:
        # the kernel delays by half its length (plus frac, interpolating)
        y = _fir(x, kernel, kernel.size // 2 - n_int, x.size)
    head = w.invalid_head + max(n_int, 0) + margin
    tail = w.invalid_tail + max(-n_int, 0) + margin
    return w.with_samples(y, invalid_head=head, invalid_tail=tail)


def true_time_delay(w: BasebandWaveform, tau: float) -> BasebandWaveform:
    """Physical delay: envelope shift plus exp(-j*2*pi*center_freq*tau).

    This is the delay a cable or optical line applies to the RF signal the
    envelope represents; the carrier rotation makes the operation
    frequency-selective across scenario carriers.  The rotation is applied
    in place to the delay line's own new record.
    """
    out = fractional_delay(w, tau)
    out.samples *= np.exp(-2j * np.pi * w.center_freq * tau)
    return out


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


def _image(w: BasebandWaveform, p: PathModel) -> BasebandWaveform:
    """Noise-free image of ``w`` through one path: gain * delayed(response(w)).

    A Butterworth response runs as its fitted FIR (``_response_kernel``),
    with the gain and carrier phase folded into the taps, in the delay
    line's one product: no sample depends on the record's length.
    """
    if p.delay >= w.duration:
        raise DelayTooLarge(
            f"path delay {p.delay:.3g} s >= waveform duration {w.duration:.3g} s"
        )
    if p.gain == 0:
        return w.with_samples(np.zeros_like(w.samples))
    rotation = p.gain * np.exp(-2j * np.pi * w.center_freq * p.delay)
    if p.response.kind != "flat":
        return fractional_delay(
            w, p.delay, kernel=_response_kernel(p.response, w) * rotation)
    out = fractional_delay(w, p.delay)
    out.samples *= rotation
    return out


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
class InterferenceImages:
    """The channel's output before the SOI enters it.

    ``y12``/``y22`` are the noise-free images of the interference on
    r_L/r_H, and ``n_l``/``n_h`` the noise each receiver adds, None when
    its paths are noiseless.  The noise depends on the record's length and
    rate alone, so it is drawn here, before any SOI exists.
    """

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
        """These interference images and noise, with ``soi``'s image."""
        check_aligned(soi, self.y12)
        return PathImages(self.y12, self.y22, self.n_l, self.n_h,
                          _image(soi, scenario.a11))


@dataclass
class PathImages(InterferenceImages):
    """The channel's output split into its linear parts.

    ``y11`` is the noise-free image of the SOI on r_L, beside the
    interference images and noise.  Because the channel is linear in the
    interference, a record at any interference amplitude ``scale`` is
    r_L = y11 + scale*y12 + n_L and r_H = scale*y22 + n_H (see
    ``received``).  ``y11`` is None once a caller that has formed r_L
    releases it.
    """

    y11: BasebandWaveform | None


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


def interference_images(interference: BasebandWaveform,
                        scenario: MixingScenario) -> InterferenceImages:
    """Noise-free path images of the interference and the per-receiver
    noise, drawn from ``path_rngs``: all of the channel's output but the
    SOI's image, which ``with_soi`` adds."""
    rng11, rng12, _, rng22 = path_rngs(scenario)
    return InterferenceImages(
        y12=_image(interference, scenario.a12),
        y22=_image(interference, scenario.a22),
        n_l=_sum_noise(_noise(scenario.a11, interference, rng11),
                       _noise(scenario.a12, interference, rng12)),
        n_h=_noise(scenario.a22, interference, rng22),
    )


def path_images(soi: BasebandWaveform, interference: BasebandWaveform,
                scenario: MixingScenario) -> PathImages:
    """Noise-free path images of both sources and the per-receiver noise."""
    return interference_images(interference, scenario).with_soi(soi, scenario)


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
    "InterferenceImages",
    "MixingScenario",
    "ModulatorResponse",
    "PathImages",
    "PathModel",
    "RESPONSE_BAND",
    "RESPONSE_KINDS",
    "RESPONSE_TAPS",
    "apply_path",
    "fractional_delay",
    "gain_from_db",
    "interference_images",
    "mix",
    "path_images",
    "path_rngs",
    "received",
    "true_time_delay",
]
