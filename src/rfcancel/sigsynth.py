"""Signal synthesis: Gray-coded QAM sources and FM-noise interference.

Constellation convention (fixed by this repo, documented here because EVM
and constellation plots depend on it): bits are split alternately onto the
I and Q axes, each axis word is read MSB-first as a binary-reflected Gray
code, and axis levels run from +(M-1) down to -(M-1) as the Gray index
increases, so the all-zeros word maps to the top-right corner point.  Every
constellation is scaled to unit RMS power.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AliasedConfig, InvalidLength, RfCancelError
from .waveform import BasebandWaveform

FORMATS = ("qpsk", "qam16", "qam64", "qam256")

_BITS_PER_SYMBOL = {"qpsk": 2, "qam16": 4, "qam64": 6, "qam256": 8}


@dataclass
class SymbolStream:
    """Constellation points plus the format and rate they were drawn at."""

    symbols: np.ndarray
    format: str
    symbol_rate: float = 1.0

    def __post_init__(self):
        self.symbols = np.asarray(self.symbols, dtype=np.complex128)
        if self.format not in FORMATS:
            raise RfCancelError(f"unknown format {self.format!r}")


@dataclass
class FmNoiseSpec:
    """Wideband interference: Gaussian noise frequency-modulated on a carrier.

    ``deviation_pp`` is the peak-to-peak swing of the instantaneous
    frequency; ``mod_noise_bw`` bounds the bandwidth of the modulating
    Gaussian process.
    """

    deviation_pp: float
    mod_noise_bw: float
    power: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.deviation_pp < 0:
            raise RfCancelError("deviation_pp must be >= 0")
        if self.mod_noise_bw <= 0:
            raise RfCancelError("mod_noise_bw must be > 0")
        if self.power <= 0:
            raise RfCancelError("power must be > 0")


def bits_per_symbol(fmt: str) -> int:
    try:
        return _BITS_PER_SYMBOL[fmt]
    except KeyError:
        raise RfCancelError(f"unknown format {fmt!r}") from None


def _gray_to_index(words: np.ndarray) -> np.ndarray:
    """Decode binary-reflected Gray words (rows of bits, MSB first)."""
    idx = words[:, 0].astype(np.int64)
    bit = idx.copy()
    for k in range(1, words.shape[1]):
        bit ^= words[:, k]
        idx = (idx << 1) | bit
    return idx


def _axis_levels(bits_per_axis: int) -> np.ndarray:
    """Gray-ordered amplitude levels for one axis, +(M-1) first."""
    m = 1 << bits_per_axis
    return (m - 1) - 2.0 * np.arange(m)


def constellation(fmt: str) -> np.ndarray:
    """Unit-RMS constellation table indexed by the symbol's bit word."""
    k = bits_per_symbol(fmt) // 2
    levels = _axis_levels(k)
    grid_i, grid_q = np.meshgrid(levels, levels, indexing="ij")
    # index = (gray_index_I << k) | gray_index_Q
    points = (grid_i + 1j * grid_q).ravel()
    return points / np.sqrt(np.mean(np.abs(points) ** 2))


def map_symbols(bits, fmt: str, symbol_rate: float = 1.0) -> SymbolStream:
    """Map a bit sequence onto the documented Gray constellation."""
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if np.any((bits != 0) & (bits != 1)):
        raise RfCancelError("bits must be 0 or 1")
    bps = bits_per_symbol(fmt)
    if bits.size == 0 or bits.size % bps:
        raise InvalidLength(
            f"bit count {bits.size} not divisible by {bps} ({fmt} bits/symbol)"
        )
    words = bits.reshape(-1, bps)
    k = bps // 2
    idx_i = _gray_to_index(words[:, 0::2])
    idx_q = _gray_to_index(words[:, 1::2])
    table = constellation(fmt)
    return SymbolStream(table[(idx_i << k) | idx_q], fmt, symbol_rate)


def random_symbols(fmt: str, n_symbols: int, symbol_rate: float,
                   rng: np.random.Generator) -> SymbolStream:
    """Uniform random payload, mapped through the same Gray tables."""
    bits = rng.integers(0, 2, size=n_symbols * bits_per_symbol(fmt))
    return map_symbols(bits, fmt, symbol_rate)


def _raised_cosine_pulse(t: np.ndarray, rolloff: float) -> np.ndarray:
    """Nyquist raised-cosine impulse response, t in symbol units."""
    out = np.sinc(t) * np.cos(np.pi * rolloff * t)
    den = 1 - (2 * rolloff * t) ** 2
    small = np.abs(den) < 1e-8
    safe = np.where(small, 1.0, den)
    return np.where(small, np.pi / 4 * np.sinc(1 / (2 * rolloff)), out / safe)


@functools.lru_cache(maxsize=16)
def rrc_taps(sps: int, rolloff: float, span_symbols: int) -> np.ndarray:
    """Root-raised-cosine filter, unit energy, span_symbols*sps + 1 taps.

    Built as the zero-phase spectral square root of a Kaiser-windowed
    raised-cosine composite rather than by truncating the closed-form RRC:
    plain truncation at 16 symbols leaves ~1% composite ISI, this keeps the
    matched cascade Nyquist to ~1e-4 at the same span.  The taps are cached
    per argument tuple and returned read-only, since shaping and matched
    filtering ask for the same filter on every record.
    """
    if not 0 < rolloff <= 1:
        raise RfCancelError(f"rolloff must be in (0, 1], got {rolloff}")
    n = span_symbols * sps
    t = (np.arange(n + 1) - n / 2) / sps
    composite = _raised_cosine_pulse(t, rolloff) * np.kaiser(n + 1, 6.0)
    nfft = max(8192, 4 * n)
    mag = np.abs(np.fft.fft(composite, nfft))
    h = np.roll(np.fft.ifft(np.sqrt(mag)).real, n // 2)[: n + 1]
    h = h / np.sqrt(np.sum(h**2))
    h.flags.writeable = False
    return h


def _shape_symbols(symbols: np.ndarray, h: np.ndarray, sps: int,
                   span: int) -> np.ndarray:
    """Full convolution of the sps-fold zero-stuffed symbols with ``h``.

    Polyphase form: output sample q*sps + r is the dot product of the
    symbols q-span..q with every sps-th tap from r, so each output row of
    sps samples is one window of span+1 symbols times the (span+1, sps)
    tap matrix.  The length is exactly (n_symbols + span) * sps.
    """
    taps = np.zeros((span + 1) * sps)
    taps[: h.size] = h
    # row d of the flipped matrix holds the taps that weight symbol q-span+d
    taps = taps.reshape(span + 1, sps)[::-1]
    padded = np.zeros(symbols.size + 2 * span, dtype=np.complex128)
    padded[span: span + symbols.size] = symbols
    shaped = np.empty((symbols.size + span, sps), dtype=np.complex128)
    shaped.real = sliding_window_view(padded.real, span + 1) @ taps
    shaped.imag = sliding_window_view(padded.imag, span + 1) @ taps
    return shaped.ravel()


def generate_soi(stream: SymbolStream, sps: int, rolloff: float = 0.2,
                 span_symbols: int = 16, center_freq: float = 0.0,
                 power: float = 1.0) -> BasebandWaveform:
    """RRC pulse-shape a symbol stream into a unit-power (configurable) SOI.

    Output length is (n_symbols + span_symbols) * sps; sample rate is
    symbol_rate * sps.
    """
    if sps < 2:
        raise AliasedConfig(f"sps must be >= 2, got {sps}")
    if span_symbols < 4:
        raise RfCancelError(f"span_symbols must be >= 4, got {span_symbols}")
    h = rrc_taps(sps, rolloff, span_symbols)
    shaped = _shape_symbols(stream.symbols, h, sps, span_symbols)
    rms = np.sqrt(np.mean(np.abs(shaped) ** 2))
    shaped *= np.sqrt(power) / rms
    return BasebandWaveform(
        samples=shaped,
        sample_rate=stream.symbol_rate * sps,
        center_freq=center_freq,
    )


def _modulation_taps(bandwidth: float, sample_rate: float) -> np.ndarray:
    """257-tap Hamming-windowed sinc lowpass at unit DC gain (the window
    method of scipy's ``firwin``), cut off at ``bandwidth`` or 0.45 fs if
    lower."""
    c = 2 * min(bandwidth, 0.45 * sample_rate) / sample_rate
    m = np.arange(257) - 128
    taps = c * np.sinc(c * m) * np.hamming(257)
    return taps / np.sum(taps)


def generate_fm_interference(spec: FmNoiseSpec, n_samples: int,
                             sample_rate: float,
                             center_freq: float = 0.0) -> BasebandWaveform:
    """Constant-envelope carrier frequency-modulated by filtered noise.

    The modulating process is lowpass-filtered white Gaussian noise, scaled
    so its realized peak-to-peak swing over this record equals
    ``deviation_pp`` exactly (instrument-style normalization, not a sigma
    multiple).
    """
    if sample_rate <= 2 * (spec.deviation_pp + spec.mod_noise_bw):
        raise AliasedConfig(
            f"sample_rate {sample_rate:.3g} Hz cannot represent deviation "
            f"{spec.deviation_pp:.3g} Hz + modulation bw {spec.mod_noise_bw:.3g} Hz"
        )
    if n_samples < 2:
        raise RfCancelError("n_samples must be >= 2")
    rng = np.random.default_rng(spec.seed)
    amp = np.sqrt(spec.power)
    if spec.deviation_pp == 0:
        samples = np.full(n_samples, amp, dtype=np.complex128)
        return BasebandWaveform(samples, sample_rate, center_freq)
    noise = rng.standard_normal(n_samples)
    taps = _modulation_taps(spec.mod_noise_bw, sample_rate)
    # the centre n_samples of the full convolution, also for records
    # shorter than the filter
    half = taps.size // 2
    f_inst = np.convolve(noise, taps)[half: half + n_samples]
    f_inst -= np.mean(f_inst)
    span = np.max(f_inst) - np.min(f_inst)
    f_inst *= spec.deviation_pp / span
    phase = 2 * np.pi * np.cumsum(f_inst) / sample_rate
    samples = np.empty(n_samples, dtype=np.complex128)
    np.cos(phase, out=samples.real)
    np.sin(phase, out=samples.imag)
    if amp != 1:
        samples *= amp
    return BasebandWaveform(samples, sample_rate, center_freq)


__all__ = [
    "FORMATS",
    "FmNoiseSpec",
    "SymbolStream",
    "bits_per_symbol",
    "constellation",
    "generate_fm_interference",
    "generate_soi",
    "map_symbols",
    "random_symbols",
    "rrc_taps",
]
