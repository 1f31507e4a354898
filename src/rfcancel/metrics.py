"""Measurements: Welch PSDs, interference-to-SOI ratio, cancellation depth
and data-aided EVM.

Conventions fixed here, and only here, for reproducibility: PSDs are
two-sided Hann-windowed Welch estimates with 50% overlap over
``segment_length`` samples (4096, fewer on a record shorter than four
segments or with fewer valid samples), and a depth's two PSDs share the
pair's segment; EVM is data-aided with a single least-squares complex-gain
alignment and normalized to the RMS of the ideal constellation; band depth
is the ratio of band-integrated PSDs (what a spectrum-analyzer marker
comparison reports), never a per-bin average of dB values, and always comes
with its per-bin curve; sample-paired measures read the span valid in all
their inputs (``waveform.common_valid``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidLength, InvalidSegment, OutOfBand
from .sigsynth import SymbolStream, constellation
from .waveform import BasebandWaveform, _write_csv, check_aligned, common_valid

DEFAULT_SEG_LEN = 4096
# the shortest Welch segment: a 2-sample Hann window is all zeros, and a
# one-bin PSD has no bin width
MIN_SEG_LEN = 3
# Welch frames per partial sum, and per FFT call: at 4096-sample segments
# the work buffers take 0.84 MiB
WELCH_GROUP = 32
WELCH_BATCH = 8


@dataclass
class PsdEstimate:
    """Two-sided PSD on a baseband-offset frequency grid."""

    freqs: np.ndarray
    psd: np.ndarray

    def total_power(self) -> float:
        df = self.freqs[1] - self.freqs[0]
        return float(np.sum(self.psd) * df)

    def at(self, f: float) -> float:
        """Nearest-bin PSD lookup."""
        if f < self.freqs[0] or f > self.freqs[-1]:
            raise OutOfBand(
                f"{f:.3g} Hz outside [{self.freqs[0]:.3g}, {self.freqs[-1]:.3g}]"
            )
        return float(self.psd[int(np.argmin(np.abs(self.freqs - f)))])

    def band_power(self, band: tuple[float, float]) -> float:
        lo, hi = band
        df = self.freqs[1] - self.freqs[0]
        mask = (self.freqs >= lo) & (self.freqs <= hi)
        return float(np.sum(self.psd[mask]) * df)


@dataclass
class EvmReport:
    """RMS EVM, the per-symbol error vectors and the aligned symbols."""

    evm_rms_pct: float
    per_symbol_errors: np.ndarray
    aligned: np.ndarray


@dataclass
class DepthReport:
    """Band-integrated cancellation depth and its per-bin curve."""

    depth_db: float
    band: tuple[float, float]
    freqs: np.ndarray
    curve_db: np.ndarray
    saturated: bool = False


def segment_length(*waves: BasebandWaveform) -> int:
    """The Welch segment of the waveforms' PSDs: DEFAULT_SEG_LEN, cut to a
    quarter of the shortest record and to its fewest valid samples."""
    return min(min(DEFAULT_SEG_LEN, len(w) // 4, w.valid.size) for w in waves)


def welch_psd(w: BasebandWaveform, seg_len: int | None = None) -> PsdEstimate:
    """Hann-windowed, 50%-overlap-averaged, window-power-compensated
    periodogram over ``seg_len`` samples (default ``segment_length(w)``).

    Satisfies Parseval within 1%: sum(psd) * df equals the mean power of the
    analyzed (valid) samples.
    """
    if seg_len is None:
        seg_len = segment_length(w)
    x = w.valid
    if not MIN_SEG_LEN <= seg_len <= x.size:
        raise InvalidSegment(
            f"segment length {seg_len} is not within {MIN_SEG_LEN}..{x.size}, "
            "the waveform's valid samples"
        )
    window = np.hanning(seg_len)
    win_power = np.sum(window**2)
    hop = max(1, round(seg_len / 2))
    frames = sliding_window_view(x, seg_len)[::hop]
    n_seg = frames.shape[0]
    acc = np.zeros(seg_len)
    group = np.empty(seg_len)
    # frame powers are summed one after another in groups of WELCH_GROUP
    # frames, and each group's sum is added to acc: that order sets the
    # PSD's bits.  An FFT call takes WELCH_BATCH frames into one spectrum
    # and one power buffer that every call reuses, and row 0 of the power
    # buffer carries the group's sum from call to call (0 + p = p exactly)
    batch = min(WELCH_BATCH, n_seg)
    spectra = np.empty((batch, seg_len), dtype=np.complex128)
    power = np.empty((batch + 1, seg_len))
    for k in range(0, n_seg, WELCH_GROUP):
        stop = min(k + WELCH_GROUP, n_seg)
        power[0] = 0.0
        for j in range(k, stop, batch):
            m = min(batch, stop - j)
            s, p = spectra[:m], power[1:m + 1]
            np.multiply(frames[j: j + m], window, out=s)
            np.fft.fft(s, axis=1, out=s)
            np.abs(s, out=p)
            p *= p
            np.sum(power[:m + 1], axis=0, out=group)
            power[0] = group
        acc += group
    # density scaling: |X|^2 / (fs * sum(window^2)), averaged over segments
    psd = np.fft.fftshift(acc / (n_seg * w.sample_rate * win_power))
    freqs = np.fft.fftshift(np.fft.fftfreq(seg_len, d=1.0 / w.sample_rate))
    return PsdEstimate(freqs, psd)


def isr_at(soi_psd: PsdEstimate, int_psd: PsdEstimate, f: float) -> float:
    """Interference-to-SOI spectral density ratio at f, in dB.

    Returns +inf when the SOI density is zero at f (degenerate but flagged
    by the sentinel rather than an exception).
    """
    s = soi_psd.at(f)
    i = int_psd.at(f)
    if s == 0.0:
        return math.inf
    if i == 0.0:
        return -math.inf
    return 10.0 * math.log10(i / s)


def cancellation_depth(before: BasebandWaveform, after: BasebandWaveform,
                       band: tuple[float, float],
                       before_psd: PsdEstimate | None = None) -> DepthReport:
    """dB reduction of band-integrated power from before to after, with the
    bin-wise depth curve over the band.

    Zero residual power saturates at the numeric floor and sets the
    ``saturated`` flag.  ``before_psd`` is ``welch_psd(before)`` when the
    caller already has it; it stands in for that PSD when its segment is
    the pair's ``segment_length``, and is recomputed otherwise.  Raises
    RateMismatch unless the records pair up sample for sample.
    """
    check_aligned(before, after)
    nyq = before.sample_rate / 2
    lo, hi = band
    if lo >= hi or lo < -nyq or hi > nyq:
        raise OutOfBand(f"band {band} not inside (+-{nyq:.3g} Hz)")
    seg = segment_length(before, after)
    p_b = before_psd
    if p_b is None or p_b.psd.size != seg:
        p_b = welch_psd(before, seg)
    p_a = welch_psd(after, seg)
    pow_b = p_b.band_power(band)
    pow_a = p_a.band_power(band)
    saturated = pow_a <= 0.0
    floor = np.finfo(float).tiny
    depth = 10.0 * math.log10(max(pow_b, floor) / max(pow_a, floor))
    mask = (p_b.freqs >= lo) & (p_b.freqs <= hi)
    ratio = np.maximum(p_b.psd[mask], floor) / np.maximum(p_a.psd[mask], floor)
    return DepthReport(depth, band, p_b.freqs[mask], 10.0 * np.log10(ratio),
                       saturated)


def evm(rx_symbols: SymbolStream, tx_symbols: SymbolStream) -> EvmReport:
    """Data-aided EVM after least-squares complex-gain alignment.

    A single scalar aligns rx to tx, so fixed gain and phase offsets do not
    count as error; anything else (noise, residual interference, ISI) does.
    The percentage is referenced to the RMS of the ideal constellation.
    """
    if rx_symbols.symbols.size != tx_symbols.symbols.size:
        raise InvalidLength(
            f"symbol counts differ: {rx_symbols.symbols.size} vs "
            f"{tx_symbols.symbols.size}"
        )
    if rx_symbols.format != tx_symbols.format:
        raise InvalidLength(
            f"formats differ: {rx_symbols.format} vs {tx_symbols.format}"
        )
    rx = rx_symbols.symbols
    tx = tx_symbols.symbols
    energy = np.real(np.vdot(rx, rx))
    scale = np.vdot(rx, tx) / energy if energy > 0 else 1.0
    aligned = scale * rx
    err = aligned - tx
    ref_rms = np.sqrt(np.mean(np.abs(constellation(tx_symbols.format)) ** 2))
    pct = 100.0 * np.sqrt(np.mean(np.abs(err) ** 2)) / ref_rms
    return EvmReport(float(pct), err, aligned)


def sir_against_truth(output: BasebandWaveform, target: BasebandWaveform,
                      other: BasebandWaveform) -> float:
    """Signal-to-interference ratio of a separated output, in dB.

    Decomposes the output onto the known true sources by least squares;
    whatever does not project onto the target (the other source plus any
    distortion) counts against it.  Simulator-side ground-truth oracle.
    """
    y, s, i = common_valid(output, target, other)
    basis = np.vstack([s, i]).T
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    wanted = coef[0] * s
    resid = y - wanted
    p_w = np.mean(np.abs(wanted) ** 2)
    p_r = np.mean(np.abs(resid) ** 2)
    if p_r == 0:
        return math.inf
    return float(10 * np.log10(p_w / p_r))


def export_psd_csv(est: PsdEstimate, path: str | os.PathLike) -> None:
    """freq_hz,psd_db_hz rows."""
    db = 10 * np.log10(np.maximum(est.psd, np.finfo(float).tiny))
    _write_csv(path, "freq_hz,psd_db_hz", est.freqs, db)


def export_evm_csv(report: EvmReport, path: str | os.PathLike) -> None:
    """symbol_idx,err_re,err_im rows."""
    err = report.per_symbol_errors
    _write_csv(path, "symbol_idx,err_re,err_im", np.arange(err.size),
               err.real, err.imag)


def export_depth_csv(report: DepthReport, path: str | os.PathLike) -> None:
    """freq_hz,depth_db rows."""
    _write_csv(path, "freq_hz,depth_db", report.freqs, report.curve_db)


__all__ = [
    "DEFAULT_SEG_LEN",
    "DepthReport",
    "EvmReport",
    "PsdEstimate",
    "cancellation_depth",
    "evm",
    "export_depth_csv",
    "export_evm_csv",
    "export_psd_csv",
    "isr_at",
    "segment_length",
    "sir_against_truth",
    "welch_psd",
]
