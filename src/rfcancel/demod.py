"""Receiver-side symbol recovery: matched filter plus oracle-timing
decimation.

The simulator passes ground-truth timing, so no blind synchronization is
attempted; the canceller is the quantity under test, not the sync loops.
The matched filter is evaluated only at the symbol instants, in polyphase
form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import fractional_delay
from .errors import RfCancelError, TooShort
from .sigsynth import FORMATS, SymbolStream, rrc_taps
from .waveform import BasebandWaveform


@dataclass
class DemodConfig:
    """Receiver parameters; pulse shaping must mirror the transmitter."""

    sps: int
    format: str
    rolloff: float = 0.2
    span_symbols: int = 16
    timing_offset: float = 0.0  # samples, ground truth from the scenario

    def __post_init__(self):
        if self.sps < 2:
            raise RfCancelError(f"sps must be >= 2, got {self.sps}")
        if self.format not in FORMATS:
            raise RfCancelError(f"unknown format {self.format!r}")
        if self.timing_offset < 0:
            raise RfCancelError(
                f"timing_offset must be >= 0, got {self.timing_offset}")


def symbol_count(n_samples: int, cfg: DemodConfig) -> int:
    """Deterministic output length: floor((len - filter_span) / sps)."""
    return (n_samples - cfg.span_symbols * cfg.sps) // cfg.sps


def demodulate(w: BasebandWaveform, cfg: DemodConfig) -> SymbolStream:
    """Matched-filter the waveform and sample at the known symbol instants.

    Output symbols are unnormalized; EVM measurement aligns the complex
    gain downstream.
    """
    n_out = symbol_count(len(w), cfg)
    if n_out <= 0:
        raise TooShort(
            f"waveform of {len(w)} samples shorter than the "
            f"{cfg.span_symbols * cfg.sps}-sample filter span"
        )
    frac = cfg.timing_offset - int(np.floor(cfg.timing_offset))
    x = w.samples
    if frac > 1e-9:
        x = fractional_delay(w, -frac / w.sample_rate).samples
    offset = int(np.floor(cfg.timing_offset))
    sps = cfg.sps
    h = rrc_taps(sps, cfg.rolloff, cfg.span_symbols)
    # symbol j is sample span*sps + offset + j*sps of the full convolution:
    # the reversed taps dotted with x[offset + j*sps ...], formed while that
    # first sample lies inside the record
    x = x[offset:]
    n = min(n_out, -(-x.size // sps))
    # polyphase: taps row k weights samples k*sps ... k*sps + sps - 1 of
    # each window, so symbol j sums row j + k of x times taps row k
    k_taps = -(-h.size // sps)
    taps = np.zeros(k_taps * sps)
    taps[: h.size] = h[::-1]
    taps = taps.reshape(k_taps, sps)
    # the symbols whose windows lie inside x read it in place; the last few
    # read a zero-padded copy of the record's end
    inside = min(n, max(x.size // sps - k_taps + 1, 0))
    symbols = _polyphase(x, taps, inside)
    if inside < n:
        symbols = np.concatenate(
            [symbols, _polyphase(x[inside * sps:], taps, n - inside)])
    return SymbolStream(symbols, cfg.format, w.sample_rate / sps)


def _polyphase(x: np.ndarray, taps: np.ndarray, n: int) -> np.ndarray:
    """Sum over k of rows[k:k+n] @ taps[k], where the rows are x cut into
    rows of taps.shape[1] samples and zero-padded to the n + k_taps - 1 rows
    it spans.  Each product is one contiguous matrix-vector call."""
    k_taps, sps = taps.shape
    size = (n + k_taps - 1) * sps
    if x.size < size:
        x = np.concatenate([x, np.zeros(size - x.size, x.dtype)])
    rows = x[:size].reshape(-1, sps)
    out = rows[:n] @ taps[0]
    for k in range(1, k_taps):
        out += rows[k: k + n] @ taps[k]
    return out


def valid_symbol_range(w: BasebandWaveform, cfg: DemodConfig) -> tuple[int, int]:
    """Symbol indices untouched by the waveform's invalidated edge samples.

    The matched filter smears each sample across span_symbols, so one full
    span of margin is kept on both sides.
    """
    n_out = symbol_count(len(w), cfg)
    span = cfg.span_symbols * cfg.sps
    first_ok = int(np.ceil((w.invalid_head + span / 2) / cfg.sps))
    last_ok = n_out - int(np.ceil((w.invalid_tail + span / 2) / cfg.sps))
    return max(first_ok, 0), max(last_ok, 0)


__all__ = [
    "DemodConfig",
    "demodulate",
    "symbol_count",
    "valid_symbol_range",
]
