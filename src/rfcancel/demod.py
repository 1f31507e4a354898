"""Receiver-side symbol recovery: matched filter plus oracle-timing
decimation.

The simulator passes ground-truth timing, so no blind synchronization is
attempted; the canceller is the quantity under test, not the sync loops.
The matched filter is evaluated only at the symbol instants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    symbol_rate: float | None = None

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
    h = rrc_taps(cfg.sps, cfg.rolloff, cfg.span_symbols)
    # sample k of the full convolution is the reversed taps dotted with
    # x[k - h.size + 1 ... k]; only the symbol instants k = idx are formed
    start = cfg.span_symbols * cfg.sps + offset
    idx = start + cfg.sps * np.arange(n_out)
    idx = idx[idx < x.size + h.size - 1]
    tail = max(idx[-1] + 1 - x.size, 0) if idx.size else 0
    if tail:
        x = np.concatenate([x, np.zeros(tail, x.dtype)])
    # complex samples as (re, im) float pairs, so the product stays real
    pairs = np.ascontiguousarray(x).view(np.float64).reshape(-1, 2)
    windows = sliding_window_view(pairs, h.size, axis=0)
    symbols = (windows[start - h.size + 1::cfg.sps][:idx.size] @ h[::-1]
               ).view(np.complex128).ravel()
    rate = cfg.symbol_rate or w.sample_rate / cfg.sps
    return SymbolStream(symbols, cfg.format, rate)


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
