"""Complex-envelope waveform container and its on-disk formats.

The binary format is shared by every tool in the repo: little-endian header
``{magic "RCWV", version u32, sample_rate f64, center_freq f64, n_samples
u64}`` followed by interleaved float32 (re, im) pairs.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import RateMismatch, RfCancelError

MAGIC = b"RCWV"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIddQ")


@dataclass
class BasebandWaveform:
    """Uniformly sampled complex envelope referenced to an RF carrier.

    ``center_freq`` is metadata only: it tells frequency-dependent channel
    elements which part of the RF spectrum this envelope represents.
    ``invalid_head``/``invalid_tail`` count edge samples ruined by delay
    interpolation; metrics exclude them.
    """

    samples: np.ndarray
    sample_rate: float
    center_freq: float = 0.0
    invalid_head: int = 0
    invalid_tail: int = 0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.sample_rate <= 0:
            raise RfCancelError(f"sample_rate must be > 0, got {self.sample_rate}")
        if self.samples.size == 0:
            raise RfCancelError("waveform must contain at least one sample")
        if not np.all(np.isfinite(self.samples.view(np.float64))):
            raise RfCancelError("waveform contains non-finite samples")
        self.invalid_head = int(min(max(self.invalid_head, 0), self.samples.size))
        self.invalid_tail = int(min(max(self.invalid_tail, 0), self.samples.size))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    @property
    def valid(self) -> np.ndarray:
        """View of the samples with invalidated edges stripped."""
        stop = self.samples.size - self.invalid_tail
        if self.invalid_head >= stop:
            return self.samples[0:0]
        return self.samples[self.invalid_head:stop]

    def power(self) -> float:
        """Mean |s|^2 over the valid region."""
        v = self.valid
        if v.size == 0:
            return 0.0
        return float(np.mean(np.abs(v) ** 2))

    def with_samples(self, samples: np.ndarray, **overrides) -> "BasebandWaveform":
        """Copy metadata onto a new sample array."""
        kw = dict(
            sample_rate=self.sample_rate,
            center_freq=self.center_freq,
            invalid_head=self.invalid_head,
            invalid_tail=self.invalid_tail,
        )
        kw.update(overrides)
        return BasebandWaveform(samples=samples, **kw)


def merge_invalid(*waves: BasebandWaveform) -> tuple[int, int]:
    """Worst-case invalid edge counts across several aligned waveforms."""
    head = max(w.invalid_head for w in waves)
    tail = max(w.invalid_tail for w in waves)
    return head, tail


def check_aligned(a: BasebandWaveform, *others: BasebandWaveform) -> None:
    """Raise RateMismatch unless all the waveforms share a sample rate and
    a length, so that their samples pair up one for one."""
    for b in others:
        if a.sample_rate != b.sample_rate:
            raise RateMismatch(f"sample rates differ: {a.sample_rate} vs "
                               f"{b.sample_rate}")
        if len(a) != len(b):
            raise RateMismatch(f"lengths differ: {len(a)} vs {len(b)}")


def common_valid(*waves: BasebandWaveform) -> tuple[np.ndarray, ...]:
    """Each aligned waveform's samples over the span valid in all of them:
    views that pair up one for one.  Raises RateMismatch unless aligned."""
    check_aligned(*waves)
    head, tail = merge_invalid(*waves)
    stop = len(waves[0]) - tail
    return tuple(w.samples[head:stop] for w in waves)


def _umask() -> int:
    # the umask can only be read by setting it; the restrictive placeholder
    # keeps files created meanwhile by other threads private
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


def _atomic_write(path: str | os.PathLike, payload: bytes) -> None:
    """Write ``payload`` to ``path`` through a temporary file and a rename.

    The file gets the mode a plain ``open`` would give it (0666 less the
    umask), not the 0600 of the temporary file.
    """
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-rcwv-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str | os.PathLike, header: str, row: str,
               *columns) -> None:
    """Write ``header`` and one ``row % values`` line per entry of the
    equal-length ``columns`` (atomically).  ``%`` gives the same text as an
    f-string with the same format specs, nan, inf and -0.0 included."""
    lines = [header]
    lines.extend(row % values for values in
                 zip(*(np.asarray(c).tolist() for c in columns)))
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def save_waveform(w: BasebandWaveform, path: str | os.PathLike) -> None:
    """Write the shared binary waveform format (atomically)."""
    # the file is built in place: no float32 array or bytes copy beside it
    buf = bytearray(_HEADER.size + 8 * w.samples.size)
    _HEADER.pack_into(buf, 0, MAGIC, FORMAT_VERSION, w.sample_rate,
                      w.center_freq, w.samples.size)
    body = np.frombuffer(buf, "<f4", offset=_HEADER.size)
    body[0::2] = w.samples.real
    body[1::2] = w.samples.imag
    _atomic_write(path, buf)


def load_waveform(path: str | os.PathLike) -> BasebandWaveform:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise RfCancelError(f"{path}: truncated waveform file")
    magic, version, fs, fc, n = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise RfCancelError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise RfCancelError(f"{path}: unsupported version {version}")
    body = np.frombuffer(raw, dtype=np.float32, offset=_HEADER.size)
    if body.size != 2 * n:
        raise RfCancelError(f"{path}: expected {2*n} floats, found {body.size}")
    samples = body[0::2].astype(np.float64) + 1j * body[1::2].astype(np.float64)
    return BasebandWaveform(samples=samples, sample_rate=fs, center_freq=fc)


__all__ = [
    "BasebandWaveform",
    "FORMAT_VERSION",
    "MAGIC",
    "check_aligned",
    "common_valid",
    "load_waveform",
    "merge_invalid",
    "save_waveform",
]
