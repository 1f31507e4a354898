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
    The constructor rejects non-finite samples where they enter the
    program; ``with_samples`` derives waveforms without that scan.
    """

    samples: np.ndarray
    sample_rate: float
    center_freq: float = 0.0
    invalid_head: int = 0
    invalid_tail: int = 0

    def __post_init__(self):
        self._settle()
        if not np.all(np.isfinite(self.samples.view(np.float64))):
            raise RfCancelError("waveform contains non-finite samples")

    def _settle(self) -> None:
        """Convert the samples to complex128, check the rate and the size,
        and clamp the invalid edges to the record."""
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.sample_rate <= 0:
            raise RfCancelError(f"sample_rate must be > 0, got {self.sample_rate}")
        if self.samples.size == 0:
            raise RfCancelError("waveform must contain at least one sample")
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
        """Copy metadata onto a new sample array, which the package derived
        from finite samples: it is not scanned for non-finite values."""
        out = object.__new__(BasebandWaveform)
        vars(out).update(vars(self), samples=samples, **overrides)
        out._settle()
        return out


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


# "%.10e" in NumPy: |x| is scaled by a correctly rounded power of ten to an
# 11-digit mantissa m, within 2.3e-5 of the exact product.  So m rounds as
# the exact value does unless its fraction lies within _TIE_MARGIN of 0.5;
# such cells, and those past _EXP_LIMIT (subnormals among them), 0, nan
# and inf, are formatted by Python itself.
_TIE_MARGIN = 1e-4
_EXP_LIMIT = 280
_POW10_MIN = -300
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, 301)])
# m's digits: floor(m / 10**k) is exact for integers m <= 1e11
_PLACES = 10.0 ** np.arange(10, -1, -2)[:, None]
# a cell's bytes that are not text: dropped before the file is written
_FILLER = "\0"
# text pieces of a cell, one array item each: the sign, leading digit and
# point of a mantissa; two of its digits; its exponent
_LEADS = np.frombuffer("".join(f"{s}{d}." for s in (_FILLER, "-")
                               for d in range(10)).encode(), "V3")
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), "<u2")
_EXPS = np.frombuffer("".join(f"e{k:+03d}".ljust(5, _FILLER)
                              for k in range(-_EXP_LIMIT - 1, _EXP_LIMIT + 2)
                              ).encode(), "V5")
# the longest "%.10e" text that the NumPy path writes
_E10_WIDTH = len("-1.2345678901e-123")


def _put_e10(out: np.ndarray, x: np.ndarray) -> None:
    """``"%.10e" % v`` for each v of ``x``, one per row of ``out``, with
    filler where the text is shorter than the row."""
    a = np.abs(x)
    fast = (a >= 10.0**-_EXP_LIMIT) & (a < 10.0**_EXP_LIMIT)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    m = a * _POW10[10 - e - _POW10_MIN]
    # log10 can be one off next to a power of ten
    e += (m >= 1e11).astype(np.intp) - (m < 1e10)
    m = a * _POW10[10 - e - _POW10_MIN]
    r = np.rint(m)
    fast &= np.abs(m - r) < 0.5 - _TIE_MARGIN
    carry = r == 1e11               # 9.99999999995 rounds to 1.0 at e + 1
    r[carry] = 1e10
    e += carry
    f = np.floor(r / _PLACES)
    lead = f[0].astype(np.intp) + 10 * np.signbit(x)
    pairs = (f[1:] - 100 * f[:-1]).astype(np.intp)
    out[:, 0:3].view(_LEADS.dtype)[:, 0] = _LEADS[lead]
    out[:, 3:13].view(_PAIRS.dtype)[:] = _PAIRS[pairs].T
    out[:, 13:18].view(_EXPS.dtype)[:, 0] = _EXPS[e + _EXP_LIMIT + 1]
    for i in np.flatnonzero(~fast):
        text = ("%.10e" % x[i]).ljust(_E10_WIDTH, _FILLER)
        out[i] = np.frombuffer(text.encode(), np.uint8)


def _put_d(out: np.ndarray, v: np.ndarray) -> None:
    """``"%d" % i`` for each i of ``v``, one per row of ``out``, right-aligned
    after filler; ``out`` has a byte for the sign and one per digit of the
    largest magnitude."""
    neg = v < 0
    mag = v.view(np.uint64).copy()
    mag[neg] = -mag[neg]            # two's complement: int64 min too
    places = np.uint64(10) ** np.arange(out.shape[1] - 2, -1, -1,
                                        dtype=np.uint64)[:, None]
    digits = mag // places % np.uint64(10) + np.uint64(ord("0"))
    digits[places > np.maximum(mag, 1)] = ord(_FILLER)    # leading zeros
    out[:, 1:] = digits.T
    out[:, 0] = np.where(neg, ord("-"), ord(_FILLER))


def _write_csv(path: str | os.PathLike, header: str, *columns) -> None:
    """Write ``header`` and one line per entry of the equal-length
    ``columns`` (atomically), byte for byte the text of ``%d`` for a column
    of integer dtype and of ``%.10e`` for any other, joined by commas.
    ``%`` gives the same text as an f-string with the same format specs,
    nan, inf and -0.0 included.

    Each column is formatted as a whole into fixed-width byte rows, whose
    filler bytes are then dropped.
    """
    cells = []
    for c in columns:
        c = np.asarray(c)
        if np.issubdtype(c.dtype, np.integer):
            c = np.asarray(c, dtype=np.int64)
            top = max(-int(c.min(initial=0)), int(c.max(initial=0)))
            cells.append((_put_d, c, 1 + len(str(top))))
        else:
            cells.append((_put_e10, np.asarray(c, dtype=np.float64),
                          _E10_WIDTH))
    n = len(cells[0][1])
    buf = np.empty((n, sum(w + 1 for _, _, w in cells)), np.uint8)
    at = 0
    for put, c, width in cells:
        put(buf[:, at:at + width], c)
        buf[:, at + width] = ord(",")
        at += width + 1
    buf[:, -1] = ord("\n")
    _atomic_write(path, header.encode() + b"\n"
                  + buf.tobytes().replace(_FILLER.encode(), b""))


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
