"""Tests for the waveform container and its binary format."""

import errno
import os
import re
import resource
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rfcancel.errors import RateMismatch, RfCancelError
from rfcancel.waveform import (
    FORMAT_VERSION,
    MAGIC,
    RCWV_CHUNK,
    BasebandWaveform,
    _atomic_write,
    _write_csv,
    common_valid,
    load_waveform,
    merge_invalid,
    save_waveform,
)

from conftest import FS, white_wave


class TestBasebandWaveform:
    def test_validation(self):
        with pytest.raises(RfCancelError):
            BasebandWaveform(np.ones(4), sample_rate=0.0)
        with pytest.raises(RfCancelError):
            BasebandWaveform(np.array([]), sample_rate=FS)
        with pytest.raises(RfCancelError):
            BasebandWaveform(np.array([1.0, np.nan]), sample_rate=FS)
        with pytest.raises(RfCancelError):
            BasebandWaveform(np.array([1.0, np.inf * 1j]), sample_rate=FS)
        for bad in (np.nan, np.inf):
            with pytest.raises(RfCancelError, match="non-finite"):
                BasebandWaveform(np.array([bad]), FS)

    def test_load_rejects_non_finite(self, tmp_path):
        """Samples from outside the program are checked where they enter."""
        path = tmp_path / "w.rcwv"
        save_waveform(white_wave(64), path)
        raw = bytearray(path.read_bytes())
        body = np.frombuffer(raw, "<f4", offset=len(raw) - 64 * 8)
        body[37] = np.nan
        path.write_bytes(raw)
        with pytest.raises(RfCancelError, match="non-finite"):
            load_waveform(path)

    def test_with_samples_converts_and_clamps(self):
        """A derived waveform skips the finiteness scan only: its samples
        are still complex128 and its invalid edges lie in the record."""
        w = BasebandWaveform(np.ones(8, dtype=complex), FS, center_freq=2.4e9)
        out = w.with_samples(np.arange(5), invalid_head=9, invalid_tail=-2)
        assert out.samples.dtype == np.complex128
        assert np.array_equal(out.samples, np.arange(5))
        assert (out.invalid_head, out.invalid_tail) == (5, 0)
        assert (out.sample_rate, out.center_freq) == (FS, 2.4e9)
        with pytest.raises(RfCancelError):
            w.with_samples(np.array([]))

    def test_valid_view(self):
        w = BasebandWaveform(np.arange(10, dtype=complex), FS,
                             invalid_head=2, invalid_tail=3)
        assert np.array_equal(w.valid, np.arange(2, 7, dtype=complex))

    def test_power_over_valid_region(self):
        samples = np.ones(10, dtype=complex)
        samples[:2] = 0  # invalid edge stays zero
        w = BasebandWaveform(samples, FS, invalid_head=2)
        assert w.power() == 1.0

    def test_duration(self):
        w = white_wave(2000)
        assert w.duration == pytest.approx(2000 / FS)

    def test_merge_invalid(self):
        a = BasebandWaveform(np.ones(10, dtype=complex), FS, invalid_head=3)
        b = BasebandWaveform(np.ones(10, dtype=complex), FS, invalid_tail=4)
        assert merge_invalid(a, b) == (3, 4)

    def test_common_valid(self):
        """Each waveform over the span valid in all of them, as views that
        pair up sample for sample."""
        a = BasebandWaveform(np.arange(10, dtype=complex), FS, invalid_head=3)
        b = BasebandWaveform(-np.arange(10, dtype=complex), FS,
                             invalid_tail=4)
        x, y = common_valid(a, b)
        assert np.array_equal(x, np.arange(3, 6))
        assert np.array_equal(y, -np.arange(3, 6))
        assert np.shares_memory(x, a.samples)

    @pytest.mark.parametrize("n, fs", [(9, FS), (10, FS / 2)])
    def test_common_valid_needs_aligned_waves(self, n, fs):
        a = BasebandWaveform(np.ones(10, dtype=complex), FS)
        b = BasebandWaveform(np.ones(n, dtype=complex), fs)
        with pytest.raises(RateMismatch):
            common_valid(a, b)
        with pytest.raises(RateMismatch):
            common_valid(a, a, b)

    def test_with_samples_keeps_metadata(self):
        w = BasebandWaveform(np.ones(8, dtype=complex), FS,
                             center_freq=2.4e9, invalid_head=1)
        out = w.with_samples(np.zeros(8, dtype=complex))
        assert out.center_freq == 2.4e9
        assert out.invalid_head == 1


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        w = white_wave(4096, center_freq=2.4e9)
        path = tmp_path / "w.rcwv"
        save_waveform(w, path)
        back = load_waveform(path)
        assert back.sample_rate == w.sample_rate
        assert back.center_freq == w.center_freq
        # storage is float32: exact against the float32 cast
        assert np.array_equal(back.samples.real,
                              w.samples.real.astype(np.float32))
        assert np.array_equal(back.samples.imag,
                              w.samples.imag.astype(np.float32))

    def test_header_layout(self, tmp_path):
        w = white_wave(16)
        path = tmp_path / "w.rcwv"
        save_waveform(w, path)
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert int.from_bytes(raw[4:8], "little") == FORMAT_VERSION
        assert len(raw) == 4 + 4 + 8 + 8 + 8 + 16 * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rcwv"
        path.write_bytes(b"NOPE" + bytes(28))
        with pytest.raises(RfCancelError):
            load_waveform(path)

    def test_truncated_body(self, tmp_path):
        w = white_wave(64)
        path = tmp_path / "w.rcwv"
        save_waveform(w, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(RfCancelError):
            load_waveform(path)

    def test_save_converts_in_bounded_chunks(self, tmp_path):
        """A save holds one RCWV_CHUNK-sample float32 buffer, not the
        file's bytes (2 MiB here, and the peak at a whole-file write), and
        the record still round-trips."""
        n = 262_160
        w = white_wave(n, center_freq=2.4e9)
        path = tmp_path / "w.rcwv"
        save_waveform(w, path)
        tracemalloc.start()
        try:
            save_waveform(w, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * RCWV_CHUNK + 2**14
        # a partial last chunk: the bytes are the whole record's conversion
        assert n % RCWV_CHUNK
        body = np.empty(2 * n, "<f4")
        body[0::2], body[1::2] = w.samples.real, w.samples.imag
        assert path.read_bytes()[32:] == body.tobytes()
        back = load_waveform(path)
        assert (back.sample_rate, back.center_freq) == (FS, 2.4e9)
        assert np.array_equal(back.samples,
                              w.samples.astype(np.complex64))

    def test_deterministic_bytes(self, tmp_path):
        w = white_wave(512)
        p1, p2 = tmp_path / "a.rcwv", tmp_path / "b.rcwv"
        save_waveform(w, p1)
        save_waveform(w, p2)
        assert p1.read_bytes() == p2.read_bytes()


def _per_row(header, row, *columns):
    """The writer's former per-row text, kept as its reference."""
    lines = [header]
    lines.extend(row % values for values in
                 zip(*(np.asarray(c).tolist() for c in columns)))
    return ("\n".join(lines) + "\n").encode()


def _bits(b):
    return float(np.array(b, np.uint64).view(np.float64))


_DECADES = st.integers(-330, 310)
_MANTISSAS = st.integers(10**10, 10**11 - 1)
_ULPS = st.sampled_from([-np.inf, None, np.inf])
_FLOATS = st.one_of(
    # any float64 bit pattern: nan payloads, subnormals, +-max
    st.integers(0, 2**64 - 1).map(_bits),
    # the nearest float to a "%.10e" rounding tie d.ddddddddd5e<k>
    st.builds(lambda m, k: float(f"{m}5e{k}"), _MANTISSAS, _DECADES),
    # ties that floats hold exactly
    _MANTISSAS.map(lambda m: m + 0.5),
    _MANTISSAS.map(lambda m: float(10 * m + 5)),
    # either side of a power of ten, rounding up into it or not
    st.builds(lambda s, k: float(f"{s}e{k}"),
              st.sampled_from(["1", "9.99999999995", "9.999999999949"]),
              _DECADES),
    st.floats(allow_nan=True, allow_infinity=True),
)
# the value itself or its neighbouring float on either side
_CELLS = st.builds(lambda x, to, sign: sign * (x if to is None
                                               else np.nextafter(x, to)),
                   _FLOATS, _ULPS, st.sampled_from([1.0, -1.0]))
_INTS = st.one_of(st.integers(-2**63, 2**63 - 1),
                  st.sampled_from([0, -1, 2**63 - 1, -2**63]))


class TestAtomicWrite:
    def test_failed_write_leaves_no_temporary(self, tmp_path, monkeypatch):
        """A write cut off part way (by the file-size limit here, as by a
        full disk) raises, leaves no file at the path, and removes its
        temporary, a hidden file named .tmp-rcwv-<16 hex digits>."""
        removed = []
        unlink = os.unlink
        monkeypatch.setattr(os, "unlink",
                            lambda p: (removed.append(p), unlink(p)))
        limit = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (4096, limit[1]))
        try:
            with pytest.raises(OSError) as exc:
                _atomic_write(tmp_path / "x.rcwv", bytes(1 << 16))
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, limit)
            signal.signal(signal.SIGXFSZ, handler)
        assert exc.value.errno == errno.EFBIG
        assert list(tmp_path.iterdir()) == []
        assert len(removed) == 1
        assert os.path.dirname(removed[0]) == str(tmp_path)
        assert re.fullmatch(r"\.tmp-rcwv-[0-9a-f]{16}",
                            os.path.basename(removed[0]))


class TestWriteCsv:
    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(_INTS, _CELLS, _CELLS), max_size=40))
    @example(rows=[])
    @example(rows=[(-2**63, 5e-324, -1.7976931348623157e308),
                   (2**63 - 1, float("nan"), -0.0), (0, -np.inf, 0.0)])
    def test_matches_per_row_text(self, tmp_path, rows):
        """Column-wise text equals the per-row ``row % values`` text byte
        for byte: any float64 bits, values at and next to rounding ties and
        powers of ten, int64 extremes and empty columns."""
        i, x, y = (np.array(c) for c in zip(*rows)) if rows else ([], [], [])
        i = np.asarray(i, np.int64)
        x, y = np.asarray(x, np.float64), np.asarray(y, np.float64)
        path = tmp_path / "rows.csv"
        for row, columns in (("%d,%.10e,%.10e", (i, x, y)),
                             ("%.10e,%d", (y, i)), ("%.10e", (x,))):
            _write_csv(path, "h", *columns)
            assert path.read_bytes() == _per_row("h", row, *columns)

    def test_every_decade_boundary(self, tmp_path):
        """Each power of ten and each value that rounds up into one, and
        their neighbouring floats, over the whole float64 range."""
        x = np.array([float(f"{s}e{k}") for k in range(-324, 309)
                      for s in ("1", "9.99999999995", "9.999999999949")])
        x = x[np.isfinite(x)]
        x = np.concatenate([x, np.nextafter(x, np.inf),
                            np.nextafter(x, -np.inf)])
        x = np.concatenate([x, -x])
        path = tmp_path / "decades.csv"
        _write_csv(path, "x", x)
        assert path.read_bytes() == _per_row("x", "%.10e", x)

    def test_matches_fstring_rows(self, tmp_path):
        """%-formatted rows read exactly like f-string rows with the same
        specs, for the float edge cases included."""
        x = np.array([0.0, -0.0, 1.0, -1.5e-300, 5e-324, np.pi, -2.5e7,
                      1.7976931348623157e308, np.nan, np.inf, -np.inf])
        z = np.empty(x.size, dtype=complex)
        z.real, z.imag = x, x[::-1]
        path = tmp_path / "rows.csv"
        _write_csv(path, "i,re,im,x", range(x.size), z.real, z.imag, x)
        want = ["i,re,im,x"] + [f"{i},{c.real:.10e},{c.imag:.10e},{v:.10e}"
                                for i, (c, v) in enumerate(zip(z, x))]
        assert path.read_text() == "\n".join(want) + "\n"

    def test_empty_columns_write_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        _write_csv(path, "a,b", np.array([]), np.array([]))
        assert path.read_text() == "a,b\n"
