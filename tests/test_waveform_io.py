"""Tests for the waveform container and its binary format."""

import tracemalloc

import numpy as np
import pytest

from rfcancel.errors import RateMismatch, RfCancelError
from rfcancel.waveform import (
    FORMAT_VERSION,
    MAGIC,
    BasebandWaveform,
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

    def test_save_holds_the_file_once(self, tmp_path):
        """A save allocates the file's bytes once, half a complex128 record
        copy, and the record still round-trips."""
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
        assert peak <= 0.6 * 16 * n
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


class TestWriteCsv:
    def test_matches_fstring_rows(self, tmp_path):
        """%-formatted rows read exactly like f-string rows with the same
        specs, for the float edge cases included."""
        x = np.array([0.0, -0.0, 1.0, -1.5e-300, 5e-324, np.pi, -2.5e7,
                      1.7976931348623157e308, np.nan, np.inf, -np.inf])
        z = np.empty(x.size, dtype=complex)
        z.real, z.imag = x, x[::-1]
        path = tmp_path / "rows.csv"
        _write_csv(path, "i,re,im,x", "%d,%.10e,%.10e,%.10e",
                   range(x.size), z.real, z.imag, x)
        want = ["i,re,im,x"] + [f"{i},{c.real:.10e},{c.imag:.10e},{v:.10e}"
                                for i, (c, v) in enumerate(zip(z, x))]
        assert path.read_text() == "\n".join(want) + "\n"

    def test_empty_columns_write_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        _write_csv(path, "a,b", "%.10e,%.10e", np.array([]), np.array([]))
        assert path.read_text() == "a,b\n"
