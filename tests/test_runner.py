"""Tests for scenario execution, sweeps, and artifact self-consistency."""

import collections
import copy
import csv
import doctest
import json
import logging
import math
import os
import re
import stat
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import rfcancel
from rfcancel import canceller as canc
from rfcancel import channel
from rfcancel import metrics as met
from rfcancel import runner
from rfcancel.channel import apply_path, received
from rfcancel.config import CSV_KINDS, from_tree, load_config
from rfcancel.demod import DemodConfig, demodulate, valid_symbol_range
from rfcancel.errors import (
    AmbiguousLabeling, DegenerateReference, RfCancelError,
)
from rfcancel.sigsynth import SymbolStream, random_symbols

BASE_TREE = yaml.safe_load("""
schema_version: 1
soi: {format: qpsk, symbol_rate_hz: 5.0e+06, carrier_hz: 2.4e+09, power: 1.0}
interference:
  deviation_pp_hz: 8.0e+07
  mod_noise_bw_hz: 1.0e+07
  carrier_hz: 2.4e+09
  isr_db: 18.0
channel:
  reference_mode: true
  paths:
    a11: {gain_db: 0.0}
    a12: {gain_db: 0.0, phase_deg: 47.0, delay_s: 2.5e-08}
    a21: {zero: true}
    a22: {gain_db: 0.0, phase_deg: -10.0, delay_s: 1.0e-08}
canceller:
  mode: reference
  training_window: 65536
  taps_error: {gain_mag: 0.01}
sim: {sample_rate_hz: 2.0e+08, n_symbols: 2048, seed: 42}
outputs:
  directory: out
  csv: [report, constellation, psd, depth_curve, waveforms]
""")


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def cfg():
    return from_tree(copy.deepcopy(BASE_TREE))


class TestRun:
    def test_reference_mode_report(self, cfg):
        rep = runner.run(cfg)
        assert rep.mode == "reference"
        assert rep.evm_pct < 15
        assert rep.depth_db > 30
        assert rep.isr_db_measured == pytest.approx(18.0, abs=0.5)
        assert rep.taps is not None
        assert rep.taps["delay_s"] == pytest.approx(15e-9, abs=0.2e-9)

    def test_off_mode(self, cfg):
        cfg = replace(cfg, canceller=replace(cfg.canceller, mode="off"))
        rep = runner.run(cfg)
        assert rep.evm_pct > 60
        assert math.isnan(rep.depth_db)
        assert rep.taps is None

    def test_bss_mode(self, cfg):
        tree = copy.deepcopy(BASE_TREE)
        # instantaneous mixing for the blind method
        tree["channel"]["paths"]["a12"]["delay_s"] = 0.0
        tree["channel"]["paths"]["a22"]["delay_s"] = 0.0
        tree["canceller"]["mode"] = "bss"
        tree["sim"]["n_symbols"] = 4096
        rep = runner.run(from_tree(tree))
        assert rep.evm_pct < 15
        assert rep.demix is not None

    def test_bss_mode_logs_warnings(self, caplog):
        """The blind separator's warnings reach the rfcancel logger in
        ``run`` too, not as bare Python warnings."""
        tree = copy.deepcopy(BASE_TREE)
        tree["canceller"]["mode"] = "bss"
        tree["canceller"]["ica"] = {"max_iter": 1}
        caplog.set_level(logging.WARNING, logger="rfcancel")
        runner.run(from_tree(tree))
        logged = [r.getMessage() for r in caplog.records
                  if r.name.startswith("rfcancel")]
        assert any(m.startswith("NotConvergedWarning: ") for m in logged)

    def test_isr_calibration_tracks_config(self, cfg):
        for isr in (-10.0, 5.0):
            c = replace(cfg, interference=replace(cfg.interference, isr_db=isr))
            rep = runner.run(c)
            assert rep.isr_db_measured == pytest.approx(isr, abs=0.3)

    def test_determinism_byte_identical(self, cfg, tmp_path):
        """Same config + seed produce byte-identical artifacts."""
        d1, d2 = tmp_path / "a", tmp_path / "b"
        runner.run(cfg, d1)
        runner.run(cfg, d2)
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir())
        for name in names:
            if name == "report.json":
                r1 = json.loads((d1 / name).read_text())
                r2 = json.loads((d2 / name).read_text())
                r1.pop("runtime_ms"), r2.pop("runtime_ms")
                assert r1 == r2
            else:
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_seed_changes_output(self, cfg):
        rep1 = runner.run(cfg)
        rep2 = runner.run(replace(cfg, sim=replace(cfg.sim, seed=43)))
        assert rep1.evm_pct != rep2.evm_pct

    def test_report_recomputable_from_artifacts(self, cfg, tmp_path):
        """EVM and ISR in the report match offline recomputation from CSVs."""
        rep = runner.run(cfg, tmp_path)
        errs = np.loadtxt(tmp_path / "evm_errors.csv", delimiter=",",
                          skiprows=1)
        err_power = np.mean(errs[:, 1] ** 2 + errs[:, 2] ** 2)
        assert 100 * math.sqrt(err_power) == pytest.approx(rep.evm_pct,
                                                           rel=1e-9)
        psd_soi = np.loadtxt(tmp_path / "psd_soi.csv", delimiter=",",
                             skiprows=1)
        psd_int = np.loadtxt(tmp_path / "psd_interference.csv", delimiter=",",
                             skiprows=1)
        k = np.argmin(np.abs(psd_soi[:, 0]))
        isr = psd_int[k, 1] - psd_soi[k, 1]
        assert isr == pytest.approx(rep.isr_db_measured, abs=1e-6)

        from rfcancel.waveform import load_waveform

        before = load_waveform(tmp_path / "int_before.rcwv")
        after = load_waveform(tmp_path / "int_after.rcwv")
        depth = met.cancellation_depth(before, after,
                                       runner.occupied_band(cfg)).depth_db
        assert depth == pytest.approx(rep.depth_db, abs=0.01)

    def test_artifacts_follow_umask(self, tmp_path, monkeypatch):
        """Artifacts get 0666 less the umask, like any newly created file,
        and no write touches the process umask: it can only be read by
        setting it, which races with files that other threads create."""
        cfg = load_config(CONFIG_DIR / "default.yaml")
        cfg = replace(cfg, outputs=replace(cfg.outputs, csv=CSV_KINDS))

        def umask(mask):
            raise AssertionError("the umask was set")

        old = os.umask(0o022)
        try:
            with monkeypatch.context() as m:
                m.setattr(os, "umask", umask)
                runner.run(cfg, tmp_path)
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode)
                 for p in tmp_path.iterdir()}
        assert sorted(modes) == sorted(
            ["report.json", "constellation.csv", "evm_errors.csv",
             "psd_soi.csv", "psd_interference.csv", "psd_mixed.csv",
             "psd_output.csv", "depth_curve.csv", "r_l.rcwv", "r_h.rcwv",
             "output.rcwv", "int_before.rcwv", "int_after.rcwv"])
        assert modes == {name: 0o644 for name in modes}

    def test_report_json_fields(self, cfg, tmp_path):
        runner.run(cfg, tmp_path)
        rep = json.loads((tmp_path / "report.json").read_text())
        for key in ("mode", "evm_pct", "depth_db", "isr_db_measured",
                    "taps", "runtime_ms", "seed"):
            assert key in rep


    @pytest.mark.parametrize("name", ["default.yaml", "evm_vs_isr.yaml"])
    def test_training_residual_describes_the_applied_taps(self, name):
        """taps.residual_power_db is r_L's first training_window samples
        less the gain times the delayed r_H's, short of the delayed r_H's
        own tail margin, against r_L's.  default.yaml applies the trained
        taps: bit for bit the figure training used to form.  evm_vs_isr.yaml
        applies a 1% gain error, which the figure shows."""
        cfg = load_config(CONFIG_DIR / name)
        c, err = cfg.canceller, cfg.canceller.taps_error
        _, _, r_l, r_h = runner._configured_record(cfg)
        trained, ref = canc.train(r_l, r_h, c.training_window, c.max_lag_s,
                                  c.delay_refine)
        applied = canc.perturb_taps(trained, err.gain_mag, err.gain_phase_deg,
                                    err.delay_s)
        train_l = canc._prefix(r_l, c.training_window)
        ref_window = canc._prefix(ref, c.training_window,
                                  ref.invalid_tail - r_h.invalid_tail)

        def residual_db(gain):
            p_out = canc.subtract(train_l, ref_window, gain).power()
            return float(10 * np.log10(p_out / train_l.power()))

        got = runner.run(cfg).taps["residual_power_db"]
        assert got == residual_db(applied.gain)
        if err.gain_mag:
            assert got > residual_db(trained.gain)
        else:
            assert got == residual_db(trained.gain)

    def test_depth_residual_is_two_delay_form(self):
        """The residual formed in the delayed r_H's buffer is, bit for bit,
        the ground-truth pair cancelled on its own."""
        cfg = load_config(CONFIG_DIR / "default.yaml")
        src, _, r_l, r_h = runner._configured_record(cfg)
        m = runner._Record(cfg, src, [r_l]).measure(1.0, estimate=len(r_l))
        want = canc.cancel(src.images.y12, src.images.y22, m.taps)
        assert np.array_equal(m.residual.samples, want.samples)
        assert (m.residual.invalid_head, m.residual.invalid_tail) == (
            want.invalid_head, want.invalid_tail)
        assert np.array_equal(m.estimate.samples,
                              canc.cancel(r_l, r_h, m.taps).samples)

    def test_depth_curve_is_the_measured_depth(self, cfg, tmp_path,
                                               monkeypatch):
        """depth_curve.csv exports the depth report the run measured, so a
        run with every artifact kind computes six Welch PSDs: two in
        synthesis, two for the depth and two for the PSD artifacts (the
        sources' PSDs are the synthesis ones)."""
        src, _, r_l, r_h = runner._configured_record(cfg)
        taps = runner._Record(cfg, src, [r_l]).measure(1.0).taps
        residual = canc.cancel(src.images.y12, src.images.y22, taps)
        want = met.cancellation_depth(src.images.y12, residual,
                                      runner.occupied_band(cfg))
        met.export_depth_csv(want, tmp_path / "want.csv")
        calls = []
        welch = met.welch_psd
        monkeypatch.setattr(met, "welch_psd",
                            lambda *a, **k: calls.append(1) or welch(*a, **k))
        runner.run(cfg, tmp_path / "run")
        assert ((tmp_path / "run" / "depth_curve.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())
        assert len(calls) == 6

    def test_constellation_is_the_evm_alignment(self, tmp_path):
        """constellation.csv holds the symbols the EVM was measured on,
        aligned by the EVM's own gain: unit RMS, and each row minus its
        error vector is the transmitted symbol it was measured against."""
        cfg = load_config(CONFIG_DIR / "default.yaml")
        assert "constellation" in cfg.outputs.csv
        runner.run(cfg, tmp_path)
        read = lambda name: np.loadtxt(tmp_path / name, delimiter=",",
                                       skiprows=1)
        const, err = read("constellation.csv"), read("evm_errors.csv")
        aligned = const[:, 1] + 1j * const[:, 2]
        assert np.sqrt(np.mean(np.abs(aligned) ** 2)) == pytest.approx(
            1.0, rel=0.02)
        src, _, r_l, r_h = runner._configured_record(cfg)
        estimate = runner._Record(cfg, src, [r_l]).measure(
            1.0, estimate=len(r_l)).estimate
        first, _ = valid_symbol_range(estimate, DemodConfig(
            sps=cfg.sps, format=cfg.soi.format,
            span_symbols=cfg.soi.span_symbols))
        assert first > 0
        tx = src.tx_stream.symbols[first:first + aligned.size]
        assert np.max(np.abs(aligned - (err[:, 1] + 1j * err[:, 2]) - tx)
                      ) <= 1e-9

    def test_source_psds_are_the_synthesis_psds(self, cfg, tmp_path):
        """psd_soi.csv and psd_interference.csv export the PSDs synthesis
        calibrated the ISR on, at the record's ISR."""
        runner.run(cfg, tmp_path / "run")
        src = runner.synthesize_sources(cfg)
        scale = src.scale(cfg.interference.isr_db)
        met.export_psd_csv(src.psd_soi, tmp_path / "soi.csv")
        met.export_psd_csv(replace(src.psd_int, psd=src.psd_int.psd * scale**2),
                           tmp_path / "int.csv")
        for got, want in (("psd_soi.csv", "soi.csv"),
                          ("psd_interference.csv", "int.csv")):
            assert ((tmp_path / "run" / got).read_bytes()
                    == (tmp_path / want).read_bytes())

    @staticmethod
    def _peak_copies(fn, n: int) -> float:
        """The tracemalloc peak of a second call of ``fn``, in copies of
        an ``n``-sample complex record."""
        fn()
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (16 * n)

    def test_peak_memory_is_bounded(self, tmp_path):
        """A report-only run on a 4x record peaks at 4.6 record copies
        (4.45 read; 6.47 when the run kept the SOI image and formed the
        whole SOI estimate for the training window's residual)."""
        tree = yaml.safe_load((CONFIG_DIR / "evm_vs_isr.yaml").read_text())
        span = tree["soi"]["span_symbols"]
        tree["sim"]["n_symbols"] = 4 * (tree["sim"]["n_symbols"] + span) - span
        tree["outputs"]["csv"] = ["report"]
        cfg = from_tree(tree)
        n = (cfg.sim.n_symbols + span) * cfg.sps
        assert self._peak_copies(lambda: runner.run(cfg, tmp_path), n) <= 4.6

    def test_all_kinds_peak_memory(self, tmp_path):
        """A run that stores every artifact kind on p870mhz_qpsk_1mbd.yaml
        peaks at 5.6 record copies (5.41 read; 7.10 with the SOI image kept
        to the end, 32-frame Welch buffers and whole-file .rcwv writes)."""
        tree = yaml.safe_load(
            (CONFIG_DIR / "protocols" / "p870mhz_qpsk_1mbd.yaml").read_text())
        tree["outputs"]["csv"] = ["report", "constellation", "psd",
                                  "depth_curve", "waveforms"]
        cfg = from_tree(tree)
        n = (cfg.sim.n_symbols + cfg.soi.span_symbols) * cfg.sps
        assert self._peak_copies(lambda: runner.run(cfg, tmp_path), n) <= 5.6

    @pytest.mark.parametrize("name", ["p870mhz_qpsk_1mbd.yaml",
                                      "p2400mhz_qam16_5mbd.yaml"])
    def test_synthesis_peak_memory(self, name):
        """The interference is freed before the SOI is built, and a
        Butterworth path runs its fitted FIR in the delay line's one
        product, which allocates only the image: synthesis peaks at 4.25
        record copies (4.05 and 4.08 read; 5.05 and 5.08 with the SOI and
        the interference alive together, 7.64 with an FFT response)."""
        cfg = load_config(CONFIG_DIR / "protocols" / name)
        n = (cfg.sim.n_symbols + cfg.soi.span_symbols) * cfg.sps
        assert self._peak_copies(lambda: runner.synthesize_sources(cfg),
                                 n) <= 4.25

    def test_default_config_logs_no_warning(self, caplog):
        caplog.set_level(logging.WARNING, logger="rfcancel")
        runner.run(load_config(CONFIG_DIR / "default.yaml"))
        assert [r for r in caplog.records
                if r.name.startswith("rfcancel")] == []


class TestGroundTruth:
    NOISE_PSD = 1e-10

    @pytest.fixture
    def noisy(self):
        tree = copy.deepcopy(BASE_TREE)
        for name in ("a11", "a12", "a22"):
            tree["channel"]["paths"][name]["noise_psd"] = self.NOISE_PSD
        return from_tree(tree)

    @staticmethod
    def _close(got, want):
        err = np.max(np.abs(got.samples - want.samples))
        assert err <= 1e-12 * np.max(np.abs(want.samples))

    def test_images_are_noise_free(self, noisy, monkeypatch):
        """The images depth and SIR are measured against carry no noise."""
        # the sources synthesis builds, recorded as they enter the channel:
        # the interference first, then the SOI
        seen = {}
        images, soi = runner.interference_images, runner.generate_soi
        sources = runner.synthesize_sources

        def record_images(interference, scenario):
            assert "soi" not in seen
            seen["interference"] = interference
            return images(interference, scenario)

        def record_soi(*args, **kwargs):
            seen["soi"] = soi(*args, **kwargs)
            return seen["soi"]

        def record_sources(cfg, *args, **kwargs):
            seen["src"] = sources(cfg, *args, **kwargs)
            return seen["src"]

        monkeypatch.setattr(runner, "interference_images", record_images)
        monkeypatch.setattr(runner, "generate_soi", record_soi)
        monkeypatch.setattr(runner, "synthesize_sources", record_sources)
        img = runner._configured_record(noisy)[0].images
        soi = seen["soi"]
        scale = seen["src"].scale(noisy.interference.isr_db)
        interference = seen["interference"].with_samples(
            seen["interference"].samples * scale)
        scenario = noisy.channel.to_scenario(0)
        clean = lambda w, p: apply_path(w, replace(p, noise_psd=0.0))
        self._close(img.y11, clean(soi, scenario.a11))
        self._close(img.y12, clean(interference, scenario.a12))
        self._close(img.y22, clean(interference, scenario.a22))

    def test_clean_reference_is_the_image(self, cfg, noisy):
        """A clean r_H is the interference image's own array; with noise on
        a22, r_H is an array of its own."""
        src, _, _, r_h = runner._configured_record(cfg)
        assert src.images.clean_reference
        assert np.shares_memory(r_h.samples, src.images.y22.samples)
        src, _, _, r_h = runner._configured_record(noisy)
        assert not src.images.clean_reference
        assert not np.shares_memory(r_h.samples, src.images.y22.samples)

    def test_reference_noise_is_the_a22_draw(self, noisy):
        src, _, _, r_h = runner._configured_record(noisy)
        chan_seed = runner._seed_ints(noisy.sim.seed)[2]
        stream = np.random.SeedSequence(chan_seed).spawn(4)[3]
        rng = np.random.default_rng(stream)
        n = len(r_h)
        sigma = math.sqrt(self.NOISE_PSD * noisy.sim.sample_rate_hz / 2)
        draw = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        got = r_h.samples - src.images.y22.samples
        assert np.max(np.abs(got - draw)) <= 1e-12 * np.max(
            np.abs(src.images.y22.samples))


def _assert_row_is_run(row, cfg):
    """A sweep row's cells against a run of ``cfg`` and one with the
    canceller off."""
    rep = runner.run(cfg)
    off = runner.run(replace(cfg, canceller=replace(cfg.canceller,
                                                    mode="off")))
    assert row["error"] == ""
    assert row["evm_on_pct"] == pytest.approx(rep.evm_pct, rel=1e-9)
    assert row["depth_db"] == pytest.approx(rep.depth_db, rel=1e-9)
    assert row["evm_off_pct"] == pytest.approx(off.evm_pct, rel=1e-9)


class TestSweepIsr:
    def test_empty_list(self, cfg):
        assert runner.sweep_isr(cfg, []) == []

    def test_single_point_matches_run(self, cfg):
        isrs = [-25.0, -15.0, 0.0, 18.0]
        rows = runner.sweep_isr(cfg, isrs)
        for isr, row in zip(isrs, rows):
            _assert_row_is_run(row, replace(cfg, interference=replace(
                cfg.interference, isr_db=isr)))

    def test_sources_synthesized_once(self, cfg, monkeypatch):
        calls = {"generate_fm_interference": 0, "generate_soi": 0}
        for name in calls:
            fn = getattr(runner, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(runner, name, counted)
        rows = runner.sweep_isr(cfg, [-10.0, 0.0, 18.0])
        assert all(row["error"] == "" for row in rows)
        assert calls == {"generate_fm_interference": 1, "generate_soi": 1}

    def test_one_reference_delay_per_row(self, monkeypatch):
        """Training, estimate and depth share one delayed r_H per row: the
        three path images of the synthesis, then one delay per row."""
        cfg = load_config(CONFIG_DIR / "evm_vs_isr.yaml")
        calls = []
        delay = channel.fractional_delay

        def counted(w, tau, *args, **kwargs):
            calls.append(tau)
            return delay(w, tau, *args, **kwargs)

        monkeypatch.setattr(channel, "fractional_delay", counted)
        rows = runner.sweep_isr(cfg, [-15.0, 0.0, 15.0])
        assert all(row["error"] == "" for row in rows)
        assert len(calls) == 3 + len(rows)

    @pytest.mark.parametrize("isrs, want", [
        ([0.0], {"subtract": 1, "demodulate": 3}),
        (None, {"subtract": 10, "demodulate": 12}),
    ], ids=["one-row", "shipped-sweep"])
    def test_row_work_count(self, monkeypatch, isrs, want):
        """A reference-mode row subtracts once, for the depth residual, and
        demodulates once, its delayed y22; the sweep demodulates y11 and
        y12 once, and no row forms a record with ``received``."""
        cfg = load_config(CONFIG_DIR / "evm_vs_isr.yaml")
        calls = collections.Counter()
        for module, name in ((canc, "subtract"), (runner, "demodulate"),
                             (runner, "received"), (channel, "received")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _f=fn, _n=name, **k:
                                calls.update([_n]) or _f(*a, **k))
        rows = runner.sweep_isr(cfg, cfg.sweep.isr_db if isrs is None
                                else isrs)
        assert all(row["error"] == "" for row in rows)
        assert calls == want

    @pytest.mark.parametrize("seed", [None, 4])
    def test_rows_are_runs(self, seed):
        """Each evm_vs_isr.yaml row is a run at its ISR: evm_on_pct and
        depth_db those of a reference-mode run, evm_off_pct that of a run
        with the canceller off, within rel 1e-9; at the shipped seed and at
        seed 4."""
        cfg = load_config(CONFIG_DIR / "evm_vs_isr.yaml")
        if seed is not None:
            cfg = replace(cfg, sim=replace(cfg.sim, seed=seed))
        isrs = [-15.0, 0.0, 18.0]
        for isr, row in zip(isrs, runner.sweep_isr(cfg, isrs)):
            at = replace(cfg, interference=replace(cfg.interference,
                                                   isr_db=isr))
            _assert_row_is_run(row, at)

    def test_noisy_reference_depth_is_noise_free(self, cfg):
        """With receiver noise on r_H the depth is still measured on the
        noise-free pair: each row equals the two-delay form."""
        tree = copy.deepcopy(BASE_TREE)
        tree["channel"]["paths"]["a22"]["noise_psd"] = 1e-10
        noisy = from_tree(tree)
        isrs = [-10.0, 0.0, 18.0]
        rows = runner.sweep_isr(noisy, isrs)
        src = runner.synthesize_sources(noisy)
        assert src.images.n_h is not None
        y12, y22 = src.images.y12, src.images.y22
        for isr, row in zip(isrs, rows):
            r_l, r_h = received(src.images, src.scale(isr))
            taps, _ = runner._train_taps(
                noisy, runner._training(noisy, [r_l], [r_h]))
            want = met.cancellation_depth(y12, canc.cancel(y12, y22, taps),
                                          runner.occupied_band(noisy))
            assert row["error"] == ""
            assert row["depth_db"] == pytest.approx(want.depth_db, rel=1e-12)

    def test_table_written(self, cfg, tmp_path):
        runner.sweep_isr(cfg, [0.0, 9.0], tmp_path)
        lines = (tmp_path / "sweep_isr.csv").read_text().strip().split("\n")
        assert lines[0] == "isr_db,evm_off_pct,evm_on_pct,depth_db,error"
        assert len(lines) == 3


def _record_path(cfg, src, s):
    """Taps, EVM off and on, and depth of the record formed at scale s:
    ``received``, ``canceller.train``, then ``subtract`` and ``cancel``."""
    c, err = cfg.canceller, cfg.canceller.taps_error
    r_l, r_h = received(src.images, s)
    taps, ref = canc.train(r_l, r_h, c.training_window, c.max_lag_s,
                           c.delay_refine)
    taps = canc.perturb_taps(taps, err.gain_mag, err.gain_phase_deg,
                             err.delay_s)
    if err.delay_s:
        ref = channel.true_time_delay(r_h, taps.delay)
    dcfg = DemodConfig(sps=cfg.sps, format=cfg.soi.format,
                       rolloff=cfg.soi.rolloff,
                       span_symbols=cfg.soi.span_symbols)

    def evm_pct(w):
        first, last = valid_symbol_range(w, dcfg)
        tx = src.tx_stream.symbols[first:last]
        rx = demodulate(w, dcfg).symbols[first:last]
        return met.evm(SymbolStream(rx, cfg.soi.format),
                       SymbolStream(tx, cfg.soi.format)).evm_rms_pct

    y12, y22 = src.images.y12, src.images.y22
    depth = met.cancellation_depth(y12, canc.cancel(y12, y22, taps),
                                   runner.occupied_band(cfg)).depth_db
    return taps, evm_pct(r_l), evm_pct(canc.subtract(r_l, ref, taps.gain)), depth


class _Lag0Count(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += "training at lag 0" in record.getMessage()


class TestLinearParts:
    """A sweep row measured on the record's linear parts is the record
    formed at its ISR, measured on its own."""

    @settings(max_examples=40, deadline=None, database=None,
              derandomize=True)
    @given(isr_db=st.floats(-20.0, 18.0),
           delays=st.tuples(st.floats(0.0, 3e-8), st.floats(0.0, 3e-8)),
           butterworth=st.booleans(),
           noise=st.tuples(*[st.sampled_from([0.0, 1e-10])] * 3),
           delay_error=st.sampled_from([0.0, 1.3e-11]),
           refine=st.sampled_from(["parabolic", "residual"]),
           max_lag=st.sampled_from([1e-7, 5e-7]),
           seed=st.integers(0, 1000))
    @example(isr_db=-300.0, delays=(2.5e-8, 1e-8), butterworth=False,
             noise=(0.0, 0.0, 0.0), delay_error=0.0, refine="parabolic",
             max_lag=1e-7, seed=715)
    @example(isr_db=-300.0, delays=(2.5e-8, 1e-8), butterworth=True,
             noise=(1e-10, 1e-10, 1e-10), delay_error=1.3e-11,
             refine="residual", max_lag=5e-7, seed=4)
    def test_parts_are_the_formed_record(self, isr_db, delays, butterworth,
                                         noise, delay_error, refine, max_lag,
                                         seed):
        tree = copy.deepcopy(BASE_TREE)
        paths = tree["channel"]["paths"]
        for name, psd in zip(("a11", "a12", "a22"), noise):
            paths[name]["noise_psd"] = psd
        for name, delay, f3db in (("a12", delays[0], 9e9),
                                  ("a22", delays[1], 1.05e10)):
            paths[name]["delay_s"] = delay
            if butterworth:
                paths[name]["response"] = {"kind": "butterworth_lowpass",
                                           "f3db_hz": f3db, "order": 4}
        tree["canceller"].update(training_window=16384, delay_refine=refine,
                                 max_lag_s=max_lag)
        tree["canceller"]["taps_error"]["delay_s"] = delay_error
        tree["sim"].update(n_symbols=1024, seed=seed)
        cfg = from_tree(tree)
        src = runner.synthesize_sources(cfg)
        s = src.scale(isr_db)
        log = logging.getLogger("rfcancel.canceller")
        counts = []
        for measure in ("parts", "record"):
            handler = _Lag0Count()
            log.addHandler(handler)
            try:
                if measure == "parts":
                    rec = runner._Record(cfg, src)
                    got = rec.measure(s)
                    off = rec.evm_off(s).evm_rms_pct
                else:
                    taps, want_off, want_on, depth = _record_path(cfg, src, s)
            finally:
                log.removeHandler(handler)
            counts.append(handler.count)
        # the lag-0 fallback logs once, on both paths alike
        assert counts[0] == counts[1] <= 1
        if isr_db == -300.0:
            assert counts == [1, 1]
        fs = cfg.sim.sample_rate_hz
        assert abs(got.taps.delay - taps.delay) * fs <= 1e-9 * max(
            1.0, abs(taps.delay) * fs)
        assert abs(got.taps.gain - taps.gain) <= 1e-9 * abs(taps.gain)
        assert off == pytest.approx(want_off, rel=1e-9)
        assert got.evm.evm_rms_pct == pytest.approx(want_on, rel=1e-9)
        assert got.depth_db == pytest.approx(depth, rel=1e-9)


class TestSweepFrequency:
    def test_single_carrier_consistent_with_run_depth(self, cfg):
        """Tone-probe depth at the training carrier matches the wideband
        run's depth within the envelope-decorrelation allowance."""
        cfg = replace(cfg, sweep=replace(cfg.sweep, train_carrier_hz=2.4e9))
        rows = runner.sweep_frequency(cfg, [2.4e9])
        rep = runner.run(cfg)
        assert rows[0]["depth_db"] == pytest.approx(rep.depth_db, abs=2.0)

    def test_oracle_column_present(self, cfg, tmp_path):
        rows = runner.sweep_frequency(cfg, [1.0e9, 3.0e9], tmp_path)
        for row in rows:
            assert not math.isnan(row["oracle_db"])
        lines = (tmp_path / "sweep_freq.csv").read_text().strip().split("\n")
        assert lines[0] == "carrier_hz,depth_db,oracle_db,error"


    def test_taps_delay_error_delays_the_record_once(self, monkeypatch):
        """With a taps delay error the sweep keeps only the taps: its
        training record is delayed once, by training, and the taps are the
        trained ones with the configured error."""
        cfg = load_config(CONFIG_DIR / "spectral_response.yaml")
        c = cfg.canceller
        c = replace(c, taps_error=replace(c.taps_error, delay_s=1e-12))
        cfg = replace(cfg, canceller=c)
        calls = []
        delay = channel.true_time_delay
        spy = lambda w, tau: calls.append(tau) or delay(w, tau)
        monkeypatch.setattr(canc, "true_time_delay", spy)
        monkeypatch.setattr(runner, "true_time_delay", spy)
        taps = runner.train_sweep_taps(cfg)
        monkeypatch.undo()
        assert len(calls) == 1
        _, fm_seed, chan_seed, _ = runner._seed_ints(cfg.sim.seed)
        probe = runner._interference(cfg, fm_seed, cfg.sweep.train_samples,
                                     cfg.sweep.train_carrier_hz)
        r_l, r_h = runner._path_pair(probe, cfg.channel.to_scenario(chan_seed))
        want, _ = canc.train(r_l, r_h, len(r_l), c.max_lag_s, c.delay_refine)
        want = canc.perturb_taps(want, c.taps_error.gain_mag,
                                 c.taps_error.gain_phase_deg, 1e-12)
        assert (taps.delay, taps.gain) == (want.delay, want.gain)
        assert taps.delay == calls[0] + 1e-12

    def test_paths_draw_independent_noise(self, monkeypatch):
        """Training and probe records carry independent a12 and a22 noise,
        not one draw that the canceller would cancel as interference."""
        tree = copy.deepcopy(BASE_TREE)
        for name in ("a12", "a22"):
            tree["channel"]["paths"][name]["noise_psd"] = 1e-9
        tree["sweep"] = {"train_samples": 16384}
        cfg = from_tree(tree)
        noise = []

        def recording(w, p, rng=None):
            out = apply_path(w, p, rng)
            clean = apply_path(w, replace(p, noise_psd=0.0))
            noise.append(out.samples - clean.samples)
            return out

        monkeypatch.setattr(runner, "apply_path", recording)
        runner.sweep_frequency(cfg, [2.4e9])
        assert len(noise) == 4  # training pair, then one probe pair
        for n_l, n_h in (noise[:2], noise[2:]):
            corr = abs(np.vdot(n_l, n_h)) / (np.linalg.norm(n_l)
                                             * np.linalg.norm(n_h))
            assert corr < 0.1


    def test_probe_noise_follows_the_seed(self, monkeypatch):
        """The probes draw their path noise from the run's seed: another
        seed probes with other noise, the same seed with the same."""
        tree = copy.deepcopy(BASE_TREE)
        tree["channel"]["paths"]["a12"]["noise_psd"] = 1e-9
        tree["sweep"] = {"train_samples": 16384}
        cfg = from_tree(tree)
        noise = []

        def recording(w, p, rng=None):
            out = apply_path(w, p, rng)
            noise.append(out.samples - apply_path(
                w, replace(p, noise_psd=0.0)).samples)
            return out

        monkeypatch.setattr(runner, "apply_path", recording)
        probes = []
        for seed in (1, 2, 1):
            noise.clear()
            runner.sweep_frequency(replace(cfg, sim=replace(cfg.sim,
                                                            seed=seed)),
                                   [2.4e9])
            probes.append(noise[2])     # the probe's a12 noise
        assert not np.allclose(probes[0], probes[1])
        assert np.array_equal(probes[0], probes[2])


class TestSweepFormat:
    def test_bad_row_flagged_and_sweep_continues(self, cfg):
        rows = runner.sweep_format(cfg, ["qam32", "qpsk"])
        assert rows[0]["error"] != ""
        assert math.isnan(rows[0]["evm_on_pct"])
        assert rows[1]["error"] == ""
        assert rows[1]["evm_on_pct"] < 15

    def test_error_cell_carries_message(self, cfg, tmp_path):
        with pytest.raises(RfCancelError) as info:
            random_symbols("qam32", 16, 1.0, np.random.default_rng(0))
        want = f"{type(info.value).__name__}: {info.value}"
        rows = runner.sweep_format(cfg, ["qam32", "qpsk"], tmp_path)
        assert rows[0]["error"] == want
        with open(tmp_path / "sweep_format.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        assert table[0]["error"] == want

    def test_interference_synthesized_once(self, cfg, monkeypatch):
        calls = []
        fn = runner.generate_fm_interference
        monkeypatch.setattr(runner, "generate_fm_interference",
                            lambda *a, **k: calls.append(1) or fn(*a, **k))
        rows = runner.sweep_format(cfg, ["qam32", "qpsk", "qam16"])
        assert [row["error"] == "" for row in rows] == [False, True, True]
        assert len(calls) == 1

    def test_off_mode_measures_off_only(self, cfg):
        """With the canceller off, evm_on_pct and depth_db stay nan, as in
        sweep-isr, and evm_off_pct is the reference mode's."""
        off = replace(cfg, canceller=replace(cfg.canceller, mode="off"))
        rows = runner.sweep_format(off, ["qpsk", "qam16"])
        want = runner.sweep_format(cfg, ["qpsk", "qam16"])
        for row, ref in zip(rows, want):
            assert row["error"] == ""
            assert math.isnan(row["evm_on_pct"])
            assert math.isnan(row["depth_db"])
            assert row["evm_off_pct"] == ref["evm_off_pct"]

    def test_soi_synthesized_once_per_format(self, cfg, monkeypatch):
        """Rows of one format share their sources."""
        calls = []
        fn = runner.generate_soi
        monkeypatch.setattr(runner, "generate_soi",
                            lambda *a, **k: calls.append(1) or fn(*a, **k))
        rows = runner.sweep_format(cfg, ["qpsk", "qpsk"])
        assert rows[0] == rows[1]
        assert len(calls) == 1

    def test_rows_are_runs(self):
        """Each format_robustness.yaml row is a run of its format at
        sweep.format_isr_db, within rel 1e-9."""
        cfg = load_config(CONFIG_DIR / "format_robustness.yaml")
        rows = runner.sweep_format(cfg, cfg.sweep.formats)
        assert len(rows) == 3
        for fmt, row in zip(cfg.sweep.formats, rows):
            _assert_row_is_run(row, replace(
                cfg, soi=replace(cfg.soi, format=fmt),
                interference=replace(cfg.interference,
                                     isr_db=cfg.sweep.format_isr_db)))

    def test_single_format_consistent(self, cfg):
        rows = runner.sweep_format(cfg, ["qpsk"])
        base = replace(
            cfg,
            soi=replace(cfg.soi, format="qpsk"),
            interference=replace(cfg.interference,
                                 isr_db=cfg.sweep.format_isr_db),
        )
        rep = runner.run(base)
        assert rows[0]["evm_on_pct"] == pytest.approx(rep.evm_pct, rel=1e-9)


@pytest.fixture
def bss_cfg():
    """A scenario both separators handle: flat paths, 9 dB ISR."""
    tree = copy.deepcopy(BASE_TREE)
    tree["channel"]["paths"]["a12"]["delay_s"] = 0.0
    tree["channel"]["paths"]["a22"]["delay_s"] = 0.0
    tree["interference"]["isr_db"] = 9.0
    tree["canceller"]["taps_error"] = {}
    tree["sim"]["n_symbols"] = 4096
    return from_tree(tree)


class TestCompareSeparators:
    def test_structure(self, bss_cfg):
        rows = runner.compare_separators(bss_cfg)
        ref = next(r for r in rows if r["method"] == "reference")
        bss = next(r for r in rows if r["method"] == "bss")
        assert ref["free_parameters"] == 2
        assert bss["free_parameters"] == 4
        assert ref["sir_db"] > 20
        assert bss["sir_db"] > 20

    def test_bss_warnings_logged(self, caplog, tmp_path):
        """Warnings of the blind separator reach the rfcancel logger; the
        table is written as before."""
        tree = copy.deepcopy(BASE_TREE)
        tree["canceller"]["ica"] = {"max_iter": 1}
        caplog.set_level(logging.WARNING, logger="rfcancel")
        rows = runner.compare_separators(from_tree(tree), tmp_path)
        bss = next(r for r in rows if r["method"] == "bss")
        assert bss["converged"] is False
        logged = [r.getMessage() for r in caplog.records
                  if r.name.startswith("rfcancel")]
        assert any(m.startswith("NotConvergedWarning: ") for m in logged)
        assert (tmp_path / "compare_bss.csv").exists()

    def test_reference_failure_is_its_row(self, bss_cfg, monkeypatch):
        """A failed reference training ends the reference row only; the
        blind separator is still measured."""
        def degenerate(*args, **kwargs):
            raise DegenerateReference("reference has zero energy")

        monkeypatch.setattr(runner, "_train_taps", degenerate)
        ref, bss = runner.compare_separators(bss_cfg)
        assert ref["method"] == "reference"
        assert ref["error"] == "DegenerateReference: reference has zero energy"
        assert math.isnan(ref["sir_db"])
        assert bss["error"] == ""
        assert bss["sir_db"] > 20

    def test_ambiguous_labels_leave_sir_unset(self, bss_cfg, monkeypatch):
        """Without labels there is no SOI output to measure: the BSS row
        keeps the separator's fit and reports no SIR."""
        def ambiguous(*args, **kwargs):
            raise AmbiguousLabeling("outputs correlate equally")

        monkeypatch.setattr(canc, "resolve_permutation", ambiguous)
        ref, bss = runner.compare_separators(bss_cfg)
        assert ref["error"] == ""
        assert bss["error"] == "AmbiguousLabeling: outputs correlate equally"
        assert math.isnan(bss["sir_db"])
        assert bss["iterations"] >= 1
        assert bss["free_parameters"] == 4
        assert isinstance(bss["converged"], bool)


SWEEPS = {
    "sweep_isr.csv": (runner.sweep_isr, [0.0]),
    "sweep_format.csv": (runner.sweep_format, ["qpsk"]),
    "sweep_freq.csv": (runner.sweep_frequency, [2.4e9]),
}


def _run_sweep(table, cfg, out, values=None):
    if table == "compare_bss.csv":
        return runner.compare_separators(cfg, out)
    sweep, default = SWEEPS[table]
    return sweep(cfg, default if values is None else values, out)


@pytest.mark.parametrize("table", [*SWEEPS, "compare_bss.csv"])
def test_table_header_is_row_keys(cfg, tmp_path, table):
    """Every sweep writes its rows' keys, in order, as the table header."""
    rows = _run_sweep(table, cfg, tmp_path)
    with open(tmp_path / table, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == list(rows[0])


@pytest.mark.parametrize("table, header", [
    ("sweep_isr.csv", "isr_db,evm_off_pct,evm_on_pct,depth_db,error"),
    ("sweep_format.csv", "format,evm_on_pct,evm_off_pct,depth_db,error"),
    ("sweep_freq.csv", "carrier_hz,depth_db,oracle_db,error"),
])
def test_empty_sweep_writes_header_only(cfg, tmp_path, table, header):
    assert _run_sweep(table, cfg, tmp_path, []) == []
    assert (tmp_path / table).read_text() == header + "\n"


def test_documented_library_use_runs(monkeypatch, capsys):
    """README.md's library example runs and matches the 15 ns delay its
    paths differ by, and the package docstring's quick start runs from
    the repository root."""
    root = CONFIG_DIR.parent
    readme = (root / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme,
                      re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    delay = re.fullmatch(r"matched delay (\S+) ns, training residual (\S+) "
                         r"dB\n", printed)
    assert delay and abs(float(delay.group(1)) - 15.0) < 0.1, printed
    monkeypatch.chdir(root)
    quick_start = doctest.DocTestParser().get_doctest(
        rfcancel.__doc__, {}, "rfcancel", None, 0)
    result = doctest.DocTestRunner().run(quick_start)
    # the three examples before the skipped report.evm_pct
    assert (result.attempted, result.failed) == (3, 0)
