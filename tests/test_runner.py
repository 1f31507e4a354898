"""Tests for scenario execution, sweeps, and artifact self-consistency."""

import copy
import csv
import json
import logging
import math
import os
import stat
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from rfcancel import canceller as canc
from rfcancel import channel
from rfcancel import metrics as met
from rfcancel import runner
from rfcancel.channel import apply_path, received
from rfcancel.config import from_tree, load_config
from rfcancel.demod import DemodConfig, valid_symbol_range
from rfcancel.errors import (
    AmbiguousLabeling, DegenerateReference, RfCancelError,
)
from rfcancel.sigsynth import random_symbols

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

    def test_artifacts_follow_umask(self, cfg, tmp_path):
        """Artifacts get 0666 less the umask, like any newly created file."""
        old = os.umask(0o022)
        try:
            runner.run(cfg, tmp_path)
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode)
                 for p in tmp_path.iterdir()}
        assert "report.json" in modes and "r_l.rcwv" in modes
        assert modes == {name: 0o644 for name in modes}

    def test_report_json_fields(self, cfg, tmp_path):
        runner.run(cfg, tmp_path)
        rep = json.loads((tmp_path / "report.json").read_text())
        for key in ("mode", "evm_pct", "depth_db", "isr_db_measured",
                    "taps", "runtime_ms", "seed"):
            assert key in rep


    def test_depth_residual_is_two_delay_form(self):
        """The residual formed in the delayed r_H's buffer is, bit for bit,
        the ground-truth pair cancelled on its own."""
        cfg = load_config(CONFIG_DIR / "default.yaml")
        src, _, r_l, r_h = runner._configured_record(cfg)
        m = runner._measure(cfg, "reference", src, 1.0, r_l, r_h)
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
        taps, _ = runner._train_taps(cfg, r_l, r_h,
                                     cfg.canceller.training_window)
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
        estimate = runner._measure(cfg, cfg.canceller.mode, src, 1.0, r_l,
                                   r_h).estimate
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

    def test_peak_memory_is_bounded(self, tmp_path):
        """A run on a 4x record keeps at most eight record-sized complex
        arrays alive at once (tracemalloc peak of a second run)."""
        tree = yaml.safe_load((CONFIG_DIR / "evm_vs_isr.yaml").read_text())
        span = tree["soi"]["span_symbols"]
        tree["sim"]["n_symbols"] = 4 * (tree["sim"]["n_symbols"] + span) - span
        tree["outputs"]["csv"] = ["report"]
        cfg = from_tree(tree)
        n = (cfg.sim.n_symbols + span) * cfg.sps
        runner.run(cfg, tmp_path / "warm")
        tracemalloc.start()
        try:
            runner.run(cfg, tmp_path / "run")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 16 * n

    @pytest.mark.parametrize("name", ["p870mhz_qpsk_1mbd.yaml",
                                      "p2400mhz_qam16_5mbd.yaml"])
    def test_synthesis_peak_memory(self, name):
        """Butterworth paths filter each source in one padded buffer that
        the delay line frees, and evaluate the response in chunks:
        synthesis peaks at 7 record copies at most (tracemalloc peak of a
        second call). A record-length response read 7.64, and padding
        after the delay line in a second buffer 8.64."""
        cfg = load_config(CONFIG_DIR / "protocols" / name)
        n = (cfg.sim.n_symbols + cfg.soi.span_symbols) * cfg.sps
        runner.synthesize_sources(cfg)
        tracemalloc.start()
        try:
            runner.synthesize_sources(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 16 * n

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
        # the sources synthesis builds, recorded as they enter the channel
        seen = {}
        images, sources = runner.path_images, runner.synthesize_sources

        def record_images(soi, interference, scenario):
            seen.update(soi=soi, interference=interference)
            return images(soi, interference, scenario)

        def record_sources(cfg, *args, **kwargs):
            seen["src"] = sources(cfg, *args, **kwargs)
            return seen["src"]

        monkeypatch.setattr(runner, "path_images", record_images)
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


class TestSweepIsr:
    def test_empty_list(self, cfg):
        assert runner.sweep_isr(cfg, []) == []

    def test_single_point_matches_run(self, cfg):
        isrs = [-25.0, -15.0, 0.0, 18.0]
        rows = runner.sweep_isr(cfg, isrs)
        for isr, row in zip(isrs, rows):
            at = replace(cfg, interference=replace(cfg.interference,
                                                   isr_db=isr))
            rep = runner.run(at)
            off = runner.run(replace(at, canceller=replace(at.canceller,
                                                           mode="off")))
            assert row["error"] == ""
            assert row["evm_on_pct"] == pytest.approx(rep.evm_pct, rel=1e-9)
            assert row["depth_db"] == pytest.approx(rep.depth_db, rel=1e-9)
            assert row["evm_off_pct"] == pytest.approx(off.evm_pct, rel=1e-9)

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
        monkeypatch.setattr(canc, "fractional_delay", counted)
        rows = runner.sweep_isr(cfg, [-15.0, 0.0, 15.0])
        assert all(row["error"] == "" for row in rows)
        assert len(calls) == 3 + len(rows)

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
            taps, _ = runner._train_taps(noisy, r_l, r_h,
                                         noisy.canceller.training_window)
            want = met.cancellation_depth(y12, canc.cancel(y12, y22, taps),
                                          runner.occupied_band(noisy))
            assert row["error"] == ""
            assert row["depth_db"] == pytest.approx(want.depth_db, rel=1e-12)

    def test_table_written(self, cfg, tmp_path):
        runner.sweep_isr(cfg, [0.0, 9.0], tmp_path)
        lines = (tmp_path / "sweep_isr.csv").read_text().strip().split("\n")
        assert lines[0] == "isr_db,evm_off_pct,evm_on_pct,depth_db,error"
        assert len(lines) == 3


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
