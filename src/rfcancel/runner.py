"""Scenario execution: synthesize, mix, cancel, demodulate, measure.

Each run is a pure function of (config, seed): random streams are spawned
from the scenario seed, so identical configs produce byte-identical CSV
artifacts for the same config, seed, machine and BLAS thread count (BLAS
reductions may sum in another order on more threads).  Sweeps reuse the
base seed per row, varying only the swept parameter.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import canceller as canc
from . import metrics as met
# mix is unused here but stays importable as runner.mix
from .channel import (  # noqa: F401
    MixingScenario, PathImages, apply_path, interference_images, mix,
    path_rngs, received, true_time_delay,
)
from .config import PROBE_HALF_BAND_HZ, ScenarioConfig
from .demod import DemodConfig, demodulate, valid_symbol_range
from .errors import RfCancelError
from .sigsynth import (
    FmNoiseSpec,
    SymbolStream,
    generate_fm_interference,
    generate_soi,
    random_symbols,
)
from .waveform import (
    BasebandWaveform, _atomic_write, _write_csv, merge_invalid, save_waveform,
)

_log = logging.getLogger(__name__)


@dataclass
class RunReport:
    """Per-run summary; every number is recomputable from the emitted CSVs."""

    mode: str
    evm_pct: float
    depth_db: float
    isr_db_measured: float
    taps: dict | None
    demix: list | None
    runtime_ms: float
    seed: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True,
                          allow_nan=True)


@dataclass
class Sources:
    """The part of a record that does not depend on the ISR.

    The interference has unit power, and ``images`` holds both sources'
    noise-free path images and the receiver noise.  The channel is linear in
    the interference, so the record at any ISR is one scalar s =
    ``scale(isr_db)`` on the interference images: r_L = (y11 + n_L) + s*y12
    and r_H = s*y22 + n_H.  A sweep row measures on those parts without
    forming the record (``_Record``); ``received(images, s)`` forms it where
    a record is stored or separated blindly.  The source waveforms
    themselves are not kept, only their Welch PSDs.
    """

    tx_stream: SymbolStream
    psd_soi: met.PsdEstimate
    psd_int: met.PsdEstimate
    base_ratio_db: float
    images: PathImages

    def scale(self, isr_db: float) -> float:
        """Interference amplitude that puts it isr_db above the SOI."""
        return 10 ** ((isr_db - self.base_ratio_db) / 20.0)


def _seed_ints(seed: int) -> list[int]:
    """The scenario seed's four streams: bits, FM, channel and probe."""
    children = np.random.SeedSequence(seed).spawn(4)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def occupied_band(cfg: ScenarioConfig) -> tuple[float, float]:
    """Nominal occupied band of the interference, as baseband offsets."""
    off = cfg.interference.carrier_hz - cfg.soi.carrier_hz
    half = cfg.interference.deviation_pp_hz / 2 + cfg.interference.mod_noise_bw_hz
    nyq = 0.49 * cfg.sim.sample_rate_hz
    return (max(off - half, -nyq), min(off + half, nyq))


def _interference(cfg: ScenarioConfig, seed: int, n: int,
                  center: float) -> BasebandWaveform:
    """``n`` samples of the configured unit-power FM-noise interference,
    drawn from the FM stream ``seed``, centred at ``center``."""
    spec = FmNoiseSpec(cfg.interference.deviation_pp_hz,
                       cfg.interference.mod_noise_bw_hz, power=1.0, seed=seed)
    return generate_fm_interference(spec, n, cfg.sim.sample_rate_hz,
                                    center_freq=center)


def synthesize_sources(cfg: ScenarioConfig,
                       share: Sources | None = None) -> Sources:
    """Build the symbols, the unit-power interference, the SOI and their
    path images, and measure the interference/SOI density ratio at the SOI
    carrier (baseband 0) from their Welch PSDs.

    The interference is built, measured and taken through its paths, and
    freed, before the SOI exists: the two are never alive at once.  ``share``
    holds the sources of another SOI format on the same seed and channel:
    its interference PSD, interference images and noise are reused and
    only the SOI side is rebuilt.
    """
    bits_seed, fm_seed, chan_seed, _ = _seed_ints(cfg.sim.seed)
    stream = random_symbols(cfg.soi.format, cfg.sim.n_symbols,
                            cfg.soi.symbol_rate_hz,
                            np.random.default_rng(bits_seed))
    scenario = cfg.channel.to_scenario(chan_seed)
    if share is not None:
        psd_int, images = share.psd_int, share.images
    else:
        n = (cfg.sim.n_symbols + cfg.soi.span_symbols) * cfg.sps
        interference = _interference(cfg, fm_seed, n, cfg.soi.carrier_hz)
        offset = cfg.interference.carrier_hz - cfg.soi.carrier_hz
        if offset:
            interference.samples *= np.exp(
                2j * np.pi * offset * (np.arange(n) / cfg.sim.sample_rate_hz))
        psd_int = met.welch_psd(interference)
        images = interference_images(interference, scenario)
        del interference
    soi = generate_soi(stream, cfg.sps, cfg.soi.rolloff,
                       cfg.soi.span_symbols, center_freq=cfg.soi.carrier_hz,
                       power=cfg.soi.power)
    psd_soi = met.welch_psd(soi)
    return Sources(stream, psd_soi, psd_int, met.isr_at(psd_soi, psd_int, 0.0),
                   images.with_soi(soi, scenario))


def _configured_record(cfg: ScenarioConfig):
    """The sources and the interference scale of ``cfg``'s ISR, with the
    record at that ISR: ``(src, scale, r_l, r_h)``.

    The sources belong to this call alone, so their interference images are
    scaled in place, rather than kept beside scaled copies: the record is
    then the one at scale 1.
    """
    src = synthesize_sources(cfg)
    scale = src.scale(cfg.interference.isr_db)
    for w in (src.images.y12, src.images.y22):
        w.samples *= scale
    return (src, scale, *received(src.images))


def _training(cfg: ScenarioConfig, xs: list[BasebandWaveform],
              ys: list[BasebandWaveform], window: int | None = None
              ) -> canc.Training:
    """The configured training on the record parts ``xs``/``ys``, over
    ``window`` samples (``canceller.training_window`` by default)."""
    c = cfg.canceller
    return canc.Training(xs, ys, window or c.training_window, c.max_lag_s,
                         c.delay_refine)


def _train_taps(cfg: ScenarioConfig, training: canc.Training, s: float = 1.0,
                subtract: bool = True
                ) -> tuple[canc.CancellerTaps, list[BasebandWaveform] | None]:
    """``training``'s taps at interference scale ``s``, plus the configured
    taps error.

    Returns the taps and each r_H part delayed by them over the full
    record: the delayed reference that every use of these taps shares.  A
    caller that keeps only the taps passes ``subtract=False`` and gets None
    for it.
    """
    err = cfg.canceller.taps_error
    taps, delayed = training.train(s)
    taps = canc.perturb_taps(taps, err.gain_mag, err.gain_phase_deg,
                             err.delay_s)
    if not subtract:
        return taps, None
    if err.delay_s:
        # the delay error moves the delay line off the trained delay
        delayed = [true_time_delay(y, taps.delay) for y in training.ys]
    return taps, delayed


def _demodulate(cfg: ScenarioConfig, w: BasebandWaveform) -> np.ndarray:
    """The symbols of ``w``, demodulated at the scenario's pulse and timing."""
    return demodulate(w, _demod_config(cfg)).symbols


def _demod_config(cfg: ScenarioConfig) -> DemodConfig:
    return DemodConfig(
        sps=cfg.sps,
        format=cfg.soi.format,
        rolloff=cfg.soi.rolloff,
        span_symbols=cfg.soi.span_symbols,
        timing_offset=cfg.channel.a11.delay_s * cfg.sim.sample_rate_hz,
    )


def _measure_evm(cfg: ScenarioConfig, rx: np.ndarray,
                 waves: list[BasebandWaveform],
                 tx_stream: SymbolStream) -> met.EvmReport:
    """EVM of the symbols ``rx`` demodulated from a record whose invalid
    edges are the worst of ``waves``'."""
    head, tail = merge_invalid(*waves)
    edges = waves[0].with_samples(waves[0].samples, invalid_head=head,
                                  invalid_tail=tail)
    first, last = valid_symbol_range(edges, _demod_config(cfg))
    last = min(last, tx_stream.symbols.size, rx.size)
    if last - first < 16:
        raise RfCancelError("too few valid symbols after edge trimming")
    return met.evm(SymbolStream(rx[first:last], tx_stream.format),
                   SymbolStream(tx_stream.symbols[first:last],
                                tx_stream.format))


@dataclass
class Measured:
    """What one canceller mode made of a record, and how well."""

    estimate: BasebandWaveform | None          # set when asked for
    evm: met.EvmReport
    depth: met.DepthReport | None = None       # reference mode only
    taps: canc.CancellerTaps | None = None
    residual: BasebandWaveform | None = None   # interference after the taps
    demix: list | None = None
    margin: int = 0   # the delayed r_H's invalid tail past r_H's own

    def window_residual_db(self, r_l: BasebandWaveform, n: int) -> float:
        """The estimate's power over r_L's in the gain fit's window, dB."""
        p_in = canc._prefix(r_l, n).power()
        p_out = canc._prefix(self.estimate, n, self.margin).power()
        return float(10 * np.log10(p_out / p_in)) if p_in and p_out else math.nan

    @property
    def depth_db(self) -> float:
        return math.nan if self.depth is None else self.depth.depth_db


class _Record:
    """A record as its linear parts in the interference scale s:
    r_L = xs[0] + s*xs[1] and r_H = s*y22 + n_H, measured with the
    canceller off or in reference mode at any s.

    Demodulation, the delay line and the lag correlation are linear, so
    the parts' symbols and, in reference mode, their training correlations
    (``canceller.Training``) are computed once, here.  At each s, training
    delays y22 (and n_H) once, the cancelled symbols are demod(r_L) -
    g*s*demod(D(y22)) (less g*demod(D(n_H))), and the depth residual
    y12 - g*D(y22) is formed in the delayed y22's buffer: no r_L, r_H or
    SOI estimate is formed unless asked for.  A sweep leaves ``xs`` to its
    default, [y11 + n_L, y12]; ``run`` passes its formed r_L alone and
    measures at s = 1, with the images holding the interference at the
    record's scale.
    """

    def __init__(self, cfg: ScenarioConfig, src: Sources,
                 xs: list[BasebandWaveform] | None = None):
        img = src.images
        if xs is None:
            x0 = img.y11
            if img.n_l is not None:
                x0 = x0.with_samples(x0.samples + img.n_l)
            xs = [x0, img.y12]
        self.cfg, self.src, self.xs = cfg, src, xs
        self.ys = [img.y22]
        if img.n_h is not None:
            self.ys.append(img.y22.with_samples(img.n_h))
        self.symbols = [_demodulate(cfg, x) for x in xs]
        self.training = (_training(cfg, xs, self.ys)
                         if cfg.canceller.mode == "reference" else None)

    def _evm(self, rx: np.ndarray, *waves: BasebandWaveform) -> met.EvmReport:
        return _measure_evm(self.cfg, rx, [*self.xs, *waves],
                            self.src.tx_stream)

    def _off_symbols(self, s: float) -> np.ndarray:
        rx = self.symbols[0]
        return rx if len(self.xs) == 1 else rx + s * self.symbols[1]

    def evm_off(self, s: float) -> met.EvmReport:
        """The EVM of r_L itself at interference scale ``s``."""
        return self._evm(self._off_symbols(s))

    def measure(self, s: float, before_psd: met.PsdEstimate | None = None,
                estimate: int = 0) -> Measured:
        """The canceller's result at interference scale ``s``: its EVM
        against ``src.tx_stream``, and in reference mode the depth the taps
        reach on the interference image y12, with y22 as its reference.
        ``before_psd``, when set, is the Welch PSD of y12.  With
        ``estimate`` > 0 the SOI estimate of a one-part r_L is formed as
        well: its first ``estimate`` samples, with the invalid edges they
        have in the whole estimate (with the canceller off, r_L itself).
        """
        if self.training is None:
            return Measured(self.xs[0] if estimate else None, self.evm_off(s))
        taps, delayed = _train_taps(self.cfg, self.training, s)
        g = taps.gain
        rx = self._off_symbols(s) - g * s * _demodulate(self.cfg, delayed[0])
        if len(delayed) > 1:
            rx -= g * _demodulate(self.cfg, delayed[1])
        evm_report = self._evm(rx, *delayed)
        margin = delayed[0].invalid_tail - self.ys[0].invalid_tail
        out = None
        if estimate:
            ref = canc._combine([canc._prefix(d, estimate, margin)
                                 for d in delayed], (s, 1.0))
            out = canc.subtract(canc._prefix(self.xs[0], estimate), ref, g)
        img = self.src.images
        # y12 - g*D(y22) takes over the delayed y22, which is done with
        residual = canc.subtract(img.y12, delayed[0], g, in_place=True)
        depth = met.cancellation_depth(img.y12, residual,
                                       occupied_band(self.cfg), before_psd)
        return Measured(out, evm_report, depth, taps, residual, margin=margin)


def _separate_blind(cfg: ScenarioConfig, r_l: BasebandWaveform,
                    r_h: BasebandWaveform) -> canc.SeparationResult:
    """Blind separation of (r_l, r_h), each warning it raises logged on
    this module's logger."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = canc.bss_separate(r_l, r_h, cfg.canceller.ica)
    for w in caught:
        _log.warning("%s: %s", w.category.__name__, w.message)
    return result


def _measure_blind(cfg: ScenarioConfig, src: Sources, r_l: BasebandWaveform,
                   r_h: BasebandWaveform) -> Measured:
    """Blind separation of the record (r_l, r_h) and the EVM of its SOI
    output against ``src.tx_stream``."""
    result = canc.resolve_permutation(_separate_blind(cfg, r_l, r_h), r_h)
    estimate = result.outputs[0]
    return Measured(estimate, _measure_evm(cfg, _demodulate(cfg, estimate),
                                           [estimate], src.tx_stream),
                    demix=[[(c.real, c.imag) for c in row]
                           for row in result.demix])


def run(cfg: ScenarioConfig, out_dir: str | os.PathLike | None = None) -> RunReport:
    """Execute one scenario: synthesize, mix, cancel, demodulate, measure."""
    t0 = time.perf_counter()
    src, scale, r_l, r_h = _configured_record(cfg)
    # r_L holds all that a run reads of the SOI image
    src.images.y11 = None
    if cfg.canceller.mode == "bss":
        m = _measure_blind(cfg, src, r_l, r_h)
    else:
        # the images already hold the interference at ``scale``; the whole
        # SOI estimate is formed for an artifact that stores it, and
        # otherwise only the training window that the taps' residual reads
        stored = out_dir is not None and {"psd", "waveforms"} & set(
            cfg.outputs.csv)
        m = _Record(cfg, src, [r_l]).measure(
            1.0, estimate=len(r_l) if stored else cfg.canceller.training_window)
    report = RunReport(
        mode=cfg.canceller.mode,
        evm_pct=m.evm.evm_rms_pct,
        depth_db=m.depth_db,
        isr_db_measured=src.base_ratio_db + 20 * math.log10(scale),
        taps=None if m.taps is None else {
            "delay_s": m.taps.delay, "gain_re": m.taps.gain.real,
            "gain_im": m.taps.gain.imag, "residual_power_db":
            m.window_residual_db(r_l, cfg.canceller.training_window)},
        demix=m.demix,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        seed=cfg.sim.seed,
    )
    if out_dir is not None:
        _write_artifacts(cfg, src, scale, r_l, r_h, m, report, out_dir)
    return report


def _write_artifacts(cfg: ScenarioConfig, src: Sources, scale: float,
                     r_l: BasebandWaveform, r_h: BasebandWaveform,
                     m: Measured, report: RunReport, out_dir) -> None:
    """The run's artifacts.  ``src`` holds its interference images scaled
    by ``scale``, but still the unit-power interference PSD."""
    os.makedirs(out_dir, exist_ok=True)
    kinds = set(cfg.outputs.csv)
    path = lambda name: os.path.join(out_dir, name)
    if "report" in kinds:
        _atomic_write(path("report.json"), (report.to_json() + "\n").encode())
    if "constellation" in kinds:
        aligned = m.evm.aligned
        _write_csv(path("constellation.csv"), "symbol_idx,re,im",
                   np.arange(aligned.size), aligned.real, aligned.imag)
        met.export_evm_csv(m.evm, path("evm_errors.csv"))
    if "psd" in kinds:
        # the sources' PSDs are the ones synthesis calibrated the ISR on
        met.export_psd_csv(src.psd_soi, path("psd_soi.csv"))
        met.export_psd_csv(replace(src.psd_int, psd=src.psd_int.psd * scale**2),
                           path("psd_interference.csv"))
        met.export_psd_csv(met.welch_psd(r_l), path("psd_mixed.csv"))
        met.export_psd_csv(met.welch_psd(m.estimate), path("psd_output.csv"))
    if "depth_curve" in kinds and m.depth is not None:
        met.export_depth_csv(m.depth, path("depth_curve.csv"))
    if "waveforms" in kinds:
        save_waveform(r_l, path("r_l.rcwv"))
        save_waveform(r_h, path("r_h.rcwv"))
        save_waveform(m.estimate, path("output.rcwv"))
        # the depth pair is stored valid-trimmed (the binary format carries
        # no edge-validity metadata) so offline recomputation sees exactly
        # the samples the reported depth was measured on
        for name, w in (("int_before", src.images.y12),
                        ("int_after", m.residual)):
            if w is not None:
                save_waveform(w.with_samples(w.valid, invalid_head=0,
                                             invalid_tail=0),
                              path(f"{name}.rcwv"))


def _sweep(columns: list[str], values: list, fill, out_dir,
           table: str) -> list[dict]:
    """One row per axis value: ``columns[0]`` holds the value, every other
    column starts as nan and ``error`` as "", and ``fill(row, value)`` sets
    what it measures.  A failure ends only its own row: the cells filled
    before it stay and ``error`` records ``Type: message``.  With
    ``out_dir`` set the rows are written there as the CSV ``table``, floats
    as ``%.10e``.
    """
    header = [*columns, "error"]
    rows = []
    for value in values:
        row = {columns[0]: value, **dict.fromkeys(columns[1:], math.nan),
               "error": ""}
        try:
            fill(row, value)
        except RfCancelError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{row[h]:.10e}" if isinstance(row[h], float)
                          else str(row[h]) for h in header] for row in rows)
        _atomic_write(os.path.join(out_dir, table), buf.getvalue().encode())
    return rows


def _evm_sweep(cfg: ScenarioConfig, columns: list[str], values: list,
               point, out_dir, table: str) -> list[dict]:
    """EVM with and without cancellation, and the depth, at each axis value;
    ``point(value)`` gives the row's config and ISR.

    The sources and their linear parts (``_Record``) are kept while the SOI
    format stays the same; a row with another format rebuilds only the SOI
    on the same interference.  The parts' symbols and training correlations
    are computed once per sources, so a reference-mode row delays y22 once,
    demodulates once and subtracts once, for the depth residual, and forms
    no record.  The depth's "before", the Welch PSD of the unit-power
    ``src.images.y12``, is computed once, in reference mode only.  With the
    canceller off only ``evm_off_pct`` is measured, and the other cells stay
    nan.  A ``bss`` row forms its record, r_L and r_H, for the separator.
    """
    mode = cfg.canceller.mode
    rec = before = None

    def fill(row, value):
        nonlocal rec, before
        row_cfg, isr_db = point(value)
        if rec is None or rec.src.tx_stream.format != row_cfg.soi.format:
            rec = _Record(row_cfg, synthesize_sources(row_cfg, rec and rec.src))
            if before is None and mode == "reference":
                before = met.welch_psd(rec.src.images.y12)
        scale = rec.src.scale(isr_db)
        row["evm_off_pct"] = rec.evm_off(scale).evm_rms_pct
        if mode == "reference":
            on = rec.measure(scale, before)
        elif mode == "bss":
            on = _measure_blind(row_cfg, rec.src,
                                *received(rec.src.images, scale))
        else:
            return
        row["evm_on_pct"] = on.evm.evm_rms_pct
        row["depth_db"] = on.depth_db

    return _sweep(columns, values, fill, out_dir, table)


def sweep_isr(cfg: ScenarioConfig, isr_list: list[float],
              out_dir: str | os.PathLike | None = None) -> list[dict]:
    """EVM with and without cancellation at each interference ratio: one
    synthesis, whose interference images each row scales to its ISR."""
    return _evm_sweep(cfg, ["isr_db", "evm_off_pct", "evm_on_pct", "depth_db"],
                      [float(isr) for isr in isr_list],
                      lambda isr: (cfg, isr), out_dir, "sweep_isr.csv")


def depth_oracle_db(cfg: ScenarioConfig, taps: canc.CancellerTaps,
                    f_abs: float) -> float:
    """Closed-form residual for fixed taps at an absolute RF frequency.

    depth = -20*log10|1 - g * (a22*H22(f)/ (a12*H12(f))) * e^{-j2pi f (tau22
    + tau_hat - tau12)}| from the channel's known responses and the applied
    tap values; no waveforms involved.
    """
    a12 = cfg.channel.a12.to_model()
    a22 = cfg.channel.a22.to_model()
    h12 = a12.response.eval(f_abs)[0] * a12.gain
    h22 = a22.response.eval(f_abs)[0] * a22.gain
    rot = np.exp(-2j * np.pi * f_abs * (a22.delay + taps.delay - a12.delay))
    residual = 1 - taps.gain * (h22 / h12) * rot
    return float(-20 * np.log10(abs(residual)))


def _path_pair(w: BasebandWaveform, scenario: MixingScenario
               ) -> tuple[BasebandWaveform, BasebandWaveform]:
    """``w`` through a12 and through a22, each path on its own noise
    stream of the scenario seed."""
    rngs = path_rngs(scenario)
    return (apply_path(w, scenario.a12, rngs[1]),
            apply_path(w, scenario.a22, rngs[3]))


def train_sweep_taps(cfg: ScenarioConfig) -> canc.CancellerTaps:
    """One-time training for the frequency sweep.

    Taps are trained on the wideband interference at the training carrier
    and then frozen; the sweep probes other carriers without retuning,
    which is where the response mismatch shows up.
    """
    _, fm_seed, chan_seed, _ = _seed_ints(cfg.sim.seed)
    probe = _interference(cfg, fm_seed, cfg.sweep.train_samples,
                          cfg.sweep.train_carrier_hz or cfg.soi.carrier_hz)
    r_l, r_h = _path_pair(probe, cfg.channel.to_scenario(chan_seed))
    return _train_taps(cfg, _training(cfg, [r_l], [r_h], len(r_l)),
                       subtract=False)[0]


def sweep_frequency(cfg: ScenarioConfig, carriers: list[float],
                    out_dir: str | os.PathLike | None = None) -> list[dict]:
    """Tone-probe cancellation depth across RF carriers with frozen taps.

    The probes' path noise comes from a fourth child of the seed, after
    the bits, FM and channel streams of the synthesis: every row draws
    the same noise, and another seed draws other noise.
    """
    taps = train_sweep_taps(cfg)
    fs = cfg.sim.sample_rate_hz
    offset = cfg.sweep.probe_offset_hz
    n = cfg.sweep.probe_samples
    scenario = cfg.channel.to_scenario(_seed_ints(cfg.sim.seed)[3])
    band = (offset - PROBE_HALF_BAND_HZ, offset + PROBE_HALF_BAND_HZ)
    # the probe's envelope is the same at every carrier
    envelope = np.exp(2j * np.pi * offset * (np.arange(n) / fs))

    def fill(row, carrier):
        before, reference = _path_pair(BasebandWaveform(envelope, fs, carrier),
                                       scenario)
        after = canc.cancel(before, reference, taps)
        row["depth_db"] = met.cancellation_depth(before, after, band).depth_db
        row["oracle_db"] = depth_oracle_db(cfg, taps, carrier + offset)

    return _sweep(["carrier_hz", "depth_db", "oracle_db"],
                  [float(c) for c in carriers], fill, out_dir,
                  "sweep_freq.csv")


def sweep_format(cfg: ScenarioConfig, formats: list[str],
                 out_dir: str | os.PathLike | None = None) -> list[dict]:
    """EVM with and without cancellation per modulation format, at
    ``sweep.format_isr_db``: the rows share the interference, and only the
    SOI is regenerated per format."""
    def point(fmt):
        return (replace(cfg, soi=replace(cfg.soi, format=fmt)),
                cfg.sweep.format_isr_db)

    return _evm_sweep(cfg, ["format", "evm_on_pct", "evm_off_pct", "depth_db"],
                      formats, point, out_dir, "sweep_format.csv")


def compare_separators(cfg: ScenarioConfig,
                       out_dir: str | os.PathLike | None = None) -> list[dict]:
    """Reference-aided vs blind separation on the same mixed records.

    Reports ground-truth SIR, wall-clock, iteration count and the number of
    free parameters each method had to estimate.  ``runtime_ms`` spans
    training and subtraction, or blind separation and labelling.
    """
    src, _, r_l, r_h = _configured_record(cfg)

    def fill(row, method):
        t0 = time.perf_counter()
        if method == "reference":
            taps, (delayed,) = _train_taps(cfg, _training(cfg, [r_l], [r_h]))
            out = canc.subtract(r_l, delayed, taps.gain)
            row.update(iterations=1, free_parameters=2, converged=True)
        else:
            result = _separate_blind(cfg, r_l, r_h)
            row.update(iterations=result.iterations,
                       free_parameters=result.free_parameters,
                       converged=result.converged)
            out = canc.resolve_permutation(result, r_h).outputs[0]
        row["runtime_ms"] = (time.perf_counter() - t0) * 1e3
        row["sir_db"] = met.sir_against_truth(out, src.images.y11,
                                              src.images.y12)

    return _sweep(["method", "sir_db", "runtime_ms", "iterations",
                   "free_parameters", "converged"],
                  ["reference", "bss"], fill, out_dir, "compare_bss.csv")


__all__ = [
    "RunReport",
    "Sources",
    "compare_separators",
    "depth_oracle_db",
    "occupied_band",
    "run",
    "sweep_format",
    "sweep_frequency",
    "sweep_isr",
    "synthesize_sources",
    "train_sweep_taps",
]
