"""Declarative scenario configuration: YAML schema, validation, builders.

A scenario file is a key-value tree with a ``schema_version`` field; every
shipped experiment is one of these files.  The dataclasses are the schema:
a field's annotation is its type, its default what a file may leave out
(no default: mandatory), and ``CHECKS`` holds its range rule.  Validation
collects *all* offending fields before raising.
"""

from __future__ import annotations

import functools
import math
import os
import re
import sys
import typing
from dataclasses import (
    MISSING, dataclass, field, fields, is_dataclass, replace,
)

import yaml

from .canceller import IcaConfig
from .channel import (
    INTERP_TAPS, RESPONSE_KINDS, MixingScenario, ModulatorResponse, PathModel,
    gain_from_db,
)
from .errors import ConfigError
from .metrics import MIN_SEG_LEN
from .sigsynth import FORMATS

SCHEMA_VERSION = 1

CANCELLER_MODES = ("off", "reference", "bss")
DELAY_REFINE_MODES = ("parabolic", "residual")
CSV_KINDS = ("report", "constellation", "psd", "depth_curve", "waveforms")
# samples in a record, sps * (n_symbols + span_symbols); 2**26 are 1 GiB
RECORD_BUDGET = 2**26
# bound on every dB field: 10**(300/20) amplitude keeps a record's power
# finite even with a path gain and the ISR both at the bound
DB_LIMIT = 300.0
# highest Butterworth order: the response's denominator is expanded from
# its poles by np.poly, whose rounding grows with the order; |H| departs
# from 1/sqrt(1 + (f/f3db)**(2n)) by 1.2e-10 at 24, 1.4e-3 at 48 and 94%
# at 64, and order 10**9 asks for gigabytes
MAX_ORDER = 24
# half-width of the band the frequency sweep measures its depth over,
# around the probe offset
PROBE_HALF_BAND_HZ = 5e6


@dataclass
class SoiConfig:
    format: str = "qpsk"
    symbol_rate_hz: float = 5e6
    carrier_hz: float = 2.4e9
    power: float = 1.0
    rolloff: float = 0.2
    span_symbols: int = 16


@dataclass
class InterferenceConfig:
    deviation_pp_hz: float = 80e6
    mod_noise_bw_hz: float = 10e6
    carrier_hz: float | None = None     # None: the SOI carrier
    isr_db: float = 18.0


@dataclass
class ResponseConfig:
    kind: str = "flat"
    f3db_hz: float | None = None        # mandatory for butterworth_lowpass
    order: int | None = None            # mandatory for butterworth_lowpass


@dataclass
class PathConfig:
    gain_db: float = 0.0
    phase_deg: float = 0.0
    delay_s: float = 0.0
    noise_psd: float = 0.0
    response: ResponseConfig = field(default_factory=ResponseConfig)

    def to_model(self) -> PathModel:
        r = self.response
        resp = (ModulatorResponse(r.kind) if r.kind == "flat"
                else ModulatorResponse(r.kind, r.f3db_hz, r.order))
        return PathModel(gain=gain_from_db(self.gain_db, self.phase_deg),
                         delay=self.delay_s, response=resp,
                         noise_psd=self.noise_psd)


@dataclass
class PathsConfig:
    a11: PathConfig = field(default_factory=PathConfig)
    a12: PathConfig = field(default_factory=PathConfig)
    # no SOI reaches the reference receiver: a21 is zero, and the key is
    # accepted only as {zero: true}, so old files still parse
    a21: dict = field(default_factory=lambda: {"zero": True})
    a22: PathConfig = field(default_factory=PathConfig)


@dataclass
class ChannelConfig:
    reference_mode: bool = True     # accepted only as true: a21 is zero
    paths: PathsConfig = field(default_factory=PathsConfig)

    a11 = property(lambda self: self.paths.a11)
    a12 = property(lambda self: self.paths.a12)
    a22 = property(lambda self: self.paths.a22)

    def to_scenario(self, seed: int) -> MixingScenario:
        return MixingScenario(self.a11.to_model(), self.a12.to_model(),
                              self.a22.to_model(), seed)


@dataclass
class TapsErrorConfig:
    """Calibrated matching error injected into trained taps."""

    gain_mag: float = 0.0
    gain_phase_deg: float = 0.0
    delay_s: float = 0.0


@dataclass
class CancellerConfig:
    mode: str = "reference"
    training_window: int = 131072
    max_lag_s: float = 1e-7
    delay_refine: str = "parabolic"
    taps_error: TapsErrorConfig = field(default_factory=TapsErrorConfig)
    ica: IcaConfig = field(default_factory=IcaConfig)
    nlms: bool = False      # accepted only as false, so old files still parse


@dataclass
class SimConfig:
    sample_rate_hz: float
    n_symbols: int
    seed: int           # mandatory: no implicit entropy


@dataclass
class OutputConfig:
    directory: str = "out"
    csv: tuple[str, ...] = ("report",)


@dataclass
class SweepConfig:
    isr_db: list[float] = field(default_factory=list)
    carriers_hz: list[float] = field(default_factory=list)
    formats: list[str] = field(default_factory=list)
    format_isr_db: float = 9.0
    train_carrier_hz: float | None = None   # None: the SOI carrier
    probe_offset_hz: float = 2e6
    probe_samples: int = 16384
    train_samples: int = 131072


@dataclass
class ScenarioConfig:
    schema_version: int
    soi: SoiConfig
    interference: InterferenceConfig
    channel: ChannelConfig
    canceller: CancellerConfig
    sim: SimConfig
    outputs: OutputConfig
    sweep: SweepConfig

    @property
    def sps(self) -> int:
        return int(round(self.sim.sample_rate_hz / self.soi.symbol_rate_hz))


def _above(lo):
    return lambda v: None if v > lo else f"must be > {lo}"


def _at_least(lo):
    return lambda v: None if v >= lo else f"must be >= {lo}"


def _db(v):
    return None if abs(v) <= DB_LIMIT else f"must be within +-{DB_LIMIT:g} dB"


def _between(lo, hi):
    return lambda v: None if lo <= v <= hi else f"must be in [{lo:g}, {hi:g}]"


def _samples(v):
    return None if 1 <= v <= RECORD_BUDGET else "must be in [1, 2**26]"


def _one_of(choices):
    return lambda v: None if v in choices else f"must be one of {choices}"


# range rules on converted values, by dotted path ("*" stands for any of
# the four channel paths); a list's rule applies to each of its entries
CHECKS = {
    "schema_version": _one_of((SCHEMA_VERSION,)),
    "soi.format": _one_of(FORMATS),
    "soi.symbol_rate_hz": _above(0),
    # +-DB_LIMIT dB of 1: the ISR calibration's power ratio stays non-zero
    "soi.power": _between(10 ** (-DB_LIMIT / 10), 10 ** (DB_LIMIT / 10)),
    "soi.rolloff": lambda v: None if 0 < v <= 1 else "must be in (0, 1]",
    "soi.span_symbols": _at_least(4),
    "interference.deviation_pp_hz": _at_least(0),
    "interference.mod_noise_bw_hz": _above(0),
    "interference.isr_db": _db,
    "channel.reference_mode": lambda v: None if v is True else (
        "a21 is always zero; only true is accepted"),
    "channel.paths.a21": lambda v: None if (
        v == {"zero": True} and v["zero"] is True) else (
        "a21 is always zero; only {zero: true} is accepted"),
    "channel.paths.*.gain_db": _db,
    "channel.paths.*.delay_s": _at_least(0),
    "channel.paths.*.noise_psd": _at_least(0),
    "channel.paths.*.response.kind": _one_of(RESPONSE_KINDS),
    "channel.paths.*.response.f3db_hz": _above(0),
    "channel.paths.*.response.order": _between(1, MAX_ORDER),
    "canceller.mode": _one_of(CANCELLER_MODES),
    "canceller.training_window": _above(0),
    "canceller.max_lag_s": _above(0),
    "canceller.delay_refine": _one_of(DELAY_REFINE_MODES),
    "canceller.ica.max_iter": _at_least(1),
    "canceller.ica.tol": _above(0),
    "canceller.ica.seed": _at_least(0),
    "canceller.nlms": lambda v: None if v is False else (
        "the NLMS refinement was removed; only false is accepted"),
    "sim.sample_rate_hz": _above(0),
    "sim.n_symbols": _at_least(64),
    "sim.seed": _at_least(0),
    "outputs.csv": _one_of(CSV_KINDS),
    "sweep.isr_db": _db,
    "sweep.format_isr_db": _db,
    "sweep.formats": _one_of(FORMATS),
    "sweep.probe_samples": _samples,
    "sweep.train_samples": _samples,
}

# accepted Python types and their name in messages; a bool is not a number
_TYPES = {float: ((int, float), "a finite number"), int: (int, "an integer"),
          bool: (bool, "true or false"), str: (str, "a string"),
          dict: (dict, "a mapping")}


def _value(kind, raw, path: str, bad: list[str]):
    """Check and convert one field's value; None if it is invalid."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (list, tuple):
        if isinstance(raw, list):
            return origin(_value(args[0], item, path, bad) for item in raw)
        reason = "must be a list"
    elif raw is None and type(None) in args:    # X | None: None is unset
        return None
    else:
        kind = args[0] if args else kind
        accepted, name = _TYPES[kind]
        if (isinstance(raw, bool) != (kind is bool) or not isinstance(raw, accepted)
                or kind is float and not abs(raw) <= sys.float_info.max):
            reason = f"must be {name}"      # nan, inf and huge ints too
        else:
            key = re.sub(r"^channel\.paths\.\w+\.", "channel.paths.*.", path)
            reason = CHECKS[key](kind(raw)) if key in CHECKS else None
            if reason is None:
                return kind(raw)
    bad.append(f"{path}: {reason}, got {raw!r}")
    if kind is str and isinstance(raw, bool):
        bad[-1] += ("; YAML reads a bare on, off, yes or no as a boolean, "
                    "so quote the value")
    return None


# the schema's annotations are strings (postponed evaluation); resolve each
# class once rather than on every walk
_type_hints = functools.cache(typing.get_type_hints)


def _walk(cls, node, prefix: str, bad: list[str]):
    """Build dataclass ``cls`` from the mapping ``node`` found at the dotted
    ``prefix``; a key the mapping leaves out takes the field's default."""
    if not isinstance(node, dict | None):
        where = prefix.rstrip(".") or "<root>"
        bad.append(f"{where}: must be a mapping, got {node!r}")
    node = node if isinstance(node, dict) else {}
    hints = _type_hints(cls)
    bad.extend(f"{prefix}{key}: unknown key" for key in node if key not in hints)
    values = {}
    for f in fields(cls):
        path, kind = prefix + f.name, hints[f.name]
        if is_dataclass(kind):
            values[f.name] = _walk(kind, node.get(f.name), path + ".", bad)
        elif f.name in node:
            values[f.name] = _value(kind, node[f.name], path, bad)
        elif f.default is MISSING and f.default_factory is MISSING:
            bad.append(f"{path}: mandatory, {_TYPES[kind][1]}")
            values[f.name] = None
    return cls(**values)


def _cross_checks(cfg: ScenarioConfig) -> list[str]:
    """Rules that tie fields together, on a config of valid fields; also
    sets the interference carrier that the file leaves out."""
    soi, intf, sim, chan = cfg.soi, cfg.interference, cfg.sim, cfg.channel
    if intf.carrier_hz is None:
        intf.carrier_hz = soi.carrier_hz
    bad = []
    sps = sim.sample_rate_hz / soi.symbol_rate_hz
    if not (math.isfinite(sps) and abs(sps - round(sps)) < 1e-9
            and round(sps) >= 2):
        bad.append("sim.sample_rate_hz: sample_rate / symbol_rate must be "
                   f"an integer >= 2, got {sps:.6g}")
    else:
        n = round(sps) * (sim.n_symbols + soi.span_symbols)
        if n > RECORD_BUDGET:
            bad.append(f"sim.n_symbols: a record of sps * (n_symbols + "
                       f"span_symbols) = {n} samples exceeds 2**26")
        # the delay search's own guard, on the training window and on the
        # frequency sweep's training record
        lag = cfg.canceller.max_lag_s * sim.sample_rate_hz
        lag = round(lag) if math.isfinite(lag) else lag
        size = min(cfg.canceller.training_window, n, cfg.sweep.train_samples)
        if lag >= size // 4:
            bad.append(f"canceller.max_lag_s: {lag} lag samples must be below "
                       "a quarter of min(training_window, record length, "
                       f"sweep.train_samples) = {size}")
    offset = abs(intf.carrier_hz - soi.carrier_hz)
    if sim.sample_rate_hz <= (2 * (intf.deviation_pp_hz + intf.mod_noise_bw_hz)
                              + 2 * offset):
        bad.append("sim.sample_rate_hz: must exceed twice the interference "
                   "occupied bandwidth")
    probe = cfg.sweep.probe_offset_hz
    if abs(probe) + PROBE_HALF_BAND_HZ > sim.sample_rate_hz / 2:
        bad.append("sweep.probe_offset_hz: |probe_offset_hz| + "
                   f"{PROBE_HALF_BAND_HZ:g} Hz must be <= sample_rate_hz / 2, "
                   f"got {probe!r}")
    # a config that lists carriers probes them: a Welch segment must remain
    # for the probe's depth after the a12/a22 delays, the tap delay (the
    # max_lag_s search, its sub-sample refinement and the taps' delay
    # error) and an INTERP_TAPS margin at each end from each of the
    # reference's two interpolators
    reach = (max(chan.a12.delay_s, chan.a22.delay_s) + cfg.canceller.max_lag_s
             + abs(cfg.canceller.taps_error.delay_s)) * sim.sample_rate_hz
    need = reach + 2 + 4 * INTERP_TAPS + MIN_SEG_LEN
    if cfg.sweep.carriers_hz and cfg.sweep.probe_samples < need:
        need = math.ceil(need) if math.isfinite(need) else need
        bad.append(f"sweep.probe_samples: must be >= {need} to leave a "
                   f"{MIN_SEG_LEN}-sample Welch segment after the paths' "
                   "delays, the tap delay and the interpolator margins, got "
                   f"{cfg.sweep.probe_samples}")
    for name in ("a11", "a12", "a22"):
        response = getattr(chan.paths, name).response
        if response.kind == "butterworth_lowpass":
            bad.extend(f"channel.paths.{name}.response.{key}: mandatory for "
                       "butterworth_lowpass" for key in ("f3db_hz", "order")
                       if getattr(response, key) is None)
    return bad


def validate_tree(tree) -> list[str]:
    """Return every schema violation as 'dotted.path: reason'."""
    try:
        from_tree(tree)
    except ConfigError as exc:
        return exc.fields
    return []


def from_tree(tree) -> ScenarioConfig:
    """Validate and build a ScenarioConfig; raises ConfigError on problems."""
    bad: list[str] = []
    cfg = _walk(ScenarioConfig, tree, "", bad)
    bad = bad or _cross_checks(cfg)
    if bad:
        raise ConfigError(dict.fromkeys(bad))
    return cfg


def load_config(path: str | os.PathLike) -> ScenarioConfig:
    # bytes: the YAML reader decodes them, and names the file on an error
    with open(path, "rb") as fh:
        return from_tree(yaml.safe_load(fh))


def with_seed(cfg: ScenarioConfig, seed) -> ScenarioConfig:
    """``cfg`` with ``sim.seed`` replaced, checked by the schema's rule."""
    bad: list[str] = []
    seed = _value(int, seed, "sim.seed", bad)
    if bad:
        raise ConfigError(bad)
    return replace(cfg, sim=replace(cfg.sim, seed=seed))


__all__ = [
    "CANCELLER_MODES",
    "CSV_KINDS",
    "ChannelConfig",
    "CancellerConfig",
    "InterferenceConfig",
    "OutputConfig",
    "PathConfig",
    "SCHEMA_VERSION",
    "ScenarioConfig",
    "SimConfig",
    "SoiConfig",
    "SweepConfig",
    "TapsErrorConfig",
    "from_tree",
    "load_config",
    "validate_tree",
    "with_seed",
]
