"""Tests for scenario-file validation and construction."""

import copy

import pytest
import yaml

from rfcancel import config
from rfcancel.config import from_tree, load_config, validate_tree
from rfcancel.errors import ConfigError

from conftest import unique_key_loaders

GOOD = yaml.safe_load("""
schema_version: 1
soi: {format: qpsk, symbol_rate_hz: 5.0e+06, carrier_hz: 2.4e+09, power: 1.0}
interference:
  deviation_pp_hz: 8.0e+07
  mod_noise_bw_hz: 1.0e+07
  carrier_hz: 2.4e+09
  isr_db: 9.0
channel:
  reference_mode: true
  paths:
    a11: {gain_db: 0.0}
    a12: {gain_db: 0.0, delay_s: 2.5e-08}
    a21: {zero: true}
    a22: {gain_db: 0.0, delay_s: 1.0e-08}
canceller: {mode: reference, training_window: 65536}
sim: {sample_rate_hz: 2.0e+08, n_symbols: 512, seed: 1}
outputs: {directory: out, csv: [report]}
""")


class TestValidation:
    def test_good_tree_has_no_violations(self):
        assert validate_tree(GOOD) == []

    def test_every_violation_is_listed(self):
        """A config with several problems reports all of them at once."""
        bad = copy.deepcopy(GOOD)
        bad["soi"]["format"] = "qam32"
        bad["soi"]["rolloff"] = 1.5
        bad["interference"]["mod_noise_bw_hz"] = 0.0
        bad["canceller"]["mode"] = "magic"
        del bad["sim"]["seed"]
        problems = validate_tree(bad)
        joined = "\n".join(problems)
        assert len(problems) >= 5
        for path in ("soi.format", "soi.rolloff",
                     "interference.mod_noise_bw_hz", "canceller.mode",
                     "sim.seed"):
            assert path in joined

    def test_seed_is_mandatory(self):
        bad = copy.deepcopy(GOOD)
        del bad["sim"]["seed"]
        assert any("sim.seed" in p for p in validate_tree(bad))

    def test_non_integer_sps_rejected(self):
        bad = copy.deepcopy(GOOD)
        bad["sim"]["sample_rate_hz"] = 2.01e8
        assert any("sample_rate" in p for p in validate_tree(bad))

    def test_interference_bandwidth_guard(self):
        bad = copy.deepcopy(GOOD)
        bad["interference"]["deviation_pp_hz"] = 3.0e8
        assert any("sample_rate" in p for p in validate_tree(bad))

    def test_schema_version_checked(self):
        bad = copy.deepcopy(GOOD)
        bad["schema_version"] = 2
        assert any("schema_version" in p for p in validate_tree(bad))

    def test_unknown_csv_kind(self):
        bad = copy.deepcopy(GOOD)
        bad["outputs"]["csv"] = ["report", "pictures"]
        assert any("outputs.csv" in p for p in validate_tree(bad))

    def test_a21_gain_in_reference_mode(self):
        bad = copy.deepcopy(GOOD)
        bad["channel"]["paths"]["a21"] = {"gain_db": -20.0, "zero": False}
        assert any("a21" in p for p in validate_tree(bad))

    def test_from_tree_raises_with_fields(self):
        bad = copy.deepcopy(GOOD)
        bad["soi"]["format"] = "pi4dqpsk"
        with pytest.raises(ConfigError) as err:
            from_tree(bad)
        assert any("soi.format" in f for f in err.value.fields)


class TestConstruction:
    def test_round_numbers(self):
        cfg = from_tree(GOOD)
        assert cfg.sps == 40
        assert cfg.soi.carrier_hz == 2.4e9
        assert cfg.channel.a12.delay_s == 2.5e-8
        assert cfg.canceller.training_window == 65536
        assert cfg.outputs.csv == ("report",)

    def test_gain_conversion(self):
        tree = copy.deepcopy(GOOD)
        tree["channel"]["paths"]["a12"]["gain_db"] = 6.0205999
        tree["channel"]["paths"]["a12"]["phase_deg"] = 90.0
        cfg = from_tree(tree)
        model = cfg.channel.a12.to_model()
        assert abs(model.gain) == pytest.approx(2.0, abs=1e-6)

    def test_shipped_configs_validate(self):
        import glob

        paths = glob.glob("configs/**/*.yaml", recursive=True)
        assert len(paths) >= 10
        for path in paths:
            cfg = load_config(path)
            assert cfg.sim.seed is not None

    def test_repeated_keys_in_a_self_containing_mapping(self, tmp_path,
                                                        monkeypatch):
        """An anchor's mapping may hold an alias to itself: each mapping is
        read for repeated keys once, and every repeat is named, on either
        YAML reader."""
        path = tmp_path / "alias.yaml"
        path.write_text("a: &m {b: *m, c: 1, c: 2}\nd: 1\nd: 2\n")
        for loader in unique_key_loaders():
            monkeypatch.setattr(config, "_UniqueKeyLoader", loader)
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert sorted(err.value.fields) == [
                "a.c: duplicate key (line 1)", "d: duplicate key (line 3)"]

    def test_reads_through_libyaml_where_built(self):
        """libyaml reads a protocol config in about a sixth of the time of
        PyYAML's pure-Python reader."""
        base = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        assert issubclass(config._UniqueKeyLoader, base)
