"""Tests for the scenario schema's type rules, record budget and robustness
against malformed files."""

import copy
import math
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from rfcancel import runner
from rfcancel.cli import main
from rfcancel.config import RECORD_BUDGET, from_tree, validate_tree
from rfcancel.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = {str(p.relative_to(CONFIG_DIR)): yaml.safe_load(p.read_text())
           for p in sorted(CONFIG_DIR.rglob("*.yaml"))}
DEFAULT = SHIPPED["default.yaml"]
# the shortest sweep-freq probe on spectral_response.yaml: 5 samples of
# a12 delay and 20 of max_lag_s, 2 of tap refinement, 4 * 64 of
# interpolator margins and a 3-sample Welch segment
LEAST_PROBE = 286


def mutated(tree, keys, value):
    tree = copy.deepcopy(tree)
    node = tree
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value
    return tree


def problems(tree, keys, value):
    return validate_tree(mutated(tree, keys, value))


class TestTypes:
    @pytest.mark.parametrize("value", [
        True, "5.0e+06", "5e6", [5.0e6], None, float("inf"), float("nan"),
        pytest.param(10**400, id="10**400")])
    def test_number_field_rejects_non_numbers(self, value):
        bad = problems(DEFAULT, ("soi", "symbol_rate_hz"), value)
        assert [p.split(":")[0] for p in bad] == ["soi.symbol_rate_hz"]

    def test_integer_field_rejects_float(self):
        bad = problems(DEFAULT, ("sim", "n_symbols"), 4096.0)
        assert bad and bad[0].startswith("sim.n_symbols: must be an integer")

    def test_bool_field_rejects_number(self):
        bad = problems(DEFAULT, ("channel", "reference_mode"), 1)
        assert bad and bad[0].startswith("channel.reference_mode:")

    def test_list_entries_checked(self):
        bad = problems(DEFAULT, ("sweep", "isr_db"), [0.0, "x", True])
        assert bad == ["sweep.isr_db: must be a finite number, got 'x'",
                       "sweep.isr_db: must be a finite number, got True"]

    def test_ints_convert_to_floats(self):
        cfg = from_tree(mutated(DEFAULT, ("sweep", "isr_db"), [-5, 9]))
        assert cfg.sweep.isr_db == [-5.0, 9.0]
        assert all(type(v) is float for v in cfg.sweep.isr_db)

    def test_unknown_key_named(self):
        bad = problems(DEFAULT, ("interference", "isr_dB"), 3.0)
        assert bad == ["interference.isr_dB: unknown key"]

    def test_empty_section_takes_defaults(self):
        cfg = from_tree(mutated(DEFAULT, ("sweep",), None))
        assert cfg.sweep.isr_db == [] and cfg.sweep.probe_samples == 16384

    def test_missing_interference_carrier_is_the_soi_carrier(self):
        tree = mutated(DEFAULT, ("soi", "carrier_hz"), 1.0e9)
        del tree["interference"]["carrier_hz"]
        assert from_tree(tree).interference.carrier_hz == 1.0e9

    @pytest.mark.parametrize("keys", [("interference", "isr_db"),
                                      ("channel", "paths", "a22", "gain_db"),
                                      ("sweep", "format_isr_db")])
    def test_db_bound_is_inclusive(self, keys):
        for value in (-300.0, 300.0):
            assert problems(DEFAULT, keys, value) == []
        assert problems(DEFAULT, keys, 300.5) == [
            f"{'.'.join(keys)}: must be within +-300 dB, got 300.5"]

    @pytest.mark.parametrize("keys", [("sim", "seed"),
                                      ("canceller", "ica", "seed")])
    def test_negative_seed_rejected(self, keys):
        assert problems(DEFAULT, keys, -1)[0].startswith(".".join(keys))


class TestRules:
    def test_nlms_true_names_the_removal(self):
        with pytest.raises(ConfigError) as err:
            from_tree(mutated(DEFAULT, ("canceller", "nlms"), True))
        assert err.value.fields[0].startswith("canceller.nlms:")
        assert "removed" in err.value.fields[0]

    def test_butterworth_needs_f3db_and_order(self):
        bad = problems(DEFAULT, ("channel", "paths", "a12", "response"),
                       {"kind": "butterworth_lowpass"})
        assert [p.split(":")[0] for p in bad] == [
            "channel.paths.a12.response.f3db_hz",
            "channel.paths.a12.response.order"]

    @pytest.mark.parametrize("value, valid", [
        (1.0e-30, True), (1.0e30, True), (1.0e-31, False), (1.0e31, False),
        pytest.param(1.0e305, False, id="1e305")])
    def test_soi_power_within_300_db_of_one(self, value, valid, tmp_path,
                                            capsys):
        """At 1e305 the ISR calibration's power ratio underflows to zero:
        the power must lie within +-300 dB of 1, or the file is refused,
        named, at exit 1 and without a traceback."""
        tree = mutated(DEFAULT, ("soi", "power"), value)
        if valid:
            assert validate_tree(tree) == []
            return
        assert validate_tree(tree) == [
            f"soi.power: must be in [1e-30, 1e+30], got {value!r}"]
        path = tmp_path / "power.yaml"
        path.write_text(yaml.safe_dump(tree))
        assert main(["run", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "soi.power" in err and "Traceback" not in err

    @pytest.mark.parametrize("order", [64, 10**9])
    def test_butterworth_order_bounded(self, order, tmp_path, capsys):
        """Past order 24 the Butterworth response loses its accuracy (94%
        off in |H| at 64) and then its memory (gigabytes at 10**9)."""
        tree = copy.deepcopy(SHIPPED["spectral_response.yaml"])
        tree["channel"]["paths"]["a12"]["response"]["order"] = 24
        assert validate_tree(tree) == []
        tree["channel"]["paths"]["a12"]["response"]["order"] = order
        assert validate_tree(tree) == [
            f"channel.paths.a12.response.order: must be in [1, 24], "
            f"got {order}"]
        path = tmp_path / "order.yaml"
        path.write_text(yaml.safe_dump(tree))
        assert main(["validate-config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "channel.paths.a12.response.order" in err
        assert "Traceback" not in err

    def test_a21_must_be_zero_in_reference_mode(self):
        bad = problems(DEFAULT, ("channel", "paths", "a21"), {"zero": False})
        assert [p.split(":")[0] for p in bad] == ["channel.paths.a21"]

    @pytest.mark.parametrize("keys, value", [
        (("channel", "reference_mode"), False),
        (("channel", "paths", "a21"), {"zero": True, "gain_db": -20.0}),
        (("channel", "paths", "a21"), {"zero": 1})])
    def test_a21_is_always_zero(self, keys, value):
        """The model has no a21 entry: only the values it implies parse."""
        bad = problems(DEFAULT, keys, value)
        assert [p.split(":")[0] for p in bad] == [".".join(keys)]
        assert "only" in bad[0]

    @pytest.mark.parametrize("keys, value", [
        (("canceller", "max_lag_s"), 1.0e-3),
        (("canceller", "training_window"), 80),
        (("sweep", "train_samples"), 80)])
    def test_lag_search_below_a_quarter_of_training(self, keys, value,
                                                    tmp_path, capsys):
        """max_lag_s is 20 samples: the window and the sweep's training
        record need more than 80, or the delay search stops the run."""
        tree = mutated(DEFAULT, keys, value)
        assert {p.split(":")[0] for p in validate_tree(tree)} == {
            "canceller.max_lag_s"}
        path = tmp_path / "lag.yaml"
        path.write_text(yaml.safe_dump(tree))
        assert main(["run", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 1
        assert "canceller.max_lag_s" in capsys.readouterr().err
        if value == 80:
            assert problems(DEFAULT, keys, 84) == []

    def test_record_over_budget_rejected(self):
        # 40 samples per symbol: the record passes 2**26 samples here
        n = RECORD_BUDGET // 40
        bad = problems(DEFAULT, ("sim", "n_symbols"), n)
        assert [p.split(":")[0] for p in bad] == ["sim.n_symbols"]
        assert problems(DEFAULT, ("sim", "n_symbols"), n - 16) == []

    @pytest.mark.parametrize("key, value", [
        ("probe_samples", -5), ("probe_samples", 0),
        ("probe_samples", 10**12), ("train_samples", 0),
        ("train_samples", 10**12), ("probe_offset_hz", 1.0e12),
        ("probe_offset_hz", -95.1e6)])
    def test_sweep_section_bounded(self, key, value, tmp_path, capsys):
        """Sample counts lie in [1, 2**26], and the probe's depth band,
        5 MHz either side of its offset, inside the sampled band."""
        tree = mutated(SHIPPED["spectral_response.yaml"], ("sweep", key), value)
        assert [p.split(":")[0] for p in validate_tree(tree)] == [
            f"sweep.{key}"]
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump(tree))
        assert main(["sweep-freq", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 1
        assert f"sweep.{key}" in capsys.readouterr().err

    def test_sweep_section_bounds_inclusive(self):
        tree = SHIPPED["spectral_response.yaml"]
        rate = tree["sim"]["sample_rate_hz"]
        for key, value in (("probe_samples", LEAST_PROBE),
                           ("train_samples", RECORD_BUDGET),
                           ("probe_offset_hz", -(rate / 2 - 5e6))):
            assert problems(tree, ("sweep", key), value) == []

    @pytest.mark.parametrize("value", [16, 134, 135, LEAST_PROBE - 1])
    def test_probe_leaves_a_welch_segment(self, value, tmp_path, capsys):
        """A probe too short for a 3-sample Welch segment once its delays
        and margins are cut is a config error, named, at exit 1: not error
        cells at exit 0 (16), an IndexError (134) or a nan depth (135)."""
        tree = mutated(SHIPPED["spectral_response.yaml"],
                       ("sweep", "probe_samples"), value)
        bad = validate_tree(tree)
        assert [p.split(":")[0] for p in bad] == ["sweep.probe_samples"]
        assert f"must be >= {LEAST_PROBE}" in bad[0]
        path = tmp_path / "probe.yaml"
        path.write_text(yaml.safe_dump(tree))
        for command in (["validate-config"],
                        ["sweep-freq", "--out", str(tmp_path / "out")]):
            assert main(command + ["--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert "sweep.probe_samples" in err and "Traceback" not in err

    def test_least_probe_measures_every_carrier(self):
        cfg = from_tree(mutated(SHIPPED["spectral_response.yaml"],
                                ("sweep", "probe_samples"), LEAST_PROBE))
        rows = runner.sweep_frequency(cfg, cfg.sweep.carriers_hz)
        assert all(row["error"] == "" and math.isfinite(row["depth_db"])
                   for row in rows)

    def test_probe_rule_only_with_carriers(self):
        """No carriers, no probe: a run's config keeps its sweep defaults."""
        assert problems(DEFAULT, ("sweep", "probe_samples"), 16) == []

    def test_sixteenfold_record_within_budget(self):
        tree = SHIPPED["evm_vs_isr.yaml"]
        span = tree["soi"]["span_symbols"]
        n = 16 * (tree["sim"]["n_symbols"] + span) - span
        assert problems(tree, ("sim", "n_symbols"), n) == []


def key_paths(node, prefix=()):
    """Every key path of a tree, sections included."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def wrong_type(value):
    if isinstance(value, bool):
        return 0
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return 1.5
    if isinstance(value, list):
        return "a"
    return 3


MUTATIONS = {
    "wrong type": wrong_type,
    "bool": lambda value: True,
    "string": lambda value: "x",
    "list": lambda value: [1, 2],
    "none": lambda value: None,
}


@st.composite
def single_field_mutations(draw):
    """A shipped config with one entry retyped, replaced or deleted."""
    tree = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    *parents, last = draw(st.sampled_from(list(key_paths(tree))))
    node = tree
    for key in parents:
        node = node[key]
    how = draw(st.sampled_from(sorted(MUTATIONS) + ["delete"]))
    if how == "delete":
        del node[last]
    else:
        node[last] = MUTATIONS[how](node[last])
    return tree


@settings(max_examples=400, deadline=None, database=None)
@given(tree=single_field_mutations())
def test_single_field_mutation_builds_or_raises_config_error(
        tree, tmp_path_factory):
    try:
        from_tree(tree)
        valid = True
    except ConfigError as exc:
        assert exc.fields
        valid = False
    assert (validate_tree(tree) == []) == valid
    path = tmp_path_factory.getbasetemp() / "mutated.yaml"
    path.write_text(yaml.safe_dump(tree))
    assert main(["validate-config", "--config", str(path)]) == (0 if valid
                                                                else 1)
