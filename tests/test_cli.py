"""Tests for the command-line interface and its exit-code contract."""

import ast
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from rfcancel import cli, runner
from rfcancel.cli import main

GOOD = {
    "schema_version": 1,
    "soi": {"format": "qpsk", "symbol_rate_hz": 5.0e6,
            "carrier_hz": 2.4e9, "power": 1.0},
    "interference": {"deviation_pp_hz": 8.0e7, "mod_noise_bw_hz": 1.0e7,
                     "carrier_hz": 2.4e9, "isr_db": 9.0},
    "channel": {
        "reference_mode": True,
        "paths": {
            "a11": {"gain_db": 0.0},
            "a12": {"gain_db": 0.0, "delay_s": 2.5e-8},
            "a21": {"zero": True},
            "a22": {"gain_db": 0.0, "delay_s": 1.0e-8},
        },
    },
    "canceller": {"mode": "reference", "training_window": 65536},
    "sim": {"sample_rate_hz": 2.0e8, "n_symbols": 1024, "seed": 5},
    "outputs": {"directory": "out", "csv": ["report"]},
    "sweep": {"isr_db": [0.0, 9.0]},
}


def write_cfg(tmp_path, tree, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree))
    return str(path)


class TestValidateConfig:
    def test_ok(self, tmp_path, capsys):
        path = write_cfg(tmp_path, GOOD)
        assert main(["validate-config", "--config", path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_reports_every_field(self, tmp_path, capsys):
        bad = json.loads(json.dumps(GOOD))
        bad["soi"]["format"] = "am"
        del bad["sim"]["seed"]
        path = write_cfg(tmp_path, bad)
        assert main(["validate-config", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "soi.format" in err
        assert "sim.seed" in err

    def test_missing_file(self, capsys):
        assert main(["validate-config", "--config", "/nonexistent.yaml"]) == 1

    def test_directory_exit_1(self, tmp_path, capsys):
        """A config path that cannot be read fails as a missing one does."""
        assert main(["validate-config", "--config", str(tmp_path)]) == 1
        assert str(tmp_path) in capsys.readouterr().err

    def test_undecodable_exit_2(self, tmp_path, capsys):
        """A config that is not UTF-8 fails as bad YAML does."""
        path = tmp_path / "latin1.yaml"
        path.write_bytes("soi: {format: qpsk}  # r\xe9f\n".encode("latin-1"))
        assert main(["validate-config", "--config", str(path)]) == 2
        assert str(path) in capsys.readouterr().err


class TestRun:
    def test_run_writes_report(self, tmp_path, capsys):
        path = write_cfg(tmp_path, GOOD)
        out = str(tmp_path / "artifacts")
        assert main(["run", "--config", path, "--out", out]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "reference"
        assert (tmp_path / "artifacts" / "report.json").exists()

    def test_seed_override(self, tmp_path, capsys):
        path = write_cfg(tmp_path, GOOD)
        out = str(tmp_path / "a")
        main(["run", "--config", path, "--out", out, "--seed", "77"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 77

    @pytest.mark.parametrize("command", ["run", "validate-config"])
    def test_negative_seed_override_exit_1(self, command, tmp_path, capsys):
        """The --seed override goes through the schema's sim.seed rule."""
        path = write_cfg(tmp_path, GOOD)
        assert main([command, "--config", path, "--out", str(tmp_path / "a"),
                     "--seed", "-1"]) == 1
        assert "invalid: sim.seed: must be >= 0" in capsys.readouterr().err

    def test_config_error_exit_1(self, tmp_path, capsys):
        bad = json.loads(json.dumps(GOOD))
        bad["canceller"]["mode"] = "psychic"
        path = write_cfg(tmp_path, bad)
        assert main(["run", "--config", path]) == 1

    def test_runtime_error_exit_2(self, tmp_path):
        bad = json.loads(json.dumps(GOOD))
        # schema-valid but physically impossible: delay beyond the record
        bad["channel"]["paths"]["a12"]["delay_s"] = 1.0
        path = write_cfg(tmp_path, bad)
        assert main(["run", "--config", path,
                     "--out", str(tmp_path / "x")]) == 2

    def test_out_under_a_file_exit_2(self, tmp_path, capsys):
        """An artifact directory that cannot be made is a runtime error."""
        path = write_cfg(tmp_path, GOOD)
        out = str(tmp_path / "scenario.yaml" / "x")
        assert main(["run", "--config", path, "--out", out]) == 2
        assert out in capsys.readouterr().err

    def test_out_is_a_file_exit_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, GOOD)
        assert main(["sweep-isr", "--config", path, "--out", path]) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("command, work", [
        ("sweep-isr", "synthesize_sources"),
        ("compare-bss", "synthesize_sources"),
        ("sweep-freq", "train_sweep_taps"),
    ])
    def test_out_is_a_file_fails_before_the_work(self, command, work,
                                                 tmp_path, monkeypatch,
                                                 capsys):
        """The artifact directory is made before any synthesis or
        training, so an --out that cannot be one costs no work."""
        calls = []
        real = getattr(runner, work)
        monkeypatch.setattr(runner, work,
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        path = write_cfg(tmp_path, GOOD)
        assert main([command, "--config", path, "--out", path]) == 2
        assert calls == []
        assert path in capsys.readouterr().err

    def test_bad_yaml_exit_2(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("soi: [unclosed")
        assert main(["run", "--config", str(path)]) == 2


class TestSweeps:
    def test_sweep_isr(self, tmp_path, capsys):
        path = write_cfg(tmp_path, GOOD)
        out = str(tmp_path / "s")
        assert main(["sweep-isr", "--config", path, "--out", out]) == 0
        assert (tmp_path / "s" / "sweep_isr.csv").exists()
        text = capsys.readouterr().out
        assert text.startswith("isr_db,")

    def test_empty_sweep(self, tmp_path, capsys):
        tree = json.loads(json.dumps(GOOD))
        tree["sweep"] = {}
        path = write_cfg(tmp_path, tree)
        assert main(["sweep-isr", "--config", path,
                     "--out", str(tmp_path / "s")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_compare_bss(self, tmp_path, capsys):
        tree = json.loads(json.dumps(GOOD))
        tree["channel"]["paths"]["a12"]["delay_s"] = 0.0
        tree["channel"]["paths"]["a22"]["delay_s"] = 0.0
        path = write_cfg(tmp_path, tree)
        out = str(tmp_path / "cmp")
        assert main(["compare-bss", "--config", path, "--out", out]) == 0
        lines = (tmp_path / "cmp" / "compare_bss.csv").read_text().splitlines()
        assert lines[0].startswith("method,")
        assert len(lines) == 3


def _set(*keys, value):
    """A mutation of GOOD that sets the entry at ``keys`` to ``value``."""
    def mutate(tree):
        node = tree
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
    return mutate


BUTTERWORTH = {"kind": "butterworth_lowpass", "f3db_hz": 9.0e9, "order": 4}

# inputs that ended in a traceback or ran on defaults, and the field each
# must name
BAD_INPUTS = {
    "f3db_hz as text": (
        _set("channel", "paths", "a12", "response",
             value=dict(BUTTERWORTH, f3db_hz="9e9")),
        "channel.paths.a12.response.f3db_hz"),
    "order as a word": (
        _set("channel", "paths", "a12", "response",
             value=dict(BUTTERWORTH, order="four")),
        "channel.paths.a12.response.order"),
    "path as a list": (_set("channel", "paths", "a11", value=[1, 2]),
                       "channel.paths.a11"),
    "phase as text": (_set("channel", "paths", "a12", "phase_deg", value="x"),
                      "channel.paths.a12.phase_deg"),
    "ica seed as text": (_set("canceller", "ica", "seed", value="z"),
                         "canceller.ica.seed"),
    "probe samples as text": (_set("sweep", "probe_samples", value="many"),
                              "sweep.probe_samples"),
    "soi as a string": (_set("soi", value="qpsk"), "soi"),
    "paths as a string": (_set("channel", "paths", value="x"),
                          "channel.paths"),
    "formats as a string": (_set("sweep", "formats", value="qpsk"),
                            "sweep.formats"),
}


class TestBadInputs:
    @pytest.mark.parametrize("command", ["validate-config", "run"])
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exit_1_naming_the_field(self, case, command, tmp_path, capsys):
        mutate, field = BAD_INPUTS[case]
        tree = json.loads(json.dumps(GOOD))
        mutate(tree)
        path = write_cfg(tmp_path, tree)
        assert main([command, "--config", path,
                     "--out", str(tmp_path / "out")]) == 1
        assert f"invalid: {field}:" in capsys.readouterr().err

    def test_bool_symbol_rate_is_not_1_hz(self, tmp_path, capsys):
        # validate-config only: a run at 1 Hz would ask for 24 GiB
        tree = json.loads(json.dumps(GOOD))
        tree["soi"]["symbol_rate_hz"] = True
        path = write_cfg(tmp_path, tree)
        assert main(["validate-config", "--config", path]) == 1
        assert "invalid: soi.symbol_rate_hz:" in capsys.readouterr().err

    def test_bare_off_mode_says_to_quote_it(self, tmp_path, capsys):
        """YAML 1.1 reads a bare ``off`` as false: the message says so."""
        text = (ROOT / "configs" / "default.yaml").read_text()
        assert "  mode: reference\n" in text
        path = tmp_path / "off.yaml"
        path.write_text(text.replace("  mode: reference\n", "  mode: off\n"))
        assert main(["validate-config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "invalid: canceller.mode: must be a string" in err
        assert "so quote the value" in err

    # finite dB values whose 10**(x/20) overflowed, with a command that
    # reaches each field
    HUGE_DB = {
        "interference.isr_db": (_set("interference", "isr_db", value=1e308),
                                "run"),
        "channel.paths.a12.gain_db": (
            _set("channel", "paths", "a12", "gain_db", value=1e308), "run"),
        "sweep.isr_db": (_set("sweep", "isr_db", value=[0.0, -1e308]),
                         "sweep-isr"),
        "sweep.format_isr_db": (
            _set("sweep", "format_isr_db", value=1e308), "sweep-format"),
    }

    @pytest.mark.parametrize("field", sorted(HUGE_DB))
    def test_huge_db_exit_1(self, field, tmp_path, capsys):
        mutate, command = self.HUGE_DB[field]
        tree = json.loads(json.dumps(GOOD))
        mutate(tree)
        path = write_cfg(tmp_path, tree)
        for cmd in ("validate-config", command):
            assert main([cmd, "--config", path,
                         "--out", str(tmp_path / "out")]) == 1
            assert f"invalid: {field}: must be within +-300 dB" in (
                capsys.readouterr().err)


ROOT = Path(__file__).resolve().parents[1]


def test_commands_run_without_scipy(tmp_path):
    """With scipy unimportable, a fresh interpreter runs `run` and
    `sweep-freq` on the residual-refine scenario and `run` on the default
    one: the package needs numpy and PyYAML only."""
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from rfcancel import cli\n"
            "out = sys.argv[1]\n"
            "sys.exit(cli.main(['run', '--config', "
            "'configs/spectral_response.yaml', '--out', out + '/run'])\n"
            "         or cli.main(['sweep-freq', '--config', "
            "'configs/spectral_response.yaml', '--out', out + '/freq'])\n"
            "         or cli.main(['run', '--config', 'configs/default.yaml', "
            "'--out', out + '/default']))")
    proc = _python(code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "freq" / "sweep_freq.csv").is_file()


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter at the repository root, with
    the package's sources first on its path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


def test_package_imports_no_scipy():
    """No import statement under src/rfcancel names scipy, at module
    level or inside a function."""
    for path in sorted((ROOT / "src" / "rfcancel").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (
                f"{path.name}:{node.lineno} imports {names}")


GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


class TestAllocatorThresholds:
    """The CLI sets glibc's mmap and trim thresholds (``cli.
    _keep_records_on_heap``), so records freed by one sweep row or band
    stay on the heap for the next."""

    @pytest.mark.skipif(not GLIBC, reason="glibc's malloc thresholds")
    @pytest.mark.parametrize("command, config", [
        ("sweep-isr", "configs/evm_vs_isr.yaml"),
        ("run", "configs/default.yaml"),
    ])
    def test_second_call_faults_no_record_pages(self, command, config,
                                                tmp_path):
        """Under glibc's dynamic thresholds the second call faulted about
        17,000 (sweep-isr) and 4,700 (run) fresh pages, its records' worth;
        with the CLI's thresholds a few dozen."""
        code = ("import contextlib, io, resource, sys\n"
                "from rfcancel import cli\n"
                "def faults():\n"
                "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert cli.main(sys.argv[1:]) == 0\n"
                "    before = faults()\n"
                "    assert cli.main(sys.argv[1:]) == 0\n"
                "    after = faults()\n"
                "print(after - before)\n")
        proc = _python(code, command, "--config", config,
                       "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 1000

    @pytest.mark.parametrize("command", ["run", "sweep-isr"])
    @pytest.mark.parametrize("failure", ["not glibc", "no library",
                                         "no symbol"])
    def test_commands_run_without_it(self, failure, command, monkeypatch,
                                     tmp_path):
        loads = []

        def cdll(name):
            loads.append(name)
            if failure == "no library":
                raise OSError("cannot load the C library")
            return object()     # a library without mallopt

        libc = ("", "") if failure == "not glibc" else ("glibc", "2.36")
        monkeypatch.setattr(platform, "libc_ver", lambda *args: libc)
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        path = write_cfg(tmp_path, GOOD)
        assert main([command, "--config", path,
                     "--out", str(tmp_path / "out")]) == 0
        assert loads == ([] if failure == "not glibc" else [None])

    def test_validate_config_leaves_the_allocator(self, monkeypatch,
                                                  tmp_path):
        """validate-config, the command whose start-up the benchmark times
        as setup_s, returns before the setting is made."""
        def refuse():
            raise AssertionError("the allocator setting was made")

        monkeypatch.setattr(cli, "_keep_records_on_heap", refuse)
        path = write_cfg(tmp_path, GOOD)
        assert main(["validate-config", "--config", path]) == 0
        with pytest.raises(AssertionError, match="setting was made"):
            main(["run", "--config", path, "--out", str(tmp_path / "out")])

    def test_imports_leave_the_allocator(self):
        """The setting holds for the whole process: importing the package,
        the runner or the CLI loads no C library to make it."""
        code = ("import ctypes\n"
                "def refuse(*args, **kwargs):\n"
                "    raise AssertionError(f'CDLL{args}')\n"
                "ctypes.CDLL = refuse\n"
                "import rfcancel, rfcancel.runner, rfcancel.cli\n")
        proc = _python(code)
        assert proc.returncode == 0, proc.stderr
