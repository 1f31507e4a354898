#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the rfcancel CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py [--workload isr_sweep|multiband|long_record|all]
                         [--seed N] [--seconds S] [--trace 0|1] [--quick]
                         [--scale K]

Each workload's input is a YAML file derived from a shipped config and
written under .bench_out/inputs; ``--seed N`` sets its ``sim.seed`` (the
default keeps each shipped seed).  An op is one in-process call of
``rfcancel.cli.main([...])`` per input file -- what ``rfcancel <cmd>`` does
after start-up -- with stdout discarded and artifacts written to a
temporary directory that is deleted after the op's output checks.  Ops run
back to back from one thread (closed loop, one caller).

With ``--trace 0`` the last stdout line holds the end-to-end metrics
(setup_s, op_s, peak_rss_mb); with ``--trace 1`` it holds the per-layer
metrics of a traced run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("isr_sweep", "multiband", "long_record")
# fresh-interpreter launches per setup_s sample, after one untimed launch
# that warms the file cache and writes bytecode
SETUP_LAUNCHES = 5
ALL_KINDS = ["report", "constellation", "psd", "depth_curve", "waveforms"]
LONG_RECORD_SCALE = 16


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_yaml(path: str) -> dict:
    import yaml

    with open(path) as fh:
        return yaml.safe_load(fh)


def workload_inputs(workload: str, seed: int | None, quick: bool,
                    scale: int) -> tuple[str, list[dict]]:
    """(CLI command, config trees) for one workload."""
    if workload == "multiband":
        proto = os.path.join(CONFIGS, "protocols")
        trees = [load_yaml(os.path.join(proto, name))
                 for name in sorted(os.listdir(proto)) if name.endswith(".yaml")]
        trees.sort(key=lambda t: t["soi"]["carrier_hz"])
        if quick:
            trees = [trees[0], trees[-1]]
        for tree in trees:
            tree["outputs"]["csv"] = list(ALL_KINDS)
        command = "run"
    else:
        tree = load_yaml(os.path.join(CONFIGS, "evm_vs_isr.yaml"))
        if workload == "isr_sweep":
            command = "sweep-isr"
            if quick:
                tree["sweep"]["isr_db"] = [-5.0, 18.0]
        else:
            command = "run"
            # a record `scale` times the shipped one, edge span included
            span = tree["soi"]["span_symbols"]
            k = 1 if quick else scale
            tree["sim"]["n_symbols"] = k * (tree["sim"]["n_symbols"] + span) - span
            tree["outputs"]["csv"] = ["report"]
        trees = [tree]
    if seed is not None:
        for tree in trees:
            tree["sim"]["seed"] = seed
    return command, trees


def write_inputs(workload: str, trees: list[dict]) -> list[str]:
    import yaml

    d = os.path.join(OUT, "inputs", workload)
    os.makedirs(d, exist_ok=True)
    paths = []
    for i, tree in enumerate(trees):
        path = os.path.join(d, f"{i}_{tree['soi']['carrier_hz']:.0f}hz.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(tree, fh, sort_keys=False)
        paths.append(path)
    return paths


def measure_setup(config_path: str, launches: int, warm: bool) -> list[float]:
    """Wall time of fresh ``python -m rfcancel.cli validate-config`` runs."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-m", "rfcancel.cli", "validate-config",
           "--config", config_path]
    times = []
    for i in range(launches + (1 if warm else 0)):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            fail(f"validate-config exited {proc.returncode}: "
                 f"{proc.stderr.decode(errors='replace').strip()}")
        if i > 0 or not warm:
            times.append(dt)
    return times


def machine_facts() -> dict:
    import numpy as np
    import scipy

    facts = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        facts["blas"] = None
    facts["blas_threads"] = blas_threads()
    try:
        facts["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        facts["git_commit"] = None
    return facts


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through ctypes."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Workload:
    """Runs and checks ops of one workload in this process."""

    def __init__(self, name: str, command: str, trees: list[dict],
                 paths: list[str]) -> None:
        from rfcancel import cli

        import checks

        self.name, self.command = name, command
        self.trees, self.paths = trees, paths
        self.cli, self.checks = cli, checks
        self.tmp = os.path.join(OUT, "tmp")
        os.makedirs(self.tmp, exist_ok=True)
        self.notes: list = []
        self.problems: list[str] = []

    def op(self, before=None, after=None) -> tuple[float, bool]:
        """One op; returns (seconds spent inside cli.main, passed)."""
        elapsed = 0.0
        passed = True
        for tree, path in zip(self.trees, self.paths):
            out_dir = tempfile.mkdtemp(dir=self.tmp)
            try:
                argv = [self.command, "--config", path, "--out", out_dir]
                with open(os.devnull, "w") as sink, \
                        contextlib.redirect_stdout(sink):
                    if before:
                        before()
                    t0 = time.perf_counter()
                    try:
                        rc = self.cli.main(argv)
                    except Exception:  # an op that crashes is a failed op
                        rc = traceback.format_exc()
                    elapsed += time.perf_counter() - t0
                    if after:
                        after()
                if rc != 0:
                    bad = [f"cli.main({argv[0]}) returned {rc}"]
                elif self.command == "sweep-isr":
                    bad = self.checks.check_sweep_isr(tree, out_dir, self.notes)
                else:
                    bad = self.checks.check_run_dir(tree, out_dir, self.notes)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            if bad:
                passed = False
                label = f"{self.name} {tree['soi']['carrier_hz']:.4g} Hz"
                self.problems += [f"{label}: {p}" for p in bad]
        return elapsed, passed


def run_timed(wl: Workload, seconds: float, quick: bool) -> dict:
    results, times = [], []
    first_op_s = None
    if not quick:
        first_op_s, ok = wl.op()               # cold op, not in op_s
        results.append(ok)
    t_start = time.perf_counter()
    while not times or (not quick and time.perf_counter() - t_start < seconds):
        dt, ok = wl.op()
        times.append(dt)
        results.append(ok)
    return {"op_times_s": times, "first_op_s": first_op_s, "passed": results}


def run_traced(wl: Workload, seconds: float, quick: bool) -> dict:
    """Rounds of three ops: untraced, traced for time, traced for memory.

    tracemalloc slows code that allocates many Python objects (the CSV
    export doubles), so self times come from ops traced without it and
    allocation peaks from ops traced with it.  The order rotates per round.
    """
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    results = [] if quick else [wl.op()[1]]
    res = {"plain": [], "spans": [], "memory": []}
    ranges = {"spans": [], "memory": []}
    op_bytes = []

    def traced_op(memory: bool):
        def start():
            if memory:
                tracemalloc.start()
            tracer.memory = memory
            tracer.active = True

        def stop():
            tracer.active = False
            if memory:
                tracemalloc.stop()

        first = len(tracer.spans)
        tracer.bytes_written = 0
        dt, ok = wl.op(start, stop)
        ranges["memory" if memory else "spans"].append(
            (first, len(tracer.spans)))
        if not memory:
            op_bytes.append(tracer.bytes_written)
        return dt, ok

    modes = ("plain", "spans", "memory")
    t_start = time.perf_counter()
    k = 0
    while not res["spans"] or (not quick
                               and time.perf_counter() - t_start < seconds):
        for mode in modes[k % 3:] + modes[:k % 3]:
            dt, ok = wl.op() if mode == "plain" else traced_op(mode == "memory")
            res[mode].append(dt)
            results.append(ok)
        k += 1
    return {"passed": results, "times": res, "ranges": ranges,
            "op_bytes": op_bytes, "tracer": tracer}


# per-function metrics named in bench/README.md: metric -> span names summed
FOCUS = {
    "runner.synthesize.calls": ("runner.synthesize",),
    "channel.apply_path.calls": ("channel.apply_path",),
    "channel.apply_path.self_s": ("channel.apply_path",),
    "channel.fractional_delay.calls": ("channel.fractional_delay",),
    "channel.fractional_delay.self_s": ("channel.fractional_delay",),
    "metrics.welch_psd.calls": ("metrics.welch_psd",),
    "metrics.welch_psd.self_s": ("metrics.welch_psd",),
    "metrics.export.self_s": ("metrics.export_psd_csv",
                              "metrics.export_evm_csv",
                              "metrics.export_depth_csv"),
    "canceller.cancel.calls": ("canceller.cancel",),
}


def per_layer_metrics(res: dict) -> dict:
    import spans

    recorded = res["tracer"].spans
    selfs = spans.self_times(recorded)
    per_op: dict[str, list[float]] = {}

    def add(key, value):
        per_op.setdefault(key, []).append(value)

    for (lo, hi), nbytes in zip(res["ranges"]["spans"], res["op_bytes"]):
        rows = [(recorded[i], selfs[i]) for i in range(lo, hi)]
        for layer in spans.LAYERS:
            mine = [t for s, t in rows if s.layer == layer]
            add(f"{layer}.calls", len(mine))
            add(f"{layer}.self_s", sum(mine) / 1e9)
        for key, names in FOCUS.items():
            mine = [t for s, t in rows if s.name in names]
            add(key, len(mine) if key.endswith(".calls") else sum(mine) / 1e9)
        add("waveform.bytes_written", nbytes)
    for lo, hi in res["ranges"]["memory"]:
        for layer in spans.LAYERS:
            add(f"{layer}.peak_alloc_mb",
                max((recorded[i].peak_alloc for i in range(lo, hi)
                     if recorded[i].layer == layer), default=0) / 2**20)
    metrics = {}
    for key, values in per_op.items():
        unit = ("count" if key.endswith(".calls") else
                "B" if key.endswith("bytes_written") else
                "MB" if key.endswith("_mb") else "s")
        metrics[key] = {"value": statistics.median(values), "unit": unit}
    times = res["times"]
    metrics["trace.overhead_s"] = {
        "value": statistics.median(times["spans"])
        - statistics.median(times["plain"]), "unit": "s"}
    return metrics


def run_workload(args) -> int:
    for need in (os.path.join(SRC, "rfcancel", "cli.py"),
                 os.path.join(CONFIGS, "evm_vs_isr.yaml"),
                 os.path.join(CONFIGS, "protocols")):
        if not os.path.exists(need):
            fail(f"{os.path.relpath(need, ROOT)} not found; run from the "
                 f"root of an rfcancel source checkout")
    sys.path[:0] = [SRC, BENCH_DIR]
    command, trees = workload_inputs(args.workload, args.seed, args.quick,
                                     args.scale)
    paths = write_inputs(args.workload, trees)

    setup = []
    if not args.trace:
        setup = measure_setup(paths[0], 1 if args.quick else SETUP_LAUNCHES,
                              warm=not args.quick)
    facts = machine_facts()
    wl = Workload(args.workload, command, trees, paths)
    if args.trace:
        res = run_traced(wl, args.seconds, args.quick)
        metrics = per_layer_metrics(res)
    else:
        res = run_timed(wl, args.seconds, args.quick)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_s": {"value": statistics.median(res["op_times_s"]), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    attempted = len(res["passed"])
    failed = attempted - sum(res["passed"])
    notes = summarize_notes(wl.notes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stem = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "quick": args.quick, "machine": facts,
              "setup_s_samples": setup, "problems": wl.problems,
              "notes": notes, **result}
    if args.trace:
        record["op_times_s"] = res["times"]
        with open(stem + "-spans.json", "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.peak_alloc]
                       for s in res["tracer"].spans], fh)
    else:
        record.update(op_times_s=res["op_times_s"],
                      first_op_s=res["first_op_s"])
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in wl.problems[:20]:
        print(f"FAILED CHECK: {problem}")
    for key, value in notes.items():
        print(f"note: {key} = {value}")
    for key, m in metrics.items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} ops attempted {attempted}, failed {failed}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


def summarize_notes(notes: list) -> dict:
    out: dict = {}
    misses = [v for k, v in notes if k == "depth_below_30db_at_isr_db"]
    out["paper_depth_misses"] = len(misses)
    if misses:
        out["paper_depth_misses_at_isr_db"] = sorted(set(misses))
    diffs = [abs(v) for k, v in notes
             if k == "depth_minus_closed_form_at_carrier_db"]
    if diffs:
        out["max_abs_depth_minus_closed_form_at_carrier_db"] = max(diffs)
    return out


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 2
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for key, m in part["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="sim.seed of every input (default: shipped seeds)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of the measured part of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="one short op, for the benchmark's own tests")
    parser.add_argument("--scale", type=int, default=LONG_RECORD_SCALE,
                        help="long_record length as a multiple of the shipped "
                             "record (reference figures at 1x and 4x)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
