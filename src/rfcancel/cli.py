"""Command-line experiment runner.

Subcommands map one-to-one onto the runner operations; every experiment is
described by a YAML scenario file.  Exit codes: 0 success; 1 config error,
or a config file that cannot be read; 2 runtime error, a config that cannot
be decoded, or an artifact path that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import os
import platform
import sys

import yaml

from . import runner
from .config import load_config, with_seed
from .errors import ConfigError, RfCancelError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfcancel",
        description="Reference-aided RF interference cancellation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute one scenario and write its artifacts"),
        ("sweep-isr", "EVM vs interference-to-SOI ratio sweep"),
        ("sweep-freq", "cancellation depth vs RF carrier sweep"),
        ("sweep-format", "EVM per modulation format at fixed ISR"),
        ("compare-bss", "reference-aided vs blind separation on one scenario"),
        ("validate-config", "schema-check a scenario file"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario YAML file")
        p.add_argument("--out", default=None, help="artifact directory "
                       "(defaults to the config's outputs.directory)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            cfg = load_config(args.config)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.seed is not None:
            cfg = with_seed(cfg, args.seed)
        if args.command == "validate-config":
            print(f"{args.config}: ok")
            return 0
        _keep_records_on_heap()
        out_dir = args.out or cfg.outputs.directory
        # made before any work, so a path that cannot hold it fails at once
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "run":
            print(runner.run(cfg, out_dir).to_json())
        elif args.command == "sweep-isr":
            _print_rows(runner.sweep_isr(cfg, cfg.sweep.isr_db, out_dir))
        elif args.command == "sweep-freq":
            _print_rows(runner.sweep_frequency(cfg, cfg.sweep.carriers_hz,
                                               out_dir))
        elif args.command == "sweep-format":
            _print_rows(runner.sweep_format(cfg, cfg.sweep.formats, out_dir))
        elif args.command == "compare-bss":
            _print_rows(runner.compare_separators(cfg, out_dir))
    except ConfigError as exc:
        for item in exc.fields:
            print(f"invalid: {item}", file=sys.stderr)
        return 1
    except (RfCancelError, yaml.YAMLError) as exc:
        origin = _originating_module(exc)
        where = f" [{origin}]" if origin else ""
        print(f"error: {type(exc).__name__}{where}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:      # an artifact path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


# mallopt(3) parameters, and the ceiling of glibc's dynamic mmap threshold
# (DEFAULT_MMAP_THRESHOLD_MAX on 64-bit)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 * 2**20


def _keep_records_on_heap() -> None:
    """Set glibc's mmap threshold to 32 MiB and its trim threshold to 64 MiB.

    Under glibc's dynamic rule, freeing an mmapped record raises the mmap
    threshold to the record's size and the trim threshold to twice that,
    so with records of a few MB the heap top is trimmed whenever a sweep
    row or a band frees its records, and the next one faults the same
    pages in again.  These values are where that rule stops on its own;
    set from the start, records below 32 MiB stay on the heap between rows
    and larger ones are still mmapped.  The setting holds for the whole
    process, so the program makes it, not the library.  Elsewhere than on
    glibc, or if ``mallopt`` cannot be loaded, the allocator is left as
    it is.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def _originating_module(exc: BaseException) -> str:
    """Deepest package module in the traceback, for error attribution."""
    module = ""
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("rfcancel."):
            module = name
        tb = tb.tb_next
    return module


def _print_rows(rows: list[dict]) -> None:
    if not rows:
        print("(empty sweep)")
        return
    header = list(rows[0].keys())
    # csv quoting keeps an error message with a comma in its own cell
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([row[h] for h in header] for row in rows)


if __name__ == "__main__":
    sys.exit(main())
