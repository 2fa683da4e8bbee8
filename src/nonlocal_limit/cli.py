"""Command-line front end.

Exit codes: 0 on success; 1 on validation errors (bad config or arguments,
argparse's usage errors included, missing files), a run too long to record
or a dead worker process; 2 when a solver blows up or meets a wrong-signed
flux velocity.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, ModeViolationError, NumericalBlowupError
from .harness import (
    emit_plot_script,
    parse_config,
    run_single,
    run_stability_probe,
    run_sweep,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code kept here for solver
    failures; this parser and its subcommand parsers exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nonlocal-limit",
        description="Simulate nonlocal conservation laws and measure their "
                    "small-kernel-width limit against a local Godunov reference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="single nonlocal run at one eta")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--eta", required=True, type=float,
                       help="kernel width; must appear in the config's eta_list")
    run_p.add_argument("--out", required=True, help="output directory")

    sweep_p = sub.add_parser("sweep", help="eta sweep against a local reference")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--out", required=True)

    stab_p = sub.add_parser("stability", help="perturbed-datum stability probe")
    stab_p.add_argument("--config", required=True)
    stab_p.add_argument("--delta", required=True, type=float,
                        help="L1 size of the datum perturbation")
    stab_p.add_argument("--out", required=True)

    plot_p = sub.add_parser("plot", help="emit a plotting script for existing CSVs")
    plot_p.add_argument("--config", required=True)
    plot_p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config_path = Path(args.config)
        if not config_path.is_file():
            raise ConfigError(f"config file {config_path} does not exist")
        cfg = parse_config(config_path.read_text(encoding="utf-8"))
        if args.command == "run":
            run_single(cfg, args.eta, output_dir=args.out)
        elif args.command == "sweep":
            run_sweep(cfg, output_dir=args.out)
        elif args.command == "stability":
            distance = run_stability_probe(cfg, args.delta, output_dir=args.out)
            print(f"delta={args.delta:g} sup_time_l1={distance:.6g}")
        elif args.command == "plot":
            path = emit_plot_script(cfg, output_dir=args.out)
            print(f"wrote {path}")
    except NumericalBlowupError as exc:
        print(f"numerical blowup: {exc}", file=sys.stderr)
        return 2
    except ModeViolationError as exc:
        print(f"mode violation: {exc}, or the density left the velocity model's "
              "admissible range", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
