"""Command-line frontend: construct covers, verify them, compute intersections.

Subcommands: construct | verify | intersection | report.  Configuration comes
from flags, optionally layered over a JSON file (`--config`, flags win), with
the environment variable GALOIS_EMBED_SEED overriding the seed last.  Reports
are emitted as deterministic JSON: fixed key order, floats at 17 significant
digits, atomic write.  Exit codes: 0 success/pass, 1 verification failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import EllcoverError, ConfigError
from .polarization import (
    PolarizationMatrix,
    chi,
    mixed_intersection,
    self_intersection,
)

if TYPE_CHECKING:
    from .covers import VerificationReport

# This module is the argparse front end and the `intersection` command, so
# `intersection` compiles and loads only it, `errors` and `polarization`.
# Everything else is imported inside the commands that use it: config
# resolution, the JSON writer and the `report` renderer from `commands`
# (for `construct`, `verify` and `report`), the cover layers from
# `construction` on, and numpy only with `verify` (covers, symfun, batch).
# No command loads `dataclasses` or `isogeny`, `intersection` and `report`
# load no `fractions`, and `construct` and `verify` load `json` only to
# read a `--config` file or to quote a string that is not printable ASCII.

SEED_ENV_VAR = "GALOIS_EMBED_SEED"


def _parse_matrix(text: str) -> PolarizationMatrix:
    try:
        rows = [
            [int(entry) for entry in row.split()]
            for row in text.strip().split(";")
        ]
        return PolarizationMatrix(tuple(tuple(r) for r in rows))
    except (ValueError, EllcoverError) as exc:
        raise ConfigError(f"cannot parse matrix {text!r}: {exc}") from exc


def _parse_matrix_power(text: str) -> tuple[PolarizationMatrix, int]:
    head, sep, exp = text.rpartition(":")
    if not sep:
        raise ConfigError(f"expected 'MATRIX:exponent', got {text!r}")
    try:
        a = int(exp)
    except ValueError as exc:
        raise ConfigError(f"bad exponent in {text!r}") from exc
    return _parse_matrix(head), a


def cmd_construct(args: argparse.Namespace) -> int:
    from .commands import _resolve_config, construct

    return construct(_resolve_config(args, SEED_ENV_VAR))


def galois_verify(*args, **kwargs) -> VerificationReport:
    """`covers.galois_verify`, imported at call time to keep numpy off the
    exact commands.  `cmd_verify` calls it through this module-level name,
    so rebinding `cli.galois_verify` (as `perfbench/inproc.py` does to time
    verification) takes effect."""
    from .covers import galois_verify as verify

    return verify(*args, **kwargs)


def cmd_verify(args: argparse.Namespace) -> int:
    from .commands import _emit, _report_payload, _resolve_config
    from .covers import check_probe_grid, criterion_check

    cfg = _resolve_config(args, SEED_ENV_VAR)
    spec = cfg.build_spec()
    check_probe_grid(spec)  # before any sample is verified
    report = galois_verify(
        spec,
        samples=cfg.samples,
        seed=cfg.seed,
        eps_pt=cfg.eps_pt,
        eps_proj=cfg.eps_proj,
        jobs=cfg.jobs,
    )
    criterion = criterion_check(spec, seed=cfg.seed, eps_proj=cfg.eps_proj)
    payload = _report_payload(cfg, spec, report, criterion)
    _emit(cfg, payload)
    if cfg.output:
        generic = sum(1 for r in report.samples if r.generic)
        print(
            f"verify {spec.construction}: group order {spec.group.order}, "
            f"{generic}/{len(report.samples)} generic samples, "
            f"pass={payload['pass']} -> {cfg.output}"
        )
    return 0 if payload["pass"] else 1


def cmd_intersection(args: argparse.Namespace) -> int:
    modes = [m for m in ("self_", "mixed", "chi_") if getattr(args, m) is not None]
    if len(modes) != 1:
        raise ConfigError("pass exactly one of --self, --mixed, --chi")
    if args.self_ is not None:
        print(self_intersection(_parse_matrix(args.self_)))
    elif args.chi_ is not None:
        print(chi(_parse_matrix(args.chi_)))
    else:
        terms = [_parse_matrix_power(t) for t in args.mixed]
        print(mixed_intersection(terms))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .commands import report

    return report(args.path)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; explicit flags win")
    p.add_argument("--construction", choices=("A", "B"))
    p.add_argument("--d", type=int)
    p.add_argument("--tau", help='period ratio, e.g. "0.3+1.1i"')
    p.add_argument(
        "--q0",
        action="append",
        help='rational generator "p/q,r/s"; repeat for a second generator',
    )
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--eps-pt", dest="eps_pt", type=float)
    p.add_argument("--eps-proj", dest="eps_proj", type=float)
    p.add_argument("--order-cap", dest="order_cap", type=int)
    p.add_argument("--output", help="write the JSON report to this path")
    p.add_argument("--jobs", type=int, help="threads that verify chunks of samples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellcover",
        description="Galois covers of P^d from self-products of an elliptic curve",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build a cover and print its summary")
    _add_config_flags(p_construct)
    p_construct.set_defaults(func=cmd_construct)

    p_verify = sub.add_parser("verify", help="run the Galois verification suite")
    _add_config_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_inter = sub.add_parser("intersection", help="exact intersection numbers")
    p_inter.add_argument("--self", dest="self_", help='matrix "a b;c d"')
    p_inter.add_argument("--chi", dest="chi_", help='matrix "a b;c d"')
    p_inter.add_argument(
        "--mixed", nargs="+", help='terms "a b;c d":exponent with exponents summing to d'
    )
    p_inter.set_defaults(func=cmd_intersection)

    p_report = sub.add_parser("report", help="render a saved verification report")
    p_report.add_argument("path")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EllcoverError as exc:
        kind = "" if isinstance(exc, ConfigError) else f"{type(exc).__name__}: "
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
