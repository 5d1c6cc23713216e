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
import math
import os
import sys
from typing import (
    TYPE_CHECKING,
    Optional,
    Sequence,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from .errors import EllcoverError, ConfigError
from .polarization import (
    PolarizationMatrix,
    chi,
    mixed_intersection,
    self_intersection,
)

if TYPE_CHECKING:
    from .construction import CoverSpec, RunConfig
    from .covers import CriterionReport, VerificationReport

# The cover layers are imported inside the commands that use them:
# `intersection` and `report` load none of them, nor `fractions`, and
# `construct` loads `construction` but not the numpy layers (covers,
# symfun, batch).  No command loads `dataclasses`, and `construct` and
# `verify` load `json` only to read a `--config` file or to quote a string
# that is not printable ASCII.

SEED_ENV_VAR = "GALOIS_EMBED_SEED"


def _emit_json(value, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, %.17g floats, 2-space indent."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  "{k}": {_emit_json(v, indent + 1)}' for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq)
        if flat:
            return "[" + ", ".join(_emit_json(v) for v in seq) + "]"
        items = [f"{pad}  {_emit_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return "null"
        return "%.17g" % value
    if value is None:
        return "null"
    if isinstance(value, str):
        # printable ASCII without quote or backslash is its own JSON body
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
        import json

        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _write_atomic(path: str, text: str) -> None:
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc.strerror}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _report_payload(
    cfg: RunConfig,
    spec: CoverSpec,
    report: VerificationReport,
    criterion: CriterionReport,
) -> dict:
    overall = report.passed and criterion.all_ok
    return {
        "config": cfg.as_json_dict(),
        "construction": spec.construction,
        "group_order": spec.group.order,
        "samples": [
            {
                "index": r.index,
                "point": [[p.a, p.b] for p in r.point],
                "generic": r.generic,
                "orbit_size": r.orbit_size,
                "image_spread": r.image_spread,
                "fiber_match": r.fiber_match,
            }
            for r in report.samples
        ],
        "criterion": {
            "order_ok": criterion.order_ok,
            "invariance_ok": criterion.invariance_ok,
            "basepoint_ok": criterion.basepoint_ok,
            "very_ample": criterion.very_ample,
        },
        "pass": overall,
    }


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


def _fits(value, hint) -> bool:
    """Whether a JSON value has the type `hint` of a RunConfig field."""
    if get_origin(hint) is Union:
        return any(_fits(value, h) for h in get_args(hint))
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_fits(v, get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    from .construction import RunConfig
    from .elliptic import EPS_PROJ, EPS_PT
    from .groups import DEFAULT_ORDER_CAP

    cfg = RunConfig()
    if getattr(args, "config", None):
        import json

        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {args.config!r} must hold a JSON object")
        hints = get_type_hints(RunConfig)
        for key, value in data.items():
            if key not in hints:
                raise ConfigError(f"unknown config key {key!r} in {args.config!r}")
            if not _fits(value, hints[key]):
                raise ConfigError(
                    f"config key {key!r} in {args.config!r} must be "
                    f"{RunConfig.__annotations__[key]}, got {value!r}"
                )
            setattr(cfg, key, tuple(value) if key == "q0" else value)
    for name in RunConfig._fields:
        flag = getattr(args, name, None)
        if name != "q0" and flag is not None:
            setattr(cfg, name, flag)
    if getattr(args, "q0", None):
        cfg.q0 = tuple(args.q0)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(
                f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}"
            ) from exc
    defaults = {"eps_pt": EPS_PT, "eps_proj": EPS_PROJ, "order_cap": DEFAULT_ORDER_CAP}
    for name, value in defaults.items():
        if getattr(cfg, name) is None:
            setattr(cfg, name, value)
    if cfg.construction not in ("A", "B"):
        raise ConfigError(f"construction must be A or B, got {cfg.construction!r}")
    if cfg.d < 1:
        raise ConfigError(f"d must be >= 1, got {cfg.d}")
    if cfg.samples < 1:
        raise ConfigError(f"samples must be >= 1, got {cfg.samples}")
    if cfg.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {cfg.jobs}")
    for name in ("eps_pt", "eps_proj"):
        value = getattr(cfg, name)
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    if cfg.output:
        _check_output(cfg.output)
    return cfg


def _check_output(path: str) -> None:
    """Raise ConfigError now if `_write_atomic` could not write `path` after the run."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(directory):
        problem = f"directory {directory!r} does not exist"
    elif not os.access(directory, os.W_OK | os.X_OK):
        problem = f"directory {directory!r} is not writable"
    else:
        return
    raise ConfigError(f"cannot write output {path!r}: {problem}")


def cmd_construct(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    spec = cfg.build_spec()
    summary = {
        "config": cfg.as_json_dict(),
        "construction": spec.construction,
        "group_order": spec.group.order,
        "polarization": [list(row) for row in spec.polarization.rows],
        "theoretical_degree": spec.theoretical_degree,
        "very_ample": spec.very_ample,
    }
    print(f"construction {spec.construction}: d={spec.d}, |Q0|={spec.q0.order}")
    print(f"group order {spec.group.order}, theoretical degree {spec.theoretical_degree}")
    print(f"polarization {spec.polarization.rows}")
    print(f"very ample preconditions: {spec.very_ample}")
    text = _emit_json(summary) + "\n"
    if cfg.output:
        _write_atomic(cfg.output, text)
    else:
        print(text, end="")
    return 0


def galois_verify(*args, **kwargs) -> VerificationReport:
    """`covers.galois_verify`, imported at call time to keep numpy off the
    exact commands.  `cmd_verify` calls it through this module-level name,
    so rebinding `cli.galois_verify` (as `perfbench/inproc.py` does to time
    verification) takes effect."""
    from .covers import galois_verify as verify

    return verify(*args, **kwargs)


def cmd_verify(args: argparse.Namespace) -> int:
    from .covers import check_probe_grid, criterion_check

    cfg = _resolve_config(args)
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
    text = _emit_json(payload) + "\n"
    if cfg.output:
        _write_atomic(cfg.output, text)
        generic = sum(1 for r in report.samples if r.generic)
        print(
            f"verify {spec.construction}: group order {spec.group.order}, "
            f"{generic}/{len(report.samples)} generic samples, "
            f"pass={payload['pass']} -> {cfg.output}"
        )
    else:
        print(text, end="")
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
    import json

    try:
        with open(args.path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read report {args.path!r}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"report {args.path!r} must hold a JSON object")
    samples = payload.get("samples", [])
    criterion = payload.get("criterion", {})
    if not (isinstance(samples, list) and all(isinstance(r, dict) for r in samples)):
        raise ConfigError(f"'samples' of report {args.path!r} must be a list of objects")
    if not all(_fits(r.get("image_spread"), Optional[float]) for r in samples):
        raise ConfigError(f"an 'image_spread' of report {args.path!r} is not a number")
    if not isinstance(criterion, dict):
        raise ConfigError(f"'criterion' of report {args.path!r} must be an object")
    passed = payload.get("pass")
    if not isinstance(passed, bool):
        raise ConfigError(f"'pass' of report {args.path!r} must be true or false, got {passed!r}")
    construction = payload.get("construction", "?")
    order = payload.get("group_order", "?")
    print(f"construction {construction}, group order {order}")
    for rec in samples:
        status = "generic" if rec.get("generic") else "non-generic (excluded)"
        spread = rec.get("image_spread")
        spread_text = "n/a" if spread is None else f"{spread:.3e}"
        print(
            f"  sample {rec.get('index')}: {status}, orbit {rec.get('orbit_size')}, "
            f"spread {spread_text}, fiber match {rec.get('fiber_match')}"
        )
    print(
        "criterion: order_ok={order_ok} invariance_ok={invariance_ok} "
        "basepoint_ok={basepoint_ok} very_ample={very_ample}".format(
            **{
                k: criterion.get(k)
                for k in ("order_ok", "invariance_ok", "basepoint_ok", "very_ample")
            }
        )
    )
    print(f"pass: {passed}")
    return 0 if passed else 1


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
