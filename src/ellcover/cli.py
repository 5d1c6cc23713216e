"""Command-line frontend: construct covers, verify them, compute intersections.

Subcommands: construct | verify | intersection | report.  Configuration comes
from flags, optionally layered over a JSON file (`--config`, flags win), with
the environment variable GALOIS_EMBED_SEED overriding the seed last.  Reports
are emitted as deterministic JSON: fixed key order, floats at 17 significant
digits, atomic write.  Exit codes: 0 success/pass, 1 verification failure,
2 configuration error.  `run` is the console entry point of the `ellcover`
script and of `python -m ellcover.cli`; `main` is the one to call in-process.
"""

from __future__ import annotations

import gc
import os
import sys
import warnings
from typing import TYPE_CHECKING, NoReturn, Optional, Sequence, Union, get_args, get_origin

from .errors import EllcoverError, ConfigError
from .polarization import (
    PolarizationMatrix,
    chi,
    mixed_intersection,
    self_intersection,
)

if TYPE_CHECKING:
    from .construction import RunConfig
    from .covers import VerificationReport

# This module is the flag parser and the `intersection` command, so
# `intersection` compiles and loads only it, `errors` and `polarization`.
# Everything else is imported inside the commands that use it: config
# resolution, the JSON writer and the `report` renderer from `commands`
# (for `construct`, `verify` and `report`), the cover layers from
# `construction` on, and numpy only with `verify` (covers, symfun, batch).
# No command loads `argparse`, `dataclasses` or `isogeny`, `intersection`
# and `report` load no `fractions`, and `construct` and `verify` load `json`
# only to read a `--config` file or to quote a string that is not printable ASCII.
#
# `run()`, the entry point of the `ellcover` script and of `python -m
# ellcover.cli`, runs `main()` with the cyclic collector off and freezes it
# before the exit.  A command makes next to no cyclic garbage, yet with the
# collector on, a 250-sample verify ran 36 gen-0 and 3 gen-1 passes, most of
# them over numpy's import.  `main()` leaves the collector as it finds it, so
# callers that run commands in-process, the tests among them, keep
# collecting.  Such a verify, about 150 ms of wall time on a 2-core VM with no
# bytecode cached, spends about 40 ms in the interpreter and `site`, 55-60 ms
# importing numpy, 26-31 ms compiling the package, 16-18 ms verifying and 6 ms
# exiting; the collector's passes cost about 3-5 ms of it (README).

SEED_ENV_VAR = "GALOIS_EMBED_SEED"

_COMMANDS = ("construct", "verify", "intersection", "report")
_HELP = """\
construct builds a cover and prints its summary; verify runs the Galois verification
suite; intersection prints an exact intersection number; report renders a saved report.
A matrix is "a b;c d"; a --mixed term is MATRIX:exponent, the exponents summing to d.
--tau is the period ratio, such as 0.3+1.1i; each --q0 is a generator p/q,r/s of Q0.
--config reads a JSON object of the same fields; flags win, and GALOIS_EMBED_SEED last.
Exit codes: 0 pass, 1 verification failure, 2 configuration or usage error."""


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


def galois_verify(*args, **kwargs) -> VerificationReport:
    """`covers.galois_verify`, imported at call time to keep numpy off the
    exact commands.  `cmd_verify` calls it through this module-level name,
    so rebinding `cli.galois_verify` (as `perfbench/inproc.py` does to time
    verification) takes effect."""
    from .covers import galois_verify as verify

    return verify(*args, **kwargs)


def cmd_verify(cfg: RunConfig) -> int:
    from .commands import _emit, _report_payload
    from .covers import criterion_check

    spec = cfg.build_spec()
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
        generic = sum(1 for row in report.samples if row["generic"])
        print(
            f"verify {spec.construction}: group order {spec.group.order}, "
            f"{generic}/{len(report.samples)} generic samples, "
            f"pass={payload['pass']} -> {cfg.output}"
        )
    return 0 if payload["pass"] else 1


def cmd_intersection(**flags) -> int:
    if len(flags) != 1:
        raise ConfigError("pass exactly one of --self, --mixed, --chi")
    ((mode, value),) = flags.items()
    if mode == "mixed":
        print(mixed_intersection([_parse_matrix_power(t) for t in value]))
    else:
        print((self_intersection if mode == "self" else chi)(_parse_matrix(value)))
    return 0


def _flag_types(command: str) -> dict:
    """`command`'s flags, `_` for `-`, and their values' types: for `construct` and
    `verify`, `--config` and RunConfig's fields, `Optional[X]` read as X."""
    if command not in ("construct", "verify"):
        return {"self": str, "chi": str, "mixed": tuple} if command == "intersection" else {}
    from .construction import RunConfig

    types = {"config": str}
    for name, hint in RunConfig._types.items():
        hint = get_args(hint)[0] if get_origin(hint) is Union else hint
        types[name] = get_origin(hint) or hint
    return types


def _usage() -> str:
    """Every command's usage line, its flags read off `_flag_types`."""
    lines = []
    for command in _COMMANDS:
        words = ["ellcover", command, *["PATH"] * (command == "report")]
        for name, kind in _flag_types(command).items():
            words.append(f"[--{name.replace('_', '-')} {name.upper()}{' ...' * (kind is tuple)}]")
        lines.append(" ".join(words))
    return "usage: " + "\n       ".join(lines)


def _usage_error(message: str) -> NoReturn:
    print(f"{_usage()}\nellcover: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse(command: str, argv: Sequence[str]) -> tuple[list[str], dict]:
    """`command`'s tokens before its first flag, and its flags' typed values.

    A flag's values run up to the next token that starts with `--`, so a
    value may start with `-` (`--seed -3`, `--tau -0.4+1.1i`); `--flag=value`
    gives its first value.  A tuple flag takes one or more values and
    collects them over repeats; any other takes one value, once.
    """
    if command not in _COMMANDS:
        _usage_error(f"expected one of {', '.join(_COMMANDS)}, got {command!r}")
    types, paths, given, flags = _flag_types(command), [], [], {}
    for token in argv:
        if token.startswith("--"):
            flag, eq, value = token.partition("=")
            given.append((flag, [value] if eq else []))
        elif given:
            given[-1][1].append(token)
        else:
            paths.append(token)
    for flag, texts in given:
        name = flag[2:].replace("-", "_")
        kind = None if "_" in flag else types.get(name)
        if kind is None:
            _usage_error(f"{command}: unrecognized flag {flag}")
        if kind is tuple and texts:
            flags[name] = flags.get(name, ()) + tuple(texts)
        elif len(texts) != 1 or name in flags:
            wanted = "one or more values" if kind is tuple else "one value, once"
            _usage_error(f"{command}: {flag} takes {wanted}; got {texts}{' again' * (name in flags)}")
        else:
            try:
                flags[name] = kind(texts[0])
            except ValueError:
                _usage_error(f"{command}: {flag}: invalid {kind.__name__} value {texts[0]!r}")
    if len(paths) != (command == "report"):
        wanted = "one PATH" if command == "report" else "no PATH"
        _usage_error(f"{command} takes {wanted}, got {paths}")
    return paths, flags


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """`warnings.showwarning` while a command runs: one line on stderr, as an error, with no source location."""
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(f"{_usage()}\n\n{_HELP}")
        raise SystemExit(0)
    command = argv[0] if argv else ""
    paths, flags = _parse(command, argv[1:])
    try:
        if command == "intersection":
            return cmd_intersection(**flags)
        from .commands import _resolve_config, construct, report

        if command == "report":
            return report(*paths)
        cfg = _resolve_config(flags, SEED_ENV_VAR)
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            return construct(cfg) if command == "construct" else cmd_verify(cfg)
    except EllcoverError as exc:
        kind = "" if isinstance(exc, ConfigError) else f"{type(exc).__name__}: "
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run `main()` on the command line, with the cyclic collector off, and exit with its code.

    The collector is frozen after `main()` as well, because finalization
    runs a full collection even while it is disabled: shutdown then does
    not search and tear down the cycles of every module, class and
    function loaded, a heap the OS frees anyway.  The exit still runs
    atexit handlers and flushes stdout and stderr.  Only here: `main()`
    never touches the collector (see the comment at the top).  When
    stdout's reader is gone (`ellcover construct | head -1`), the command
    exits 141, as a shell reports a writer ended by SIGPIPE, with no
    traceback.
    """
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not in the exit's flush
    except BrokenPipeError:
        # stdout is the closed pipe: the exit's own flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
