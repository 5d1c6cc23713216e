"""The parts of `construct`, `verify` and `report` that `intersection` never runs.

Config resolution, the deterministic JSON writer, the atomic report write and
the `report` renderer.  `cli` imports this module when one of those commands
runs, so `intersection` compiles none of it.  `report` runs with numpy,
`fractions` and `dataclasses` made unimportable, so this module imports none
of them, nor `json`, at module level.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Optional, Union, get_args, get_origin

from .errors import ConfigError

if TYPE_CHECKING:
    from .construction import CoverSpec, RunConfig
    from .covers import CriterionReport, VerificationReport


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


def _emit(cfg: RunConfig, value) -> None:
    """Write `value` as deterministic JSON to `cfg.output`, atomically, or print it."""
    text = _emit_json(value) + "\n"
    if cfg.output:
        _write_atomic(cfg.output, text)
    else:
        print(text, end="")


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
        "criterion": dict(zip(criterion._fields, criterion._key())),
        "pass": overall,
    }


def _fits(value, hint) -> bool:
    """Whether a JSON value has the type `hint` of a RunConfig field."""
    if get_origin(hint) is Union:
        return any(_fits(value, h) for h in get_args(hint))
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_fits(v, get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float and isinstance(value, int):
        try:
            return math.isfinite(float(value))
        except OverflowError:  # past the float range
            return False
    return isinstance(value, hint)


def _resolve_config(flags: dict, seed_var: str) -> RunConfig:
    """The run's config: a `--config` file, then the flags, then the seed in `seed_var`.

    `cli` passes its `SEED_ENV_VAR`: this module never imports `cli`, which
    `python -m ellcover.cli` runs as `__main__`, so importing it would
    compile and run it a second time.
    """
    from .construction import RunConfig, check_run_bounds

    cfg = RunConfig()
    path = flags.pop("config", None)
    if path is not None:
        import json

        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path!r} must hold a JSON object")
        hints = RunConfig._types
        for key, value in data.items():
            if key not in hints:
                raise ConfigError(f"unknown config key {key!r} in {path!r}")
            if not _fits(value, hints[key]):
                raise ConfigError(
                    f"config key {key!r} in {path!r} must be "
                    f"{RunConfig.__annotations__[key]}, got {value!r}"
                )
            if value is not None:
                setattr(cfg, key, tuple(value) if key == "q0" else value)
    for name, value in flags.items():
        setattr(cfg, name, value)
    env_seed = os.environ.get(seed_var)
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(
                f"{seed_var} must be an integer, got {env_seed!r}"
            ) from exc
    check_run_bounds(cfg.samples, cfg.jobs, cfg.eps_pt, cfg.eps_proj)
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


def construct(cfg: RunConfig) -> int:
    """Build the configured cover, print its summary and emit it as JSON."""
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
    _emit(cfg, summary)
    return 0


def report(path: str) -> int:
    """Render a saved verification report; exit 0 on a pass, 1 on a fail."""
    import json

    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read report {path!r}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"report {path!r} must hold a JSON object")
    samples = payload.get("samples", [])
    criterion = payload.get("criterion", {})
    if not (isinstance(samples, list) and all(isinstance(r, dict) for r in samples)):
        raise ConfigError(f"'samples' of report {path!r} must be a list of objects")
    if not all(_fits(r.get("image_spread"), Optional[float]) for r in samples):
        raise ConfigError(f"an 'image_spread' of report {path!r} is not a number")
    if not isinstance(criterion, dict):
        raise ConfigError(f"'criterion' of report {path!r} must be an object")
    passed = payload.get("pass")
    if not isinstance(passed, bool):
        raise ConfigError(f"'pass' of report {path!r} must be true or false, got {passed!r}")
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
