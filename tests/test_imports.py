"""Which modules each command loads, and the lazy `ellcover` namespace.

Only `covers`, `symfun` and `batch` import numpy, and no command loads
`isogeny`, `argparse`, `gettext` or `locale`: each command below runs with
those made unimportable too.  `intersection` needs only `cli` and
`polarization`, so it must run with `commands`, `isogeny`, numpy,
`dataclasses`, `fractions` and `json` made unimportable and print the same
bytes as a plain run.  `report` adds `commands` and must run with numpy,
`dataclasses` and `fractions` made unimportable.  `construct` builds a
cover from the exact layers (`construction`, `groups`, `elliptic`,
`polarization`), in integers, so it must run with numpy, `dataclasses`,
`json`, `fractions`, `decimal`, `affine`, `isogeny` and `weierstrass` (the
wp numerics) made unimportable and print the same bytes as a plain run.
`verify` loads numpy and `weierstrass` but must run with `dataclasses`,
`json`, `fractions`, `decimal`, `affine` and `isogeny` made unimportable
and write the same report.  Each command leaves exactly the `ellcover`
modules of the README's table loaded.  Every name that perfbench/tracing.py
wraps must resolve where it names it.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ellcover
from ellcover import NotVeryAmpleWarning, cli, covers

SRC = Path(__file__).resolve().parent.parent / "src"
TRACING = SRC.parent / "perfbench" / "tracing.py"

#: the `ellcover` modules each command leaves loaded
INTERSECTION_MODULES = {"ellcover.cli", "ellcover.errors", "ellcover.polarization"}
REPORT_MODULES = INTERSECTION_MODULES | {"ellcover.commands"}
CONSTRUCT_MODULES = REPORT_MODULES | {
    "ellcover.construction", "ellcover.groups", "ellcover.elliptic",
}
VERIFY_MODULES = CONSTRUCT_MODULES | {
    "ellcover.covers", "ellcover.symfun", "ellcover.batch", "ellcover.weierstrass",
}
#: one command of each intersection mode
INTERSECTIONS = (
    ["intersection", "--self", "4 0;0 4"],
    ["intersection", "--chi", "2 1;1 2"],
    ["intersection", "--mixed", "1 0;0 1:1", "1 1;1 1:1"],
)

BLOCKING_SCRIPT = f"""
import sys
for name in sys.argv[1].split(","):
    sys.modules[name] = None  # any import of it now raises ImportError


def loaded():
    return sorted(m for m in sys.modules if m.startswith("ellcover.") and sys.modules[m])


import ellcover
assert not loaded(), loaded()
from ellcover.cli import main

if sys.argv[2] == "intersection":
    for argv in {INTERSECTIONS!r}:
        assert main(argv) == 0
    code = 0
else:
    code = main(sys.argv[2:])
print(" ".join(loaded()), file=sys.stderr)
sys.exit(code)
"""


def _run(argv, blocked=()):
    """Run the CLI in a fresh interpreter, through the blocking script when `blocked` names modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    entry = ["-c", BLOCKING_SCRIPT, ",".join(blocked)] if blocked else ["-m", "ellcover.cli"]
    return subprocess.run(
        [sys.executable, *entry, *argv], env=env, capture_output=True, timeout=60
    )


def _loaded(proc):
    """The `ellcover` submodules the blocking script saw loaded at its end."""
    return set(proc.stderr.decode().splitlines()[-1].split())


#: no command loads argparse, nor the gettext and locale it brings
NO_COMMAND = ["argparse", "gettext", "locale"]
#: the blocked modules of each command
INTERSECTION_BLOCKED = NO_COMMAND + [
    "numpy", "dataclasses", "fractions", "json", "ellcover.commands", "ellcover.isogeny",
]
REPORT_BLOCKED = NO_COMMAND + ["numpy", "dataclasses", "fractions", "ellcover.isogeny"]
#: no construct or verify loads `fractions`, nor the `decimal` it brings,
#: nor `affine`, the reference type of listed group elements
EXACT_IN_INTEGERS = ["fractions", "decimal", "ellcover.affine"]
CONSTRUCT_BLOCKED = NO_COMMAND + EXACT_IN_INTEGERS + [
    "numpy", "dataclasses", "json", "ellcover.isogeny", "ellcover.weierstrass",
]
VERIFY_BLOCKED = NO_COMMAND + EXACT_IN_INTEGERS + ["dataclasses", "json", "ellcover.isogeny"]


def test_exact_commands_run_without_numpy(tmp_path):
    """The intersection modes with `commands`, `isogeny`, numpy, `dataclasses`,
    `fractions` and `json` blocked, and `report` with numpy, `dataclasses`,
    `fractions` and `isogeny` blocked."""
    report = tmp_path / "r.json"
    argv = ["verify", "--construction", "A", "--d", "1", "--samples", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotVeryAmpleWarning)
        assert cli.main(argv + ["--output", str(report)]) == 0
    intersection = _run(["intersection"], blocked=INTERSECTION_BLOCKED)
    rendered = _run(["report", str(report)], blocked=REPORT_BLOCKED)
    for proc in (intersection, rendered):
        assert proc.returncode == 0, proc.stderr
    lines = (intersection.stdout + rendered.stdout).decode().splitlines()
    assert lines[:5] == ["32", "3", "2", "report schema 1", "construction A, group order 4"]
    assert lines[-1] == "pass: True"
    assert _loaded(intersection) == INTERSECTION_MODULES
    assert _loaded(rendered) == REPORT_MODULES
    plain = [_run(argv) for argv in (*INTERSECTIONS, ["report", str(report)])]
    assert all(p.returncode == 0 for p in plain), [p.stderr for p in plain]
    assert intersection.stdout + rendered.stdout == b"".join(p.stdout for p in plain)


@pytest.mark.parametrize(
    "shape",
    [
        ["--construction", "A", "--d", "1"],
        ["--construction", "A", "--d", "2"],
        ["--construction", "B", "--d", "1"],
        ["--construction", "B", "--d", "2"],
        # the `exact` benchmark shapes
        ["--construction", "A", "--d", "4", "--q0", "1/2,0"],
        ["--construction", "B", "--d", "4", "--q0", "1/3,0"],
    ],
)
def test_construct_runs_without_numpy(shape):
    blocked = _run(["construct", *shape], blocked=CONSTRUCT_BLOCKED)
    assert blocked.returncode == 0, blocked.stderr
    assert _loaded(blocked) == CONSTRUCT_MODULES
    plain = _run(["construct", *shape])
    assert plain.returncode == 0, plain.stderr
    assert blocked.stdout == plain.stdout


@pytest.mark.parametrize("construction", ["A", "B"])
def test_verify_runs_without_dataclasses_or_json(tmp_path, construction):
    argv = ["verify", "--construction", construction, "--d", "2", "--samples", "5"]
    blocked = _run(argv + ["--output", str(tmp_path / "blocked.json")], blocked=VERIFY_BLOCKED)
    assert blocked.returncode == 0, blocked.stderr
    assert _loaded(blocked) == VERIFY_MODULES
    plain = _run(argv + ["--output", str(tmp_path / "plain.json")])
    assert plain.returncode == 0, plain.stderr
    assert (tmp_path / "blocked.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


class TestLazyNamespace:
    def test_every_export_is_its_home_modules_object(self):
        assert len(ellcover.__all__) == len(set(ellcover.__all__)) == 52
        for name in ellcover.__all__:
            value = getattr(ellcover, name)
            home = importlib.import_module(value.__module__)
            assert getattr(home, name) is value, name

    def test_dir_covers_all(self):
        assert set(ellcover.__all__) <= set(dir(ellcover))
        assert "__version__" in dir(ellcover)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'wp_nonexistent'"):
            ellcover.wp_nonexistent
        assert not hasattr(ellcover, "EPS_PT")  # a module constant, not an export

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from ellcover import *", namespace)
        for name in ellcover.__all__:
            assert namespace[name] is getattr(ellcover, name), name


def test_cmd_verify_calls_the_rebindable_galois_verify(monkeypatch, capsys):
    """Rebinding `cli.galois_verify` reaches `cmd_verify`; timing harnesses rely on it."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return covers.galois_verify(*args, **kwargs)

    monkeypatch.setattr(cli, "galois_verify", spy)
    assert cli.main(["verify", "--construction", "A", "--d", "1", "--samples", "2"]) == 0
    assert len(calls) == 1 and calls[0]["samples"] == 2


def test_traced_names_resolve():
    """Each (module, path) that perfbench/tracing.py wraps resolves from its `ellcover` module.

    An owner's method must sit in the owner's own `__dict__`, where the
    tracer swaps it, so a move or a rename fails here and not only in the
    benchmark's smoke test.
    """
    spec = importlib.util.spec_from_file_location("_traced_names", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    entries = [(module, path) for _, module, path, *_ in tracing.SPANS + tracing.COUNTERS]
    assert len(entries) == 21
    for module, path in entries:
        assert module is importlib.import_module(module.__name__), module
        assert module.__name__.startswith("ellcover."), module
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            assert callable(vars(getattr(module, owner_name)).get(attr)), (module.__name__, path)
        else:
            assert callable(getattr(module, attr)), (module.__name__, path)

