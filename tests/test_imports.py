"""Which modules each command loads, and the lazy `ellcover` namespace.

`intersection` and `report` need only the exact layers, so they must run
with numpy made unimportable and must leave the numeric layers unloaded.
"""

import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ellcover
from ellcover import NotVeryAmpleWarning, cli, covers

SRC = Path(__file__).resolve().parent.parent / "src"

NUMERIC_LAYERS = ("covers", "elliptic", "groups", "symfun", "batch")

NO_NUMPY_SCRIPT = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import ellcover
loaded = sorted(m for m in sys.modules if m.startswith("ellcover."))
assert not loaded, loaded
from ellcover.cli import main

assert main(["intersection", "--self", "4 0;0 4"]) == 0
assert main(["intersection", "--chi", "2 1;1 2"]) == 0
assert main(["intersection", "--mixed", "1 0;0 1:1", "1 1;1 1:1"]) == 0
assert main(["report", sys.argv[1]]) == 0
loaded = sorted(m for m in sys.modules if m.startswith("ellcover."))
print(" ".join(loaded))
"""


def test_exact_commands_run_without_numpy(tmp_path):
    report = tmp_path / "r.json"
    argv = ["verify", "--construction", "A", "--d", "1", "--samples", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotVeryAmpleWarning)
        assert cli.main(argv + ["--output", str(report)]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, str(report)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:4] == ["32", "3", "2", "construction A, group order 4"]
    assert lines[-2] == "pass: True"
    loaded = lines[-1].split()
    assert not {f"ellcover.{m}" for m in NUMERIC_LAYERS} & set(loaded), loaded


class TestLazyNamespace:
    def test_every_export_is_its_home_modules_object(self):
        assert len(ellcover.__all__) == len(set(ellcover.__all__)) == 58
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
