import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellcover import NotVeryAmpleWarning
from ellcover.cli import SEED_ENV_VAR, main
from ellcover.commands import _emit_json


def run(argv, capsys=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotVeryAmpleWarning)
        code = main(argv)
    return code


VERIFY_FAST = [
    "verify",
    "--construction",
    "A",
    "--d",
    "1",
    "--q0",
    "1/2,0",
    "--samples",
    "3",
]


class TestIntersectionCommand:
    def test_self(self, capsys):
        assert main(["intersection", "--self", "4 0;0 4"]) == 0
        assert capsys.readouterr().out.strip() == "32"

    def test_chi(self, capsys):
        assert main(["intersection", "--chi", "2 1;1 2"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_mixed(self, capsys):
        assert main(["intersection", "--mixed", "1 0;0 1:1", "1 1;1 1:1"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_mixed_single_matrix_full_power(self, capsys):
        assert main(["intersection", "--mixed", "2 1;1 2:2"]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_requires_exactly_one_mode(self, capsys):
        assert main(["intersection"]) == 2
        assert main(["intersection", "--self", "1 0;0 1", "--chi", "1 0;0 1"]) == 2

    def test_bad_matrix_is_config_error(self, capsys):
        assert main(["intersection", "--self", "1 0;0"]) == 2
        assert main(["intersection", "--self", "1 x;x 1"]) == 2
        assert main(["intersection", "--mixed", "1 0;0 1"]) == 2

    @pytest.mark.parametrize("flag", ["--self", "--chi"])
    def test_empty_matrix_names_the_matrix(self, capsys, flag):
        assert main(["intersection", flag, ""]) == 2
        err = capsys.readouterr().err
        assert "cannot parse matrix ''" in err
        assert "exactly one" not in err


class TestVerifyCommand:
    def test_passing_run_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(VERIFY_FAST + ["--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["group_order"] == 4
        assert set(payload) == {
            "config",
            "construction",
            "group_order",
            "samples",
            "criterion",
            "pass",
        }
        assert set(payload["criterion"]) == {
            "order_ok",
            "invariance_ok",
            "basepoint_ok",
            "very_ample",
        }
        sample = payload["samples"][0]
        assert set(sample) == {
            "index",
            "point",
            "generic",
            "orbit_size",
            "image_spread",
            "fiber_match",
        }

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run(VERIFY_FAST + ["--output", str(out1)]) == 0
        assert run(VERIFY_FAST + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_floats_serialized_at_17_digits(self, tmp_path):
        out = tmp_path / "r.json"
        run(VERIFY_FAST + ["--output", str(out)])
        assert '"eps_pt": 1.0000000000000001e-09' in out.read_text()

    def test_not_very_ample_run_exits_one(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(
            [
                "verify",
                "--construction",
                "B",
                "--d",
                "1",
                "--q0",
                "1/2,0",
                "--samples",
                "2",
                "--output",
                str(out),
            ]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["pass"] is False
        assert payload["criterion"]["very_ample"] is False
        assert payload["criterion"]["order_ok"] is True

    def test_stdout_mode_prints_json(self, capsys):
        assert run(VERIFY_FAST) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True

    def test_output_overwrites_atomically(self, tmp_path):
        out = tmp_path / "r.json"
        out.write_text("garbage")
        assert run(VERIFY_FAST + ["--output", str(out)]) == 0
        assert json.loads(out.read_text())["pass"] is True


class TestUnwritableOutput:
    """An --output that cannot be written is a configuration error, not a traceback."""

    COMMANDS = {
        "construct": ["construct", "--d", "1", "--q0", "1/2,0"],
        "verify": VERIFY_FAST,
    }

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("where", ["missing_dir", "a_directory"])
    def test_exits_two_naming_the_path(self, tmp_path, capsys, command, where):
        target = tmp_path / "absent" / "r.json" if where == "missing_dir" else tmp_path
        assert run(self.COMMANDS[command] + ["--output", str(target)]) == 2
        assert str(target) in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == []

    @pytest.mark.parametrize("where", ["missing_dir", "a_directory", "read_only_dir"])
    def test_checked_before_any_group_is_built(self, tmp_path, capsys, monkeypatch, where):
        from ellcover import cli, construction

        def never(*args, **kwargs):
            raise AssertionError("the run started before --output was checked")

        monkeypatch.setattr(cli, "galois_verify", never)
        monkeypatch.setattr(construction.RunConfig, "build_spec", never)
        target = tmp_path / "r.json"
        if where == "missing_dir":
            target = tmp_path / "absent" / "r.json"
        elif where == "a_directory":
            target = tmp_path
        else:
            # a root user writes through any mode bits, so deny the access check itself
            access = os.access
            monkeypatch.setattr(
                os, "access", lambda path, mode: path != str(tmp_path) and access(path, mode)
            )
        assert run(VERIFY_FAST + ["--output", str(target)]) == 2
        assert str(target) in capsys.readouterr().err


class TestConfigResolution:
    def test_probe_grid_is_refused_before_any_sample(self, capsys, monkeypatch):
        from ellcover import cli, covers

        def never(*args, **kwargs):
            raise AssertionError("the run went past the probe-grid check")

        monkeypatch.setattr(cli, "galois_verify", never)
        monkeypatch.setattr(covers, "_probe_points", never)
        # |Q0| = 1000: (4|Q0|)^2 = 1.6e7 probes
        assert main(["verify", "--construction", "A", "--d", "1", "--q0", "1/1000,31/1000"]) == 2
        assert "criterion probes" in capsys.readouterr().err

    def test_bad_tau_is_config_error(self, capsys):
        assert main(["verify", "--tau", "0.3-1.1i", "--samples", "2"]) == 2
        assert main(["verify", "--tau", "zebra", "--samples", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_counts_are_config_errors(self):
        assert main(["verify", "--samples", "0"]) == 2
        assert main(["verify", "--d", "0"]) == 2
        assert main(["verify", "--jobs", "0"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [["--eps-pt", "-1"], ["--eps-proj", "0"], ["--eps-pt", "nan"], ["--eps-proj", "inf"]],
    )
    def test_bad_tolerances_are_config_errors(self, capsys, flags):
        assert main(VERIFY_FAST + flags) == 2
        assert "must be positive and finite" in capsys.readouterr().err

    def test_bad_q0_is_config_error(self, capsys):
        assert main(["verify", "--q0", "nope", "--samples", "2"]) == 2

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"construction": "A", "d": 1, "samples": 5, "seed": 9})
        )
        out = tmp_path / "r.json"
        assert (
            run(["verify", "--config", str(cfg), "--samples", "2", "--output", str(out)])
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["config"]["seed"] == 9  # from file
        assert payload["config"]["samples"] == 2  # flag wins
        assert len(payload["samples"]) == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": "0.3+1.1i", "bogus": 1}))
        assert main(["verify", "--config", str(cfg)]) == 2

    def test_missing_config_file_rejected(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "absent.json")]) == 2

    def test_env_seed_has_highest_precedence(self, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        assert run(VERIFY_FAST + ["--seed", "5", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 123

    def test_invalid_env_seed_is_config_error(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert main(["verify", "--samples", "2"]) == 2

    @pytest.mark.parametrize(
        "data",
        [
            {"d": "x"},
            {"q0": 5},
            {"q0": ["1/2,0", 1]},
            {"samples": 2.5},
            {"seed": True},
            {"eps_pt": "1e-9"},
            {"jobs": None},
            {"tau": 0.5},
            # an integer past the float range is no float
            {"eps_proj": 10**400},
        ],
    )
    def test_mistyped_config_value_is_config_error(self, tmp_path, capsys, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main(["construct", "--config", str(cfg)]) == 2
        key = next(iter(data))
        assert f"config key {key!r}" in capsys.readouterr().err

    def test_config_accepts_ints_for_floats_and_null_for_optionals(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 1, "eps_proj": 1, "eps_pt": None, "output": None}))
        assert run(["construct", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        config = json.loads(out[out.index("{") :])["config"]
        assert config["eps_proj"] == 1 and config["eps_pt"] == 1e-9
        assert config["order_cap"] == 100_000


class TestEmitJson:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(),
            # printable ASCII and its neighbours: controls, DEL, Latin-1
            st.text(st.characters(min_codepoint=0, max_codepoint=0xFF)),
        )
    )
    @example("")
    @example('say "hi"')
    @example("back\\slash")
    @example("tab\tnewline\n\x00\x1f")
    @example("del\x7f")
    @example("caf\u00e9 \u2028 \U0001f600")
    @example("lone \ud800")
    def test_strings_match_json_dumps(self, text):
        assert _emit_json(text) == json.dumps(text)


class TestConstructCommand:
    def test_prints_summary(self, capsys):
        assert (
            run(["construct", "--construction", "B", "--d", "2", "--q0", "1/2,0"])
            == 0
        )
        out = capsys.readouterr().out
        assert "group order 24" in out
        assert "theoretical degree 24" in out

    def test_writes_json_when_output_given(self, tmp_path):
        out = tmp_path / "c.json"
        assert (
            run(
                [
                    "construct",
                    "--construction",
                    "A",
                    "--d",
                    "2",
                    "--q0",
                    "1/2,0",
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["group_order"] == 32
        assert payload["polarization"] == [[4, 0], [0, 4]]
        assert payload["very_ample"] is True


class TestReportCommand:
    def test_renders_saved_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        run(VERIFY_FAST + ["--output", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "group order 4" in rendered
        assert "pass: True" in rendered

    def test_failing_report_exits_one(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        run(
            [
                "verify",
                "--construction",
                "B",
                "--d",
                "1",
                "--q0",
                "1/2,0",
                "--samples",
                "2",
                "--output",
                str(out),
            ]
        )
        assert main(["report", str(out)]) == 1

    def test_missing_report_is_config_error(self, tmp_path):
        assert main(["report", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            "report",
            {"samples": 5},
            {"samples": [1, 2]},
            {"samples": [{"index": 0, "image_spread": "small"}]},
            {"samples": [{"index": 0, "image_spread": True}]},
            {"criterion": [True]},
            # `pass` must be present and a JSON boolean
            {"pass": "false"},
            {"pass": 1},
            {"samples": []},
        ],
    )
    def test_malformed_report_is_config_error(self, tmp_path, capsys, payload):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(payload))
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(path) in captured.err
        assert captured.out == ""

    def test_spread_past_the_float_range_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"samples": [{"index": 0, "image_spread": 10**400}], "pass": True}))
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert "'image_spread'" in captured.err and captured.out == ""

    def test_report_without_spread_renders_na(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"samples": [{"index": 3, "image_spread": None}], "pass": True}))
        assert main(["report", str(path)]) == 0
        assert "sample 3: non-generic (excluded), orbit None, spread n/a" in capsys.readouterr().out


class TestOrderCap:
    @staticmethod
    def _refused(argv):
        # the child gets a timeout and a 1 GiB address-space limit, so
        # building the generators or listing the elements fails the test
        # instead of hanging it
        resource = pytest.importorskip("resource")
        limit = 1 << 30
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "ellcover.cli", "construct", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 2, proc.stderr
        assert "OrderCapExceeded" in proc.stderr

    @pytest.mark.parametrize("d", [8, 400, 3000])
    @pytest.mark.parametrize("construction", ["A", "B"])
    def test_order_past_cap_is_refused_before_listing(self, construction, d):
        # |G| = 2^d d! 2^d (A) or (d+1)! 2^d (B) is refused from its closed form
        self._refused(["--construction", construction, "--d", str(d)])

    def test_huge_d_in_a_config_file_is_refused(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 10**400}))
        self._refused(["--config", str(cfg)])


class TestTallQuotient:
    """Quotients E/Q0 past the stated height are rejected before any numerics."""

    @pytest.mark.parametrize(
        "shape",
        [
            # reduced Im tau' = 84: wp's q-series overflowed
            ["--d", "1", "--q0", "1/7,0"],
            # reduced Im tau' = 24: every sample came out non-generic
            ["--d", "2", "--q0", "1/2,0"],
        ],
    )
    def test_verify_exits_two_with_ill_conditioned(self, shape, capsys):
        argv = ["verify", "--construction", "A", "--tau=12i", "--samples", "4"]
        assert run(argv + shape) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: IllConditioned: ")
        assert "Im tau'" in captured.err
        assert captured.out == ""

    def test_construct_is_rejected_too(self, capsys):
        argv = ["construct", "--construction", "B", "--d", "2", "--q0", "1/2,0"]
        assert run(argv + ["--tau=12i"]) == 2
        assert "IllConditioned" in capsys.readouterr().err


class TestEpsNumRemoved:
    def test_config_block_has_no_eps_num(self, capsys):
        assert run(["construct", "--d", "1"]) == 0
        out = capsys.readouterr().out
        config = json.loads(out[out.index("{") :])["config"]
        assert "eps_num" not in config
        assert config["eps_pt"] == 1e-9 and config["eps_proj"] == 1e-7

    def test_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--eps-num", "1e-8"])
        assert exc.value.code == 2
