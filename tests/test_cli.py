import gc
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
from ellcover.groups import MAX_D


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

    def test_repeated_mixed_adds_its_terms(self, capsys):
        assert main(["intersection", "--mixed", "2 1;1 2:1", "--mixed", "1 0;0 1:1"]) == 0
        assert main(["intersection", "--mixed", "2 1;1 2:1", "1 0;0 1:1"]) == 0
        assert capsys.readouterr().out == "4\n4\n"
        # both terms count, so the exponents sum to 4 for d = 2
        assert main(["intersection", "--mixed", "2 1;1 2:2", "--mixed", "1 0;0 1:2"]) == 2
        assert "exponents sum to 4" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--self", "--chi"])
    def test_repeated_matrix_is_a_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["intersection", flag, "2 1;1 2", flag, "1 0;0 1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"{flag} takes one value, once" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag", ["--self", "--chi"])
    def test_empty_matrix_names_the_matrix(self, capsys, flag):
        assert main(["intersection", flag, ""]) == 2
        err = capsys.readouterr().err
        assert "cannot parse matrix ''" in err
        assert "exactly one" not in err


def _config(argv):
    """The RunConfig that `construct` resolves from `argv`."""
    from ellcover.cli import _parse
    from ellcover.commands import _resolve_config

    return _resolve_config(_parse("construct", argv)[1], SEED_ENV_VAR)


def _exit_code(argv):
    """`main(argv)`'s code, or the code of the SystemExit it raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestFlags:
    """The flag contract: each `construct` and `verify` flag is a RunConfig field."""

    @pytest.fixture(autouse=True)
    def _no_env_seed(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)

    def test_equals_sign_and_space_agree(self):
        spaced = ["--construction", "B", "--d", "3", "--tau", "0.2+1.3i", "--eps-pt", "1e-8"]
        joined = ["--construction=B", "--d=3", "--tau=0.2+1.3i", "--eps-pt=1e-8"]
        assert _config(spaced) == _config(joined)
        assert _config(joined).d == 3 and _config(joined).eps_pt == 1e-8

    def test_q0_repeats_append(self):
        assert _config(["--q0", "1/2,0", "--q0=0,1/3"]).q0 == ("1/2,0", "0,1/3")

    def test_values_may_start_with_a_dash(self, capsys):
        cfg = _config(["--seed", "-3", "--tau", "-0.4+1.1i"])
        assert (cfg.seed, cfg.tau) == (-3, "-0.4+1.1i")
        assert main(["construct", "--d", "1", "--tau", "-0.4+1.1i"]) == 0
        assert '"tau": "-0.4+1.1i"' in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "--no-such-flag", "1"], "unrecognized flag --no-such-flag"),
            (["verify", "--eps_pt", "1e-8"], "unrecognized flag --eps_pt"),
            (["verify", "--samples"], "--samples takes one value"),
            (["verify", "--samples", "--seed", "3"], "--samples takes one value"),
            (["construct", "--d", "x"], "--d: invalid int value 'x'"),
            (["construct", "--construction", "C"], "construction must be A or B, got 'C'"),
            (["construct", "--d", "1", "--d", "2"], "--d takes one value, once"),
            (["construct", "stray"], "construct takes no PATH"),
            (["report"], "report takes one PATH"),
            (["intersection", "--mixed"], "--mixed takes one or more values"),
            (["bogus"], "expected one of construct, verify, intersection, report"),
            ([], "expected one of"),
        ],
    )
    def test_bad_usage_exits_two(self, capsys, argv, message):
        assert _exit_code(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", [[], ["construct"], ["verify"], ["intersection"], ["report"]])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_exits_zero_naming_every_field(self, capsys, command, flag):
        from ellcover.construction import RunConfig

        assert _exit_code([*command, flag]) == 0
        out = capsys.readouterr().out
        for name in ("config", *RunConfig._fields):
            assert f"[--{name.replace('_', '-')} " in out, name
        assert "--mixed" in out and "ellcover report PATH" in out

    @pytest.mark.parametrize(
        "key,value,flags,other",
        [
            ("construction", "B", ["--construction", "B"], "A"),
            ("d", 3, ["--d", "3"], 1),
            ("tau", "0.2+1.3i", ["--tau", "0.2+1.3i"], "0.1+1.2i"),
            ("q0", ["1/2,0", "0,1/3"], ["--q0", "1/2,0", "--q0", "0,1/3"], ["1/5,0"]),
            ("samples", 7, ["--samples", "7"], 9),
            ("seed", -3, ["--seed", "-3"], 5),
            ("eps_pt", 1e-8, ["--eps-pt", "1e-8"], 1e-10),
            ("eps_proj", 1e-6, ["--eps-proj", "1e-6"], 1e-5),
            ("d", 4, ["--d=4"], 2),
            ("output", "a.json", ["--output", "a.json"], "b.json"),
            ("jobs", 2, ["--jobs", "2"], 3),
        ],
    )
    def test_flag_and_config_key_agree_and_the_flag_wins(
        self, tmp_path, monkeypatch, key, value, flags, other
    ):
        from ellcover.construction import RunConfig

        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert _config(["--config", str(cfg)]) == _config(flags) != RunConfig()
        cfg.write_text(json.dumps({key: other}))
        assert _config(["--config", str(cfg), *flags]) == _config(flags)
        assert _config(["--config", str(cfg)]) != _config(flags)


class TestVerifyCommand:
    def test_passing_run_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(VERIFY_FAST + ["--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["group_order"] == 4
        assert next(iter(payload)) == "schema" and payload["schema"] == 1
        assert set(payload) == {
            "schema",
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

    @pytest.mark.parametrize("command,code", [("construct", 0), ("verify", 1)])
    def test_not_very_ample_config_warns_in_one_line(self, capsys, command, code):
        # the library's NotVeryAmpleWarning reads as one line, as an error
        # does: no source path and no source line
        argv = [command, "--construction", "B", "--d", "1", "--q0", "1/2,0"]
        assert main(argv + ["--samples", "2"] * (command == "verify")) == code
        assert capsys.readouterr().err == (
            "warning: NotVeryAmpleWarning: construction B with d=1, |Q0|=2 misses "
            "the very-ampleness preconditions; criterion will flag it\n"
        )

    @pytest.mark.parametrize("construction", ["A", "B"])
    def test_report_samples_are_galois_verify_rows(self, tmp_path, monkeypatch, construction):
        # one sample layout, owned by covers: the report writes the rows of
        # galois_verify at the same seed as they are, a non-finite spread
        # (here sample 1's, made infinite) as null
        from ellcover import covers
        from ellcover.construction import RunConfig

        spreads = covers.projective_spreads

        def one_infinite(*args):
            out = spreads(*args)
            out[1] = float("inf")
            return out

        monkeypatch.setattr(covers, "projective_spreads", one_infinite)
        out = tmp_path / "r.json"
        argv = ["verify", "--construction", construction, "--d", "2", "--samples", "5", "--seed", "7"]
        assert run(argv + ["--output", str(out)]) == 1
        spec = RunConfig(construction=construction, d=2).build_spec()
        rows = [dict(row) for row in covers.galois_verify(spec, samples=5, seed=7).samples]
        assert rows[1]["image_spread"] == float("inf")
        rows[1]["image_spread"] = None
        samples = json.loads(out.read_text())["samples"]
        assert samples == rows
        assert [list(sample) for sample in samples] == [list(row) for row in rows]

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
    @pytest.mark.parametrize(
        "construction, d, generator",
        [(c, d, g) for c in "AB" for d, g in (("1", "239/257,1/257"), ("2", "58/129,1/129"))],
    )
    def test_paper_family_past_the_old_probe_bound_verifies(self, construction, d, generator):
        # |Q0| = 257 and 129, past the (4|Q0|)^2 <= 2^18 probes that the
        # criterion once listed on E^d
        args = ["verify", "--construction", construction, "--d", d, "--q0", generator, "--samples", "4"]
        assert main(args) == 0

    def test_bad_tau_is_config_error(self, capsys):
        assert main(["verify", "--tau", "0.3-1.1i", "--samples", "2"]) == 2
        assert main(["verify", "--tau", "zebra", "--samples", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_counts_are_config_errors(self):
        assert main(["verify", "--samples", "0"]) == 2
        assert main(["verify", "--d", "0"]) == 2
        assert main(["verify", "--jobs", "0"]) == 2
        assert main(["verify", "--jobs", "33"]) == 2  # MAX_JOBS = 32

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

    def test_empty_config_path_is_not_ignored(self, capsys):
        assert main(["construct", "--config", "", "--d", "1"]) == 2
        assert "cannot read config file ''" in capsys.readouterr().err

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
        assert list(config) == ["construction", "d", "tau", "q0", "samples", "seed", "eps_pt", "eps_proj"]

    def test_order_cap_is_no_longer_a_key_or_a_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"order_cap": 100_000}))
        assert main(["construct", "--config", str(cfg)]) == 2
        assert "unknown config key 'order_cap'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--order-cap", "100000"])
        assert exc.value.code == 2 and "unrecognized flag --order-cap" in capsys.readouterr().err


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
        assert rendered.startswith("report schema 1\nconstruction A, group order 4\n")
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
    """No command lists L, whose order passes the listing cap from A d=8 and
    B d=8 on; a d past MAX_D is refused before any O(d) work."""

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
        assert proc.stderr.startswith(f"error: d must be <= {MAX_D}, got ")

    @pytest.mark.parametrize("d", [MAX_D + 1, 400, 3000])
    @pytest.mark.parametrize("construction", ["A", "B"])
    def test_order_past_cap_is_refused_before_listing(self, construction, d):
        # |L| = 2^d d! (A) or (d+1)! (B), past the listing cap, and d past MAX_D
        self._refused(["--construction", construction, "--d", str(d)])

    def test_huge_d_in_a_config_file_is_refused(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 10**400}))
        self._refused(["--config", str(cfg)])


class TestSampleBound:
    @staticmethod
    def _never(monkeypatch):
        from ellcover import cli

        def never(*args, **kwargs):
            raise AssertionError("the run went past the sample check")

        monkeypatch.setattr(cli, "galois_verify", never)

    def test_flag_past_the_bound_exits_two(self, monkeypatch, capsys):
        from ellcover import construction

        monkeypatch.setattr(construction, "MAX_SAMPLES", 5)
        self._never(monkeypatch)
        assert main(VERIFY_FAST[:-1] + ["6"]) == 2
        assert capsys.readouterr().err == "error: samples must be <= 5, got 6\n"

    def test_config_file_past_the_bound_exits_two(self, tmp_path, monkeypatch, capsys):
        from ellcover import construction

        self._never(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 10**20}))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert f"samples must be <= {construction.MAX_SAMPLES}, got {10**20}" in capsys.readouterr().err
        monkeypatch.setattr(construction, "MAX_SAMPLES", 5)
        cfg.write_text(json.dumps({"samples": 6}))
        assert main(["verify", "--config", str(cfg)]) == 2


SRC = Path(__file__).resolve().parent.parent / "src"


def _child(argv, cwd, entry=("-m", "ellcover.cli")):
    env = {k: v for k, v in os.environ.items() if k != SEED_ENV_VAR}
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *entry, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )


class TestConsoleEntryPoint:
    """`python -m ellcover.cli` and the `ellcover` script run `cli.run`, which
    exits with `main()`'s code after freezing the collector."""

    @pytest.mark.parametrize(
        "argv,code",
        [
            (VERIFY_FAST + ["--output", "report.json"], 0),
            (VERIFY_FAST + ["--eps-proj", "1e-30", "--output", "report.json"], 1),
            (["construct", "--construction", "B", "--d", "2"], 0),
            (["verify", "--samples", "0"], 2),
        ],
        ids=["verify-pass", "verify-fail", "construct", "config-error"],
    )
    def test_child_matches_main_in_process(self, tmp_path, monkeypatch, capsys, argv, code):
        here, there = tmp_path / "in-process", tmp_path / "child"
        here.mkdir()
        there.mkdir()
        monkeypatch.chdir(here)
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        assert main(argv) == code
        captured = capsys.readouterr()
        proc = _child(argv, there)
        assert proc.returncode == code, proc.stderr
        assert (proc.stdout, proc.stderr) == (captured.out, captured.err)
        reports = [(d / "report.json").read_bytes() for d in (here, there) if (d / "report.json").exists()]
        assert len(reports) == (2 if "--output" in argv else 0)
        assert reports[:1] == reports[1:]

    @pytest.mark.parametrize("argv", [["construct", "--d", "1"], VERIFY_FAST, ["intersection", "--self", "4 0;0 4"]])
    def test_closed_stdout_exits_quietly(self, tmp_path, argv):
        # stdout is a pipe whose read end is already closed, so the first
        # write fails with EPIPE, whenever the output is flushed
        read, write = os.pipe()
        os.close(read)
        env = {k: v for k, v in os.environ.items() if k != SEED_ENV_VAR}
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ellcover.cli", *argv],
                cwd=tmp_path, env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, "")

    def test_main_never_freezes(self, capsys):
        assert main(VERIFY_FAST) == 0
        assert main(["construct", "--d", "1"]) == 0
        assert gc.get_freeze_count() == 0

    def test_main_leaves_the_collector_on(self, capsys):
        seen = []
        gc.callbacks.append(lambda phase, info: seen.append(phase))
        try:
            assert main(VERIFY_FAST) == 0
            assert gc.isenabled() and gc.get_freeze_count() == 0
            gc.collect()
        finally:
            gc.callbacks.pop()
        assert seen

    def test_run_freezes_after_main_returned(self, monkeypatch):
        from ellcover import cli

        calls = []

        def spy_main():
            calls.append(("main", gc.isenabled()))
            return 1

        monkeypatch.setattr(cli, "main", spy_main)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        try:
            with pytest.raises(SystemExit) as exc:
                cli.run()
        finally:
            gc.enable()  # the test process keeps collecting
        assert exc.value.code == 1
        # main runs with the collector off, and the freeze comes after it
        assert calls == [("main", False), "freeze"]

    def test_run_keeps_the_collector_off(self, tmp_path):
        # as the ellcover script calls it: no collection from run()'s start
        # to the atexit handlers, numpy's import included
        script = (
            "import atexit, gc, sys\n"
            "from ellcover.cli import run\n"
            "seen = []\n"
            "atexit.register(lambda: print('collections', len(seen), gc.isenabled()))\n"
            "gc.callbacks.append(lambda phase, info: seen.append(phase) if phase == 'start' else None)\n"
            "sys.argv = ['ellcover'] + sys.argv[1:]\n"
            "run()\n"
        )
        proc = _child(VERIFY_FAST + ["--output", "r.json"], tmp_path, entry=("-c", script))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "collections 0 False"

    def test_module_run_freezes_and_keeps_atexit(self, tmp_path):
        # the __main__ block goes through run(); atexit handlers still run after the freeze
        script = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "sys.argv = ['ellcover', 'intersection', '--chi', '2 1;1 2']\n"
            "runpy.run_module('ellcover.cli', run_name='__main__')\n"
        )
        proc = _child([], tmp_path, entry=("-c", script))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "3\nfrozen True\n", "")

    def test_console_script_names_run(self):
        tomllib = pytest.importorskip("tomllib")
        scripts = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]["scripts"]
        assert scripts == {"ellcover": "ellcover.cli:run"}


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


class TestUnresolvablePeriodRatio:
    """Period ratios the numerics cannot resolve exit 2 with a typed error before any sample."""

    def test_large_real_part_is_ill_conditioned(self, capsys):
        # tau = 1e17 + i is the curve tau = i, which passes; this was a FAIL
        # with 3 of 3 samples generic
        argv = ["verify", "--construction", "A", "--d", "1", "--q0", "1/3,0", "--tau=1e17+1i"]
        assert run(argv + ["--samples", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: IllConditioned: ")
        assert "basis change" in captured.err and captured.out == ""

    def test_overflowing_quotient_ratio_is_invalid(self, capsys):
        # tau' = 2 tau overflows; this was a raw OverflowError
        assert run(["construct", "--construction", "A", "--d", "1", "--q0", "1/2,0", "--tau=1e308+1i"]) == 2
        assert capsys.readouterr().err.startswith("error: InvalidPoint: period ratio (inf+2j) is not finite")

    def test_oversized_subgroup_is_invalid(self, capsys):
        assert run(["construct", "--q0", "1/1000,0", "--q0", "0,1/1000"]) == 2
        assert "InvalidSubgroup: subgroup order 1000000 exceeds bound 100000" in capsys.readouterr().err


class TestHugeExponents:
    """`--q0` texts whose powers of ten the parser does not build."""

    def test_tiny_generator_is_refused_in_one_line(self, capsys):
        # 1e-5000 is 1/10^5000, whose denominator no message spells out
        assert run(["construct", "--q0", "1e-5000,0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: InvalidSubgroup: generator denominator past 10^4300 exceeds bound 100000\n"

    @pytest.mark.parametrize("text, code", [("1e-999999999,0", 2), ("1e999999999,0", 0)])
    def test_huge_exponents_exit_at_once(self, text, code):
        # 10**999999999 has 10^9 digits: the child is stopped after 5 s and
        # held to 1 GiB of address space, so building it fails the test
        resource = pytest.importorskip("resource")
        limit = 1 << 30
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "ellcover.cli", "construct", "--q0", text],
            env=env,
            capture_output=True,
            text=True,
            timeout=5,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == code, proc.stderr


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
