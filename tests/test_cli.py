import argparse
import contextlib
import dataclasses
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gbl import certifier, cli, errors, graphs, grassmann, shrinking
from gbl.reporting import dumps
from gbl.rng import substream


# the flags each subcommand reads, besides --format, --tolerance and --out
FLAGS_READ = {
    "certify": ["--n", "--m", "--beta0", "--samples", "--seed"],
    "lemmas": ["--which", "--samples", "--seed"],
    "graph": ["--example", "--graph-spec", "--point", "--fd-step"],
    "shrink": ["--n", "--m", "--beta0", "--a", "--b", "--samples", "--seed", "--graph-spec"],
    "sweep-k0": ["--n", "--m", "--samples", "--seed"],
    "cross-validate": ["--example", "--graph-spec", "--samples", "--seed", "--fd-step"],
}
OUTPUT_FLAGS = ["--format", "--tolerance", "--out"]
# a well-formed value of every flag
FLAG_VALUES = {
    "--n": "3", "--m": "2", "--beta0": "2.5", "--a": "3", "--b": "2", "--samples": "10",
    "--seed": "7", "--fd-step": "1e-4", "--example": "affine", "--point": "0.1,0.2,0.3",
    "--graph-spec": "graph.json", "--which": "aux", "--format": "csv", "--tolerance": "1e-5",
    "--out": "x.json",
}


def subparsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def declared(command):
    """The settable actions of a subcommand, in declaration order."""
    return [a for a in subparsers()[command]._actions if not isinstance(a, argparse._HelpAction)]


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "gbl", *args], capture_output=True, timeout=600
    )


class TestSerialization:
    def test_float_17_digits(self):
        assert dumps(1.0 / 3.0) == "0.33333333333333331"
        assert dumps(1.0) == "1"
        assert dumps({"a": [True, None, 2]}) == '{"a":[true,null,2]}'

    def test_nonfinite_sentinels(self):
        assert dumps(float("inf")) == '"inf"'
        assert dumps(float("nan")) == '"nan"'

    def test_dataclass_and_numpy(self):
        @dataclasses.dataclass
        class Record:
            z: float
            a: np.ndarray
            ok: bool

        assert dumps(Record(0.5, np.arange(4.0).reshape(2, 2), True)) == '{"z":0.5,"a":[[0,1],[2,3]],"ok":true}'
        assert dumps(np.array([[1, 2], [3, 4]])) == "[[1,2],[3,4]]"
        assert dumps([np.bool_(False), np.float64(0.1), np.float32(0.5), np.int64(7)]) == "[false,0.10000000000000001,0.5,7]"

    def test_payload_sections_are_records(self, capsys):
        # every record section lists its class's fields, in field order
        def payload(argv):
            assert cli.main(argv) == 0
            return json.loads(capsys.readouterr().out)["payload"]

        def names(cls):
            return [f.name for f in dataclasses.fields(cls)]

        cert = payload(["certify", "--n", "3", "--m", "2", "--samples", "500"])["certificate"]
        assert list(cert) == names(certifier.CertificateReport)
        lemmas = payload(["lemmas", "--which", "aux"])["extrema"]
        assert [list(rec) for rec in lemmas] == [names(certifier.ExtremumRecord)] * 3
        eps0 = payload(["lemmas", "--which", "iv", "--samples", "1000"])["eps0"]
        assert list(eps0) == names(certifier.Eps0Result)
        shrink = payload(["shrink", "--n", "2", "--m", "2", "--samples", "100"])
        assert list(shrink["epsilon1"]) == names(shrinking.Epsilon1Result)
        assert list(shrink["iteration"]) == names(shrinking.IterationTrace)


class TestExitCodes:
    def test_usage_error_bad_flag(self):
        proc = run_cli(["certify", "--beta0", "3.5"])
        assert proc.returncode == 2

    def test_usage_error_bad_dims(self):
        proc = run_cli(["certify", "--n", "2", "--m", "3"])
        assert proc.returncode == 2

    def test_unknown_command(self):
        proc = run_cli(["frobnicate"])
        assert proc.returncode == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("example,point", [("holomorphic_pair", "inf,0,0"),
                                               ("lawson_osserman", "inf,0,0,0"),
                                               ("holomorphic_pair", "0,nan,0")])
    def test_graph_non_finite_point_exits_two(self, capsys, example, point):
        # refused by the domain check, before any numpy warning or derived error
        assert cli.main(["graph", "--example", example, "--point", point]) == 2
        assert "OutOfDomain" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("point", ["1e62,0,0,0", "0,1e80,0,0", "0,0,1e103,0"])
    def test_graph_past_the_cone_bound_exits_two(self, capsys, point):
        # past the cone's bound every point is refused by the domain check, before any geometry
        assert cli.main(["graph", "--example", "lawson_osserman", "--point", point]) == 2
        assert "OutOfDomain: lawson_osserman: point" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,step", [
        (["graph", "--example", "lawson_osserman", "--point", "1,0,0,0", "--tolerance", "1e-12"], "0.001"),
        (["graph", "--example", "holomorphic_pair", "--point", "0.3,0.2,0.1", "--fd-step", "1e-17"], "1e-17"),
        (["cross-validate", "--example", "holomorphic_pair", "--samples", "5", "--fd-step", "1e-17"], "1e-17"),
    ])
    def test_fd_step_that_does_not_resolve_the_point_exits_two(self, capsys, argv, step):
        # the FD's rounding bound exceeds the tolerance times its scale: at 1e-17 every x_i +- step
        # rounds back to x_i, and at 1e-3 the cone's FD rounding (about 1e-9) dwarfs a 1e-12 tolerance
        assert cli.main(argv) == 2
        assert f"--fd-step {step} does not resolve the point" in capsys.readouterr().err

    @pytest.mark.parametrize("step,shown", [("2e-4", "0.0002"), ("5e-4", "0.0005")])
    def test_richardson_pair_within_the_rounding_exits_two(self, capsys, step, shown):
        # at these steps the cone's FD error at h lies within its rounding bound rho(h), so the
        # pair measures no order: refused, not passed as order 2
        argv = ["cross-validate", "--example", "lawson_osserman", "--samples", "5", "--fd-step", step]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"--fd-step {shown} does not resolve the Richardson pair" in out.err

    def test_richardson_pair_exact_at_both_steps_passes(self, capsys):
        # the affine graph's FD is exact (both errors 0): converged, as a flat point reads 0
        assert cli.main(["cross-validate", "--example", "affine", "--samples", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["payload"]["richardson"] == {"error_2h": 0.0, "error_h": 0.0, "order": 2.0}
        assert next(c for c in report["checks"] if c["name"] == "richardson_order")["status"] == "PASS"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("step", ["1e80", "1e150"])
    def test_fd_step_that_overflows_the_metric_exits_two(self, capsys, step):
        # det g overflows at the far stencil points: a usage error, not a NaN FD that fails the check
        assert cli.main(["graph", "--example", "holomorphic_pair", "--fd-step", step]) == 2
        assert "OutOfDomain: holomorphic_pair: the stencil of" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["graph", "--example", "holomorphic_pair", "--point", "a,b,c"],
        ["graph", "--graph-spec", "{missing}", "--point", "0.2,0.1"],
        ["graph", "--graph-spec", "{bad_json}", "--point", "0.2,0.1"],
        ["cross-validate", "--graph-spec", "{bad_json}", "--samples", "10"],
        ["shrink", "--n", "2", "--m", "2", "--graph-spec", "{bad_json}"],
        ["lemmas", "--which", "aux", "--tolerance", "nan"],
        ["lemmas", "--which", "aux", "--tolerance", "inf"],
        ["graph", "--example", "lawson_osserman", "--point", "1,0,0,0", "--fd-step", "nan"],
        ["shrink", "--n", "2", "--m", "2", "--graph-spec", "{unknown_graph}"],
        ["shrink", "--n", "2", "--m", "2", "--graph-spec", "{empty_cloud}"],
        ["shrink", "--n", "2", "--m", "2", "--graph-spec", "{ragged_cloud}"],
        ["graph", "--graph-spec", "{unknown_graph}"],
        ["graph", "--graph-spec", "{short_exponents}"],
        ["cross-validate", "--graph-spec", "{unknown_graph}"],
        ["cross-validate", "--graph-spec", "{short_exponents}"],
    ])
    def test_malformed_input_exits_two(self, tmp_path, capsys, argv):
        paths = {"{missing}": str(tmp_path / "missing.json")}
        short = '{"n": 3, "m": 1, "components": [{"monomials": [{"exponents": [2, 0], "coeff": 1.0}]}]}'
        for name, text in [("bad_json", '{"n": 2,'), ("unknown_graph", '{"name": "catenoid"}'),
                           ("empty_cloud", "[]"), ("ragged_cloud", "[[[0.1, 0.0], [0.2]]]"),
                           ("short_exponents", short)]:
            (tmp_path / f"{name}.json").write_text(text)
            paths[f"{{{name}}}"] = str(tmp_path / f"{name}.json")
        assert cli.main([paths.get(arg, arg) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["certify", "sweep-k0"])
    def test_k0_commands_refuse_large_m(self, monkeypatch, command):
        # refused before the audit sampler, whose acceptance falls about 4x per m
        def no_sample(*args, **kwargs):
            raise AssertionError("sampled before the m check")

        monkeypatch.setattr(certifier, "sample_admissible_lambdas", no_sample)
        assert cli.main([command, "--n", "9", "--m", "9"]) == 2

    def test_certify_just_above_one_at_m_eight(self, capsys):
        # the search is the one row lambda = 0 at every beta0 <= 2, however near 1
        argv = ["certify", "--n", "8", "--m", "8", "--beta0", "1.00000000000001", "--samples", "2000"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["payload"]["certificate"]["k0"] == 1.0
        assert next(c for c in report["checks"] if c["name"] == "audit_no_undercut")["status"] == "PASS"

    @pytest.mark.parametrize("argv", [["lemmas", "--which", "iii"], ["certify"], ["sweep-k0"],
                                      ["shrink"], ["cross-validate"]])
    def test_samples_above_cap_exit_two(self, monkeypatch, capsys, argv):
        # refused by _validate, before any sampler or array sized by --samples exists
        def no_sample(*args, **kwargs):
            raise AssertionError("sampled before the --samples check")

        command = argv[0]
        _, flags, (default, bound) = cli._COMMANDS[command]
        assert default <= bound <= cli._MAX_SAMPLES
        monkeypatch.setattr(certifier, "sample_admissible_lambdas", no_sample)
        monkeypatch.setitem(cli._COMMANDS, command, (no_sample, flags, (default, bound)))
        assert cli.main(argv + ["--samples", str(bound + 1)]) == 2
        assert capsys.readouterr().err == f"usage error: samples must lie in [0, {bound}]\n"

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, flags in FLAGS_READ.items()
        for flag in ["--n", "--m", "--beta0", "--a", "--b", "--samples", "--seed", "--fd-step",
                     "--example", "--point", "--graph-spec", "--which"]
        if flag not in flags
    ])
    def test_unread_flags_exit_two(self, monkeypatch, capsys, command, flag):
        # argparse refuses a flag the subcommand does not read, before _validate or the campaign
        def no_run(*args, **kwargs):
            raise AssertionError(f"{command} ran with {flag}")

        monkeypatch.setattr(cli, "_validate", no_run)
        monkeypatch.setitem(cli._COMMANDS, command, (no_run, *cli._COMMANDS[command][1:]))
        with pytest.raises(SystemExit) as exc:
            cli.main([command, flag, FLAG_VALUES[flag]])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {flag} " in err

    @pytest.mark.parametrize("command", ["graph", "cross-validate"])
    def test_graph_spec_past_the_dimension_bound_exits_two(self, tmp_path, monkeypatch, capsys, command):
        # refused before polynomial_graph builds the graph
        built = []

        def stop(n, m, components):
            built.append(n)
            raise errors.DimensionMismatch("stopped after the dimension check")

        monkeypatch.setattr(graphs, "polynomial_graph", stop)
        for n in (17, 16):
            spec = {"n": n, "m": 1, "components": [{"monomials": [{"exponents": [2] + [0] * (n - 1), "coeff": 1.0}]}]}
            path = tmp_path / f"graph{n}.json"
            path.write_text(json.dumps(spec))
            assert cli.main([command, "--graph-spec", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert ("needs n <= 16, got 17" in err) == (n == 17)
        assert built == [16]

    @pytest.mark.parametrize("command", ["graph", "cross-validate"])
    @pytest.mark.parametrize("monomial", [{"exponents": [0, 2], "coeff": math.nan},
                                          {"exponents": [2.5, 0], "coeff": 1.0},
                                          {"exponents": [0, 2], "coeff": "abc"}])
    def test_graph_spec_with_bad_monomial_exits_two(self, tmp_path, capsys, command, monomial):
        # refused as a malformed spec: not a LinAlgError (NaN), a truncated exponent (2.5) or a
        # ValueError traceback (a string)
        spec = {"n": 2, "m": 1, "components": [{"monomials": [{"exponents": [2, 0], "coeff": 1.0}, monomial]}]}
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(spec))
        assert cli.main([command, "--graph-spec", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "DimensionMismatch: malformed graph spec" in err

    def test_shrink_without_samples_exits_two(self, monkeypatch, capsys):
        # refused by _validate, before eps1 or the centre step runs
        def no_eps1(*args, **kwargs):
            raise AssertionError("eps1 computed before the --samples check")

        monkeypatch.setattr(shrinking, "compute_epsilon1", no_eps1)
        assert cli.main(["shrink", "--n", "1", "--m", "1", "--samples", "0"]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("spec,dims", [
        ({"name": "holomorphic_pair"}, "(3, 2)"),
        ([[[0.3, 0.1], [0.0, 0.2]], [[0.0, 0.0], [0.0, 0.0]]], "(2, 2)"),
    ])
    def test_shrink_refuses_a_cloud_of_other_dimensions(self, tmp_path, monkeypatch, capsys, spec, dims):
        # refused by _validate at the default (4, 3), before eps1, the centre
        # step and the containment check run
        def no_eps1(*args, **kwargs):
            raise AssertionError("eps1 computed before the cloud dimension check")

        monkeypatch.setattr(shrinking, "compute_epsilon1", no_eps1)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["shrink", "--graph-spec", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: cloud dimensions {dims} do not match --n/--m\n"

    @pytest.mark.parametrize("argv,name", [
        (["certify", "--n", "3", "--m", "2"], "compute_K0"),
        (["lemmas", "--which", "iv"], "find_eps0"),
        (["lemmas", "--which", "all"], "find_eps0"),
    ])
    def test_sampled_commands_without_samples_exit_two(self, monkeypatch, capsys, argv, name):
        # an empty sample would pass the audit with margin inf or be clamped to one draw
        def no_run(*args, **kwargs):
            raise AssertionError(f"{name} ran before the --samples check")

        monkeypatch.setattr(certifier, name, no_run)
        monkeypatch.setattr(certifier, "sample_admissible_lambdas", no_run)
        assert cli.main(argv + ["--samples", "0"]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("argv", [["sweep-k0", "--n", "3", "--m", "2"], ["cross-validate"]])
    def test_audit_and_fd_commands_without_samples_exit_two(self, monkeypatch, capsys, argv):
        # sweep-k0 would audit no profile and cross-validate check no point, and both pass
        def no_run(*args, **kwargs):
            raise AssertionError("ran before the --samples check")

        monkeypatch.setattr(certifier, "compute_K0", no_run)
        monkeypatch.setattr(cli, "_load_graph", no_run)
        assert cli.main(argv + ["--samples", "0"]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("n,m", [(5, 5), (6, 5), (16, 2), (16, 16)])
    def test_shrink_refuses_dimensions_past_its_budget(self, monkeypatch, capsys, n, m):
        # refused by _validate, before eps1 or any chart sampling runs
        def no_run(*args, **kwargs):
            raise AssertionError("ran before the n * m check")

        monkeypatch.setattr(grassmann, "sample_chart_sublevel", no_run)
        monkeypatch.setattr(shrinking, "compute_epsilon1", no_run)
        assert cli.main(["shrink", "--n", str(n), "--m", str(m)]) == 2
        assert capsys.readouterr().err == f"usage error: shrink requires n * m <= {cli._SHRINK_MAX_NM}\n"

    @pytest.mark.parametrize("a,beta0", [("1001", "3"), ("10001", "10000"), ("1000001", "1e6")])
    def test_shrink_refuses_a_past_its_budget(self, monkeypatch, capsys, a, beta0):
        # refused by _validate, before eps1 or any chart sampling runs
        def no_run(*args, **kwargs):
            raise AssertionError("ran before the --a check")

        monkeypatch.setattr(grassmann, "sample_chart_sublevel", no_run)
        monkeypatch.setattr(shrinking, "compute_epsilon1", no_run)
        assert cli.main(["shrink", "--a", a, "--beta0", beta0, "--b", beta0]) == 2
        assert capsys.readouterr().err == "usage error: shrink requires 1 < a <= 1000 and 1 <= beta0 < a\n"

    def test_aux_lemmas_need_no_samples(self, capsys):
        assert cli.main(["lemmas", "--which", "aux", "--samples", "0"]) == 0

    def test_failing_check_exits_one(self):
        # an impossible tolerance turns the extrema comparison into a failure
        proc = run_cli(["lemmas", "--which", "aux", "--tolerance", "1e-30"])
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["summary"]["fail"] > 0

    def test_pass_exits_zero(self):
        proc = run_cli(["lemmas", "--which", "aux"])
        assert proc.returncode == 0


class TestParser:
    """`main` builds only the subcommand its argv names; what argparse prints must not change."""

    @staticmethod
    def full_parse(argv):
        """Exit code, stdout and stderr of the six-subcommand parser on an argv it exits on."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        return exc.value.code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", [[cmd, *tail] for cmd in FLAGS_READ
                                      for tail in (["--help"], ["--bogus", "1"], ["--tolerance", "x"])]
                             + [["--help"], ["--version"], [], ["frobnicate"], ["certify", "--which", "iv"],
                                ["lemmas", "--which", "es2"]],
                             ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_output_is_the_full_parsers(self, monkeypatch, argv):
        # one terminal width for the subprocess and the in-process parser
        monkeypatch.setenv("COLUMNS", "80")
        proc = run_cli(argv)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == self.full_parse(argv)

    def test_main_passes_its_argv_to_the_parser(self, monkeypatch, capsys):
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda argv=None: built.append(argv) or build(argv))
        monkeypatch.setattr(sys, "argv", ["gbl", "lemmas", "--which", "aux"])
        assert cli.main() == 0
        assert built == [["lemmas", "--which", "aux"]]

    def test_full_parser_errors_name_the_command(self):
        assert "gbl: error: argument command: invalid choice: 'frobnicate'" in self.full_parse(["frobnicate"])[2]
        assert "gbl: error: the following arguments are required: command" in self.full_parse([])[2]

    @pytest.mark.parametrize("command", FLAGS_READ)
    def test_builds_only_the_named_subcommand(self, command):
        chosen = cli.build_parser([command, "--seed", "1"])
        action = next(a for a in chosen._actions if isinstance(a, argparse._SubParsersAction))
        assert list(action.choices) == [command]


class TestDeterminism:
    def test_identical_bytes(self):
        args = ["certify", "--n", "3", "--m", "2", "--beta0", "2.0", "--samples", "2000", "--seed", "42"]
        out1 = run_cli(args)
        out2 = run_cli(args)
        assert out1.returncode == 0
        assert out1.stdout == out2.stdout
        assert len(out1.stdout) > 100

    def test_seed_changes_audit(self):
        base = ["certify", "--n", "3", "--m", "2", "--beta0", "2.5", "--samples", "2000"]
        out1 = run_cli(base + ["--seed", "1"])
        out2 = run_cli(base + ["--seed", "2"])
        d1 = json.loads(out1.stdout)
        d2 = json.loads(out2.stdout)
        assert d1["config"]["seed"] != d2["config"]["seed"]

    def test_certify_two_two_reaches_the_face(self, capsys):
        # the face minimum at beta0 = 2.1 is 0.98875; a search held at lambda = 0 reported 1,
        # lowered only to 0.98886 by the default audit
        assert cli.main(["certify", "--n", "2", "--m", "2", "--beta0", "2.1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["fail"] == 0
        cert = report["payload"]["certificate"]
        assert cert["k0"] <= 0.98875 and not cert["budget_exhausted"]

    def test_wall_time_not_in_payload(self):
        proc = run_cli(["lemmas", "--which", "aux"])
        assert b"elapsed" not in proc.stdout
        assert b"elapsed" in proc.stderr


class TestChecksCanFail:
    """The K0 audit and the eps0 check fail when their inputs are wrong."""

    @staticmethod
    def _check(report, name):
        return next(c for c in report["checks"] if c["name"] == name)

    def test_audit_fails_when_the_search_misses(self, monkeypatch, capsys):
        # a search of the one row (0.3, 0.3, 0.3) misses the minimum, which the audit finds
        rows = np.full((1, 3), 0.3)
        monkeypatch.setattr(certifier, "_search_rows", lambda m, beta0: rows)
        assert cli.main(["certify", "--n", "4", "--m", "3", "--beta0", "1.5", "--samples", "2000"]) == 1
        report = json.loads(capsys.readouterr().out)
        searched = certifier.min_form_eigenvalue(4, 3, rows)[1]
        audit = certifier.sample_admissible_lambdas(3, 1.5, 2000, substream(0, 3))
        check = self._check(report, "audit_no_undercut")
        assert check["status"] == "FAIL"
        assert check["margin"] == certifier.min_form_eigenvalue(4, 3, audit)[1] - searched < 0.0
        cert = report["payload"]["certificate"]
        assert cert["k0"] == searched and cert["argmin_lambda"] == rows[0].tolist()
        assert len(cert["min_eigenvalue_trace"]) == 1

    def test_eps0_check_fails_outside_the_sublevel_set(self, monkeypatch, capsys):
        # rows lambda = 3 have v = 1000 > 3, where the diagonal block is not PSD
        monkeypatch.setattr(certifier, "sample_admissible_lambdas",
                            lambda m, v_bound, count, rng: np.full((count, m), 3.0))
        assert cli.main(["lemmas", "--which", "iv", "--samples", "100"]) == 1
        report = json.loads(capsys.readouterr().out)
        check = self._check(report, "diag_block_eps0")
        assert check["status"] == "FAIL"
        assert check["margin"] == pytest.approx(-3.5, rel=1e-12)
        assert report["payload"]["eps0"]["eps0"] == check["margin"]


class TestFdAgreement:
    """One rule for the FD check: a step relative to the point, and one rounding bound rho."""

    @staticmethod
    def _geometry(capsys, argv, code=0):
        assert cli.main(argv) == code
        return json.loads(capsys.readouterr().out)["payload"]["geometry"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("point", ["1,0,0,0", "1e2,0,0,0", "1e4,0,0,0", "1e8,0,0,0", "1e12,0,0,0",
                                       "1e59,0,0,0", "3e12,1,1,1"])
    def test_cone_agreement_does_not_depend_on_the_radius(self, capsys, point):
        # the cone is homogeneous of degree 1, v(tx) = v(x) and Delta v(tx) = Delta v(x) / t^2: with
        # the step scaled to x the FD's rounding falls as |B|^2 does, and rel_diff keeps its t = 1 size
        # (an absolute step failed 1e4 and read 0 against the closed form at 1e8 and 3e12,1,1,1)
        geometry = self._geometry(capsys, ["graph", "--example", "lawson_osserman", "--point", point])
        assert geometry["rel_diff"] <= 1e-8

    @pytest.mark.parametrize("t", [1e4, 1e6, 1e8, 1e10, 1e12])
    def test_cone_fd_reads_rounding_below_rho(self, t):
        # v = 9 on the cone, so the FD reads pure rounding, and rho must bound it
        G = graphs.builtin("lawson_osserman")
        args = cli.build_parser().parse_args(["graph"])
        for x in t * substream(36, 1).standard_normal((20, 4)):
            h = cli._fd_step(args, x)
            fd = graphs.laplacian_v_finite_difference(G, x, step=h)
            assert h == 1e-3 * np.abs(x).max()
            assert abs(fd) <= cli._fd_rounding(G.n, 9.0, h)

    def test_a_step_below_rounding_exceeds_the_tolerance(self):
        # at 1e-17 the stencil of (0.3, 0.2, 0.1) collapses onto x: the FD reads 0, and rho exceeds
        # the tolerance times the closed form, which alone sets the scale
        G = graphs.builtin("holomorphic_pair")
        x = np.array([0.3, 0.2, 0.1])
        args = cli.build_parser().parse_args(["graph", "--fd-step", "1e-17"])
        pg = graphs.point_geometry(G, x)
        assert graphs.laplacian_v_finite_difference(G, x, step=cli._fd_step(args, x)) == 0.0
        scale = max(abs(float(certifier.laplacian_v_batch(pg.lambdas, pg.h))), pg.slope * pg.norm_b2)
        assert cli._fd_rounding(G.n, pg.slope, 1e-17) > 1e-3 * scale > 0.0

    def test_flat_graph_agrees_exactly(self, capsys):
        # |B|^2 = 0 and both sides read exactly 0: a scale of 0, no refusal, rel_diff 0
        geometry = self._geometry(capsys, ["graph", "--example", "affine", "--fd-step", "1e-17"])
        assert (geometry["norm_b2"], geometry["laplacian_v_closed"], geometry["rel_diff"]) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("components,point,rel_diff", [
        # 0.3 x^3 - 0.2 x y^2 + 0.1 y z, 0.25 y^3 + 0.4 x y z - 0.15 x^2 z at the default point
        ([[(0.3, [3, 0, 0]), (-0.2, [1, 2, 0]), (0.1, [0, 1, 1])],
          [(0.25, [0, 3, 0]), (0.4, [1, 1, 1]), (-0.15, [2, 0, 1])]], None, 0.2417),
        # x^3 / 2 + x y + 0.7 y z^2, -0.4 y^2 z + 0.9 x z
        ([[(0.5, [3, 0, 0]), (1.0, [1, 1, 0]), (0.7, [0, 1, 2])],
          [(-0.4, [0, 2, 1]), (0.9, [1, 0, 1])]], "0.2,0.3,0.1", 0.077),
    ])
    def test_specs_without_parallel_mean_curvature_still_fail(self, tmp_path, capsys, components, point, rel_diff):
        # the closed form lacks the grad H term: a failed check (exit 1), not a refused step (exit 2)
        spec = {"n": 3, "m": 2, "components": [
            {"monomials": [{"exponents": e, "coeff": c} for c, e in comp]} for comp in components]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["graph", "--graph-spec", str(path)] + (["--point", point] if point else [])
        assert self._geometry(capsys, argv, code=1)["rel_diff"] == pytest.approx(rel_diff, abs=5e-4)

    @pytest.mark.parametrize("argv", [["graph", "--example", "holomorphic_pair"],
                                      ["cross-validate", "--example", "holomorphic_pair", "--samples", "20"]])
    def test_a_closed_form_off_by_2e_3_fails(self, monkeypatch, capsys, argv):
        # the check is no looser where it could already see: a wrong closed form fails it (exit 1)
        batch = certifier.laplacian_v_batch
        monkeypatch.setattr(certifier, "laplacian_v_batch", lambda *a, **k: batch(*a, **k) * (1.0 + 2e-3))
        assert cli.main(argv) == 1
        checks = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks.get("fd_cross_validation", checks.get("fd_agreement")) == "FAIL"


class TestK0CallShape:
    """A K0 command makes one batch minimum, every beta0's search rows and audit in one call;
    at n = m = 2 each face evaluation is one more call of one row."""

    @pytest.mark.parametrize("argv", [["sweep-k0", "--n", "4", "--m", "3"], ["certify", "--n", "5", "--m", "3"],
                                      ["certify", "--n", "2", "--m", "2"]])
    def test_one_batch_minimum_per_command(self, monkeypatch, capsys, argv):
        rows = []
        batch = certifier.min_form_eigenvalue

        def counting(*args, **kwargs):
            rows.append(len(args[2]))
            return batch(*args, **kwargs)

        monkeypatch.setattr(certifier, "min_form_eigenvalue", counting)
        assert cli.main(argv + ["--samples", "500"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        if argv[0] == "sweep-k0":
            # the beta0 = 1 audit is its one admissible profile
            assert rows == [5 * 500 + 10]
            return
        face = payload["certificate"]["evaluations"] - rows[0]
        assert rows == [2 + 500] + [1] * face
        assert (face > 0) == (argv[2] == "2")


class TestReportContract:
    """Keys the benchmark's k0-sweep ops read from the certify and sweep-k0 reports."""

    @staticmethod
    def _report(argv, capsys):
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    def test_certify_and_sweep_keys(self, capsys):
        certify = ["certify", "--n", "5", "--m", "3", "--beta0", "2.9", "--samples", "500", "--seed", "3"]
        sweep = ["sweep-k0", "--n", "4", "--m", "3", "--samples", "500", "--seed", "3"]
        text = self._report(certify, capsys)
        assert self._report(certify, capsys) == text
        report = json.loads(text)
        assert report["summary"]["fail"] == 0
        cert = report["payload"]["certificate"]
        assert {"k0", "beta0", "budget_exhausted"} <= cert.keys()
        text = self._report(sweep, capsys)
        assert self._report(sweep, capsys) == text
        report = json.loads(text)
        assert report["summary"]["fail"] == 0
        assert report["payload"]["rows"]
        for row in report["payload"]["rows"]:
            assert {"k0", "beta0"} <= row.keys()


class TestCommands:
    def test_lemmas_aux_constants(self):
        proc = run_cli(["lemmas", "--which", "aux"])
        payload = json.loads(proc.stdout)
        values = {row["name"]: row for row in payload["payload"]["extrema"]}
        assert values["triple_overlap_ratio"]["closed_form"] == 13.5
        assert abs(values["pair_overlap_ratio"]["closed_form"] - 9.8989794855663558) < 1e-12
        assert abs(values["cubic_threshold"]["closed_form"] - 0.79117926464645849) < 1e-12
        for row in values.values():
            assert row["abs_diff"] < 1e-10

    def test_graph_record(self):
        proc = run_cli(
            ["graph", "--example", "lawson_osserman", "--point", "1,0,0,0", "--fd-step", "1e-3"]
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        geom = payload["payload"]["geometry"]
        assert abs(geom["slope"] - 9.0) < 1e-9
        assert geom["rel_diff"] < 1e-3

    def test_graph_spec_file(self, tmp_path):
        # a minimal polynomial graph (the closed form presumes minimality)
        spec = {
            "n": 2,
            "m": 2,
            "components": [
                {"monomials": [
                    {"exponents": [2, 0], "coeff": 1.0},
                    {"exponents": [0, 2], "coeff": -1.0},
                ]},
                {"monomials": [{"exponents": [1, 1], "coeff": 2.0}]},
            ],
        }
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(spec))
        proc = run_cli(["graph", "--graph-spec", str(path), "--point", "0.2,0.1"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["payload"]["geometry"]["example"] == "polynomial"

    def test_translated_spec_has_the_same_payload(self, tmp_path, capsys):
        # a constant term moves f alone: Df and D^2 f, and so every reported quantity, are bitwise
        # those of the spec without it, however large |f| becomes
        payloads = []
        for offset in ([], [{"exponents": [0, 0], "coeff": 1e6}]):
            spec = {"n": 2, "m": 2, "components": [
                {"monomials": [{"exponents": [2, 0], "coeff": 1.0}, {"exponents": [0, 2], "coeff": -1.0}, *offset]},
                {"monomials": [{"exponents": [1, 1], "coeff": 2.0}]},
            ]}
            path = tmp_path / f"graph{len(offset)}.json"
            path.write_text(json.dumps(spec))
            assert cli.main(["graph", "--graph-spec", str(path), "--point", "0.2,0.1"]) == 0
            payloads.append(json.loads(capsys.readouterr().out)["payload"])
        assert payloads[0] == payloads[1]

    def test_shrink_suite(self):
        proc = run_cli(
            ["shrink", "--n", "2", "--m", "2", "--a", "3.0", "--b", "2.8",
             "--beta0", "2.9", "--samples", "3000", "--seed", "0"]
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        names = {c["name"]: c["status"] for c in payload["checks"]}
        assert names["threshold_identity"] == "PASS"
        assert names["containment"] == "PASS"
        assert names["iteration_count"] == "PASS"

    def test_shrink_with_supplied_cloud(self, tmp_path):
        # a cloud given directly as chart matrices
        cloud = [[[0.3, 0.1], [0.0, 0.2]], [[-0.2, 0.0], [0.1, -0.1]], [[0.0, 0.0], [0.0, 0.0]]]
        path = tmp_path / "cloud.json"
        path.write_text(json.dumps(cloud))
        proc = run_cli(
            ["shrink", "--n", "2", "--m", "2", "--a", "3.0", "--b", "2.0",
             "--beta0", "2.9", "--samples", "2000", "--graph-spec", str(path)]
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["payload"]["iteration"]["k_actual"] >= 1

    def test_shrink_cloud_from_graph(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"name": "holomorphic_pair"}))
        proc = run_cli(
            ["shrink", "--n", "3", "--m", "2", "--a", "3.0", "--b", "2.0",
             "--beta0", "2.9", "--samples", "2000", "--graph-spec", str(path)]
        )
        assert proc.returncode == 0

    def test_sweep_csv(self):
        proc = run_cli(["sweep-k0", "--n", "3", "--m", "2", "--samples", "1000", "--format", "csv"])
        assert proc.returncode == 0
        lines = proc.stdout.decode().strip().splitlines()
        assert lines[0] == "beta0,k0,argmin_lambda,eigen_margin"
        k0s = [float(line.split(",")[1]) for line in lines[1:]]
        assert k0s[0] == 1.0
        assert all(a >= b - 1e-9 for a, b in zip(k0s, k0s[1:]))
        assert 0.0 < k0s[-1] < 0.05

    def test_sweep_reports_closed_form_gap(self):
        proc = run_cli(["sweep-k0", "--n", "3", "--m", "2", "--samples", "1000"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["summary"]["fail"] == 0
        for row in payload["payload"]["rows"]:
            assert row["k0_closed_form"] == min(1.0, row["beta0"] * (3.0 - row["beta0"]) / 2.0)
            assert abs(row["closed_form_gap"]) <= 1e-6

    def test_sweep_at_one_column_matches_its_closed_form(self):
        # with m = 1 there is no II block: K0 = 1 at every beta0 and does not degenerate at 2.99
        proc = run_cli(["sweep-k0", "--n", "3", "--m", "1", "--samples", "1000"])
        assert proc.returncode == 0
        checks = {c["name"]: c for c in json.loads(proc.stdout)["checks"]}
        assert "degenerates_at_three" not in checks
        assert checks["matches_closed_form"]["status"] == "PASS"

    @pytest.mark.parametrize("command", ["certify", "sweep-k0"])
    def test_no_closed_form_at_two_two(self, command):
        # n = m = 2 has only the two IV blocks, so no closed form is claimed
        proc = run_cli([command, "--n", "2", "--m", "2", "--samples", "1000"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)["payload"]
        rows = payload["rows"] if command == "sweep-k0" else [payload["certificate"]]
        for row in rows:
            assert row["k0_closed_form"] is None and row["closed_form_gap"] is None
        assert b'"k0_closed_form":null,"closed_form_gap":null' in proc.stdout

    def test_cross_validate(self):
        proc = run_cli(["cross-validate", "--example", "holomorphic_pair", "--samples", "20"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["summary"]["fail"] == 0
        assert 1.5 < payload["payload"]["richardson"]["order"] < 2.5

    def test_cross_validate_counts_the_points_it_checks(self, capsys):
        # no floor of ten points: --samples 3 draws three, all inside this graph's domain
        assert cli.main(["cross-validate", "--example", "holomorphic_pair", "--samples", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["points_checked"] == 3

    def test_cross_validate_fails_with_no_point_in_the_domain(self, monkeypatch, capsys):
        # the domain keeps only a small ball around the Richardson point, which no draw reaches
        pair = graphs.builtin("holomorphic_pair")
        ball = graphs.GraphImmersion(pair.n, pair.m, pair.f, pair.jac, pair.hess, name="ball_pair",
                                     excluded=lambda x, margin: np.linalg.norm(x - 0.45, axis=-1) > 0.05 - margin)
        monkeypatch.setattr(cli, "_load_graph", lambda args: ball)
        assert cli.main(["cross-validate", "--samples", "5"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["payload"]["points_checked"] == 0
        check = next(c for c in report["checks"] if c["name"] == "fd_agreement")
        assert (check["status"], check["margin"]) == ("FAIL", "-inf")
        assert next(c for c in report["checks"] if c["name"] == "richardson_order")["status"] == "PASS"

    def test_out_file(self, tmp_path):
        path = tmp_path / "report.json"
        proc = run_cli(["lemmas", "--which", "aux", "--out", str(path)])
        assert proc.returncode == 0
        assert proc.stdout == b""
        assert json.loads(path.read_text())["schema"] == 1


class TestConfigEcho:
    def test_schema_and_version(self):
        proc = run_cli(["lemmas", "--which", "aux"])
        payload = json.loads(proc.stdout)
        assert payload["schema"] == 1
        assert payload["tool"] == "gbl"
        assert payload["command"] == "lemmas"
        assert payload["config"]["which"] == "aux"

    def test_parser_covers_spec_flags(self):
        # each subcommand parses its full flag set
        for command, flags in FLAGS_READ.items():
            argv = [command]
            for flag in flags + OUTPUT_FLAGS:
                argv += [flag, FLAG_VALUES[flag]]
            args = cli.build_parser().parse_args(argv)
            assert args.command == command
            assert args.tolerance == 1e-5
            for action in declared(command):
                value = FLAG_VALUES[action.option_strings[0]]
                assert getattr(args, action.dest) == (action.type(value) if action.type else value)

    def test_each_subcommand_declares_only_the_flags_it_reads(self):
        flags = {command: [a.option_strings[0] for a in declared(command)] for command in subparsers()}
        assert flags == {command: read + OUTPUT_FLAGS for command, read in FLAGS_READ.items()}
        assert sum(map(len, flags.values())) == 47
        assert all(len(a.option_strings) == 1 for command in flags for a in declared(command))

    def test_readme_flag_table_matches_the_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `([\w-]+)` \| `([^`]*)` \| ([^|]*) \|$", readme, flags=re.MULTILINE)
        assert [command for command, _, _ in rows] == list(subparsers())
        for command, flags, samples in rows:
            actions = declared(command)
            assert flags.split() == [a.option_strings[0] for a in actions
                                     if a.option_strings[0] not in OUTPUT_FLAGS]
            bounds = cli._COMMANDS[command][2]
            expected = "none" if bounds is None else "{:,} / {:,}".format(*bounds)
            assert samples == expected
            if bounds is not None:
                assert next(a for a in actions if a.dest == "samples").default == bounds[0]

    @pytest.mark.parametrize("command", ["graph", "cross-validate"])
    def test_example_and_graph_spec_exclude_each_other(self, tmp_path, capsys, command):
        # refused before any work: the spec file is never opened
        argv = [command, "--example", "lawson_osserman", "--graph-spec", str(tmp_path / "missing.json")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "usage error: --example and --graph-spec exclude each other\n"

    @pytest.mark.parametrize("argv,example", [
        (["graph"], "holomorphic_pair"),
        (["graph", "--example", "lawson_osserman", "--point", "1,0,0,0"], "lawson_osserman"),
        (["graph", "--graph-spec", "{spec}", "--point", "1,0,0,0"], None),
        (["cross-validate", "--samples", "3"], "holomorphic_pair"),
        (["cross-validate", "--graph-spec", "{spec}", "--samples", "3"], None),
    ])
    def test_config_names_only_the_example_that_ran(self, tmp_path, capsys, argv, example):
        # a spec run records no example; the one without either flag records the default
        path = tmp_path / "graph.json"
        path.write_text('{"name": "lawson_osserman"}')
        assert cli.main([str(path) if a == "{spec}" else a for a in argv]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["example"] == example
        if argv[0] == "graph":
            assert report["payload"]["geometry"]["example"] == (example or "lawson_osserman")

    @pytest.mark.parametrize("command", FLAGS_READ)
    def test_config_echoes_the_declared_flags(self, command):
        args = cli.build_parser().parse_args([command])
        config = cli._validate(args)
        assert list(config) == [a.dest for a in declared(command) if a.dest != "out"]
        assert all(config[key] == getattr(args, key) for key in config)
