import json
import subprocess
import sys

import numpy as np
import pytest

from gbl import cli
from gbl.reporting import dumps


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

    def test_shrink_over_eps1_budget_exits_two(self, monkeypatch, capsys):
        # 17 x 8^8 eps1 profiles exceed the shrink budget: refused before the grid exists
        def no_grid(*args, **kwargs):
            raise AssertionError("the eps1 grid was built before the budget check")

        monkeypatch.setattr(np, "meshgrid", no_grid)
        assert cli.main(["shrink", "--n", "8", "--m", "8", "--seed", "0"]) == 2
        assert "PreconditionViolated" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("example,point", [("holomorphic_pair", "inf,0,0"),
                                               ("lawson_osserman", "inf,0,0,0"),
                                               ("holomorphic_pair", "0,nan,0")])
    def test_graph_non_finite_point_exits_two(self, capsys, example, point):
        # refused by the domain check, before any numpy warning or derived error
        assert cli.main(["graph", "--example", example, "--point", point]) == 2
        assert "OutOfDomain" in capsys.readouterr().err

    def test_failing_check_exits_one(self):
        # an impossible tolerance turns the extrema comparison into a failure
        proc = run_cli(["lemmas", "--which", "aux", "--tolerance", "1e-30"])
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["summary"]["fail"] > 0

    def test_pass_exits_zero(self):
        proc = run_cli(["lemmas", "--which", "aux"])
        assert proc.returncode == 0


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

    def test_wall_time_not_in_payload(self):
        proc = run_cli(["lemmas", "--which", "aux"])
        assert b"elapsed" not in proc.stdout
        assert b"elapsed" in proc.stderr


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

    def test_cross_validate(self):
        proc = run_cli(["cross-validate", "--example", "holomorphic_pair", "--samples", "20"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["summary"]["fail"] == 0
        assert 1.5 < payload["payload"]["richardson"]["order"] < 2.5

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
        parser = cli.build_parser()
        args = parser.parse_args(
            ["graph", "--n", "3", "--m", "2", "--beta0", "2.5", "--a", "3", "--b", "2",
             "--samples", "10", "--seed", "7", "--fd-step", "1e-4", "--example", "affine",
             "--point", "1,2,3", "--out", "x.json", "--format", "csv", "--tolerance", "1e-5"]
        )
        assert args.command == "graph"
        assert args.tolerance == 1e-5
