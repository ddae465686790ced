"""CLI contract: structured records, reproducibility, exit codes."""

import json

import pytest

from bcclab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.strip().splitlines()]
    return code, records


class TestBasicCommands:
    def test_bell(self, capsys):
        code, records = run_cli(capsys, "bell", "--n", "6")
        assert code == 0
        assert records[0]["record"] == {"n": 6, "bell": 203}

    def test_join(self, capsys):
        code, records = run_cli(
            capsys, "join", "--p", "(1,2)(3,4)(5)", "--q", "(1,2,4)(3)(5)"
        )
        assert code == 0
        assert records[0]["record"]["join"] == "(1,2,3,4)(5)"

    def test_partitions_count(self, capsys):
        code, records = run_cli(
            capsys, "partitions", "--n", "5", "--count-only"
        )
        assert code == 0
        assert records[-1]["record"] == {
            "count": 52, "expected": 52, "expected_source": "formula",
            "pass": True,
        }

    def test_matrix_rank_m5(self, capsys):
        code, records = run_cli(capsys, "matrix-rank", "--kind", "M", "--n", "5")
        assert code == 0
        rec = records[0]["record"]
        assert rec["dimension"] == rec["rank"] == rec["expected"] == 52
        assert rec["pass"] is True

    def test_bounds_pigeonhole(self, capsys):
        code, records = run_cli(
            capsys, "bounds", "--which", "pigeonhole", "--n", "81", "--t", "1"
        )
        assert code == 0
        assert records[0]["record"]["exact"] == "1/117"


class TestVerificationCommands:
    def test_verify_join_exhaustive_two_regular(self, capsys):
        code, records = run_cli(
            capsys, "verify-join", "--variant", "two-regular", "--n", "4",
            "--exhaustive",
        )
        assert code == 0
        assert records[0]["record"] == {"checked": 9, "failures": 0, "pass": True}

    def test_family_enumeration(self, capsys):
        code, records = run_cli(
            capsys, "family", "--n", "7", "--enumerate"
        )
        assert code == 0
        rec = records[0]["record"]
        assert rec["v1_enumerated"] == 360 and rec["t_enumerated"] == {"3": 105}

    def test_indist_stats(self, capsys):
        code, records = run_cli(capsys, "indist-stats", "--n", "6")
        assert code == 0
        rec = records[0]["record"]
        assert rec["pass"] is True and rec["edge_count"] == 180

    def test_fool(self, capsys):
        code, records = run_cli(
            capsys, "fool", "--n", "30", "--t", "1", "--algo", "id-exchange",
            "--bits", "5", "--limit", "3",
        )
        assert code == 0
        summary = records[-1]["record"]
        assert summary["pairs"] > 0
        assert summary["verification"]["failures"] == 0

    def test_twoparty(self, capsys):
        code, records = run_cli(
            capsys, "twoparty", "--pa", "(1,2)(3,4)", "--pb", "(2,3)(1,4)",
        )
        assert code == 0
        rec = records[0]["record"]
        assert rec["equivalent"] is True
        assert rec["system"] == rec["ground_truth"] == "YES"

    def test_error_eval_always_yes(self, capsys):
        code, records = run_cli(
            capsys, "error-eval", "--n", "6", "--t", "0", "--algo", "always-yes",
        )
        assert code == 0
        assert records[0]["record"]["error"] == "1/2"

    def test_kmatch_agreement(self, capsys):
        code, records = run_cli(
            capsys, "kmatch", "--left", "6", "--right", "12", "--k", "2",
            "--trials", "5", "--seed", "3",
        )
        assert code == 0
        assert records[-1]["record"]["pass"] is True

    def test_cross(self, capsys):
        code, records = run_cli(
            capsys, "cross", "--cycle", "0,1,2,3,4,5", "--e1", "0,1",
            "--e2", "3,4",
        )
        assert code == 0
        rec = records[0]["record"]
        assert rec["crossed_cycles"] == [[0, 4, 5], [1, 2, 3]]

    def test_reduce(self, capsys):
        code, records = run_cli(
            capsys, "reduce", "--pa", "(1,2)(3,4)(5)", "--pb", "(1,2,4)(3)(5)",
        )
        assert code == 0
        assert records[0]["record"]["components"] == "(1,2,3,4)(5)"


class TestReportDiscipline:
    def test_byte_identical_reports(self, capsys):
        argv = ["verify-join", "--variant", "general", "--random", "20",
                "--size", "12", "--seed", "42"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_config_echoed(self, capsys):
        _, records = run_cli(capsys, "bell", "--n", "3")
        doc = records[0]
        assert doc["tool"] == "bcclab"
        assert doc["config"]["command"] == "bell"
        assert doc["config"]["n"] == 3
        assert doc["version"]

    def test_human_format(self, capsys):
        code = main(["--format", "human", "bell", "--n", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bell: 15" in out

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["no-such-command"])
        assert e.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["bell"])
        assert e.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["matrix-rank", "--kind", "M", "--n", "8"], "kind M needs n<=7"),
            (["matrix-rank", "--kind", "M", "--n", "0"], "positive integer"),
            (["join", "--p", "(1,2)", "--q", "(1)(3)"], "element 2 missing"),
            (["indist-stats", "--n", "6", "--t", "1", "--x", "2"], "bad symbol '2'"),
            (["twoparty", "--pa", "(1,2)", "--pb", "(1,2)", "--algo", "always-yes"],
             "--t is required"),
        ],
    )
    def test_bad_input_exits_2_with_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("bcclab: error: ") and message in lines[0]

    def test_rejected_command_leaves_out_file_unchanged(self, tmp_path, capsys):
        path = tmp_path / "o.jsonl"
        path.write_text("earlier report\n")
        with pytest.raises(SystemExit) as e:
            main(["--out", str(path), "matrix-rank", "--kind", "M", "--n", "8"])
        assert e.value.code == 2
        assert path.read_text() == "earlier report\n"
        assert main(["--out", str(path), "bell", "--n", "4"]) == 0
        assert json.loads(path.read_text())["record"] == {"n": 4, "bell": 15}

    def test_simulate_from_file(self, tmp_path, capsys):
        from bcclab.sim import instance_to_json, make_instance

        inst = make_instance(6, [(i, (i + 1) % 6) for i in range(6)])
        path = tmp_path / "inst.json"
        path.write_text(instance_to_json(inst))
        code, records = run_cli(
            capsys, "simulate", "--instance", str(path), "--algo",
            "id-exchange", "--bits", "3", "--t", "3",
        )
        assert code == 0
        rec = records[0]["record"]
        assert rec["system"] == "YES"
        assert rec["sent"][5] == "101"  # id 5 LSB-first
