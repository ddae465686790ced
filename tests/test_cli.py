"""CLI contract: structured records, reproducibility, exit codes."""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from bcclab import families as fm
from bcclab import reduction as rd
from bcclab import sim
from bcclab.algorithms import make_algorithm
from bcclab.cli import DEFAULT_SEED, main
from bcclab.sim import KT0, KT1, evaluate_error, instance_to_json, make_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.strip().splitlines()]
    return code, records


def assert_usage_error(capsys, argv, message):
    """Exit 2, nothing on stdout, one "bcclab: error:" line naming the fault."""
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("bcclab: error: ") and message in lines[0]


class TestBasicCommands:
    def test_bell(self, capsys):
        code, records = run_cli(capsys, "bell", "--n", "6")
        assert code == 0
        assert records[0]["record"] == {"n": 6, "bell": 203}

    def test_admitted_counts_print_past_4300_digits(self, capsys):
        code, records = run_cli(capsys, "family", "--n", "2000")
        assert code == 0
        assert records[0]["record"]["v1_closed"] == math.factorial(1999) // 2

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

    def test_twoparty_builds_the_reduction_once(self, capsys, monkeypatch):
        calls = {"build_reduction": 0, "make_instance": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(rd, "build_reduction",
                            counted("build_reduction", rd.build_reduction))
        make = counted("make_instance", sim.make_instance)
        for module in (sim, rd):
            monkeypatch.setattr(module, "make_instance", make)
        code, records = run_cli(
            capsys, "twoparty", "--pa", "(1,2)(3,4)", "--pb", "(2,3)(1,4)",
        )
        assert code == 0 and records[0]["record"]["equivalent"] is True
        assert calls == {"build_reduction": 1, "make_instance": 1}

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


# Instance files that set one entry of the 6-cycle's file (a key path and
# its new value), and the fault the error line names. Port row 0 of the
# 6-cycle is [0, 1, 2, 3, 4, 5].
BAD_INSTANCES = {
    "long-row": (("ports", 0), [0, 1, 2, 3, 4, 5, 6], "KT0 ports at vertex 0"),
    "short-row": (("ports", 0), [0, 1, 2, 3, 4], "KT0 ports at vertex 0"),
    "diagonal": (("ports", 0, 0), 5, "KT0 ports at vertex 0"),
    "n-string": (("n",), "6", "n must be an integer, got '6'"),
    "n-float": (("n",), 6.5, "n must be an integer, got 6.5"),
    "b-string": (("b",), "x", 'b must be 1 (the lab simulates BCC(1)), got "x"'),
    "id-string": (("ids", 1), "a", "ids must be integers, got 'a'"),
    "id-float": (("ids", 5), 5.5, "ids must be integers, got 5.5"),
    "edge-string": (("input_edges", 0, 1), "1", "edge endpoints must be integers, got '1'"),
    "port-string": (("ports", 0, 1), "1", "port labels at vertex 0 must be integers"),
    "edges-int": (("input_edges",), 5, "malformed instance file"),
}


class TestErrorEvalOracle:
    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("mode, algo, budget, rounds", [
        (KT0, "always-yes", 0, ()),  # no budget: --t defaults to 0
        (KT0, "id-exchange", 3, (0, 1)),
        (KT0, "random-table", 0, (2,)),
        (KT1, "full-exchange-sparse", 6, (0, 5)),
    ])
    def test_batched_error_equals_the_instance_oracle(self, capsys, n, mode, algo, budget, rounds):
        # the record sums simulate_members verdicts over the family sides;
        # sim.evaluate_error simulates every member's instance on its own
        fam = fm.enumerate_family(n)
        yes = [fam.one_cycle_instance(key, mode) for key in fam.one_cycles]
        no = [fam.two_cycle_instance(key, mode) for key in fam.all_two_cycle_keys()]
        # the machine as the CLI builds it: defaults from the first member
        params = {"seed": DEFAULT_SEED} if algo == "random-table" else {}
        machine = make_algorithm(algo, instance=yes[0], **params)
        argv = ["error-eval", "--n", str(n), "--mode", mode, "--algo", algo]
        for t in (None, *rounds):
            code, records = run_cli(capsys, *argv, *(() if t is None else ("--t", str(t))))
            record = records[0]["record"]
            assert code == 0 and record["t"] == (budget if t is None else t)
            assert (record["yes_size"], record["no_size"]) == (len(yes), len(no))
            assert Fraction(record["error"]) == evaluate_error(machine, record["t"], yes, no)


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
            (["matrix-rank", "--kind", "M", "--n", "8"], "dimension 4140"),
            (["matrix-rank", "--kind", "M", "--n", "0"], "positive integer"),
            (["join", "--p", "(1,2)", "--q", "(1)(3)"], "element 2 missing"),
            (["indist-stats", "--n", "6", "--t", "1", "--x", "2"], "bad symbol '2'"),
            (["twoparty", "--pa", "(1,2)", "--pb", "(1,2)", "--algo", "always-yes"],
             "--t is required"),
            (["indist-stats", "--n", "6", "--bits", "3"],
             "machine always-silent takes no parameter 'bits'"),
            (["cross", "--cycle", "0,1,2,3,4,5", "--e1", "0,1,2", "--e2", "3,4"],
             "--e1 and --e2 take one head,tail pair each"),
            (["indist-stats", "--n", "7", "--min-cycle-len", "2"],
             "min_cycle_len must be at least 3"),
            (["family", "--n", "7", "--min-cycle-len", "2"],
             "min_cycle_len must be at least 3"),
            (["error-eval", "--n", "7", "--min-cycle-len", "2"],
             "min_cycle_len must be at least 3"),
            (["bell", "--n", "5000"], "bell(5000) is estimated at 2.747e+10 steps"),
            (["bounds", "--which", "entropy", "--n", "5", "--eps", "1/0"],
             "--eps 1/0 has a zero denominator"),
            (["bounds", "--which", "rounds", "--n", "5", "--comm-bits", "inf"],
             "--comm-bits must be finite, got inf"),
            (["bounds", "--which", "entropy", "--n", "5", "--comm-bits", "nan"],
             "--comm-bits must be finite, got nan"),
            (["kmatch", "--left", "3", "--right", "3", "--density", "nan"],
             "--density must lie in [0, 1], got nan"),
            (["kmatch", "--left", "3", "--right", "3", "--density", "1.5"],
             "--density must lie in [0, 1], got 1.5"),
            (["kmatch", "--left", "3", "--right", "3", "--trials", "-2"],
             "--trials must be nonnegative, got -2"),
            (["kmatch", "--left", "-1", "--right", "3"], "--left must be nonnegative, got -1"),
            (["kmatch", "--left", "3", "--right", "-1"], "--right must be nonnegative, got -1"),
            (["fool", "--n", "30", "--t", "1", "--limit", "-1"],
             "--limit must be nonnegative, got -1"),
            (["fool", "--n", "30", "--t", "1", "--sample", "-1"],
             "--sample must be nonnegative, got -1"),
            (["verify-join", "--random", "-1"], "--random must be nonnegative, got -1"),
            (["verify-join", "--random", "3", "--size", "0"],
             "--size must be at least 1, got 0"),
            (["verify-join", "--variant", "two-regular", "--random", "3", "--size", "1"],
             "--size must be at least 2, got 1"),
            # an explicit 20000-vertex table, refused before its rows are read
            (["simulate", "--instance", "{dir}/huge.json", "--t", "1"],
             "an instance on 20000 vertices is estimated"),
            (["verify-join", "--exhaustive", "--n", "7"],
             "the exhaustive sweep at n=7 is estimated"),
            # an empty two-cycle side: the error's half over it is 0/0
            (["error-eval", "--n", "5"],
             "no two-cycle member at n=5 with cycles of length >= 3"),
            (["error-eval", "--n", "6", "--min-cycle-len", "4"],
             "no two-cycle member at n=6 with cycles of length >= 4"),
            (["error-eval", "--n", "11", "--t", "-1"], "round count must be nonnegative"),
        ],
    )
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, argv, message):
        (tmp_path / "huge.json").write_text('{"n": 20000, "input_edges": [], "ports": []}')
        assert_usage_error(capsys, [a.format(dir=tmp_path) for a in argv], message)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--instance", "{dir}/cycle.json", "--algo", "always-yes",
              "--bits", "3", "--t", "1"], "machine always-yes takes no parameter 'bits'"),
            (["simulate", "--instance", "{dir}/missing.json", "--t", "1"],
             "No such file or directory"),
            (["simulate", "--instance", "{dir}/no-edges.json", "--t", "1"],
             "instance file has no 'input_edges' key"),
            (["--out", "{dir}/no-dir/o.jsonl", "bell", "--n", "3"],
             "No such file or directory"),
            (["matrix-rank", "--kind", "M", "--n", "3", "--export-text",
              "{dir}/no-dir/m.txt"], "No such file or directory"),
            (["simulate", "--instance", "{dir}/cycle.json", "--algo", "full-exchange-sparse",
              "--t", "1"], "full-exchange-sparse requires KT1 knowledge"),
        ] + [
            (["simulate", "--instance", "{dir}/" + name + ".json", "--t", "1"], message)
            for name, (_, _, message) in BAD_INSTANCES.items()
        ] + [
            (["simulate", "--instance", "{dir}/wide.json", "--algo", "random-table",
              "--modulus", "3", "--t", "2"], "b must be 1 (the lab simulates BCC(1)), got 2"),
        ],
    )
    def test_bad_file_input_exits_2_with_one_line(self, tmp_path, capsys, argv, message):
        cycle = make_instance(6, [(i, (i + 1) % 6) for i in range(6)])
        (tmp_path / "cycle.json").write_text(instance_to_json(cycle))
        (tmp_path / "no-edges.json").write_text('{"n": 3}')
        wide = json.loads(instance_to_json(cycle)) | {"b": 2}
        (tmp_path / "wide.json").write_text(json.dumps(wide))
        for name, (path, value, _) in BAD_INSTANCES.items():
            doc = json.loads(instance_to_json(cycle))
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        assert_usage_error(capsys, [a.format(dir=tmp_path) for a in argv], message)

    @pytest.mark.parametrize("edges, message", [
        ([[0, 1, 2], [2, 3]], "input edge [0, 1, 2] is not a pair"),
        ({"a": 1}, "input edge 'a' is not a pair"),
    ], ids=["triple", "object"])
    def test_edge_that_is_not_a_pair_is_named(self, tmp_path, capsys, edges, message):
        path = tmp_path / "edges.json"
        path.write_text(json.dumps({"n": 4, "input_edges": edges}))
        assert_usage_error(capsys, ["simulate", "--instance", str(path), "--t", "1"], message)

    def test_simulate_takes_no_tape_option(self):
        # a machine's fixed public tape is one of its parameters, like --seed
        from bcclab.cli import build_parser

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        options = {s for a in sub.choices["simulate"]._actions for s in a.option_strings}
        assert options == {"-h", "--help", "--instance", "--algo", "--bits", "--max-degree",
                           "--modulus", "--seed", "--t"}

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

    @pytest.mark.parametrize("b, refused", [
        (None, None), (1, None), (2, "got 2"), ("x", 'got "x"'), (True, "got true"),
    ])
    def test_instance_b_is_missing_or_one(self, tmp_path, capsys, b, refused):
        doc = {"n": 4, "input_edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}
        if b is not None:
            doc["b"] = b
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        argv = ["simulate", "--instance", str(path), "--t", "1"]
        if refused is None:
            assert run_cli(capsys, *argv)[0] == 0
        else:
            assert_usage_error(capsys, argv, "b must be 1 (the lab simulates BCC(1)), " + refused)


# SHA-256 of the stdout of one small run of each subcommand. Reports are
# part of the contract: regenerate a digest only when a report's bytes
# change on purpose. ``cycle6.json`` is the 6-cycle the test writes.
PINNED_REPORTS = {
    "bell": (
        ["bell", "--n", "10"],
        "fff08ed9a81cad661abdd70acc656c1f8446245f9f60a3f568405b728a58475c",
    ),
    "partitions": (
        ["partitions", "--n", "4"],
        "8747567802b586b0ec0589d175a243d24bc5fb2617a23493fcb3d7ef5a1971ba",
    ),
    "join": (
        ["join", "--p", "(1,2)(3,4)(5)", "--q", "(1,2,4)(3)(5)"],
        "045cbd835416327303ed70a3eb077769663188f66cc294107e94caca51577b71",
    ),
    "matrix-rank": (
        ["matrix-rank", "--kind", "E", "--n", "6"],
        "f7e1fd39c25ab28791e27b072c002c5f22a28c491adc23b3814fcf83704232db",
    ),
    "family": (
        ["family", "--n", "6", "--dump-members"],
        "a5695e0eeb848ecd863b98f05dbfe81117d6bec77f9f4d9842ae6c0425e051ae",
    ),
    "indist-build": (
        ["indist-build", "--n", "7", "--dump-edges"],
        "1cd86f34b23441844f7672f01f4cd26426accd75089d40a5ea8561f595074915",
    ),
    "indist-stats": (
        ["indist-stats", "--n", "8", "--min-cycle-len", "4"],
        "69074350be5982559162a3605789a7f744dd82c8c7ac3fd145f973e2433e09aa",
    ),
    "kmatch": (
        ["kmatch", "--left", "6", "--right", "12", "--k",
         "2", "--trials", "5", "--seed", "3"],
        "a05bc792179f89079198aad20d4a7bb35be136cc778e4fbb3171fa41f262908b",
    ),
    "cross": (
        ["cross", "--cycle", "0,1,2,3,4,5", "--e1", "0,1", "--e2", "3,4"],
        "d568edf65bbac9167e314c13a68a931dbf6550cc76a4df72a21c9122f159c65b",
    ),
    "fool": (
        ["fool", "--n", "30", "--t", "1", "--bits", "5", "--limit", "3"],
        "8dd4df61733d0cc3a2c5f2838355a18c84715f6500a2430a680717ab8043165c",
    ),
    "reduce": (
        ["reduce", "--pa", "(1,2)(3,4)(5)", "--pb", "(1,2,4)(3)(5)", "--dump"],
        "606f56e74aabb20b4a8c349b5632ffe442c39aca0349573c9a904ac03c49eee2",
    ),
    "verify-join": (
        ["verify-join", "--random", "20", "--size", "12", "--seed", "42"],
        "3ce4fb892253968ba1e5c5bf5ec790df33930b0c70fcbd8eb6e7cd84e8a6a1b4",
    ),
    "twoparty": (
        ["twoparty", "--pa", "(1,2)(3,4)", "--pb", "(2,3)(1,4)", "--dump"],
        "212af98dba0686fc90d2cd81b8f9c6cd247f9fdb7274f9711489910b05ca7d29",
    ),
    "simulate": (
        ["simulate", "--instance", "cycle6.json", "--algo",
         "id-exchange", "--bits", "3", "--t", "3"],
        "b505a96356399a36830b49500976c336b152a46133fa92a7c90eb526b6d1c3a7",
    ),
    "error-eval": (
        ["error-eval", "--n", "6", "--t", "1", "--algo", "id-exchange", "--bits", "3"],
        "93bff55dfa1034ea4240d4866c44bfba7f1a63a68577af7af680b048987bdab8",
    ),
    "bounds": (
        ["bounds", "--which", "entropy", "--n", "6", "--eps", "1/3"],
        "dc33b5356c6df909b2efaff5ae59724b481612e4af4910178e432f2e10b0d5f3",
    ),
}


class TestPinnedReports:
    def test_every_subcommand_is_pinned(self):
        from bcclab.cli import build_parser

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        assert set(PINNED_REPORTS) == set(sub.choices)

    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_report_digest(self, name, tmp_path, monkeypatch, capsys):
        argv, digest = PINNED_REPORTS[name]
        monkeypatch.chdir(tmp_path)
        cycle = make_instance(6, [(i, (i + 1) % 6) for i in range(6)])
        (tmp_path / "cycle6.json").write_text(instance_to_json(cycle))
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
