import pytest

from aspkit.cli import main
from conftest import TOY_MIN_TEXT, TOY_TEXT


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.lp"
    path.write_text(TOY_TEXT)
    return str(path)


@pytest.fixture
def toy_min_file(tmp_path):
    path = tmp_path / "toy_min.lp"
    path.write_text(TOY_MIN_TEXT)
    return str(path)


@pytest.fixture
def incl_file(tmp_path):
    path = tmp_path / "incl.lp"
    path.write_text("optimize(1,1,incl).\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_five_lines(self, capsys, toy_file):
        code, out, _ = run(capsys, "solve", toy_file)
        assert code == 0
        assert out.splitlines() == [
            "{p,q}", "{p,r}", "{p,s}", "{p,s,t}", "{s,t}"]

    def test_no_answer_set_exits_10(self, capsys, tmp_path):
        path = tmp_path / "none.lp"
        path.write_text(":- not a.\n")
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 10 and out == ""

    def test_cap_exceeded_exits_4(self, capsys, tmp_path):
        path = tmp_path / "big.lp"
        path.write_text("".join(f"a{i}.\n" for i in range(21)))
        code, _, err = run(capsys, "solve", str(path))
        assert code == 4 and "cap" in err

    def test_limit_flag(self, capsys, toy_file):
        code, out, _ = run(capsys, "solve", toy_file, "--limit", "2")
        assert code == 0 and out.splitlines() == ["{p,q}", "{p,r}"]

    def test_parse_error_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.lp"
        path.write_text("a :- B.\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 3 and "1:6" in err

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("a.\n"))
        code, out, _ = run(capsys, "solve", "-")
        assert code == 0 and out == "{a}\n"

    @pytest.mark.parametrize("source", ["program", "criteria", "stdin"])
    def test_non_utf8_input_is_a_parse_error(self, capsys, monkeypatch,
                                             tmp_path, toy_file, source):
        import io
        bad = b"a.\n\xff\xfe a.\n"
        path = tmp_path / "bad.lp"
        path.write_bytes(bad)
        if source == "program":
            argv = ["optimize", str(path)]
        elif source == "criteria":
            argv = ["optimize", toy_file, "--criteria", str(path)]
        else:
            monkeypatch.setattr(
                "sys.stdin", io.TextIOWrapper(io.BytesIO(bad), "utf-8"))
            argv = ["optimize", "-"]
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == "parse error: 2:1: not UTF-8: byte 0xff\n"

    def test_deterministic(self, capsys, toy_file):
        first = run(capsys, "solve", toy_file)
        second = run(capsys, "solve", toy_file)
        assert first == second


class TestOptimize:
    def test_inclusion(self, capsys, toy_min_file, incl_file):
        code, out, _ = run(capsys, "optimize", toy_min_file,
                           "--criteria", incl_file)
        assert code == 0
        assert out.splitlines() == ["{p,q}", "{p,r}", "{s,t}"]

    def test_default_mode(self, capsys, toy_min_file):
        code, out, _ = run(capsys, "optimize", toy_min_file,
                           "--mode", "default")
        assert code == 0 and out == "{s,t}\n"

    def test_criteria_rejected_in_default_mode(self, capsys, toy_min_file,
                                               incl_file):
        code, _, err = run(capsys, "optimize", toy_min_file,
                           "--mode", "default", "--criteria", incl_file)
        assert code == 2 and "criteria" in err

    def test_empty_criteria_file(self, capsys, toy_min_file, tmp_path):
        empty = tmp_path / "empty.lp"
        empty.write_text("")
        code, out, _ = run(capsys, "optimize", toy_min_file,
                           "--criteria", str(empty))
        assert code == 0 and len(out.splitlines()) == 5

    def test_missing_criteria_means_empty(self, capsys, toy_min_file):
        code, out, _ = run(capsys, "optimize", toy_min_file)
        assert code == 0 and len(out.splitlines()) == 5

    def test_preference_criteria(self, capsys, tmp_path):
        program = tmp_path / "pick.lp"
        program.write_text(
            "a :- not b. b :- not a.\n#minimize[a=1@1, b=1@1].\n")
        crit = tmp_path / "pref.lp"
        crit.write_text(
            "optimize(1,1,pref). prefer(pos(atom(a)),pos(atom(b))).\n")
        code, out, _ = run(capsys, "optimize", str(program),
                           "--criteria", str(crit))
        assert code == 0 and out == "{a}\n"


class TestCheck:
    def test_answer_set(self, capsys, toy_file):
        code, out, _ = run(capsys, "check", toy_file,
                           "--interpretation", "p,r")
        assert code == 0 and out == "answer-set\n"

    def test_supported_model_reports_waiting_atoms(self, capsys, toy_file):
        code, out, _ = run(capsys, "check", toy_file,
                           "--interpretation", "r,t")
        assert code == 0
        assert out.splitlines() == [
            "supported-model", "component 0: r,t wait at step 3"]

    def test_non_model(self, capsys, toy_file):
        code, out, _ = run(capsys, "check", toy_file, "--interpretation", "")
        assert code == 0 and out == "non-model\n"

    def test_plain_model(self, capsys, toy_file):
        code, out, _ = run(capsys, "check", toy_file,
                           "--interpretation", "p,q,s")
        assert code == 0 and out == "model\n"

    def test_unknown_atom(self, capsys, toy_file):
        code, _, err = run(capsys, "check", toy_file,
                           "--interpretation", "p,zz")
        assert code == 2 and "zz" in err

    @pytest.mark.parametrize("names", ["A", "a b", "p,Q"])
    def test_invalid_atom_name(self, capsys, toy_file, names):
        code, out, err = run(capsys, "check", toy_file,
                             "--interpretation", names)
        assert code == 2 and out == ""
        assert err.startswith("error: invalid atom name")
        assert len(err.splitlines()) == 1


class TestReify:
    def test_first_fact(self, capsys, toy_file):
        code, out, _ = run(capsys, "reify", toy_file)
        assert code == 0
        assert out.splitlines()[0] == \
            "rule(pos(sum(1,0,2)),pos(conjunction(0)))."

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.lp"
        path.write_text("")
        code, out, _ = run(capsys, "reify", str(path))
        assert code == 0 and out == ""

    def test_malformed(self, capsys, tmp_path):
        path = tmp_path / "bad.lp"
        path.write_text("a :-\n:- b\n")
        code, _, err = run(capsys, "reify", str(path))
        assert code == 3 and "2:1" in err


class TestMetaenc:
    def test_contains_guess_and_acceptance(self, capsys, toy_min_file,
                                            incl_file):
        code, out, _ = run(capsys, "metaenc", toy_min_file,
                           "--criteria", incl_file)
        assert code == 0
        assert ":- not bot." in out
        assert "true_atom_p | fail_atom_p." in out

    def test_wait_steps_reach_component_size(self, capsys, toy_file):
        code, out, _ = run(capsys, "metaenc", toy_file)
        assert code == 0 and "wait_atom_r_3" in out

    def test_disjunctive_input_exits_2(self, capsys, tmp_path):
        path = tmp_path / "disj.lp"
        path.write_text("a | b.\n")
        code, _, err = run(capsys, "metaenc", str(path))
        assert code == 2 and "disjunction" in err

    def test_output_reparses(self, capsys, toy_min_file, incl_file):
        from aspkit.parser import parse_program
        _, out, _ = run(capsys, "metaenc", toy_min_file,
                        "--criteria", incl_file)
        parse_program(out)


class TestCrosscheck:
    def test_inclusion_pass(self, capsys, toy_min_file, incl_file):
        code, out, _ = run(capsys, "crosscheck", toy_min_file,
                           "--criteria", incl_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "native (3): {p,q} {p,r} {s,t}"
        assert lines[1] == "meta   (3): {p,q} {p,r} {s,t}"
        assert lines[2] == "PASS"

    def test_cardinality_pass(self, capsys, toy_min_file, tmp_path):
        card = tmp_path / "card.lp"
        card.write_text("optimize(1,1,card).\n")
        code, out, _ = run(capsys, "crosscheck", toy_min_file,
                           "--criteria", str(card))
        assert code == 0 and "(1)" in out and out.endswith("PASS\n")

    def test_empty_criteria_pass(self, capsys, toy_file):
        code, out, _ = run(capsys, "crosscheck", toy_file)
        assert code == 0 and "native (5)" in out


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("command", ["solve", "optimize"])
    @pytest.mark.parametrize("value", ["0", "-1", "x", "1.5"])
    def test_limit_must_be_positive(self, capsys, toy_file, command, value):
        code, out, err = run(capsys, command, toy_file, "--limit", value)
        assert code == 2 and out == ""
        assert "--limit" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", [
        ["solve"], ["optimize"], ["check", "--interpretation", "p"],
        ["crosscheck"]])
    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_max_atoms_must_be_non_negative(self, capsys, toy_file, command,
                                            value):
        code, out, err = run(capsys, command[0], toy_file, *command[1:],
                             "--max-atoms", value)
        assert code == 2 and out == ""
        assert "--max-atoms" in err and len(err.splitlines()) == 1

    def test_smallest_accepted_values(self, capsys, toy_file, tmp_path):
        code, out, _ = run(capsys, "solve", toy_file, "--limit", "1")
        assert code == 0 and out == "{p,q}\n"
        empty = tmp_path / "empty.lp"
        empty.write_text("")
        code, out, _ = run(capsys, "solve", str(empty), "--max-atoms", "0")
        assert code == 0 and out == "{}\n"
        code, _, err = run(capsys, "solve", toy_file, "--max-atoms", "0")
        assert code == 4 and "cap" in err

    def test_unknown_file(self, capsys):
        code = main(["solve", "/nonexistent/file.lp"])
        assert code == 2
