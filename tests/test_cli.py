import contextlib
import io
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspkit import cli, consequence, metaenc, optimize
from aspkit.cli import main
from aspkit.compiled import CompiledProgram, Search
from aspkit.core import Atom
from aspkit.parser import render_program
from aspkit.semantics import compile_program
from conftest import TOY_MIN_TEXT, TOY_TEXT
from generators import random_program


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

    def test_non_utf8_byte_position_counts_bytes(self, capsys, tmp_path):
        path = tmp_path / "bad.lp"
        path.write_bytes(b"a.\n\n\xc3\xa9b :- \xff.\n")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 3 and out == ""
        assert err == "parse error: 3:8: not UTF-8: byte 0xff\n"

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

    def test_disjunctive_head_supports_each_of_its_atoms(self, capsys,
                                                          tmp_path):
        # a's only support is a | b :- c, inside the component {a,b,c}
        path = tmp_path / "disjunctive_support.lp"
        path.write_text("a | b :- c.\nc :- a.\nc :- b.\nd.\ne | f.\ne :- f.\n")
        code, out, _ = run(capsys, "check", str(path),
                           "--interpretation", "a,c,d,e")
        assert code == 0
        assert out.splitlines() == [
            "supported-model", "component 0: a,c wait at step 3"]

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

    def test_long_cycle_has_no_atom_cap(self, capsys, tmp_path):
        # 31 true atoms, past the cap of 20 that disjunctive programs keep
        path = tmp_path / "cycle.lp"
        path.write_text("{e}.\nc0 :- e.\nc0 :- c29.\n" + "".join(
            f"c{i} :- c{i - 1}.\n" for i in range(1, 30)))
        cycle = ",".join(f"c{i}" for i in range(30))
        code, out, _ = run(capsys, "check", str(path),
                           "--interpretation", "e," + cycle)
        assert code == 0 and out == "answer-set\n"
        code, out, _ = run(capsys, "check", str(path),
                           "--interpretation", cycle)
        assert code == 0
        waiting = ",".join(sorted(f"c{i}" for i in range(30)))
        assert out.splitlines() == [
            "supported-model", f"component 0: {waiting} wait at step 30"]

    def test_disjunctive_program_keeps_atom_cap(self, capsys, tmp_path):
        path = tmp_path / "disjunctive.lp"
        path.write_text("a0 | z.\n" + "".join(f"a{i}.\n" for i in range(1, 21)))
        code, _, err = run(capsys, "check", str(path), "--interpretation",
                           ",".join(f"a{i}" for i in range(21)))
        assert code == 4 and "cap 20" in err

    def test_one_decomposition_per_check(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "two_cycles.lp"
        path.write_text("a :- b. b :- a. c :- d. d :- c.\n")
        sccs = consequence.sccs
        calls = []

        def counted(graph):
            calls.append(graph)
            return sccs(graph)

        monkeypatch.setattr(consequence, "sccs", counted)
        code, out, _ = run(capsys, "check", str(path),
                           "--interpretation", "a,b,c,d")
        assert code == 0
        assert out.splitlines() == [
            "supported-model", "component 0: a,b wait at step 2",
            "component 1: c,d wait at step 2"]
        assert len(calls) == 1

    @pytest.mark.parametrize("true,verdict", [
        ("", "non-model"), ("a", "answer-set"),
        ("a,c,d", "supported-model"), ("a,g", "model")])
    def test_one_compilation_per_check(self, capsys, tmp_path, monkeypatch,
                                       true, verdict):
        path = tmp_path / "disjunctive.lp"
        path.write_text("a | b. c :- d, not g. d :- c.\n")
        init = CompiledProgram.__init__
        calls = []

        def counted(self, rules, atoms):
            calls.append(atoms)
            init(self, rules, atoms)

        monkeypatch.setattr(CompiledProgram, "__init__", counted)
        code, out, _ = run(capsys, "check", str(path),
                           "--interpretation", true)
        assert code == 0 and out.splitlines()[0] == verdict
        assert len(calls) == 1

    def test_component_lines_are_one_wait_levels_call_each(self, capsys,
                                                            tmp_path):
        """The lines after ``supported-model`` are those of one
        ``wait_levels`` call per non-trivial component, in label order,
        each listing the atoms that still wait."""
        rng = random.Random(53)
        path = tmp_path / "program.lp"
        seen = 0
        for _ in range(300):
            program = random_program(rng, max_atoms=6, max_rules=9,
                                     disjunctive=rng.random() < 0.3)
            compiled = compile_program(program)
            components = consequence.sccs(compiled).nontrivial()
            if not components:
                continue
            path.write_text(render_program(program))
            for mask in range(1 << len(compiled.atoms)):
                if not (compiled.is_model(mask) and compiled.supports(mask)):
                    continue
                x = compiled.decode(mask)
                code, out, _ = run(capsys, "check", str(path),
                                   "--interpretation",
                                   ",".join(a.name for a in x))
                lines = out.splitlines()
                if lines[0] != "supported-model":
                    continue
                expected = []
                for component in components:
                    wait = consequence.wait_levels(compiled, mask,
                                                   component)
                    if wait.waiting_true:
                        names = ",".join(sorted(
                            a.name for a in wait.waiting_true))
                        expected.append(f"component {component.label}: "
                                        f"{names} wait at step {wait.z}")
                assert code == 0 and lines[1:] == expected
                seen += bool(expected)
        assert seen >= 40

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

    def test_output_piped_into_solve_gives_the_optima(
            self, capsys, monkeypatch, toy_min_file, incl_file):
        _, text, _ = run(capsys, "metaenc", toy_min_file,
                         "--criteria", incl_file)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "solve", "-", "--max-atoms", "100")
        holds = [[name[len("hold_atom_"):]
                  for name in line.strip("{}").split(",")
                  if name.startswith("hold_atom_")]
                 for line in out.splitlines()]
        assert code == 0 and holds == [["p", "q"], ["p", "r"], ["s", "t"]]


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

    def test_fail_names_each_set_one_route_lacks(self, capsys, toy_file,
                                                 monkeypatch):
        p, q, r = (Atom(n) for n in "pqr")
        report = metaenc.CrosscheckReport(
            native=(frozenset({p}), frozenset({p, q}), frozenset({q})),
            meta=(frozenset({p}), frozenset({r}), frozenset()),
            rejections=((frozenset({p, q}), frozenset({p})),
                        (frozenset({q}), None)))
        monkeypatch.setattr(metaenc, "crosscheck", lambda *_, **__: report)
        code, out, _ = run(capsys, "crosscheck", toy_file)
        assert code == 1
        assert out.splitlines() == [
            "native (3): {p} {p,q} {q}",
            "meta   (3): {p} {r} {}",
            "only meta: {}",
            "only native: {p,q} (escaped by {p})",
            "only native: {q} (not a stable candidate)",
            "only meta: {r}",
            "FAIL",
        ]

    def test_fail_without_rejections_prints_bare_sets(self, capsys, toy_file,
                                                      monkeypatch):
        p = Atom("p")
        report = metaenc.CrosscheckReport(native=(frozenset({p}),), meta=())
        monkeypatch.setattr(metaenc, "crosscheck", lambda *_, **__: report)
        code, out, _ = run(capsys, "crosscheck", toy_file)
        assert code == 1 and out.splitlines()[-2:] == ["only native: {p}",
                                                        "FAIL"]


    @pytest.mark.parametrize("head, max_atoms, code, message", [
        ("a0. a1.", ["--max-atoms", "64"], 4,
         "cap exceeded: 27 candidate atoms exceed meta cap 26"),
        ("a0 | a1.", ["--max-atoms", "64"], 2,
         "error: only extended programs (no proper disjunctions) can be "
         "reified"),
        ("a0. a1.", [], 4, "cap exceeded: 27 atoms exceed enumeration cap 20"),
        ("a0 | a1.", [], 4,
         "cap exceeded: 27 atoms exceed enumeration cap 20"),
    ], ids=["meta-cap", "reify-contract", "atom-cap", "atom-cap-disjunctive"])
    def test_caps_refuse_before_enumerating(self, capsys, tmp_path,
                                            monkeypatch, head, max_atoms,
                                            code, message):
        """27 atoms: the enumeration cap comes first, then the contract
        of reify, then the meta cap, and each refuses before either
        route enumerates."""
        path = tmp_path / "wide.lp"
        path.write_text(head + "".join(f" a{i}." for i in range(2, 27)))

        def enumerated(self):
            raise AssertionError("enumerated past a cap")

        monkeypatch.setattr(Search, "answer_sets", enumerated)
        assert run(capsys, "crosscheck", str(path), *max_atoms) == (
            code, "", message + "\n")


@pytest.mark.parametrize("argv", [
    ["reify"], ["check", "--interpretation", "r,t"], ["metaenc"],
    ["crosscheck"]], ids=lambda argv: argv[0])
def test_one_decomposition_per_command(capsys, toy_file, monkeypatch, argv):
    """Each command decomposes the program into components once: the
    meta build reads the program's own reification, not a second one.
    ``strong_components`` is the one decomposition that ``reify`` and
    ``sccs`` share."""
    strong_components = consequence.strong_components
    calls = []

    def counted(succ):
        calls.append(succ)
        return strong_components(succ)

    monkeypatch.setattr(consequence, "strong_components", counted)
    code, _, _ = run(capsys, argv[0], toy_file, *argv[1:])
    assert code == 0 and len(calls) == 1


class TestUnmatchedCriterion:
    """A criterion whose (level, weight) has no minimize occurrence is
    reported on stderr; stdout and the exit code stay as they were."""

    PROGRAM = "{a}. {b}. #minimize[a=1@1, b=2@1].\n"
    WARNING = ("warning: criterion optimize(9,9,card) matches no minimize "
               "occurrence\n")

    @pytest.fixture
    def files(self, tmp_path):
        program = tmp_path / "two.lp"
        program.write_text(self.PROGRAM)
        crit = tmp_path / "unmatched.lp"
        crit.write_text("optimize(9,9,card). optimize(1,1,incl).\n")
        return str(program), str(crit)

    def test_optimize_warns(self, capsys, files):
        code, out, err = run(capsys, "optimize", files[0],
                             "--criteria", files[1])
        assert code == 0 and out == "{}\n{b}\n"
        assert err == self.WARNING

    def test_crosscheck_warns(self, capsys, files):
        code, out, err = run(capsys, "crosscheck", files[0],
                             "--criteria", files[1])
        assert code == 0
        assert out == "native (1): {}\nmeta   (1): {}\nPASS\n"
        assert err == self.WARNING

    def test_matched_criteria_stay_quiet(self, capsys, toy_min_file,
                                         incl_file):
        for command in ("optimize", "crosscheck"):
            code, _, err = run(capsys, command, toy_min_file,
                               "--criteria", incl_file)
            assert code == 0 and err == ""


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

    @pytest.mark.parametrize("command", ["optimize", "metaenc", "crosscheck"])
    def test_program_and_criteria_cannot_both_come_from_stdin(
            self, capsys, monkeypatch, command):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "{a}. {b}.\n#minimize[a=1@1,b=1@1].\n"))
        code, out, err = run(capsys, command, "-", "--criteria", "-")
        assert code == 2 and out == ""
        assert "stdin" in err and len(err.splitlines()) == 1

    def test_criteria_from_stdin(self, capsys, monkeypatch, toy_min_file):
        monkeypatch.setattr("sys.stdin", io.StringIO("optimize(1,1,incl).\n"))
        code, out, _ = run(capsys, "optimize", toy_min_file, "--criteria", "-")
        assert code == 0
        assert out.splitlines() == ["{p,q}", "{p,r}", "{s,t}"]

    def test_unknown_file(self, capsys):
        code = main(["solve", "/nonexistent/file.lp"])
        assert code == 2

    def test_interrupt_exits_130(self, capsys, toy_file, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_solve", interrupted)
        code, out, err = run(capsys, "solve", toy_file)
        assert code == 130 and out == ""
        assert err == "interrupted\n"

    def test_out_of_memory_exits_4(self, capsys, toy_min_file, monkeypatch):
        """Running out of memory is a cap, not a crosscheck mismatch:
        exit 4 with one stderr line and no traceback."""
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(optimize, "optimal_answer_sets", exhausted)
        code, out, err = run(capsys, "optimize", toy_min_file)
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1 and "memory" in err
        assert "Traceback" not in err


class TestReuse:
    """One process may call main many times; the parser it keeps carries
    nothing from one call into the next."""

    def test_two_passes_agree(self, capsys, monkeypatch, toy_file,
                              toy_min_file, incl_file, tmp_path):
        bad = tmp_path / "bad.lp"
        bad.write_text("a :- b.\nc :- B.\n")
        sequence = [
            ("solve", toy_file, "--limit", "2", "--max-atoms", "10"),
            ("solve", "-"),
            ("reify", toy_file),
            ("optimize", toy_min_file, "--criteria", incl_file, "--limit", "1"),
            ("optimize", toy_min_file, "--mode", "default"),
            ("check", toy_file, "--interpretation", "p,q"),
            ("check", toy_file, "--interpretation", "", "--max-atoms", "5"),
            ("metaenc", toy_min_file, "--criteria", incl_file),
            ("crosscheck", toy_min_file, "--criteria", incl_file),
            ("solve", toy_file, "--limit", "0"),
            ("solve", str(bad)),
        ]

        def one_pass():
            results = []
            for argv in sequence:
                monkeypatch.setattr("sys.stdin", io.StringIO("a.\n{b}.\n"))
                results.append(run(capsys, *argv))
            return results

        first = one_pass()
        assert [code for code, _, _ in first] == [0] * 9 + [2, 3]
        assert first[1][1] == "{a}\n{a,b}\n"
        assert first[-1][2] == "parse error: 2:6: non-ground input: " \
                               "variable-like token 'B'\n"
        assert one_pass() == first

    def test_criteria_do_not_carry_into_the_next_call(
            self, capsys, toy_min_file, incl_file):
        code, _, _ = run(capsys, "optimize", toy_min_file,
                         "--criteria", incl_file)
        assert code == 0
        code, out, err = run(capsys, "optimize", toy_min_file,
                             "--mode", "default")
        assert code == 0 and out != "" and err == ""


#: Fragments of the program and criteria syntax, so that fuzzed input
#: often gets past the tokenizer.
FRAGMENTS = [b"a", b"b", b"c", b"{", b"}", b"[", b"]", b"(", b")", b":-",
             b".", b",", b"not ", b"|", b"#sum", b"#minimize", b"=", b"@",
             b"0", b"1", b"2", b"-", b" ", b"\n", b"%", b"\xff", b"optimize",
             b"prefer", b"atom", b"neg", b"pos", b"card", b"incl", b"pref"]
#: Whole rules, so that fuzzed input often parses and is solved.
RULES = [b"a.", b"{a}.", b"{b, c}.", b"b :- not a.", b"c :- b, not c.",
         b":- a, b.", b"1 {a, b} 1.", b"a | b.", b"a :- 2 #sum[b=1, not c=2].",
         b"#minimize[a=1@1, not b=2@1].", b"optimize(1,1,incl).",
         b"prefer(pos(atom(a)),neg(atom(b))).", b"\n"]
RAW_INPUT = st.one_of(
    st.binary(max_size=40),
    st.lists(st.sampled_from(FRAGMENTS), max_size=24).map(b"".join),
    st.lists(st.sampled_from(RULES), max_size=8).map(b"".join))
#: Programs and criteria files made of whole statements only, so that
#: fuzzed commands often get past parsing and reach the solvers.
PROGRAM_INPUT = st.one_of(RAW_INPUT, st.lists(st.sampled_from(
    [rule for rule in RULES if not rule.startswith((b"optimize", b"prefer"))]),
    max_size=8).map(b"".join))
CRITERIA = [b"optimize(1,1,card).", b"optimize(1,1,incl).",
            b"optimize(1,1,pref).", b"optimize(1,2,incl).",
            b"optimize(2,1,card).", b"prefer(pos(atom(a)),neg(atom(b))).",
            b"prefer(pos(atom(b)),pos(atom(c))).", b"\n"]
CRITERIA_INPUT = st.one_of(
    RAW_INPUT, st.lists(st.sampled_from(CRITERIA), max_size=4).map(b"".join))


#: The options each command accepts besides its program.
OPTIONS = {"solve": ("--limit", "--max-atoms"), "reify": (),
           "check": ("--interpretation", "--max-atoms"),
           "optimize": ("--criteria", "--mode", "--limit", "--max-atoms"),
           "metaenc": ("--criteria",),
           "crosscheck": ("--criteria", "--max-atoms")}
#: A value per option; None leaves the option out.  The criteria file
#: holds fuzzed input too.
OPTION_VALUES = st.fixed_dictionaries({
    "--interpretation": st.sampled_from(["", "a", "a,b", "z", "A", ","]),
    "--criteria": st.sampled_from([None, "c.lp"]),
    "--mode": st.sampled_from([None, "complex", "default"]),
    "--limit": st.sampled_from([None, "1", "2", "3"]),
    "--max-atoms": st.sampled_from([None, "0", "1", "2", "3", "4"])})


@given(st.sampled_from(sorted(OPTIONS)), PROGRAM_INPUT, CRITERIA_INPUT,
       OPTION_VALUES)
@settings(max_examples=300, deadline=None)
def test_fuzzed_input_exits_with_a_documented_code(command, program,
                                                   criteria, values):
    """Never a traceback, and never exit 1: the two routes of
    crosscheck agree on every input they accept."""
    with tempfile.TemporaryDirectory() as work:
        files = {"p.lp": program, "c.lp": criteria}
        for name, data in files.items():
            with open(os.path.join(work, name), "wb") as handle:
                handle.write(data)
        argv = [command, os.path.join(work, "p.lp")]
        for option in OPTIONS[command]:
            value = values[option]
            if value is not None:
                argv += [option, os.path.join(work, value)
                         if value in files else value]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4, 10), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
