import argparse
import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coxtw import cli
from coxtw.cli import main
from coxtw.errors import DomainError, ExprError, ResourceError, ValidationError
from coxtw.exprs import parse_biclosed
from coxtw.system import build_system

GOLDEN = Path(__file__).parent / "data" / "a1_twist.dot"
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# the benchmark's fixed invocations with their exit codes and stdout hashes,
# and the same invocations in the other format: text and json swapped, and
# dot or no --format made json
CLI_ROWS = {"golden": ROOT / "perfbench" / "cli_golden.json",
            "flipped": Path(__file__).parent / "data" / "cli_flipped.json"}
A2T = build_system("A~2")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots_text(capsys):
    code, out, _ = run(capsys, "--type", "A2", "roots")
    assert code == 0
    assert out == "0.1\n1.0\n1.1\n"


def test_roots_affine_level(capsys):
    code, out, _ = run(capsys, "--type", "A~1", "roots", "--level", "1")
    assert code == 0
    assert out.splitlines() == ["1", "-1:1", "1:1"]


def test_ball_json(capsys):
    code, out, _ = run(capsys, "--type", "A2", "ball", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"count": 5, "elements": [[], [0], [1], [0, 1], [1, 0]]}
    assert out.endswith("\n") and "\n" not in out[:-1]


def test_e8_ball_json_is_pinned(capsys):
    # the 2,508 elements of E8 up to length 6, each with its ShortLex word
    code, out, _ = run(capsys, "--type", "E8", "ball", "6", "--format", "json")
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == "21936c4219e1f1bc1a4c1072d3987c22"


def test_invset(capsys):
    code, out, _ = run(capsys, "--type", "A2", "invset", "0,1")
    assert code == 0
    assert out == "1.0\n1.1\n"


def test_tlen(capsys):
    code, out, _ = run(capsys, "--type", "A~1", "tlen", "1,0",
                       "--biclosed", "hat 0::")
    assert code == 0
    assert out == "-2\n"


def test_le_and_chain(capsys):
    code, out, _ = run(capsys, "--type", "A~1", "le", "1", "0",
                       "--biclosed", "hat 0::")
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, "--type", "A~1", "le", "0", "1",
                       "--biclosed", "hat 0::")
    assert code == 0 and out == "false\n"
    code, out, _ = run(capsys, "--type", "A~1", "chain", "1", "0",
                       "--biclosed", "hat 0::", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"chain": [[1], [], [0]]}


def test_chain_incomparable_exit2(capsys):
    code, _, err = run(capsys, "--type", "A~1", "chain", "0", "1",
                       "--biclosed", "hat 0::")
    assert code == 2
    assert err


def test_meet_and_join(capsys):
    code, out, _ = run(capsys, "--type", "A~1", "meet", "0", "1",
                       "--biclosed", "hat 0::")
    assert code == 0 and out == "s_{d-a}\n"
    code, out, _ = run(capsys, "--type", "A~1", "meet", "0", "1",
                       "--biclosed", "hat 0::", "--join")
    assert code == 0 and out == "s_a\n"
    code, _, err = run(capsys, "--type", "A~1", "meet", "0", "1",
                       "--biclosed", "empty", "--join")
    assert code == 2 and err
    # the complement of hat e:0: has no witness, so these take join's bounded search
    for pair, word in ((("0", "1"), "[0]"), (("2", "1"), "[2]")):
        code, out, _ = run(capsys, "--type", "A~2", "meet", *pair, "--join",
                           "--biclosed", "hat e:0:", "--format", "json")
        assert code == 0 and out == f'{{"tlen": 1, "word": {word}}}\n', pair
    code, _, err = run(capsys, "--type", "A~2", "meet", "0", "1,2", "--join",
                       "--biclosed", "hat e:0:", "--format", "json")
    assert code == 2 and err == "error: no common upper bound within the search ball\n"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "--type", "A~1", "classify",
                       "--biclosed", "complement(empty)", "--format", "json")
    assert code == 0
    assert out == '{"kind": "neither", "witness": [[1, 1], [-1, 1]]}\n'


def test_classify_infinite_text(capsys):
    code, out, _ = run(capsys, "--type", "A~1", "classify",
                       "--biclosed", "hat 0::")
    assert code == 0
    assert "infinite" in out


def test_hasse_json(capsys):
    code, out, _ = run(capsys, "--type", "A~1", "hasse", "--radius", "1",
                       "--biclosed", "hat 0::", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "edges": [[0, 1], [1, 2]],
        "nodes": [{"tlen": -1, "word": [1]},
                  {"tlen": 0, "word": []},
                  {"tlen": 1, "word": [0]}],
    }


def test_figure_matches_golden(capsys):
    code, out, _ = run(capsys, "figure", "a1-twist", "--format", "dot")
    assert code == 0
    assert out == GOLDEN.read_text()


def test_figure_type_mismatch(capsys):
    code, _, err = run(capsys, "--type", "A~2", "figure", "a1-twist",
                       "--format", "dot")
    assert code == 2 and err


def test_check_counterexample(capsys):
    code, out, _ = run(capsys, "--type", "A~1", "check", "--radius", "3",
                       "--biclosed", "full", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "counterexample"
    assert data["pair"] == [[0], [1]]


def test_selftest(capsys, monkeypatch):
    code, out, _ = run(capsys, "--type", "A2", "selftest", "--radius", "1")
    assert code == 0
    assert "0 mismatches" in out or "mismatches: 0" in out or "ok" in out
    # a mismatch exits 2 in either format
    report = {"checked": 3, "mismatches": [{"y": [1], "x": [0]}]}
    monkeypatch.setattr("coxtw.cli.run_selftest", lambda system, radius: report)
    code, out, _ = run(capsys, "--type", "A2", "selftest")
    assert (code, out) == (2, 'checked: 3\nmismatches: 1\n{"x": [0], "y": [1]}\n')
    code, out, _ = run(capsys, "--type", "A2", "selftest", "--format", "json")
    assert code == 2 and json.loads(out) == report


def test_selftest_finite_past_longest_element(capsys):
    code, _, err = run(capsys, "--type", "A1", "selftest")
    assert code == 0
    assert "Traceback" not in err


def test_a_huge_explicit_level_is_a_resource_cap(capsys):
    # the root's bit lies past the root-index budget: refused before its mask is built
    code, _, err = run(capsys, "--type", "A~1", "classify", "--biclosed", "explicit [1:10000000000000]")
    assert code == 3
    assert err.startswith("error:") and "Traceback" not in err
    # a level within the budget answers as before: no element has that inversion set
    assert run(capsys, "--type", "A~1", "classify", "--biclosed", "explicit [1:8]") == (
        2, "", "error: set is not the inversion set of an element\n")


def test_exit_codes(capsys):
    assert run(capsys, "--type", "Z9", "roots")[0] == 1        # unknown type
    assert run(capsys, "--type", "A2", "frobnicate")[0] == 1   # unknown command
    assert run(capsys, "--type", "A2", "ball", "99")[0] == 3   # resource cap
    assert run(capsys, "--type", "A2", "tlen", "0", "--format", "dot")[0] == 1
    assert run(capsys, "roots")[0] == 1                        # no system given
    for spec in ("A2", "A~1"):
        assert run(capsys, "--type", spec, "roots", "--level", "-1")[0] == 2   # bad level
    assert run(capsys, "--type", "A~1", "classify",
               "--biclosed", "word-inf ;0,0")[0] == 2          # not reduced


COMMANDS = ("roots", "ball", "invset", "tlen", "le", "chain", "interval", "meet",
            "hasse", "classify", "check", "figure", "selftest")


@pytest.mark.parametrize("name", COMMANDS)
def test_each_subcommand_is_declared_by_its_handler(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: coxtw {name} ")
    handlers = next(a for a in cli._build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert list(handlers) == list(COMMANDS)
    assert handlers[name].get_default("run") is getattr(cli, f"_cmd_{name}")


def test_type_and_cartan_together_exit_1(capsys):
    code, out, err = run(capsys, "--type", "A2", "--cartan",
                         str(ROOT / "perfbench" / "g2_affine.cartan"), "roots")
    assert (code, out) == (1, "")
    assert err == "error: argument --cartan: not allowed with argument --type\n"


def test_word_and_witness_caps_exit_3(capsys):
    # valid inputs past a work cap are out of budget (exit 3), not broken
    # (exit 2): the word of (s0 s1)^60000, which only the json object holds,
    # and the witness of a meet with (s0 s1)^51000 below hat e::
    long_word = ",".join(["0,1"] * 60000)
    code, out, err = run(capsys, "--type", "A~1", "tlen", long_word, "--format", "json")
    assert (code, out) == (3, "") and "cap of 100000 letters" in err
    assert run(capsys, "--type", "A~1", "tlen", long_word) == (0, "120000\n", "")
    x = ",".join(["0,1"] * 51000)
    code, out, err = run(capsys, "--type", "A~1", "meet", "--biclosed", "hat e::", x, x)
    assert (code, out) == (3, "") and "witness word passed the cap" in err


def test_finite_system_rejects_delta_level_roots(capsys):
    code, out, err = run(capsys, "--type", "A2", "classify",
                         "--biclosed", "explicit [1.0:1]")
    assert (code, out) == (2, "")
    assert err == "error: 1.0:1 is not a positive root of this system\n"


def test_ball_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("COXTW_MAX_BALL", "99")
    code, out, _ = run(capsys, "--type", "A~1", "ball", "9", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 19


def test_out_flag(capsys, tmp_path):
    target = tmp_path / "roots.txt"
    code, out, _ = run(capsys, "--type", "A2", "roots", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "0.1\n1.0\n1.1\n"
    code, out, _ = run(capsys, "--type", "A2", "roots", "--format", "json",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == '{"count": 3, "roots": ["0.1", "1.0", "1.1"]}\n'


def test_out_into_missing_directory(capsys, tmp_path):
    target = tmp_path / "missing" / "roots.txt"
    code, out, err = run(capsys, "--type", "A2", "roots", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert "Traceback" not in err


@pytest.mark.parametrize("table", sorted(CLI_ROWS))
def test_recorded_invocations_in_process(capsys, monkeypatch, table):
    monkeypatch.delenv("COXTW_MAX_BALL", raising=False)
    monkeypatch.chdir(ROOT)   # the Cartan-file row names its file from the repo root
    rows = json.loads(CLI_ROWS[table].read_text())
    assert len(rows) == 29
    for row in rows:
        code, out, _ = run(capsys, *row["args"])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
            row["exit"], row["sha256"]), row["args"]


def test_roots_negative_level(capsys):
    for typ in ("A~1", "A2"):
        code, out, err = run(capsys, "--type", typ, "roots", "--level", "-3")
        assert code == 2 and out == "" and err.startswith("error:")


def test_cartan_file(capsys, tmp_path):
    mat = tmp_path / "b2.cartan"
    mat.write_text("rank 2\n2 -1\n-2 2\n")
    code, out, _ = run(capsys, "--cartan", str(mat), "ball", "8",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 8


def test_cartan_file_above_rank_26(capsys, tmp_path):
    # one letter names each simple root, so rank 27 is refused where the data enters
    mat = tmp_path / "a27.cartan"
    rows = [" ".join("2" if i == j else "-1" if abs(i - j) == 1 else "0" for j in range(27))
            for i in range(27)]
    mat.write_text("rank 27\n" + "\n".join(rows) + "\n")
    code, out, err = run(capsys, "--cartan", str(mat), "roots")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "rank 27" in err
    assert "Traceback" not in err


def test_unreadable_cartan_file(capsys, tmp_path):
    code, out, err = run(capsys, "--cartan", str(tmp_path / "missing.cartan"),
                         "roots")
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read Cartan file:")
    assert "Traceback" not in err


def test_startup_imports_only_what_it_uses():
    # -S keeps site-packages start-up hooks from preloading modules.
    script = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import coxtw.cli; "
              "print(' '.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "coxtw.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "pathlib"}


def test_deep_nesting_is_a_usage_error(capsys):
    expr = "complement ( " * 2000 + "empty" + " )" * 2000
    code, out, err = run(capsys, "--type", "A~2", "classify", "--biclosed", expr)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "nested too deeply" in err
    assert "Traceback" not in err


def test_truncated_nesting_is_a_usage_error(capsys):
    for expr in ("complement (", "twist 0 ("):
        code, out, err = run(capsys, "--type", "A~2", "classify", "--biclosed", expr)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


# Expressions of the grammar built from its tokens, good and bad words and
# arguments included, then cut short or spliced with stray tokens.
_WORDS = ("e", "0", "1", "2", "0,1", "1,2,0", "0,0", "3", "x", "")
_ARGS = {"invset": _WORDS,
         "hat": ("0::", "e:0:", "::1", "e:0,1:", "0:5:", "0:1"),
         "word-inf": (";0,1", "0;1,2", ";", "e;0,0", ";0,1,2", "0"),
         "explicit": ("[]", "[1.0]", "[1.1:1]", "[0.1:-1, 1.0]", "[1.0:x]", "[")}
_TOKENS = ("empty", "full", "twist", "complement", "(", ")", *_ARGS,
           *{a for args in _ARGS.values() for a in args})
_LEAVES = st.one_of(
    st.sampled_from(("empty", "full")).map(lambda head: [head]),
    *(st.sampled_from(args).map(lambda a, head=head: [head, a])
      for head, args in _ARGS.items()))
_EXPRS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.tuples(st.sampled_from(_WORDS), inner).map(
        lambda p: ["twist", p[0], "(", *p[1], ")"]),
    inner.map(lambda e: ["complement", "(", *e, ")"])), max_leaves=3)


@settings(deadline=None, derandomize=True, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(_EXPRS, st.integers(0, 12), st.lists(st.sampled_from(_TOKENS), max_size=2),
       st.booleans())
def test_fuzzed_expressions_fail_cleanly(tokens, cut, noise, truncate):
    tail = [] if truncate else tokens[cut:]
    expr = " ".join(tokens[:cut] + noise + tail)
    try:
        parse_biclosed(A2T, expr)
    except (ExprError, DomainError, ValidationError, ResourceError):
        pass
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--type", "A~2", "classify", "--biclosed", expr])
    assert code in (0, 1, 2, 3), (expr, code)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (not err.getvalue()), expr
