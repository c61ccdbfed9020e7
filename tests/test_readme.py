"""The README's CLI tour and Library snippet, run as written.

Every `coxtw ...` line of a shell block runs in-process and must exit 0.  A
comment `# → X`, at the end of the line or on the next line, states the
output: X exactly, or its start when X holds `...`.  In the Python block a
`# → X` line compares the expression to the literal X.
"""

import ast
import re
import shlex
from pathlib import Path

from coxtw.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
ARROW = re.compile(r"#\s*→\s*(.*)$")


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _tour():
    """(argv, expected or None) for each coxtw line of the shell blocks."""
    runs = []
    for block in _blocks("sh"):
        for line in block.splitlines():
            mark = ARROW.search(line)
            if line.startswith("coxtw "):
                runs.append([shlex.split(line, comments=True)[1:], None])
            elif not (mark and line.startswith("#")):
                continue
            if mark:
                runs[-1][1] = mark.group(1)
    return runs


def test_cli_tour_runs_and_states_its_outputs(capsys):
    runs = _tour()
    assert runs and any(want for _, want in runs)
    for argv, want in runs:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if want is None:
            continue
        if "..." in want:
            assert out.startswith(want.partition("...")[0]), (argv, out)
        else:
            assert out == want + "\n", (argv, out)


def test_library_snippet_states_its_outputs():
    [block] = _blocks("python")
    scope = {}
    checked = 0
    for line in block.splitlines():
        mark = ARROW.search(line)
        if mark:
            expr = line[:mark.start()]
            assert eval(expr, scope) == ast.literal_eval(mark.group(1)), line
            checked += 1
        else:
            exec(line, scope)
    assert checked
