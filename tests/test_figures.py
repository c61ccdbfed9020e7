import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from coxtw.errors import DomainError
from coxtw.figures import FIGURES, emit_figure
from coxtw.system import build_system

GOLDEN = Path(__file__).parent / "data" / "a1_twist.dot"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_catalog():
    assert set(FIGURES) == {"a1-twist", "a2-twist"}
    assert FIGURES["a1-twist"].type_string == "A~1"
    assert FIGURES["a2-twist"].type_string == "A~2"


def test_a1_twist_shape():
    graph, labels = emit_figure("a1-twist")
    assert len(graph.nodes) == 6
    assert len(graph.edges) == 5
    data = graph.to_json()
    assert [n["tlen"] for n in data["nodes"]] == [-2, -1, 0, 1, 2, 3]
    # a single chain: each rank holds one node
    assert data["edges"] == [[i, i + 1] for i in range(5)]
    assert len(labels) == 6


def test_a1_twist_golden_bytes():
    graph, labels = emit_figure("a1-twist")
    assert graph.to_dot(labels) == GOLDEN.read_text()


def test_a2_twist_shape():
    graph, labels = emit_figure("a2-twist")
    assert len(graph.nodes) == 21
    assert len(graph.edges) == 25
    data = graph.to_json()
    counts = Counter(n["tlen"] for n in data["nodes"])
    assert sorted(counts.items()) == [(-2, 4), (-1, 3), (0, 3), (1, 4), (2, 4), (3, 3)]
    words = {tuple(n["word"]) for n in data["nodes"]}
    # both cover directions out of the identity that the layout pins
    idx = {tuple(n["word"]): i for i, n in enumerate(data["nodes"])}
    assert [idx[()], idx[(0,)]] in data["edges"]
    assert [idx[(2,)], idx[()]] in data["edges"]
    assert (1, 0, 2, 0) in words


def test_figure_to_dot_standalone_and_with_system():
    graph, labels = emit_figure("a2-twist")
    assert graph.to_dot(labels).count(" -> ") == 25
    graph, labels = emit_figure("a1-twist", build_system("A~1"))
    assert graph.to_dot(labels) == GOLDEN.read_text()


def test_figure_rejections():
    with pytest.raises(DomainError):
        emit_figure("nope")
    with pytest.raises(DomainError):
        emit_figure("a1-twist", build_system("A~2"))


def test_figure_gate_survives_optimized_mode():
    # python -O strips assert statements; the pinned-edge gate must still fire
    script = (
        "import sys\n"
        "from coxtw import cli, figures\n"
        "fig = figures.FIGURES['a1-twist']\n"
        "figures.FIGURES['a1-twist'] = fig._replace(edges=fig.edges[1:])\n"
        "sys.exit(cli.main(['figure', 'a1-twist']))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "computed covers disagree with the pinned figure" in proc.stderr
