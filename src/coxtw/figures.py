"""Reference Hasse diagrams, pinned as fixtures.

Each figure fixes a system, a biclosed set, the exact element set drawn,
and the cover relations between them.  Rendering recomputes the covers and
refuses to emit anything that disagrees with the pinned edge list, so a
regression in the order code cannot silently produce a pretty wrong
picture.
"""

from __future__ import annotations

from collections import namedtuple

from .elements import from_word
from .errors import DomainError
from .exprs import parse_biclosed
from .order import hasse
from .system import build_system


class Figure(namedtuple("Figure", "type_string expr gen_labels words edges")):
    """words: the element words drawn; edges: (lower, upper) word pairs."""
    __slots__ = ()


_A1_WORDS = ((0, 1, 0), (0, 1), (0,), (), (1,), (1, 0))
_A1_EDGES = (
    ((), (0,)),
    ((0,), (0, 1)),
    ((0, 1), (0, 1, 0)),
    ((1,), ()),
    ((1, 0), (1,)),
)

_A2_WORDS = (
    (0, 1, 0), (1, 0, 2), (0, 1), (1, 0), (0,), (1,), (),
    (1, 2), (1, 2, 0), (1, 0, 2, 0), (0, 2), (0, 2, 1), (0, 1, 2, 1),
    (0, 1, 2), (2,), (2, 0), (2, 0, 2), (2, 1), (2, 1, 2),
    (0, 2, 0, 1), (1, 2, 1, 0),
)
_A2_EDGES = (
    ((0, 1), (0, 1, 0)),
    ((1, 0), (0, 1, 0)),
    ((1, 0), (1, 0, 2)),
    ((0,), (0, 1)),
    ((1,), (1, 0)),
    ((), (0,)),
    ((), (1,)),
    ((1, 2), (1,)),
    ((1, 2), (1, 2, 0)),
    ((1, 2, 0), (1, 0, 2, 0)),
    ((1, 0, 2, 0), (1, 0, 2)),
    ((0, 2), (0,)),
    ((0, 2), (0, 2, 1)),
    ((0, 2, 1), (0, 1, 2, 1)),
    ((0, 1, 2, 1), (0, 1, 2)),
    ((0, 1), (0, 1, 2)),
    ((2,), ()),
    ((2, 0), (2,)),
    ((2, 0), (2, 0, 2)),
    ((2, 0, 2), (0, 2)),
    ((2, 1), (2,)),
    ((2, 1), (2, 1, 2)),
    ((2, 1, 2), (1, 2)),
    ((0, 2, 0, 1), (2, 0, 2)),
    ((1, 2, 1, 0), (2, 1, 2)),
)

FIGURES = {
    "a1-twist": Figure(
        type_string="A~1",
        expr="hat 0::",
        gen_labels=("s_α", "s_{δ-α}"),
        words=_A1_WORDS,
        edges=_A1_EDGES,
    ),
    "a2-twist": Figure(
        type_string="A~2",
        expr="hat 0,1,0::",
        gen_labels=("s_α", "s_β", "s_{δ-α-β}"),
        words=_A2_WORDS,
        edges=_A2_EDGES,
    ),
}


def emit_figure(name: str, system=None):
    """Build a pinned figure: returns (HasseGraph, labels dict).

    A system may be passed in (the CLI does, when --type was given); its
    type must match the fixture."""
    fig = FIGURES.get(name)
    if fig is None:
        raise DomainError(
            f"unknown figure {name!r}; have {', '.join(sorted(FIGURES))}")
    if system is None:
        system = build_system(fig.type_string)
    elif system.type_string != fig.type_string:
        raise DomainError(
            f"figure {name} lives in type {fig.type_string}, not "
            f"{system.type_string or 'a custom system'}")
    oracle = parse_biclosed(system, fig.expr)
    elements = []
    labels = {}
    for w in fig.words:
        el = from_word(system, w)
        if el.length != len(w):
            raise DomainError(f"fixture word {w} is not reduced")
        elements.append(el)
        labels[el] = " ".join(fig.gen_labels[s] for s in w) or "e"
    if len(set(elements)) != len(elements):
        raise DomainError("fixture words repeat an element")
    graph = hasse(oracle, elements)
    want = {(from_word(system, a), from_word(system, b)) for a, b in fig.edges}
    got = {(graph.nodes[i][0], graph.nodes[j][0]) for i, j in graph.edges}
    if got != want:
        raise DomainError("computed covers disagree with the pinned figure")
    return graph, labels
