"""Parser for the small expression language naming biclosed sets.

Grammar, with words written as comma-separated generator indices and "e"
(or nothing) for the identity:

    empty
    full
    invset <word>
    hat <u>:<d1>:<d2>
    word-inf <prefix>;<period>
    twist <w> ( <expr> )
    complement ( <expr> )
    explicit [<root>, <root>, ...]

Root literals inside explicit [...] use the same `c1.c2[:n]` form the rest
of the package prints.  Syntax problems raise ExprError; expressions that
parse but name something invalid (a non-reduced word, a bad hat form) keep
their usual domain errors.
"""

from __future__ import annotations

import re

from .biclosed import (BiclosedOracle, Complement, Explicit, HatForm,
                       act_on_biclosed)
from .elements import from_word
from .errors import ExprError
from .infwords import WordInvSet, validate_periodic
from .system import CoxeterSystem, parse_root

_TOKEN = re.compile(r"\(|\)|\[[^\]]*\]|[^\s()\[\]]+")

_HEADS = ("empty", "full", "invset", "hat", "word-inf", "twist",
          "complement", "explicit")


def _word(text: str, system: CoxeterSystem) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "e"):
        return ()
    try:
        letters = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ExprError(f"bad word {text!r}: want comma-separated indices or 'e'")
    for s in letters:
        if not 0 <= s < system.ngens:
            raise ExprError(f"generator index {s} is out of range")
    return letters


def _indices(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        idx = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ExprError(f"bad index list {text!r}")
    return idx


def parse_biclosed(system: CoxeterSystem, text: str) -> BiclosedOracle:
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ExprError("empty biclosed expression")
    try:
        oracle, pos = _parse(system, tokens, 0)
    except RecursionError:
        raise ExprError("expression nested too deeply")
    if pos != len(tokens):
        raise ExprError(f"unexpected trailing tokens: {' '.join(tokens[pos:])}")
    return oracle


def _arg(tokens, pos, head):
    if pos >= len(tokens):
        raise ExprError(f"{head} needs an argument")
    return tokens[pos]


def _expect(tokens, pos, what):
    if pos >= len(tokens) or tokens[pos] != what:
        got = tokens[pos] if pos < len(tokens) else "end of expression"
        raise ExprError(f"expected {what!r}, got {got!r}")
    return pos + 1


def _parse(system, tokens, pos):
    if pos >= len(tokens):
        raise ExprError("expression ended where a biclosed expression was expected")
    head = tokens[pos]
    if head == "empty":
        return Explicit(system, ()), pos + 1
    if head == "full":
        return Complement(Explicit(system, ())), pos + 1
    if head == "invset":
        el = from_word(system, _word(_arg(tokens, pos + 1, head), system))
        return Explicit(system, tuple(el.inversion_set())), pos + 2
    if head == "hat":
        parts = _arg(tokens, pos + 1, head).split(":")
        if len(parts) != 3:
            raise ExprError("hat wants <u>:<d1>:<d2>")
        u = from_word(system, _word(parts[0], system))
        return HatForm(system, u, _indices(parts[1]), _indices(parts[2])), pos + 2
    if head == "word-inf":
        parts = _arg(tokens, pos + 1, head).split(";")
        if len(parts) != 2:
            raise ExprError("word-inf wants <prefix>;<period>")
        word = validate_periodic(system, _word(parts[0], system),
                                 _word(parts[1], system))
        return WordInvSet(word), pos + 2
    if head == "twist":
        w = from_word(system, _word(_arg(tokens, pos + 1, head), system))
        p = _expect(tokens, pos + 2, "(")
        inner, p = _parse(system, tokens, p)
        p = _expect(tokens, p, ")")
        return act_on_biclosed(w, inner), p
    if head == "complement":
        p = _expect(tokens, pos + 1, "(")
        inner, p = _parse(system, tokens, p)
        p = _expect(tokens, p, ")")
        if isinstance(inner, Complement):
            return inner.inner, p
        return Complement(inner), p
    if head == "explicit":
        arg = _arg(tokens, pos + 1, head)
        if not (arg.startswith("[") and arg.endswith("]")):
            raise ExprError("explicit wants a bracketed root list")
        body = arg[1:-1].strip()
        roots = ()
        if body:
            roots = tuple(parse_root(p, system.rank_finite)
                          for p in body.split(","))
        return Explicit(system, roots), pos + 2
    raise ExprError(f"unknown biclosed expression head {head!r}; "
                    f"one of {', '.join(_HEADS)}")
