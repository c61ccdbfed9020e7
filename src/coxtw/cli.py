"""Command-line surface: `coxtw --type A~1 <subcommand> ...`.

Exit codes are part of the contract: 0 success, 1 usage or expression syntax
problems and an --out file that cannot be written, 2 domain errors (non-reduced
words, incomparable endpoints, invalid constructions), 3 resource caps.  Each
subcommand is declared by its handler `_cmd_<name>` alone, which returns its JSON
object and its text (and `selftest` its exit code); `main` picks one by --format,
and writes JSON as a single sorted-key line so byte-level golden tests stay stable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .elements import ball, from_word
from .errors import CoxtwError, ExprError, ResourceError
from .exprs import _word as _parse_word
from .exprs import parse_biclosed
from .figures import FIGURES, emit_figure
from .infwords import classify
from .order import (chain, check_meet_semilattice, hasse, interval, join,
                    le, meet, twisted_length)
from .oracle import run_selftest
from .system import CoxeterSystem, build_system, parse_cartan_file

_DEFAULT_CAP = 8


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is 1
    def error(self, message):
        raise ExprError(message)


def _build_parser() -> _Parser:
    top = _Parser(prog="coxtw", description="twisted weak orders of "
                  "finite and affine Weyl groups")
    given = top.add_mutually_exclusive_group()
    given.add_argument("--type", dest="type_string", metavar="T", default=None,
                       help="Cartan type string such as A2, G2, B~3")
    given.add_argument("--cartan", dest="cartan_file", metavar="FILE",
                       default=None, help="file holding an explicit Cartan matrix")
    sub = top.add_subparsers(dest="command", parser_class=_Parser)

    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "dot"),
                        default="text")
    common.add_argument("--out", metavar="FILE", default=None)

    withb = _Parser(add_help=False)
    withb.add_argument("--biclosed", metavar="EXPR", default="empty")

    def add(run, *parents, **kw):
        p = sub.add_parser(run.__name__.removeprefix("_cmd_"),
                           parents=[common, *parents], **kw)
        p.set_defaults(run=run)
        return p

    p = add(_cmd_roots, help="positive roots up to a delta level")
    p.add_argument("--level", type=int, default=2)

    p = add(_cmd_ball, help="group elements up to a given length")
    p.add_argument("radius", type=int)

    p = add(_cmd_invset, help="inversion set of a word")
    p.add_argument("word")

    p = add(_cmd_tlen, withb, help="twisted length of a word")
    p.add_argument("word")

    for run, help_text in ((_cmd_le, "is x below y in the twisted order"),
                           (_cmd_chain, "a saturated chain from x up to y"),
                           (_cmd_interval, "all elements between x and y")):
        p = add(run, withb, help=help_text)
        p.add_argument("x")
        p.add_argument("y")

    p = add(_cmd_meet, withb, help="greatest lower bound of x and y")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--join", action="store_true",
                   help="least upper bound instead")

    p = add(_cmd_hasse, withb, help="cover graph over a ball")
    p.add_argument("--radius", type=int, default=2)

    add(_cmd_classify, withb, help="decide what kind of inversion set B is")

    p = add(_cmd_check, withb, help="search a ball for meet failures")
    p.add_argument("--radius", type=int, default=2)

    p = add(_cmd_figure, help="reproduce a pinned reference diagram")
    p.add_argument("name", choices=sorted(FIGURES))

    p = add(_cmd_selftest, help="battery comparison of order code vs oracles")
    p.add_argument("--radius", type=int, default=2)

    return top


def _system(args) -> CoxeterSystem | None:
    if args.type_string:
        return build_system(args.type_string)
    if args.cartan_file:
        try:
            with open(args.cartan_file) as fh:
                text = fh.read()
        except OSError as exc:
            raise ExprError(f"cannot read Cartan file: {exc}")
        return parse_cartan_file(text)
    if args.run is not _cmd_figure:   # a figure builds its own system
        raise ExprError("a system is required: pass --type or --cartan")
    return None


def _cap_check(value: int, what: str) -> int:
    raw = os.environ.get("COXTW_MAX_BALL")
    cap = _DEFAULT_CAP
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise ExprError(f"bad COXTW_MAX_BALL value {raw!r}")
    if value > cap:
        raise ResourceError(
            f"{what} {value} exceeds the cap {cap}; "
            "raise it with COXTW_MAX_BALL if you mean it")
    return value


def _element(system, text):
    return from_word(system, _parse_word(text, system))


def _lines(items) -> str:
    return "".join(f"{x}\n" for x in items)


def _root_list(roots):
    literals = [r.literal() for r in sorted(roots, key=lambda r: r.key)]
    return {"count": len(literals), "roots": literals}, _lines(literals)


def _cmd_roots(args, system):
    return _root_list(system.positive_roots_up_to(_cap_check(args.level, "level")))


def _cmd_ball(args, system):
    elems = ball(system, _cap_check(args.radius, "radius"))
    return ({"count": len(elems), "elements": [list(w.word) for w in elems]},
            _lines(w.label() for w in elems))


def _cmd_invset(args, system):
    return _root_list(_element(system, args.word).inversion_set())


def _cmd_tlen(args, system):
    el = _element(system, args.word)
    value = twisted_length(el, parse_biclosed(system, args.biclosed))
    obj = {"tlen": value, "word": list(el.word)} if args.format == "json" else None
    return obj, f"{value}\n"


def _cmd_le(args, system):
    oracle = parse_biclosed(system, args.biclosed)
    verdict = le(_element(system, args.x), _element(system, args.y), oracle)
    return {"le": verdict}, ("true" if verdict else "false") + "\n"


def _cmd_chain(args, system):
    oracle = parse_biclosed(system, args.biclosed)
    ch = chain(_element(system, args.x), _element(system, args.y), oracle)
    return {"chain": [list(w.word) for w in ch]}, _lines(w.label() for w in ch)


def _cmd_interval(args, system):
    oracle = parse_biclosed(system, args.biclosed)
    iv = interval(_element(system, args.x), _element(system, args.y), oracle)
    return ({"elements": [{"word": list(w.word), "tlen": twisted_length(w, oracle)}
                          for w in iv]},
            _lines(w.label() for w in iv))


def _cmd_meet(args, system):
    oracle = parse_biclosed(system, args.biclosed)
    op = join if args.join else meet
    m = op(_element(system, args.x), _element(system, args.y), oracle)
    return {"word": list(m.word), "tlen": twisted_length(m, oracle)}, f"{m.label()}\n"


def _cmd_hasse(args, system):
    radius = _cap_check(args.radius, "radius")
    graph = hasse(parse_biclosed(system, args.biclosed), ball(system, radius))
    return graph.to_json(), graph.to_dot()


def _cmd_classify(args, system):
    cls = classify(parse_biclosed(system, args.biclosed))
    witness = cls.witness_json()
    return ({"kind": cls.kind, "witness": witness},
            f"kind: {cls.kind}\nwitness: {json.dumps(witness)}\n")


def _cmd_check(args, system):
    radius = _cap_check(args.radius, "radius")
    result = check_meet_semilattice(system, parse_biclosed(system, args.biclosed), radius)
    lines = [f"status: {result.status}", f"checked: {result.checked}"]
    if result.pair is not None:
        lines.append(f"pair: {result.pair[0].label()} | {result.pair[1].label()}")
    return result.to_json(), _lines(lines)


def _cmd_figure(args, system):
    graph, labels = emit_figure(args.name, system)
    return graph.to_json(), graph.to_dot(labels)


def _cmd_selftest(args, system):
    report = run_selftest(system, _cap_check(args.radius, "radius"))
    mismatches = report["mismatches"]
    text = _lines([f"checked: {report['checked']}", f"mismatches: {len(mismatches)}",
                   *(json.dumps(m, sort_keys=True) for m in mismatches[:10])])
    return report, text, 2 if mismatches else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ExprError("a subcommand is required (see --help)")
        if args.format == "dot" and args.run not in (_cmd_hasse, _cmd_figure):
            raise ExprError("dot output only applies to hasse and figure")
        obj, text, *code = args.run(args, _system(args))   # selftest adds a code
    except CoxtwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ResourceError) else 1 if isinstance(exc, ExprError) else 2
    if args.format == "json":
        text = json.dumps(obj, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code[0] if code else 0


if __name__ == "__main__":
    sys.exit(main())
