"""Command-line front end.

Exit codes: 0 on success, 1 when the input is at fault (unreadable or
malformed files, bad words, languages that do not partition the numerals),
2 when an internal cross-check fails.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from . import charseq, compiler, formats, numeration, tagsystem
from .automata import Dfa, Dfao, _AlphabetError, minimize, minimize_dfao


def _show_word(word: str) -> str:
    return word if word else "Λ"


def _read_word(arg: str) -> str:
    return "" if arg == "Λ" else arg


# What each accepted combination of machine types is called in errors.
_EXPECTED = {
    (Dfa,): "a recognizer (type dfa)",
    (Dfao,): "an output machine (type dfao)",
    (tagsystem.TagSystem,): "a tag system (type tag)",
    (Dfa, Dfao): "an automaton (type dfa or dfao)",
}


@contextmanager
def _load(path, *kinds):
    """The machine stored at ``path``, which must be one of ``kinds``; when
    the body rejects its alphabet, the error names the file."""
    machine = formats.load(path)
    if not isinstance(machine, kinds):
        raise ValueError(f"{path}: expected {_EXPECTED[kinds]}")
    try:
        yield machine
    except _AlphabetError as exc:
        if exc.machine is not machine:
            raise
        raise ValueError(f"{path}: {exc}") from None


def _emit(text: str, path):
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _print_values(values, oeis: bool):
    """Print string ``values`` on one line, or one ``n value`` pair per line."""
    if oeis:
        sys.stdout.write("".join(f"{n} {value}\n" for n, value in enumerate(values)))
    else:
        print(" ".join(values))


def cmd_seq(args) -> int:
    with _load(args.machine, Dfa) as dfa:
        _print_values(map(str, charseq.char_seq(dfa, args.count)), args.oeis)
        return 0


def cmd_run(args) -> int:
    with _load(args.machine, Dfao) as dfao:
        _print_values(charseq.output_seq(dfao, args.count), args.oeis)
        return 0


def cmd_compile(args) -> int:
    with _load(args.machine, Dfa) as dfa:
        compiled = compiler.compile_dfa(dfa, minimize=not args.no_minimize)
        _emit(formats.dump(compiled), args.output)
        return 0


def cmd_verify(args) -> int:
    with _load(args.machine, Dfa) as dfa:
        index = compiler.first_mismatch(dfa, args.count)
        if index is None:
            print(f"OK {args.count}")
            return 0
        word = _show_word(numeration.shortlex_word(index, dfa.alphabet))
        numeral = _show_word(numeration.to_digits(index, 2))
        print(f"mismatch at index {index} (word {word}, numeral {numeral})")
        return 2


def cmd_split(args) -> int:
    with _load(args.machine, Dfa) as dfa:
        ones, zeros = compiler.split_dfa(dfa)
        for machine, path, comment in (
            (ones, args.out_ones, "numerals of the 1-positions"),
            (zeros, args.out_zeros, "numerals of the 0-positions"),
        ):
            if path:
                formats.save(machine, path)
            else:
                sys.stdout.write(f"# {comment}\n" + formats.dump(machine))
        return 0


def cmd_glue(args) -> int:
    with _load(args.ones, Dfa) as ones, _load(args.zeros, Dfa) as zeros:
        _emit(formats.dump(compiler.glue(ones, zeros)), args.output)
        return 0


def cmd_minimize(args) -> int:
    with _load(args.machine, Dfa, Dfao) as machine:
        small = minimize(machine) if isinstance(machine, Dfa) else minimize_dfao(machine)
        _emit(formats.dump(small), args.output)
        return 0


def cmd_residuals(args) -> int:
    with _load(args.machine, Dfa) as dfa:
        for residual in charseq.residuals(dfa):
            print(f"{_show_word(residual.witness)} {residual.state}")
        return 0


def cmd_dot(args) -> int:
    with _load(args.machine, Dfa, Dfao) as machine:
        _emit(formats.to_dot(machine), args.output)
        return 0


def cmd_tag_from_dfao(args) -> int:
    with _load(args.machine, Dfao) as dfao:
        _emit(formats.dump(tagsystem.from_dfao(dfao)), args.output)
        return 0


def cmd_tag_seq(args) -> int:
    with _load(args.machine, tagsystem.TagSystem) as system:
        _print_values(tagsystem.seq(system, args.count), args.oeis)
        return 0


def cmd_tag_intseq(args) -> int:
    with _load(args.machine, tagsystem.TagSystem) as system:
        _print_values(tagsystem.intseq(system, args.count), args.oeis)
        return 0


def cmd_tag_check(args) -> int:
    with _load(args.machine, tagsystem.TagSystem) as system:
        if not tagsystem.is_fixed_point_prefix(system, args.depth):
            print(f"not a fixed point: substituting the first {args.depth} symbols diverges")
            return 2
        for n, symbol in enumerate(tagsystem.intseq(system, system.modulus * args.depth)):
            if tagsystem.intseq_term(system, n) != symbol:
                print(f"digit descent disagrees with substitution at index {n}")
                return 2
        print(f"OK {args.depth}")
        return 0


def cmd_num_phi(args) -> int:
    print(_show_word(numeration.shortlex_word(args.n)))
    return 0


def cmd_num_phi_inv(args) -> int:
    print(numeration.shortlex_index(_read_word(args.word)))
    return 0


def cmd_num_canon(args) -> int:
    print(_show_word(numeration.to_digits(args.n, args.base)))
    return 0


def cmd_num_nu(args) -> int:
    print(numeration.from_digits(_read_word(args.word), args.base))
    return 0


def cmd_num_rho(args) -> int:
    print(_show_word(numeration.increment_bits(_read_word(args.word))))
    return 0


def cmd_num_gamma(args) -> int:
    print(_show_word(numeration.increment_letters(_read_word(args.word))))
    return 0


def _add_count(parser):
    parser.add_argument("--count", type=int, required=True, help="number of entries to print")
    parser.add_argument("--oeis", action="store_true", help="print one 'n value' pair per line")


def _add_output(parser):
    parser.add_argument("-o", "--output", metavar="FILE", help="write to FILE instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autoseq",
        description="Characteristic sequences of regular languages over a two-letter "
        "alphabet, their base-2 output machines, and the matching tag systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="characteristic sequence straight from a recognizer")
    p.add_argument("machine", help="dfa file")
    _add_count(p)
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("run", help="output sequence of a digit machine")
    p.add_argument("machine", help="dfao file")
    _add_count(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compile", help="compile a recognizer into a base-2 output machine")
    p.add_argument("machine", help="dfa file")
    _add_output(p)
    p.add_argument("--no-minimize", action="store_true", help="keep the raw pair construction")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="compare the compiled machine against the word-by-word sequence")
    p.add_argument("machine", help="dfa file")
    p.add_argument("--count", type=int, required=True, help="number of entries to compare")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("split", help="recognizers for the numerals of the 1- and 0-positions")
    p.add_argument("machine", help="dfa file")
    p.add_argument("-o-m", dest="out_ones", metavar="FILE", help="write the 1-positions machine to FILE")
    p.add_argument("-o-n", dest="out_zeros", metavar="FILE", help="write the 0-positions machine to FILE")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("glue", help="rebuild an output machine from a numeral partition")
    p.add_argument("ones", help="dfa file for the 1-positions")
    p.add_argument("zeros", help="dfa file for the 0-positions")
    _add_output(p)
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("minimize", help="minimize a dfa or dfao")
    p.add_argument("machine")
    _add_output(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("residuals", help="distinct residual languages with shortest witnesses")
    p.add_argument("machine", help="dfa file")
    p.set_defaults(func=cmd_residuals)

    p = sub.add_parser("dot", help="Graphviz rendering of a dfa or dfao")
    p.add_argument("machine")
    _add_output(p)
    p.set_defaults(func=cmd_dot)

    tag = sub.add_parser("tag", help="uniform tag systems")
    tag_sub = tag.add_subparsers(dest="tag_command", required=True)

    p = tag_sub.add_parser("from-dfao", help="read a digit machine off as a substitution")
    p.add_argument("machine", help="dfao file")
    _add_output(p)
    p.set_defaults(func=cmd_tag_from_dfao)

    p = tag_sub.add_parser("seq", help="coded fixed point of a tag system")
    p.add_argument("machine", help="tag file")
    _add_count(p)
    p.set_defaults(func=cmd_tag_seq)

    p = tag_sub.add_parser("intseq", help="raw fixed point of a tag system")
    p.add_argument("machine", help="tag file")
    _add_count(p)
    p.set_defaults(func=cmd_tag_intseq)

    p = tag_sub.add_parser("check", help="check the fixed point and the digit descent agree")
    p.add_argument("machine", help="tag file")
    p.add_argument("--depth", type=int, required=True, help="number of leading symbols to substitute")
    p.set_defaults(func=cmd_tag_check)

    num = sub.add_parser("num", help="numeral and word conversions")
    num_sub = num.add_subparsers(dest="num_command", required=True)

    p = num_sub.add_parser("phi", help="n-th word in shortlex order")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_num_phi)

    p = num_sub.add_parser("phi-inv", help="shortlex index of a word over a, b")
    p.add_argument("word")
    p.set_defaults(func=cmd_num_phi_inv)

    p = num_sub.add_parser("canon", help="canonical numeral of n")
    p.add_argument("n", type=int)
    p.add_argument("--base", type=int, default=2)
    p.set_defaults(func=cmd_num_canon)

    p = num_sub.add_parser("nu", help="value of a numeral")
    p.add_argument("word")
    p.add_argument("--base", type=int, default=2)
    p.set_defaults(func=cmd_num_nu)

    p = num_sub.add_parser("rho", help="fixed-width increment of a binary word")
    p.add_argument("word")
    p.set_defaults(func=cmd_num_rho)

    p = num_sub.add_parser("gamma", help="incremented window written over a, b")
    p.add_argument("word")
    p.set_defaults(func=cmd_num_gamma)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
