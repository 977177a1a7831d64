"""Command-line front end.

Every leaf command is declared once, in ``_COMMANDS``: its path, help text,
the machine kinds it loads, its extra arguments and its handler.  Most
commands share one of three handlers (print a sequence, write a text to
``-o`` or stdout, print a conversion).  The parser is built from that table
on the first call of :func:`main` and reused for the rest of the process.

:func:`main` runs each command with the cyclic garbage collector paused and
restores the state it found, also when the command raises.  A machine of
thousands of states is thousands of tuples and lists, so the collector would
run hundreds of times per command; yet the program's data are frozen records
of tuples, dicts and strings without reference cycles, which reference
counting frees, so those collections find nothing.  Library calls leave the
collector as their caller set it.

:func:`main` runs parsing, loading and the handler in one ``try``: it returns
0 on success; 1 on bad arguments or input (argparse, ``ValueError``,
``OSError``) and, silently, when the reader closes stdout early; 2 only when
``verify`` or ``tag check`` fails its cross-check.  Other exceptions escape.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import contextmanager
from functools import cache, partial
from pathlib import Path

from . import charseq, compiler, formats, numeration, tagsystem
from .automata import Dfa, Dfao, _MachineError, minimize, minimize_dfao
from .tagsystem import TagSystem


def _show_word(word: str) -> str:
    return word if word else "Λ"


def _read_word(arg: str) -> str:
    return "" if arg == "Λ" else arg


# Each accepted combination of machine kinds: what errors call it, and the
# help of the ``machine`` argument.
_KINDS = {
    (Dfa,): ("a recognizer (type dfa)", "dfa file"),
    (Dfao,): ("an output machine (type dfao)", "dfao file"),
    (TagSystem,): ("a tag system (type tag)", "tag file"),
    (Dfa, Dfao): ("an automaton (type dfa or dfao)", None),
}


@contextmanager
def _load(path, *kinds):
    """The machine stored at ``path``, which must be one of ``kinds``; when
    the body rejects the machine, the error names the file."""
    machine = formats.load(path)
    if not isinstance(machine, kinds):
        raise ValueError(f"{path}: expected {_KINDS[kinds][0]}")
    try:
        yield machine
    except _MachineError as exc:
        if exc.machine is not machine:
            raise
        raise ValueError(f"{path}: {exc}") from None


def _emit(text: str, path):
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# Pairs written per call with ``--oeis``, so that their text is built a
# chunk at a time rather than for the whole sequence at once.
_OEIS_CHUNK = 1 << 15


def _sequence(render, args, machine) -> int:
    """Print the line ``render(machine, count)``, whose terms are separated
    by spaces, or one ``n term`` pair per line with ``--oeis``."""
    line = render(machine, args.count)
    if args.oeis:
        terms = line.split()
        for start in range(0, len(terms), _OEIS_CHUNK):
            chunk = enumerate(terms[start:start + _OEIS_CHUNK], start)
            sys.stdout.write("".join([f"{n} {term}\n" for n, term in chunk]))
    else:
        print(line)
    return 0


def _text(render, args, machine) -> int:
    """Write ``render(machine, args)`` to ``-o`` or stdout."""
    _emit(render(machine, args), args.output)
    return 0


def _conversion(convert, args) -> int:
    result = convert(args)
    try:
        text = str(result)
    except ValueError:  # an int past the interpreter's limit on decimal digits
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"the result is too long to print in decimal (more than {limit} digits)") from None
    print(text)
    return 0


def cmd_verify(args, dfa) -> int:
    index = compiler.first_mismatch(dfa, args.count)
    if index is None:
        print(f"OK {args.count}")
        return 0
    word = _show_word(numeration.shortlex_word(index, dfa.alphabet))
    numeral = _show_word(numeration.to_digits(index, 2))
    print(f"mismatch at index {index} (word {word}, numeral {numeral})")
    return 2


def cmd_split(args, dfa) -> int:
    ones, zeros = compiler.split_dfa(dfa)
    for machine, path, comment in (
        (ones, args.out_ones, "numerals of the 1-positions"),
        (zeros, args.out_zeros, "numerals of the 0-positions"),
    ):
        text = formats.dump(machine)
        _emit(text if path else f"# {comment}\n{text}", path)
    return 0


def cmd_glue(args) -> int:
    with _load(args.ones, Dfa) as ones, _load(args.zeros, Dfa) as zeros:
        try:
            glued = compiler.glue(ones, zeros)
        except compiler.PartitionError as exc:
            raise ValueError(f"{args.ones}, {args.zeros}: {exc}") from None
        _emit(formats.dump(glued), args.output)
        return 0


def cmd_residuals(args, dfa) -> int:
    for residual in charseq.residuals(dfa):
        print(f"{_show_word(residual.witness)} {residual.state}")
    return 0


def cmd_tag_check(args, system) -> int:
    if not tagsystem.is_fixed_point_prefix(system, args.depth):
        print(f"not a fixed point: substituting the first {args.depth} symbols diverges")
        return 2
    for n, symbol in enumerate(tagsystem.intseq(system, system.modulus * args.depth)):
        if tagsystem.intseq_term(system, n) != symbol:
            print(f"digit descent disagrees with substitution at index {n}")
            return 2
    print(f"OK {args.depth}")
    return 0


def _arg(*names, **options):
    return names, options


_COUNT = (
    _arg("--count", type=int, required=True, help="number of entries to print"),
    _arg("--oeis", action="store_true", help="print one 'n value' pair per line"),
)
_OUTPUT = (_arg("-o", "--output", metavar="FILE", help="write to FILE instead of stdout"),)
_N = (_arg("n", type=int),)
_WORD = (_arg("word"),)
_BASE = _arg("--base", type=int, default=2)

_GROUPS = {"tag": "uniform tag systems", "num": "numeral and word conversions"}

# (path, help, machine kinds, extra arguments, handler), in help order.  The
# handlers look library functions up when they run, so that tests and
# tracers can replace them in their modules.
_COMMANDS = [
    ("seq", "characteristic sequence straight from a recognizer", (Dfa,), _COUNT,
     partial(_sequence, lambda dfa, count: charseq._bits_line(charseq.char_seq(dfa, count)))),
    ("run", "output sequence of a digit machine", (Dfao,), _COUNT,
     partial(_sequence, lambda dfao, count: tagsystem._render(
         tagsystem._digit_table(dfao), dfao.initial, count, dfao.outputs))),
    ("compile", "compile a recognizer into a base-2 output machine", (Dfa,),
     (*_OUTPUT, _arg("--no-minimize", action="store_true", help="keep the raw pair construction")),
     partial(_text, lambda dfa, args: formats.dump(compiler.compile_dfa(dfa, not args.no_minimize)))),
    ("verify", "compare the compiled machine against the word-by-word sequence", (Dfa,),
     (_arg("--count", type=int, required=True, help="number of entries to compare"),), cmd_verify),
    ("split", "recognizers for the numerals of the 1- and 0-positions", (Dfa,),
     (_arg("-o-m", dest="out_ones", metavar="FILE", help="write the 1-positions machine to FILE"),
      _arg("-o-n", dest="out_zeros", metavar="FILE", help="write the 0-positions machine to FILE")),
     cmd_split),
    ("glue", "rebuild an output machine from a numeral partition", (),
     (_arg("ones", help="dfa file for the 1-positions"), _arg("zeros", help="dfa file for the 0-positions"),
      *_OUTPUT), cmd_glue),
    ("minimize", "minimize a dfa or dfao", (Dfa, Dfao), _OUTPUT,
     partial(_text, lambda m, args: formats.dump(minimize(m) if isinstance(m, Dfa) else minimize_dfao(m)))),
    ("residuals", "distinct residual languages with shortest witnesses", (Dfa,), (), cmd_residuals),
    ("dot", "Graphviz rendering of a dfa or dfao", (Dfa, Dfao), _OUTPUT,
     partial(_text, lambda machine, args: formats.to_dot(machine))),
    ("tag from-dfao", "read a digit machine off as a substitution", (Dfao,), _OUTPUT,
     partial(_text, lambda dfao, args: formats.dump(tagsystem.from_dfao(dfao)))),
    ("tag seq", "coded fixed point of a tag system", (TagSystem,), _COUNT,
     partial(_sequence, lambda system, count: tagsystem._render(
         system.rules, system.start, count, system.coding))),
    ("tag intseq", "raw fixed point of a tag system", (TagSystem,), _COUNT,
     partial(_sequence, lambda system, count: tagsystem._render(
         system.rules, system.start, count, dict(zip(system.symbols, system.symbols))))),
    ("tag check", "check the fixed point and the digit descent agree", (TagSystem,),
     (_arg("--depth", type=int, required=True, help="number of leading symbols to substitute"),),
     cmd_tag_check),
    ("num phi", "n-th word in shortlex order", (), _N,
     partial(_conversion, lambda args: _show_word(numeration.shortlex_word(args.n)))),
    ("num phi-inv", "shortlex index of a word over a, b", (), _WORD,
     partial(_conversion, lambda args: numeration.shortlex_index(_read_word(args.word)))),
    ("num canon", "canonical numeral of n", (), (*_N, _BASE),
     partial(_conversion, lambda args: _show_word(numeration.to_digits(args.n, args.base)))),
    ("num nu", "value of a numeral", (), (*_WORD, _BASE),
     partial(_conversion, lambda args: numeration.from_digits(_read_word(args.word), args.base))),
    ("num rho", "fixed-width increment of a binary word", (), _WORD,
     partial(_conversion, lambda args: _show_word(numeration.increment_bits(_read_word(args.word))))),
    ("num gamma", "incremented window written over a, b", (), _WORD,
     partial(_conversion, lambda args: _show_word(numeration.increment_letters(_read_word(args.word))))),
]


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autoseq",
        description="Characteristic sequences of regular languages over a two-letter "
        "alphabet, their base-2 output machines, and the matching tag systems.",
    )
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for path, summary, kinds, arguments, handler in _COMMANDS:
        group, _, name = path.rpartition(" ")
        if group not in subparsers:
            sub = subparsers[""].add_parser(group, help=_GROUPS[group])
            subparsers[group] = sub.add_subparsers(dest=f"{group}_command", required=True)
        p = subparsers[group].add_parser(name, help=summary)
        if kinds:
            p.add_argument("machine", help=_KINDS[kinds][1])
        for names, options in arguments:
            p.add_argument(*names, **options)
        p.set_defaults(kinds=kinds, handler=handler)
    return parser


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        if not args.kinds:
            return args.handler(args)
        with _load(args.machine, *args.kinds) as machine:
            return args.handler(args, machine)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except BrokenPipeError:
        # The reader closed stdout: what is still buffered there, which the
        # interpreter flushes at exit, goes to the null device instead.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
