import argparse
import gc
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from autoseq import (
    Dfa,
    Dfao,
    TagSystem,
    char_seq,
    compile_dfa,
    dfao_equivalent,
    equivalent,
    from_dfao,
    intseq,
    load,
    output_seq,
    save,
    seq,
    shortlex_word,
    to_digits,
)
from autoseq import cli
from autoseq.cli import main
from conftest import MACHINES, flipped_at, mod_counter, random_dfa, random_dfao

NO_BB = str(MACHINES / "no_bb.aut")
THUE_MORSE = str(MACHINES / "thue_morse.aut")
ONES = str(MACHINES / "no_bb_ones.aut")
ZEROS = str(MACHINES / "no_bb_zeros.aut")
FAO = str(MACHINES / "no_bb_fao.aut")
TAG = str(MACHINES / "no_bb.tag")


def test_seq(capsys):
    assert main(["seq", NO_BB, "--count", "10"]) == 0
    assert capsys.readouterr().out == "1 1 1 1 1 1 0 1 1 1\n"


def test_seq_oeis(capsys):
    assert main(["seq", NO_BB, "--count", "3", "--oeis"]) == 0
    assert capsys.readouterr().out == "0 1\n1 1\n2 1\n"
    assert main(["run", THUE_MORSE, "--count", "40"]) == 0
    values = capsys.readouterr().out.split()
    assert main(["run", THUE_MORSE, "--count", "40", "--oeis"]) == 0
    assert capsys.readouterr().out == "".join(f"{n} {v}\n" for n, v in enumerate(values))


def test_seq_prints_the_bits_of_char_seq(tmp_path, capsys, monkeypatch):
    rng = random.Random(31)
    counts = {0, 1, 2, 3} | {(1 << length) + shift for length in range(2, 13) for shift in (-1, 0, 1)}
    path = str(tmp_path / "d.aut")
    for alphabet in (("a", "b"), ("b", "a"), ("x", "y")):
        compilable = alphabet == ("a", "b")  # the only alphabet verify compiles
        for dfa in [random_dfa(rng, 6, alphabet) for _ in range(3)]:
            save(dfa, path)
            for count in sorted(counts):
                bits = list(map(str, char_seq(dfa, count)))
                assert main(["seq", path, "--count", str(count)]) == 0
                assert capsys.readouterr().out == " ".join(bits) + "\n", (alphabet, count)
                assert main(["seq", path, "--count", str(count), "--oeis"]) == 0
                assert capsys.readouterr().out == "".join(f"{n} {bit}\n" for n, bit in enumerate(bits))
                if compilable:
                    assert main(["verify", path, "--count", str(count)]) == 0
                    assert capsys.readouterr().out == f"OK {count}\n", count
            # one term of the compiled machine flipped: verify names its index
            for index in (0, 1, 2, 63, 64, 4096) if compilable else ():
                mutant = flipped_at(compile_dfa(dfa), index)
                with monkeypatch.context() as patched:
                    patched.setattr("autoseq.compiler.compile_dfa", lambda dfa, minimize=True: mutant)
                    assert main(["verify", path, "--count", "4097"]) == 2
                word = shortlex_word(index, alphabet) or "Λ"
                numeral = to_digits(index, 2) or "Λ"
                assert capsys.readouterr().out == f"mismatch at index {index} (word {word}, numeral {numeral})\n"


def test_run(capsys):
    assert main(["run", THUE_MORSE, "--count", "10"]) == 0
    assert capsys.readouterr().out == "0 1 1 0 1 0 0 1 1 0\n"


def test_run_rejects_a_dfa(capsys):
    assert main(["run", NO_BB, "--count", "4"]) == 1
    assert "expected an output machine" in capsys.readouterr().err


def test_compile_to_file(tmp_path, capsys, no_bb_fao):
    out = tmp_path / "compiled.aut"
    assert main(["compile", NO_BB, "-o", str(out)]) == 0
    compiled = load(out)
    assert isinstance(compiled, Dfao)
    assert dfao_equivalent(compiled, no_bb_fao)


def test_compile_to_stdout(capsys):
    assert main(["compile", NO_BB]) == 0
    out = capsys.readouterr().out
    assert out.startswith("type dfao\n")


def test_compile_no_minimize(tmp_path):
    out = tmp_path / "raw.aut"
    assert main(["compile", NO_BB, "--no-minimize", "-o", str(out)]) == 0
    assert len(load(out).states) == 8


def test_verify(capsys):
    assert main(["verify", NO_BB, "--count", "2048"]) == 0
    assert capsys.readouterr().out == "OK 2048\n"


def test_verify_reports_mismatches(capsys, monkeypatch):
    # sound inputs never reach this branch, so force it
    monkeypatch.setattr("autoseq.cli.compiler.first_mismatch", lambda dfa, count: 17)
    assert main(["verify", NO_BB, "--count", "100"]) == 2
    assert "mismatch at index 17 (word aaba, numeral 10001)" in capsys.readouterr().out
    monkeypatch.setattr("autoseq.cli.compiler.first_mismatch", lambda dfa, count: 0)
    assert main(["verify", NO_BB, "--count", "100"]) == 2
    assert "mismatch at index 0 (word Λ, numeral Λ)" in capsys.readouterr().out


def test_verify_checks_the_count_before_compiling(capsys, monkeypatch):
    def compile_dfa(dfa, minimize=True):
        raise AssertionError("compiled before the count was checked")

    monkeypatch.setattr("autoseq.compiler.compile_dfa", compile_dfa)
    assert main(["verify", NO_BB, "--count", "-3"]) == 1
    assert "count" in capsys.readouterr().err


def test_split(tmp_path, no_bb_ones, no_bb_zeros):
    ones_path = tmp_path / "ones.aut"
    zeros_path = tmp_path / "zeros.aut"
    assert main(["split", NO_BB, "-o-m", str(ones_path), "-o-n", str(zeros_path)]) == 0
    assert equivalent(load(ones_path), no_bb_ones)
    assert equivalent(load(zeros_path), no_bb_zeros)


def test_split_to_stdout(capsys):
    assert main(["split", NO_BB]) == 0
    out = capsys.readouterr().out
    assert out.count("type dfa\n") == 2


def test_glue(tmp_path, capsys, no_bb_fao):
    out = tmp_path / "glued.aut"
    assert main(["glue", ONES, ZEROS, "-o", str(out)]) == 0
    assert dfao_equivalent(load(out), no_bb_fao)


def test_glue_reports_partition_failures(capsys):
    assert main(["glue", ONES, ONES]) == 1
    assert capsys.readouterr().err == (
        f"error: {ONES}, {ONES}: not a partition of the canonical numerals: "
        "both languages contain 'the empty word'\n"
    )


def test_pipeline_split_glue_compile(tmp_path, capsys):
    ones_path = tmp_path / "ones.aut"
    zeros_path = tmp_path / "zeros.aut"
    glued_path = tmp_path / "glued.aut"
    compiled_path = tmp_path / "compiled.aut"
    assert main(["split", NO_BB, "-o-m", str(ones_path), "-o-n", str(zeros_path)]) == 0
    assert main(["glue", str(ones_path), str(zeros_path), "-o", str(glued_path)]) == 0
    assert main(["compile", NO_BB, "-o", str(compiled_path)]) == 0
    assert dfao_equivalent(load(glued_path), load(compiled_path))


def test_minimize_dfa(tmp_path, capsys, no_bb_ones):
    out = tmp_path / "small.aut"
    assert main(["minimize", ONES, "-o", str(out)]) == 0
    small = load(out)
    assert isinstance(small, Dfa)
    assert len(small.states) == 7
    assert equivalent(small, no_bb_ones)


def test_minimize_dfao(capsys, no_bb_fao):
    assert main(["minimize", FAO]) == 0
    out = capsys.readouterr().out
    assert out.startswith("type dfao\n")
    assert "outputs" in out


def test_minimize_rejects_tag_files(capsys):
    assert main(["minimize", TAG]) == 1
    assert "expected an automaton" in capsys.readouterr().err


def test_residuals(capsys):
    assert main(["residuals", NO_BB]) == 0
    assert capsys.readouterr().out == "Λ q0\nb q1\nbb q2\n"


def test_dot(capsys):
    assert main(["dot", NO_BB]) == 0
    assert capsys.readouterr().out.startswith("digraph {")


def test_tag_from_dfao(tmp_path, no_bb_tag):
    out = tmp_path / "system.tag"
    assert main(["tag", "from-dfao", FAO, "-o", str(out)]) == 0
    system = load(out)
    assert isinstance(system, TagSystem)
    assert system == no_bb_tag


def test_tag_seq(capsys):
    assert main(["tag", "seq", TAG, "--count", "10"]) == 0
    assert capsys.readouterr().out == "1 1 1 1 1 1 0 1 1 1\n"


def test_tag_intseq(capsys):
    assert main(["tag", "intseq", TAG, "--count", "16"]) == 0
    assert capsys.readouterr().out == "q0 q1 q1 q2 q1 q2 q4 q3 q1 q2 q4 q3 q1 q5 q6 q3\n"


def _boundary_counts(symbols, base):
    """Counts around every block width B = base**j (B - 1, B, B + 1, and the
    counts where a deeper block starts to be used), plus fixed sizes."""
    counts = {0, 1, base - 1, base, base + 1, (1 << 16) - 1, (1 << 16) + 1, 10**5}
    width = base
    while width * max(4 * symbols, width) <= 10**5:
        deeper = width * max(4 * symbols, width)
        counts |= {width - 1, width, width + 1, deeper - 1, deeper, deeper + 1}
        width *= base
    return sorted(counts)


@pytest.mark.parametrize("base", [2, 3, 4, 5])
def test_sequence_lines_at_block_boundaries(tmp_path, capsys, base):
    rng = random.Random(base)
    digits = "0123456789"[:base]
    for states, looped in ((3, False), (3, True), (12, True), (40, True)):
        dfao = random_dfao(rng, states, digits, ("x", "yy", "z"))
        while not looped and len(dfao.states) < 2:
            dfao = random_dfao(rng, states, digits, ("x", "yy", "z"))
        root = dfao.initial if looped else dfao.states[-1]
        dfao = replace(dfao, transitions={**dfao.transitions, (dfao.initial, "0"): root})
        save(dfao, tmp_path / "m.aut")
        checks = [(["run"], output_seq, dfao, tmp_path / "m.aut")]
        if looped:
            system = from_dfao(dfao)
            save(system, tmp_path / "m.tag")
            checks += [(["tag", "seq"], seq, system, tmp_path / "m.tag"),
                       (["tag", "intseq"], intseq, system, tmp_path / "m.tag")]
        for count in _boundary_counts(len(dfao.states), base):
            for command, terms, machine, path in checks:
                want = terms(machine, count)
                assert main([*command, str(path), "--count", str(count)]) == 0
                assert capsys.readouterr().out == " ".join(want) + "\n", (command, count)
                if count <= base**3 + 1:
                    assert main([*command, str(path), "--count", str(count), "--oeis"]) == 0
                    assert capsys.readouterr().out == "".join(f"{n} {t}\n" for n, t in enumerate(want))


def test_tag_check(capsys):
    assert main(["tag", "check", TAG, "--depth", "64"]) == 0
    assert capsys.readouterr().out == "OK 64\n"


def test_tag_check_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr("autoseq.cli.tagsystem.is_fixed_point_prefix", lambda s, d: False)
    assert main(["tag", "check", TAG, "--depth", "8"]) == 2
    assert "not a fixed point" in capsys.readouterr().out
    monkeypatch.undo()
    descend = cli.tagsystem.intseq_term
    monkeypatch.setattr("autoseq.cli.tagsystem.intseq_term", lambda s, n: "?" if n == 11 else descend(s, n))
    assert main(["tag", "check", TAG, "--depth", "8"]) == 2
    assert capsys.readouterr().out == "digit descent disagrees with substitution at index 11\n"


def test_num_commands(capsys):
    cases = [
        (["num", "phi", "5"], "ba"),
        (["num", "phi", "0"], "Λ"),
        (["num", "phi-inv", "ba"], "5"),
        (["num", "phi-inv", "Λ"], "0"),
        (["num", "canon", "194", "--base", "3"], "21012"),
        (["num", "canon", "0"], "Λ"),
        (["num", "nu", "21012", "--base", "3"], "194"),
        (["num", "nu", "Λ"], "0"),
        (["num", "rho", "11"], "00"),
        (["num", "rho", "Λ"], "Λ"),
        (["num", "gamma", "10"], "bb"),
        (["num", "gamma", "0"], "b"),
    ]
    for argv, expected in cases:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == expected + "\n", argv


def test_num_rejects_bad_words(capsys):
    assert main(["num", "phi-inv", "abc"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["num", "nu", "12", "--base", "2"]) == 1
    capsys.readouterr()


def test_num_names_a_result_too_long_to_print_in_decimal(capsys):
    # the interpreter refuses to write an int of more decimal digits than
    # its limit (4300 by default); the error names that limit instead of
    # giving the interpreter's advice
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv in (["num", "nu", "7" * 5000, "--base", "10"], ["num", "phi-inv", "ab" * 8000]):
            assert main(argv) == 1, argv[:2]
            assert capsys.readouterr() == (
                "", "error: the result is too long to print in decimal (more than 4300 digits)\n"
            )
        assert main(["num", "phi-inv", "ab" * 7000]) == 0  # 4215 digits still print
        assert len(capsys.readouterr().out) == 4215 + 1
    finally:
        sys.set_int_max_str_digits(limit)


def test_unknown_subcommand_is_an_input_error(capsys):
    assert main(["bogus"]) == 1
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "autoseq" in capsys.readouterr().out


def test_missing_count_is_an_input_error(capsys):
    assert main(["seq", NO_BB]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["seq", NO_BB], ["run", FAO, "--oeis"], ["tag", "seq", TAG]])
def test_a_closed_stdout_exits_1_without_a_message(argv):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-m", "autoseq.cli", *argv, "--count", "1000000"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as process:
        assert len(process.stdout.read(10)) == 10
        process.stdout.close()
        assert process.stderr.read() == b""
        process.stderr.close()
        assert process.wait() == 1


def test_unreadable_file(tmp_path, capsys):
    assert main(["seq", str(tmp_path / "missing.aut"), "--count", "4"]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_file_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.aut"
    bad.write_text("type dfa\nalphabet a b\nstates s\ninitial s\naccepting\nbogus\n")
    assert main(["seq", str(bad), "--count", "4"]) == 1
    err = capsys.readouterr().err
    assert "bad.aut:6" in err


def test_negative_count_is_an_input_error(capsys):
    assert main(["seq", NO_BB, "--count", "-3"]) == 1
    assert "count" in capsys.readouterr().err


ALPHABETS = {
    "abc.aut": "type dfa\nalphabet a b c\nstates s\ninitial s\naccepting s\n"
    "trans s a s\ntrans s b s\ntrans s c s\n",
    "xy.aut": "type dfa\nalphabet x y\nstates s\ninitial s\naccepting s\ntrans s x s\ntrans s y s\n",
    "ab.aut": "type dfao\nalphabet a b\nstates s\ninitial s\noutputs s=1\ntrans s a s\ntrans s b s\n",
    "noloop.aut": "type dfao\nalphabet 0 1\nstates s t\ninitial s\noutputs s=0 t=1\n"
    "trans s 0 t\ntrans s 1 s\ntrans t 0 t\ntrans t 1 s\n",
    "dup.aut": "type dfa\nalphabet a a\nstates p\ninitial p\naccepting\ntrans p a p\n",
}
TWO_LETTERS = "characteristic sequences need a two-letter alphabet, got 'a b c'"
DIGITS = "need the digit alphabet 0..1 in order, got 'a b'"
AB = "the compiler expects the alphabet 'a b' in that order, got 'x y'"
GLUE = "glue expects machines over the digits '0 1', got 'x y'"
NOLOOP = "the initial state 's' has no self-loop on digit 0, so the substitution would not be prolongable"


@pytest.mark.parametrize(
    "argv, culprit, message",
    [
        (["seq", "abc.aut", "--count", "4"], "abc.aut", TWO_LETTERS),
        (["run", "ab.aut", "--count", "4"], "ab.aut", DIGITS),
        (["tag", "from-dfao", "ab.aut"], "ab.aut", DIGITS),
        (["compile", "xy.aut"], "xy.aut", AB),
        (["verify", "xy.aut", "--count", "4"], "xy.aut", AB),
        (["split", "xy.aut"], "xy.aut", AB),
        (["glue", "xy.aut", ZEROS], "xy.aut", GLUE),
        (["glue", ONES, "xy.aut"], "xy.aut", GLUE),
        (["glue", "xy.aut", "abc.aut"], "xy.aut", GLUE),
        (["verify", "xy.aut", "--count", "-3"], None, "count must be a non-negative integer, got -3"),
        (["tag", "from-dfao", "noloop.aut"], "noloop.aut", NOLOOP),
        (["seq", "dup.aut", "--count", "3"], "dup.aut", "duplicate alphabet letter 'a'"),
    ],
    ids=["seq", "run", "tag-from-dfao", "compile", "verify", "split", "glue-ones", "glue-zeros",
         "glue-both", "verify-count", "tag-from-dfao-noloop", "seq-duplicate-letter"],
)
def test_alphabet_errors_name_the_file(tmp_path, capsys, argv, culprit, message):
    for name, text in ALPHABETS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in ALPHABETS else arg for arg in argv]
    assert main(argv) == 1
    where = f"{tmp_path / culprit}: " if culprit else ""
    assert capsys.readouterr().err == f"error: {where}{message}\n"


PARSER_PATHS = [
    "",
    *"seq run compile verify split glue minimize residuals dot tag num".split(),
    *(f"tag {name}" for name in "from-dfao seq intseq check".split()),
    *(f"num {name}" for name in "phi phi-inv canon nu rho gamma".split()),
]


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse lays help out differently from 3.13 on")
def test_parser_text_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    blocks = []
    for path in PARSER_PATHS:
        for extra, status in ((["--help"], 0), ([], 1)):
            argv = [*path.split(), *extra]
            assert main(argv) == status, argv
            captured = capsys.readouterr()
            blocks.append(f"$ {' '.join(['autoseq', *argv])}\n[stdout]\n{captured.out}[stderr]\n{captured.err}")
    assert "".join(blocks) == Path(__file__).with_name("cli_text.txt").read_text(encoding="utf-8")


MACHINE_FILES = {(Dfa,): NO_BB, (Dfao,): FAO, (TagSystem,): TAG, (Dfa, Dfao): FAO}
POSITIONALS = {"ones": ONES, "zeros": ZEROS, "n": "5", "word": "10"}


def spellings(path, kinds, arguments, out):
    """Command lines for the leaf ``path`` that spell its arguments in the
    ways argparse reads them, right and wrong; files are written to ``out``."""
    words = path.split()
    positionals = [MACHINE_FILES[kinds]] if kinds else []
    positionals += ["ab" if path == "num phi-inv" else POSITIONALS[names[0]]
                    for names, _ in arguments if not names[0].startswith("-")]
    required, variants = {}, []
    for names, settings in arguments:
        if not names[0].startswith("-"):
            continue
        long = names[-1]
        flag = settings.get("action") == "store_true"
        value = str(out / long.strip("-")) if "metavar" in settings else "5"
        full = [long] if flag else [long, value]
        if settings.get("required"):
            required[long] = full
        variants += [(long, full), (long, [long[:5], *full[1:]]), (long, [f"{long}={value}"]), (long, full * 2)]
        variants += [(long, [name + value]) for name in names if len(name) == 2 and not flag]
        if settings.get("type") is int:
            variants.append((long, [long, "-3"]))

    def line(*rest, skip=None):
        return [*words, *(word for name, full in required.items() if name != skip for word in full), *rest]

    return [
        line(*positionals),
        line("--", *positionals),
        line(*positionals, "--bogus"),
        line("--bogus", "x", *positionals),
        line(*positionals[:-1], "-5"),
        line(),
        [*words, *positionals],  # without the required options
        *(line(*positionals, *variant, skip=long) for long, variant in variants),
    ]


@pytest.mark.parametrize("command", cli._COMMANDS, ids=[path for path, *_ in cli._COMMANDS])
def test_leaf_parsers_answer_as_the_full_tree(tmp_path, capsys, monkeypatch, command):
    path, _, kinds, arguments, _ = command
    monkeypatch.setenv("COLUMNS", "80")
    out = tmp_path / "out"
    out.mkdir()

    def answer(argv):
        status = main(argv)
        written = {file.name: file.read_bytes() for file in out.iterdir()}
        for file in out.iterdir():
            file.unlink()
        return status, capsys.readouterr(), written

    for argv in spellings(path, kinds, arguments, out):
        with monkeypatch.context() as tree_only:
            tree_only.setattr(cli, "_LEAVES", {})
            want = answer(argv)
        assert answer(argv) == want, argv


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    cli._leaf_parser.cache_clear()
    assert main(["num", "phi", "5"]) == 0
    first = len(built)
    assert main(["num", "phi", "6"]) == 0
    assert first > 0 and len(built) == first
    assert capsys.readouterr().out == "ba\nbb\n"


@pytest.fixture
def collector():
    """Leaves the cyclic garbage collector enabled or disabled as it was."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_pauses_the_collector_and_restores_it(tmp_path, capsys, monkeypatch, collector, enabled):
    seen = []
    parse = argparse.ArgumentParser.parse_known_args

    def spied_parse(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return parse(self, *args, **kwargs)

    def broken(n):
        seen.append(gc.isenabled())
        raise KeyError(n)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spied_parse)
    (gc.enable if enabled else gc.disable)()
    cases = [
        (["num", "phi", "5"], 0),
        (["seq", str(tmp_path / "missing.aut"), "--count", "4"], 1),
        (["seq"], 1),
        (["--help"], 0),
    ]
    for argv, status in cases:
        seen.clear()
        assert main(argv) == status, argv
        assert seen == [False], argv
        assert gc.isenabled() is enabled, argv
    monkeypatch.setattr("autoseq.cli.numeration.shortlex_word", broken)
    seen.clear()
    with pytest.raises(KeyError):
        main(["num", "phi", "5"])
    assert seen == [False, False]
    assert gc.isenabled() is enabled
    capsys.readouterr()


def test_commands_leave_no_cyclic_garbage(tmp_path, capsys, collector):
    mod48 = tmp_path / "mod48.aut"
    save(mod_counter(48), mod48)
    compiled = tmp_path / "mod48.fao"
    ones, zeros = tmp_path / "ones.aut", tmp_path / "zeros.aut"
    lines = mod48.read_text().splitlines(keepends=True)
    stray = tmp_path / "stray.aut"
    stray.write_text("".join(lines).replace("trans c0 a c1\n", "trans c0 a nowhere\n"))
    gap = tmp_path / "gap.aut"
    gap.write_text("".join(line for line in lines if not line.startswith("trans c0 a ")))
    paths = {
        "seq": ["seq", NO_BB, "--count", "300"],
        "run": ["run", FAO, "--count", "300"],
        "compile": ["compile", NO_BB],
        "verify": ["verify", NO_BB, "--count", "300"],
        "split": ["split", NO_BB],
        "glue": ["glue", ONES, ZEROS],
        "minimize": ["minimize", FAO],
        "residuals": ["residuals", NO_BB],
        "dot": ["dot", FAO],
        "tag from-dfao": ["tag", "from-dfao", FAO],
        "tag seq": ["tag", "seq", TAG, "--count", "300"],
        "tag intseq": ["tag", "intseq", TAG, "--count", "300"],
        "tag check": ["tag", "check", TAG, "--depth", "64"],
        "num phi": ["num", "phi", "5"],
        "num phi-inv": ["num", "phi-inv", "ba"],
        "num canon": ["num", "canon", "194", "--base", "3"],
        "num nu": ["num", "nu", "21012", "--base", "3"],
        "num rho": ["num", "rho", "11"],
        "num gamma": ["num", "gamma", "10"],
    }
    assert set(paths) == {path for path, *_ in cli._COMMANDS}
    corpus = [
        *((argv, 0) for argv in paths.values()),
        (["run", THUE_MORSE, "--count", "300"], 0),
        (["dot", NO_BB], 0),
        (["minimize", ONES], 0),
        (["compile", str(mod48), "-o", str(compiled)], 0),
        (["split", str(mod48), "-o-m", str(ones), "-o-n", str(zeros)], 0),
        (["glue", str(ones), str(zeros)], 0),
        (["verify", str(mod48), "--count", "3000"], 0),
        (["seq", str(stray), "--count", "4"], 1),
        (["seq", str(gap), "--count", "4"], 1),
        (["glue", ONES, ONES], 1),
        (["seq", str(tmp_path / "missing.aut"), "--count", "4"], 1),
    ]
    # Building the parser leaves garbage once per process; warm it up.  The
    # corpus has no argparse exit: argparse's HelpFormatter and its sections
    # refer to each other, so each usage or help message it writes leaves a
    # cycle of fixed size (6 objects for a usage error, 25 for --help).
    main(["num", "phi", "0"])
    gc.disable()
    for check in (False, True):
        gc.collect()
        for argv, status in corpus:
            assert main(argv) == status, argv
            capsys.readouterr()
            if check:
                assert gc.collect() == 0, argv
