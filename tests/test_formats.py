import random
import tracemalloc

import pytest

from autoseq import (
    Dfa,
    Dfao,
    FormatError,
    InvalidAutomatonError,
    InvalidTagSystemError,
    TagSystem,
    accepts,
    compile_dfa,
    dfao_equivalent,
    dump,
    equivalent,
    from_dfao,
    load,
    parse,
    save,
    split_dfa,
    to_dot,
)
from conftest import MACHINES, mod_counter, random_dfa, random_dfao


def test_load_all_checked_in_machines():
    kinds = {
        "no_bb.aut": Dfa,
        "thue_morse.aut": Dfao,
        "paperfold.aut": Dfao,
        "no_bb_ones.aut": Dfa,
        "no_bb_zeros.aut": Dfa,
        "no_bb_fao.aut": Dfao,
        "no_bb.tag": TagSystem,
    }
    for name, kind in kinds.items():
        assert isinstance(load(MACHINES / name), kind)


def test_loaded_machine_behaves(no_bb):
    assert accepts(no_bb, "bab")
    assert not accepts(no_bb, "abba")


def test_round_trip_preserves_machines(no_bb, no_bb_fao, no_bb_tag):
    rng = random.Random(42)
    machines = [no_bb, no_bb_fao, no_bb_tag]
    machines += [random_dfa(rng) for _ in range(10)]
    machines += [random_dfao(rng) for _ in range(10)]
    for machine in machines:
        assert parse(dump(machine)) == machine


def test_dump_is_deterministic(no_bb, no_bb_fao):
    for machine in (no_bb, no_bb_fao):
        text = dump(machine)
        assert dump(parse(text)) == text
        assert text.endswith("\n")


def test_parse_tolerates_comments_blank_lines_and_order():
    text = """
    # a tiny machine
    type dfa

    initial s      # directives in any order
    trans s a s
    states s
    alphabet a b   # trailing comment
    trans s b s
    accepting
    """
    dfa = parse(text)
    assert dfa.accepting == frozenset()
    assert accepts(dfa, "ab") is False


def test_parse_empty_accepting_is_allowed():
    dfa = parse(
        "type dfa\nalphabet a b\nstates s\ninitial s\naccepting\n"
        "trans s a s\ntrans s b s\n"
    )
    assert dfa.accepting == frozenset()


def test_parse_requires_type_first():
    with pytest.raises(FormatError) as err:
        parse("alphabet a b\ntype dfa\n")
    assert "first directive" in str(err.value)
    with pytest.raises(FormatError):
        parse("")
    with pytest.raises(FormatError):
        parse("type widget\n")


def test_parse_reports_the_offending_line():
    text = "type dfa\nalphabet a b\nstates s\ninitial s\naccepting s\nbogus x y\n"
    with pytest.raises(FormatError) as err:
        parse(text, source="machine.aut")
    assert "machine.aut:6" in str(err.value)
    assert err.value.line == 6


def test_parse_rejects_malformed_trans():
    text = "type dfa\nalphabet a b\nstates s\ninitial s\naccepting s\ntrans s a\n"
    with pytest.raises(FormatError) as err:
        parse(text)
    assert err.value.line == 6


def test_parse_rejects_duplicate_transitions():
    text = (
        "type dfa\nalphabet a b\nstates s\ninitial s\naccepting s\n"
        "trans s a s\ntrans s b s\ntrans s a s\n"
    )
    with pytest.raises(FormatError) as err:
        parse(text)
    assert "duplicate transition" in str(err.value)
    assert err.value.line == 8


def test_parse_rejects_undeclared_names():
    base = "type dfa\nalphabet a b\nstates s\ninitial s\naccepting s\ntrans s a s\n"
    with pytest.raises(FormatError) as err:
        parse(base + "trans s b t\n")
    assert "undeclared state 't'" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse(base + "trans s c s\n")
    assert "undeclared letter 'c'" in str(err.value)


def test_parse_rejects_duplicate_directives():
    text = "type dfa\nalphabet a b\nalphabet a b\n"
    with pytest.raises(FormatError) as err:
        parse(text)
    assert "duplicate" in str(err.value)


def test_parse_rejects_missing_directives():
    with pytest.raises(FormatError) as err:
        parse("type dfa\nalphabet a b\nstates s\ntrans s a s\ntrans s b s\n")
    assert "missing 'initial'" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse("type dfa\nalphabet a b\nstates s\ninitial s\ntrans s a s\ntrans s b s\n")
    assert "missing 'accepting'" in str(err.value)


def test_parse_keeps_shape_specific_directives_apart():
    with pytest.raises(FormatError) as err:
        parse("type dfa\nalphabet a b\nstates s\ninitial s\noutputs s=1\n")
    assert "'outputs' only belongs in a dfao" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse("type dfao\nalphabet 0 1\nstates s\ninitial s\naccepting s\n")
    assert "'accepting' only belongs in a dfa" in str(err.value)


def test_parse_reports_incomplete_machines_with_all_problems():
    text = "type dfa\nalphabet a b\nstates s t\ninitial s\naccepting s\ntrans s a s\n"
    with pytest.raises(FormatError) as err:
        parse(text, source="partial.aut")
    message = str(err.value)
    assert message.startswith("partial.aut:")
    assert "missing transition ('s', 'b')" in message
    assert "missing transition ('t', 'a')" in message


def test_parse_rejects_malformed_outputs():
    base = "type dfao\nalphabet 0 1\nstates s\ninitial s\ntrans s 0 s\ntrans s 1 s\n"
    with pytest.raises(FormatError) as err:
        parse(base + "outputs s\n")
    assert "expected state=letter" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse(base + "outputs s=1 s=0\n")
    assert "duplicate output" in str(err.value)


def test_parse_tag_errors():
    with pytest.raises(FormatError) as err:
        parse("type tag\nmodulus two\n")
    assert "modulus" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse("type tag\nmodulus 2\nsymbols p\nstart p\nmorph p p p\ncode p=1\n")
    assert "->" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse(
            "type tag\nmodulus 2\nsymbols p\nstart p\n"
            "morph p -> p p\nmorph p -> p p\ncode p=1\n"
        )
    assert "duplicate rule" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse("type tag\nmodulus \u00b2\n", source="sup.tag")  # a digit to isdigit, not to int
    assert str(err.value).startswith("sup.tag:2:")


def test_parse_names_the_line_of_a_modulus_too_long_to_read():
    # past the interpreter's int conversion limit (4300 digits by default)
    text = "type tag\nmodulus " + "7" * 5000 + "\nsymbols p\nstart p\nmorph p -> p p\ncode p=1\n"
    with pytest.raises(FormatError) as err:
        parse(text, source="big.tag")
    assert str(err.value) == "big.tag:2: 'modulus' has 5000 digits, too many to read"


def test_parse_tag_wraps_validation_problems():
    text = "type tag\nmodulus 2\nsymbols p q\nstart p\nmorph p -> p q\ncode p=1 q=0\n"
    with pytest.raises(FormatError) as err:
        parse(text, source="bad.tag")
    assert "no rule for symbol 'q'" in str(err.value)
    assert str(err.value).startswith("bad.tag:")


def test_id_and_label_messages_are_pinned():
    # state ids and symbols share one set of checks, outputs and codings
    # another; every message must stay word for word what it was
    token = "must be a nonempty token without whitespace, '#' or '='"
    states = ("s", "t", "s", "x=y")
    with pytest.raises(InvalidAutomatonError) as err:
        Dfao(("0",), states, "s", {(q, "0"): "s" for q in states}, {"s": "1", "u": "2", "x=y": "a b"})
    assert err.value.problems == [
        "duplicate state id 's'",
        f"state id 'x=y' {token}",
        "output for undeclared state 'u'",
        f"output letter 'a b' {token}",
        "no output letter for state 't'",
    ]
    with pytest.raises(InvalidAutomatonError) as err:
        Dfao(("0",), (), "s", {}, {})
    assert err.value.problems == ["no states declared", "initial state 's' is not declared"]
    with pytest.raises(InvalidAutomatonError) as err:
        Dfa(("a", "b", "a"), ("p",), "p", frozenset(), {("p", "a"): "p", ("p", "b"): "p"})
    assert err.value.problems == ["duplicate alphabet letter 'a'"]
    rules = {"p": ("p", "q"), "q": ("q", "p"), "x=y": ("p", "p")}
    with pytest.raises(InvalidTagSystemError) as err:
        TagSystem(2, ("p", "q", "p", "x=y"), "p", rules, {"p": "1", "u": "2", "x=y": "a b"})
    assert err.value.problems == [
        "duplicate symbol 'p'",
        f"symbol 'x=y' {token}",
        "coding for undeclared symbol 'u'",
        f"coding letter 'a b' {token}",
        "no coding letter for symbol 'q'",
    ]
    with pytest.raises(InvalidTagSystemError) as err:
        TagSystem(2, (), "p", {}, {})
    assert err.value.problems == ["no symbols declared", "start symbol 'p' is not declared"]
    # a key that is not a string is reported like any other; items that do
    # not compare are listed in repr order
    loops = {("s", "0"): "s", ("t", "0"): "s"}
    with pytest.raises(InvalidAutomatonError) as err:
        Dfa(("0",), ("s", "t"), "s", {5, "u", "s"}, loops)
    assert err.value.problems == ["accepting state 'u' is not declared", "accepting state 5 is not declared"]
    with pytest.raises(InvalidAutomatonError) as err:
        Dfa(("0",), ("s", "t"), "s", (), loops | {(5, "0"): "s", ("u", "0"): "t"})
    assert err.value.problems == [
        "transition from undeclared state 'u'",
        "transition from undeclared state 5",
    ]
    with pytest.raises(InvalidAutomatonError) as err:
        Dfao(("0",), ("s", "t"), "s", loops, {5: "x", "s": "1", "t": "0", "u": "2"})
    assert err.value.problems == ["output for undeclared state 'u'", "output for undeclared state 5"]
    rules = {"p": ("p", "q"), "q": ("q", "p"), 5: ("p", "p")}
    with pytest.raises(InvalidTagSystemError) as err:
        TagSystem(2, ("p", "q"), "p", rules, {"p": "1", "q": "0", 5: "a=b"})
    assert err.value.problems == [
        "rule for undeclared symbol 5",
        "coding for undeclared symbol 5",
        f"coding letter 'a=b' {token}",
    ]
    for text, source, message in (
        ("type dfao\noutputs s\n", "f.aut", "f.aut:2: malformed output 's', expected state=letter"),
        ("type dfao\noutputs s=1 s=0\n", "f.aut", "f.aut:2: duplicate output for state 's'"),
        ("type tag\ncode p\n", "f.tag", "f.tag:2: malformed coding 'p', expected symbol=letter"),
        ("type tag\ncode p=1\ncode p=0\n", "f.tag", "f.tag:3: duplicate coding for symbol 'p'"),
    ):
        with pytest.raises(FormatError) as err:
            parse(text, source=source)
        assert str(err.value) == message


# Files with more than one fault, and the whole message each must give: the
# first bad line in file order wins, and line errors come before problems of
# the whole file (missing directives, then the constructor's checks).
PRECEDENCE = [
    # arity of a single-valued directive before a later duplicate
    ("type dfa\nalphabet a b\nstates s\ninitial s t\nstates s\n", "f.aut:4: 'initial' takes exactly one state id"),
    # on one line, a duplicate before the arity
    ("type dfa\nalphabet a b\ninitial s\ninitial s t\n", "f.aut:4: duplicate 'initial' directive (first on line 3)"),
    # an observation of the other automaton type before an unknown head
    ("type dfao\nalphabet 0 1\naccepting s\nbogus x\n", "f.aut:3: 'accepting' only belongs in a dfa"),
    ("type dfao\naccepting s\naccepting s\n", "f.aut:2: 'accepting' only belongs in a dfa"),
    ("type dfao\noutputs s=1\noutputs s\n", "f.aut:3: duplicate 'outputs' directive (first on line 2)"),
    # a bad code token before a missing directive
    ("type tag\nmodulus 2\nsymbols p\ncode p\n", "f.tag:4: malformed coding 'p', expected symbol=letter"),
    # the rows of one type are unknown directives in the others
    ("type tag\nmodulus 2\nsymbols p\nstart p\ntrans p a p\n", "f.tag:5: unknown directive 'trans'"),
    ("type tag\nmodulus 2\naccepting p\n", "f.tag:3: unknown directive 'accepting'"),
    ("type dfa\nalphabet a b\nmorph p -> p p\n", "f.aut:3: unknown directive 'morph'"),
    ("type dfa\nalphabet a b\ncode p=1\n", "f.aut:3: unknown directive 'code'"),
    ("type dfa\ntype dfa\n", "f.aut:2: unknown directive 'type'"),
    # a non-decimal modulus that is also a duplicate, and the other way round
    ("type tag\nmodulus 2\nmodulus two\n", "f.tag:3: duplicate 'modulus' directive (first on line 2)"),
    ("type tag\nmodulus two\nmodulus 2\n", "f.tag:2: 'modulus' takes one non-negative integer"),
    # a malformed rule before a duplicate symbol
    ("type tag\nmorph p -> p p\nmorph p p p\n", "f.tag:3: 'morph' takes: symbol -> image..."),
    # a malformed row before a missing directive; a missing directive before
    # what the rows name, and missing ones in table order
    ("type dfa\nalphabet a b\nstates s\naccepting\ntrans s a\n", "f.aut:5: 'trans' takes: source letter target"),
    ("type dfa\nalphabet a b\nstates s\naccepting\ntrans s a t\n", "f.aut: missing 'initial' directive"),
    ("type dfao\nalphabet 0 1\nstates s\ninitial s\ntrans s 0 s\n", "f.aut: missing 'outputs' directive"),
    (
        "type dfa\nalphabet a b\nstates s\ninitial s\ntrans s a s\ntrans s b s\n",
        "f.aut: missing 'accepting' directive (it may list zero ids)",
    ),
    ("type tag\nsymbols p\n", "f.tag: missing 'modulus' directive"),
    (
        "type tag\nmodulus 2\nsymbols p q\nstart p\nmorph p -> p q\ncode p=1 q=0\nmorph q -> q\n",
        "f.tag: rule for 'q' has length 1, expected 2",
    ),
]


@pytest.mark.parametrize("text, message", PRECEDENCE)
def test_parse_reports_the_first_fault_word_for_word(text, message):
    with pytest.raises(FormatError) as err:
        parse(text, source=message.partition(":")[0])
    assert str(err.value) == message


def parse_traced(text: str):
    """What ``parse(text, "f.aut")`` returns or raises, with the bytes still
    allocated after it and the peak while it ran, both under tracemalloc."""
    tracemalloc.start()
    try:
        try:
            result = parse(text, "f.aut")
        except FormatError as exc:
            result = exc
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def test_parse_peaks_below_twice_what_it_keeps():
    # Rows are read one at a time: no list of every line's tokens, and no
    # second copy of the trans rows, is held beside the record being built.
    compiled = compile_dfa(mod_counter(48))
    for machine in (compiled, split_dfa(mod_counter(48))[0], from_dfao(compiled)):
        result, kept, peak = parse_traced(dump(machine))
        assert result == machine
        assert peak < 2 * kept


def test_parse_stops_at_a_bad_line_before_reading_the_rest():
    text = "type dfa\nbogus x\n" + "trans s a s\n" * 200_000
    result, _, peak = parse_traced(text)
    assert str(result) == "f.aut:2: unknown directive 'bogus'"
    assert peak < 10 * len(text)


def test_faults_at_the_end_of_a_large_file_name_their_line():
    # The text is read again to name these lines; the compiled mod-48
    # counter's dump has 4615 lines, the last one its last trans row.
    lines = dump(compile_dfa(mod_counter(48))).splitlines()
    assert len(lines) == 4615 and lines[2].startswith("states ")
    for faulty, message in (
        (lines + lines[-1:], "f.aut:4616: duplicate transition for ('q2304', '1')"),
        (lines[:-1] + [lines[-1].rsplit(" ", 1)[0] + " nowhere"], "f.aut:4615: undeclared state 'nowhere'"),
        (lines + lines[2:3], "f.aut:4616: duplicate 'states' directive (first on line 3)"),
    ):
        with pytest.raises(FormatError) as err:
            parse("\n".join(faulty) + "\n", source="f.aut")
        assert str(err.value) == message


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load(tmp_path / "nope.aut")


def test_load_names_the_file_on_a_decode_error(tmp_path):
    path = tmp_path / "latin1.aut"
    path.write_bytes(b"type dfa\n# caf\xe9\n")
    with pytest.raises(FormatError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}: ")
    assert "UTF-8" in str(err.value)


def test_load_skips_a_byte_order_mark(tmp_path, no_bb, no_bb_tag):
    for name, machine in (("m.aut", no_bb), ("t.tag", no_bb_tag)):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_bytes(dump(machine).encode())
        marked.write_bytes(b"\xef\xbb\xbf" + dump(machine).encode())
        assert load(marked) == load(plain) == machine
    marked.write_bytes(b"\xef\xbb\xbftype dfa\n# caf\xe9\n")
    with pytest.raises(FormatError) as err:
        load(marked)
    assert str(err.value).startswith(f"{marked}: not UTF-8 text")


def test_lines_end_only_at_newlines(tmp_path, no_bb):
    # A comment runs to the end of its line whatever it holds, and other
    # line separators neither end a line nor shift the line numbers.
    for separator in "\f\v\x1c\x1d\x1e\x85\u2028\u2029":
        lines = dump(no_bb).splitlines()
        lines.insert(1, f"# page break {separator} here")
        path = tmp_path / "ff.aut"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert load(path) == no_bb
    lines = dump(no_bb).splitlines()
    lines[5] += "\v"
    lines[6] = "trans e b nowhere"
    path = tmp_path / "vt.aut"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load(path)
    assert str(err.value) == f"{path}:7: undeclared state 'nowhere'"
    for newline in ("\r\n", "\r"):
        assert parse("# page break \f here\n" + dump(no_bb).replace("\n", newline)) == no_bb


def test_save_then_load(tmp_path, no_bb, no_bb_tag):
    for name, machine in (("m.aut", no_bb), ("t.tag", no_bb_tag)):
        path = tmp_path / name
        save(machine, path)
        assert load(path) == machine


def test_equivalence_of_reparsed_machines(no_bb, no_bb_fao):
    assert equivalent(parse(dump(no_bb)), no_bb)
    assert dfao_equivalent(parse(dump(no_bb_fao)), no_bb_fao)


def test_to_dot_shapes(no_bb, no_bb_fao):
    dfa_dot = to_dot(no_bb)
    assert dfa_dot.startswith("digraph {")
    assert '"e" [shape=doublecircle];' in dfa_dot
    assert '"bb" [shape=circle];' in dfa_dot
    assert '__start -> "e";' in dfa_dot
    assert dfa_dot.count("->") == 1 + len(no_bb.states) * len(no_bb.alphabet)

    dfao_dot = to_dot(no_bb_fao)
    assert '"q0" [shape=circle, label="q0/1"];' in dfao_dot
    assert '"q6" [shape=circle, label="q6/0"];' in dfao_dot


def test_to_dot_start_node_avoids_state_names():
    # A bare DOT ID and its quoted form name the same node.
    states = ("__start", "___start")
    transitions = {(state, letter): "___start" for state in states for letter in "ab"}
    dot = to_dot(Dfa(("a", "b"), states, "__start", frozenset(), transitions))
    assert '  ____start [shape=none, label=""];' in dot
    assert '  ____start -> "__start";' in dot
    assert dot.count("____start") == 2


def test_dump_rejects_other_types():
    with pytest.raises(TypeError):
        dump("not a machine")
