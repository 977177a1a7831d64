"""Spans around every public function of the ``autoseq`` modules.

While a :class:`Tracer` is installed, each public function (a module-level
function whose name has no leading underscore) is replaced, by identity, in
every ``autoseq`` module that binds it, so ``from .automata import run`` is
caught as well as ``automata.run``.  Leaving the ``with`` block puts the
originals back.  The program itself is not changed.

Most calls become a span (name, start, end, parent, self time, counts) kept
in memory.  Functions called once per sequence term would make millions of
spans, so for those the tracer keeps only a call count and total and self
time per (enclosing span, function).
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

PER_TERM = frozenset({
    "automata.run", "automata.output", "automata.accepts", "charseq.char_bit",
    "numeration.shortlex_word", "numeration.to_digits", "tagsystem.intseq_term",
})


def _states(result) -> int:
    return len(result.states)


def _compile_counts(args, kwargs, result):
    minimized = kwargs.get("minimize", args[1] if len(args) > 1 else True)
    return {"min_states": _states(result)} if minimized else {}


# Sizes read off the arguments and results of a call, kept on its span.
COUNTERS = {
    "automata.minimize": lambda a, k, r: {"in_states": _states(a[0]), "out_states": _states(r)},
    "automata.minimize_dfao": lambda a, k, r: {"in_states": _states(a[0]), "out_states": _states(r)},
    "automata.intersection": lambda a, k, r: {"states": _states(r)},
    "automata.union": lambda a, k, r: {"states": _states(r)},
    "automata.difference": lambda a, k, r: {"states": _states(r)},
    "compiler.compile_dfa": _compile_counts,
    "compiler.compile_dfa_with_pairs": lambda a, k, r: {"raw_states": _states(r[0])},
    "compiler.split_dfa": lambda a, k, r: {"states": _states(r[0]) + _states(r[1])},
    "formats.parse": lambda a, k, r: {"bytes": len((a[0] if a else k["text"]).encode())},
    "formats.dump": lambda a, k, r: {"bytes": len(r.encode())},
    "charseq.char_seq": lambda a, k, r: {"terms": len(r)},
    "charseq.output_seq": lambda a, k, r: {"terms": len(r)},
    "tagsystem.intseq": lambda a, k, r: {"terms": len(r)},
}


def program_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "autoseq" or name.startswith("autoseq.")]


def public_functions(modules) -> dict:
    """id of each public function -> (function, "<module>.<name>")."""
    found = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for name, value in vars(module).items():
            if inspect.isfunction(value) and not name.startswith("_") and value.__module__ == module.__name__:
                found[id(value)] = (value, f"{short}.{name}")
    return found


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent id, self seconds, counts]
        self.aggregates: dict = defaultdict(lambda: [0, 0.0, 0.0])  # (span id, name) -> [calls, s, self s]
        self._stack: list[list] = []  # [owning span id, seconds spent in children]
        self._patched: list = []

    def __enter__(self):
        functions = public_functions(program_modules())
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in functions.items()}
        for module in program_modules():
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrappers[id(value)])
        return self

    def __exit__(self, *exc):
        for module, name, value in reversed(self._patched):
            setattr(module, name, value)
        self._patched.clear()
        return False

    def _wrap(self, fn, name):
        stack = self._stack
        if name in PER_TERM:
            aggregates = self.aggregates

            def per_term(*args, **kwargs):
                parent = stack[-1] if stack else None
                frame = [parent[0] if parent else None, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    if parent:
                        parent[1] += elapsed
                    entry = aggregates[frame[0], name]
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[1]

            return per_term

        spans = self.spans
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [len(spans), name, 0.0, 0.0, parent[0] if parent else None, 0.0, None]
            spans.append(span)
            frame = [span[0], 0.0]
            stack.append(frame)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
                elapsed = span[3] - span[2]
                span[5] = elapsed - frame[1]
                if parent:
                    parent[1] += elapsed
            if count:
                span[6] = count(args, kwargs, result)
            return result

        return traced

    def roots(self) -> list[list]:
        """Spans with no parent, in call order: one per command."""
        return [span for span in self.spans if span[4] is None]

    def descendants(self, root_id: int, name: str) -> list[list]:
        parents = {span[0]: span[4] for span in self.spans}
        found = []
        for span in self.spans:
            if span[1] != name:
                continue
            node = span[4]
            while node is not None and node != root_id:
                node = parents[node]
            if node == root_id:
                found.append(span)
        return found

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals for everything traced so far.  Names are
        ``<module>.<metric>``; self time excludes child spans."""
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        counts: dict = defaultdict(int)
        by_id = {}
        for span in self.spans:
            ident, name, start, end, _parent, self_s, extra = span
            by_id[ident] = span
            calls[name] += 1
            total[name] += end - start
            own[name] += self_s
            for key, value in (extra or {}).items():
                counts[name, key] += value
        for (_owner, name), (n, seconds, self_s) in self.aggregates.items():
            calls[name] += n
            total[name] += seconds
            own[name] += self_s
        # Raw states count only under a compile that minimized, so the
        # kept ratio compares the two ends of one construction.
        raw = sum(
            span[6]["raw_states"] for span in self.spans
            if span[1] == "compiler.compile_dfa_with_pairs" and span[4] is not None
            and "min_states" in (by_id[span[4]][6] or {})
        )

        def summed(table, names):
            return sum(table[name] for name in names)

        def in_module(table, module):
            return sum(value for name, value in table.items() if name.startswith(module + "."))

        minimizers = ("automata.minimize", "automata.minimize_dfao")
        products = ("automata.intersection", "automata.union", "automata.difference", "automata.complement")
        searches = ("automata.reachable_states", "automata.counterexample", "automata.equivalent",
                    "automata.dfao_counterexample", "automata.dfao_equivalent",
                    "automata.shortest_accepted", "automata.is_empty")
        runs = ("automata.run", "automata.accepts", "automata.output")
        min_states = counts["compiler.compile_dfa", "min_states"]
        return {
            "cli.main_self_s": in_module(own, "cli"),
            "cli.commands": calls["cli.main"],
            "formats.parse_s": total["formats.parse"],
            "formats.dump_s": total["formats.dump"],
            "formats.bytes_read": counts["formats.parse", "bytes"],
            "formats.bytes_written": counts["formats.dump", "bytes"],
            "automata.validate_s": total["automata.validate"],
            "automata.validate_calls": calls["automata.validate"],
            "automata.minimize_self_s": summed(own, minimizers),
            "automata.minimize_in_states": sum(counts[n, "in_states"] for n in minimizers),
            "automata.minimize_out_states": sum(counts[n, "out_states"] for n in minimizers),
            "automata.product_self_s": summed(own, products),
            "automata.product_states": sum(counts[n, "states"] for n in products),
            "automata.search_self_s": summed(own, searches),
            "automata.search_calls": summed(calls, searches),
            "automata.run_self_s": summed(own, runs),
            "automata.run_calls": calls["automata.run"],
            "compiler.compile_self_s": own["compiler.compile_dfa"] + own["compiler.compile_dfa_with_pairs"],
            "compiler.raw_states": raw,
            "compiler.min_states": min_states,
            "compiler.kept_ratio": min_states / raw if raw else 0.0,
            "compiler.split_self_s": own["compiler.split_dfa"],
            "compiler.split_states": counts["compiler.split_dfa", "states"],
            "compiler.glue_self_s": own["compiler.glue"],
            "compiler.first_mismatch_self_s": own["compiler.first_mismatch"],
            "charseq.char_seq_self_s": own["charseq.char_seq"],
            "charseq.output_seq_self_s": own["charseq.output_seq"],
            "charseq.terms": counts["charseq.char_seq", "terms"] + counts["charseq.output_seq", "terms"],
            "charseq.residuals_self_s": own["charseq.residuals"],
            "numeration.shortlex_word_s": total["numeration.shortlex_word"],
            "numeration.to_digits_s": total["numeration.to_digits"],
            "numeration.calls": in_module(calls, "numeration"),
            "tagsystem.intseq_s": total["tagsystem.intseq"],
            "tagsystem.intseq_term_s": total["tagsystem.intseq_term"],
            "tagsystem.from_dfao_s": total["tagsystem.from_dfao"],
            "tagsystem.terms": counts["tagsystem.intseq", "terms"],
        }

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "per_term": [[owner, name, *values] for (owner, name), values in self.aggregates.items()],
        }
