"""Cross-process cold-start differential: publish here, load there.

A grammar is published in this process; fresh subprocesses then load
it from the store under every engine-availability permutation
(``REPRO_DISABLE_NATIVE`` / ``REPRO_DISABLE_NUMPY``) and must produce
byte-for-byte identical events — both against an in-process
compilation from the canonical source *inside* each subprocess, and
across all permutations against this process's own baseline.
"""

import os
import random
import subprocess
import sys

import pytest

import repro
from repro.core.tagger import BehavioralTagger
from repro.errors import GrammarError
from repro.grammar.cfg import Grammar
from repro.grammar.examples import if_then_else, xmlrpc
from repro.grammar.lexspec import LexSpec
from repro.grammar.symbols import NonTerminal, Terminal
from repro.grammar.writer import write_yacc_grammar
from repro.service.registry import Registry

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Engine-availability permutations a deployment might load under.
_ENVIRONMENTS = [
    {},
    {"REPRO_DISABLE_NATIVE": "1"},
    {"REPRO_DISABLE_NATIVE": "1", "REPRO_DISABLE_NUMPY": "1"},
]

_SUBPROCESS = """
import sys
from repro.core.tagger import BehavioralTagger
from repro.grammar.yacc_parser import parse_yacc_grammar
from repro.service.registry import Registry

root, ref, source_path, data_hex = sys.argv[1:5]
data = bytes.fromhex(data_hex)
with open(source_path, encoding="utf-8") as fh:
    source = fh.read()
engine = "native"
direct = BehavioralTagger(
    parse_yacc_grammar(source, name="g"), engine=engine
).tag(data)
loaded = Registry(root).load(ref).tagger(engine=engine).tag(data)
if repr(direct) != repr(loaded):
    sys.stderr.write("direct: %r\\nloaded: %r\\n" % (direct, loaded))
    sys.exit(1)
sys.stdout.write(repr(loaded))
"""


def _fuzz_grammar(seed: int) -> Grammar:
    """A seeded small acyclic grammar over prefix-free one-char tokens
    (the deterministic cousin of test_fuzz_grammars' strategy)."""
    rng = random.Random(seed)
    lexspec = LexSpec()
    terminals = []
    for char in "abcdefgh"[: rng.randint(3, 6)]:
        lexspec.define_literal(char)
        terminals.append(Terminal(char))
    grammar = Grammar(f"fuzz{seed}", lexspec)
    nonterminals = [NonTerminal(f"S{i}") for i in range(rng.randint(2, 4))]
    for i, lhs in enumerate(nonterminals):
        for _ in range(rng.randint(1, 3)):
            rhs = []
            for _ in range(rng.randint(1, 4)):
                deeper = nonterminals[i + 1 :]
                if deeper and rng.random() < 0.4:
                    rhs.append(rng.choice(deeper))
                else:
                    rhs.append(rng.choice(terminals))
            grammar.add(lhs, rhs)
    grammar.start = nonterminals[0]
    grammar.validate()
    return grammar


def _derive(grammar: Grammar, seed: int) -> bytes:
    rng = random.Random(seed)
    out = []

    def expand(symbol):
        if isinstance(symbol, Terminal):
            out.append(symbol.name.encode())
            return
        for child in rng.choice(grammar.productions_for(symbol)).rhs:
            expand(child)

    expand(grammar.start)
    return b" ".join(out)


def _seeded_fuzz_case():
    # A fixed scan over seeds keeps the case deterministic while
    # skipping the occasional degenerate draw (unused terminals,
    # validation failures).
    for seed in range(7, 64):
        try:
            grammar = _fuzz_grammar(seed)
        except GrammarError:
            continue
        data = _derive(grammar, seed)
        if grammar.used_terminals() and data:
            return grammar, data
    raise AssertionError("no viable fuzz seed in range")


def _cases():
    fuzz_grammar, fuzz_data = _seeded_fuzz_case()
    return [
        ("xmlrpc", xmlrpc(),
         b"<methodCall><methodName>add</methodName>"
         b"<params><param><value><int>4</int></value></param></params>"
         b"</methodCall>"),
        ("ifelse", if_then_else(), b"if true then go else stop"),
        ("fuzz", fuzz_grammar, fuzz_data),
    ]


@pytest.mark.parametrize("name,grammar,data",
                         _cases(), ids=lambda v: v if isinstance(v, str)
                         else "")
def test_cold_load_matches_in_process_everywhere(tmp_path, name,
                                                 grammar, data):
    store = str(tmp_path / "store")
    ref = Registry(store).publish(name, grammar)
    source_path = tmp_path / "grammar.y"
    source_path.write_text(write_yacc_grammar(grammar), encoding="utf-8")

    baseline = repr(BehavioralTagger(grammar, engine="compiled").tag(data))

    for overrides in _ENVIRONMENTS:
        env = dict(os.environ, PYTHONPATH=_SRC_DIR, **overrides)
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS,
             store, ref, str(source_path), data.hex()],
            capture_output=True, text=True, env=env, timeout=300,
        )
        label = ",".join(overrides) or "default"
        assert proc.returncode == 0, (
            f"[{label}] subprocess differential failed:\n{proc.stderr}"
        )
        assert proc.stdout == baseline, (
            f"[{label}] events drifted from the publisher's baseline"
        )
