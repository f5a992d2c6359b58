"""Public API surface and docstring examples."""

import doctest
import importlib

import pytest

import repro
from tests.test_import_graph import LAZY_PACKAGES


class TestExports:
    def test_all_names_resolve(self):
        """Every lazy package lists each surface name once: its
        ``__all__`` is the table's sorted names, and each resolves."""
        for package in LAZY_PACKAGES:
            module = importlib.import_module(package)
            assert module.__all__ == sorted(module._SURFACE), package
            for name in module.__all__:
                assert getattr(module, name) is not None, (package, name)

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_aliases(self):
        assert repro.grammar_from_yacc is repro.parse_yacc_grammar
        assert repro.grammar_from_dtd is repro.dtd_to_grammar

    def test_quickstart_flow(self):
        """The README quickstart, verbatim."""
        g = repro.grammar_from_yacc(
            """
            %%
            E: "if" C "then" E "else" E | "go" | "stop";
            C: "true" | "false";
            """
        )
        tagger = repro.BehavioralTagger(g)
        tokens = [t.token for t in tagger.tag(b"if true then go else stop")]
        assert tokens == ["if", "true", "then", "go", "else", "stop"]


_DOCTEST_MODULES = [
    "repro",
    "repro.rtl.netlist",
    "repro.rtl.simulator",
    "repro.grammar.regex.parser",
    "repro.grammar.regex.nfa",
    "repro.grammar.regex.dfa",
    "repro.grammar.dtd",
    "repro.grammar.yacc_parser",
    "repro.core.generator",
    "repro.core.backend",
    "repro.software.lexer",
    "repro.software.ll1",
    "repro.software.recursive_descent",
    "repro.software.naive",
    "repro.apps.xmlrpc.router",
    "repro.apps.netstack.wrapper",
    "repro.service.service",
    "repro.bench.scaling",
]


@pytest.mark.parametrize("module_name", _DOCTEST_MODULES)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    failures, _tests = doctest.testmod(
        module, optionflags=doctest.ELLIPSIS, verbose=False
    ).failed, None
    assert failures == 0, f"doctest failures in {module_name}"
