"""Context-free-grammar substrate.

Symbols, productions, the nullable/FIRST/FOLLOW analysis of the paper's
Fig. 8, a Lex-style token specification, front-ends for Yacc-style
grammar files (Fig. 14) and DTDs (Fig. 13), and the built-in example
grammars used throughout the paper.
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(globals(), {
    "repro.grammar.symbols": ("EPSILON", "NonTerminal", "Symbol", "Terminal"),
    "repro.grammar.cfg": ("Grammar", "Production"),
    "repro.grammar.lexspec": ("LexSpec", "TokenDef"),
    "repro.grammar.analysis": ("GrammarAnalysis", "analyze_grammar"),
    "repro.grammar.yacc_parser": ("parse_yacc_grammar",),
    "repro.grammar.writer": ("save_yacc_grammar", "write_yacc_grammar"),
    "repro.grammar.dtd": ("dtd_to_grammar", "parse_dtd"),
})
