"""Software baselines and reference oracles.

The paper positions its hardware against "the traditional table
look-up or recursive descent methods used in most CFG parsers" (§3.1)
and against naive context-free pattern matchers that "lack the
intelligence to interpret the patterns based on their context" (§2).
This package implements all three:

* :mod:`repro.software.lexer` — DFA maximal-munch lexer (plus the
  context-sensitive variant predictive parsers drive);
* :mod:`repro.software.ll1` — table-driven LL(1) predictive parser;
* :mod:`repro.software.recursive_descent` — recursive-descent parser;
* :mod:`repro.software.naive` — context-free pattern scanner, the
  false-positive baseline of the paper's introduction.
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(globals(), {
    "repro.software.lexer": ("ContextSensitiveLexer", "Lexer", "LexedToken"),
    "repro.software.ll1": ("LL1Parser",),
    "repro.software.recursive_descent": ("RecursiveDescentParser",),
    "repro.software.naive": ("NaiveScanner",),
})
