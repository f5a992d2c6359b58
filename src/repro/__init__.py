"""repro — reproduction of "Context-Free-Grammar based Token Tagger in
Reconfigurable Devices" (Cho, Moscola, Lockwood).

The package turns a context-free grammar into a simulated FPGA token
tagger: a gate-level netlist of character decoders, regex tokenizer
chains, Follow-set control flow and a pipelined index encoder, plus
the area (LUT) and timing (frequency/bandwidth) models that regenerate
the paper's Table 1 and Figure 15.

Quickstart
----------
>>> from repro import BehavioralTagger, grammar_from_yacc
>>> g = grammar_from_yacc('''
... %%
... E: "if" C "then" E "else" E | "go" | "stop";
... C: "true" | "false";
... ''')
>>> tagger = BehavioralTagger(g)
>>> [t.token for t in tagger.tag(b"if true then go else stop")]
['if', 'true', 'then', 'go', 'else', 'stop']
"""

__version__ = "1.0.0"


def _lazy_surface(namespace: dict, table: dict[str, tuple[str, ...]]):
    """PEP 562 ``(__getattr__, __dir__)`` for the package owning
    ``namespace``, from its public names keyed by defining module.

    Importing the package then loads nothing else: a name's module is
    imported on first access and the object cached in the package
    globals.  ``"attr as name"`` exports ``attr`` under ``name``, the
    way an import line would.  The resolved table ``{name: (module,
    attr)}`` is kept as the package's ``_SURFACE``, and its sorted
    names are the package's ``__all__``."""
    from importlib import import_module

    where = namespace["_SURFACE"] = {}
    for module, entries in table.items():
        for entry in entries:
            attr, _, name = entry.partition(" as ")
            where[name or attr] = (module, attr)
    namespace["__all__"] = sorted(where)

    def __getattr__(name: str):
        try:
            module, attr = where[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(module), attr)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_surface(globals(), {
    "repro.core": (
        "BehavioralTagger", "BufferedSession", "GateLevelTagger",
        "StreamSession", "TaggedToken", "TaggerCircuit", "TaggerGenerator",
        "TaggerOptions", "TokenTagger",
    ),
    "repro.core.backend": ("Backend", "TaggingPipeline"),
    "repro.core.stack": ("StackTagger",),
    "repro.core.wide": ("WideGateLevelTagger", "WideTaggerGenerator"),
    "repro.core.options": (
        "DecoderOptions", "TokenizerTemplateOptions", "WiringOptions",
    ),
    "repro.errors": ("ReproError",),
    "repro.fpga": ("Device", "get_device", "implement", "techmap"),
    "repro.grammar": ("Grammar", "LexSpec"),
    # grammar_from_*: friendly aliases used throughout the examples.
    "repro.grammar.dtd": (
        "dtd_to_grammar", "parse_dtd", "dtd_to_grammar as grammar_from_dtd",
    ),
    "repro.grammar.yacc_parser": (
        "load_yacc_grammar", "parse_yacc_grammar",
        "parse_yacc_grammar as grammar_from_yacc",
    ),
    "repro.rtl": ("Netlist", "Simulator", "emit_vhdl"),
    "repro.service": (
        "CompiledArtifact", "MetricsRegistry", "QueueFull", "Registry",
        "RouterSpec", "ScanService", "TaggerSpec",
    ),
})
