"""The paper's primary contribution: the grammar-to-hardware token tagger.

* :mod:`repro.core.decoder` — character/class decoders (Figs. 4–5);
* :mod:`repro.core.tokenizer` — regex tokenizer templates (Figs. 6–7);
* :mod:`repro.core.wiring` — Follow-set syntactic control flow (Fig. 11);
* :mod:`repro.core.encoder` — token index encoder (eqs. 1–5);
* :mod:`repro.core.generator` — whole-tagger generation (Fig. 3);
* :mod:`repro.core.options` — the generation options, shared with the
  software engines;
* :mod:`repro.core.tagger` — behavioral and gate-level tagger front ends;
* :mod:`repro.core.api` — the unified TokenTagger/StreamSession surface;
* :mod:`repro.core.backend` — back-end processor interface (§3.5).
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(globals(), {
    "repro.core.api": ("BufferedSession", "StreamSession", "TokenTagger"),
    "repro.core.tokens": ("TaggedToken",),
    "repro.core.generator": ("TaggerCircuit", "TaggerGenerator"),
    "repro.core.options": ("TaggerOptions",),
    "repro.core.compiled": ("CompiledStream", "CompiledTagger"),
    "repro.core.scanplan": ("DetectEvent", "ScanPlan", "build_scan_plan"),
    "repro.core.tagger": ("BehavioralTagger", "GateLevelTagger"),
    "repro.core.vectorscan": ("VectorTagger",),
    "repro.core.nativescan": ("NativeTagger",),
    "repro.core.capabilities": ("engine_capabilities",),
})
