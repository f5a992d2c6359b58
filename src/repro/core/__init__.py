"""The paper's primary contribution: the grammar-to-hardware token tagger.

* :mod:`repro.core.decoder` — character/class decoders (Figs. 4–5);
* :mod:`repro.core.tokenizer` — regex tokenizer templates (Figs. 6–7);
* :mod:`repro.core.wiring` — Follow-set syntactic control flow (Fig. 11);
* :mod:`repro.core.encoder` — token index encoder (eqs. 1–5);
* :mod:`repro.core.generator` — whole-tagger generation (Fig. 3);
* :mod:`repro.core.tagger` — behavioral and gate-level tagger front ends;
* :mod:`repro.core.api` — the unified TokenTagger/StreamSession surface;
* :mod:`repro.core.backend` — back-end processor interface (§3.5).
"""

from repro.core.api import BufferedSession, StreamSession, TokenTagger
from repro.core.tokens import TaggedToken
from repro.core.generator import TaggerCircuit, TaggerGenerator, TaggerOptions
from repro.core.compiled import CompiledStream, CompiledTagger
from repro.core.scanplan import DetectEvent, ScanPlan, build_scan_plan
from repro.core.tagger import BehavioralTagger, GateLevelTagger
from repro.core.vectorscan import VectorTagger
from repro.core.nativescan import NativeTagger
from repro.core.capabilities import engine_capabilities

__all__ = [
    "BehavioralTagger",
    "BufferedSession",
    "CompiledStream",
    "CompiledTagger",
    "DetectEvent",
    "GateLevelTagger",
    "NativeTagger",
    "ScanPlan",
    "StreamSession",
    "TaggedToken",
    "TaggerCircuit",
    "TaggerGenerator",
    "TaggerOptions",
    "TokenTagger",
    "VectorTagger",
    "build_scan_plan",
    "engine_capabilities",
]
