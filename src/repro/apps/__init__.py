"""Applications built on the token tagger (the paper's §4 and §5.1).

* :mod:`repro.apps.xmlrpc` — the XML-RPC content-based message router
  of §4 (Fig. 12), with message model, workload generator and both
  context-aware and naive baselines;
* :mod:`repro.apps.content_filter` — a token-context content filter;
* :mod:`repro.apps.nids` — a context-aware signature tagger in the
  style of the network-intrusion-detection applications of §5.1;
* :mod:`repro.apps.structgen` — the constrained-decoding subsystem:
  per-automaton-state valid-token bitmasks over an LLM-style
  vocabulary, precomputed from the compiled tables and served as
  decode sessions (imported lazily — ``from repro.apps import
  structgen``).
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(globals(), {
    "repro.apps.xmlrpc": (
        "ContentBasedRouter", "MethodCall", "NaiveRouter", "RoutedMessage",
        "ServiceTable", "WorkloadGenerator",
    ),
    "repro.apps.content_filter": ("ContentFilter", "FilterRule"),
    "repro.apps.nids": (
        "ContextSignatureScanner", "Signature", "SignatureAlert",
    ),
})
