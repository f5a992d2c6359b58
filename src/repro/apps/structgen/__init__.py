"""Constrained-decoding subsystem: grammar → per-state token masks.

The 2006 tagger under a 2026 inference-stack workload: precompute
which vocabulary tokens each product-automaton state admits
(:mod:`repro.apps.structgen.masks`), persist the packed tables in the
registry keyed ``content_id × vocab_hash``, and serve
``advance``/``mask`` decode flows in-process (:class:`MaskSession`)
or over the framed protocol (``ScanServer``/``ScanClient``).  See the
README "Constrained decoding" walkthrough and DESIGN.md §12.
"""

from .beam import BeamMaskSession, beam_capability
from .masks import (
    MASK_ABI,
    MaskError,
    MaskSession,
    MaskTable,
    build_mask_table,
    load_mask_blob,
    mask_key,
)
from .vocab import Vocabulary, synthetic_vocab

__all__ = [
    "BeamMaskSession",
    "MASK_ABI",
    "MaskError",
    "MaskSession",
    "MaskTable",
    "Vocabulary",
    "beam_capability",
    "build_mask_table",
    "load_mask_blob",
    "mask_key",
    "synthetic_vocab",
]
