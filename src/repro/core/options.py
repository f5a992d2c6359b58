"""Tagger generation options, grouped by subsystem.

One options tree, read by the gate-level generator's netlist code and
by the software engines that lower the same grammar to tables; it
lives apart from both so that a scan process never imports netlist
code to name an option.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal


@dataclass
class DecoderOptions:
    """Construction options for :class:`~repro.core.decoder.DecoderBank`."""

    nibble_sharing: bool = True
    replicas: int = 1

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")


@dataclass
class TokenizerTemplateOptions:
    """Per-tokenizer construction options."""

    #: Fig. 7 look-ahead: report only the longest match of trailing
    #: repeats. Disabling reproduces the "detection at every cycle"
    #: behaviour the paper describes for a+ on a run of 'a's.
    longest_match: bool = True
    #: Require a non-token character after literal keyword tokens whose
    #: last byte is alphanumeric (prevents "go" firing inside "gone").
    #: Off by default — the paper instead assumes conforming input.
    keyword_boundary: bool = False
    #: Build the per-tokenizer liveness net consumed by the §5.2 error
    #: detector (set automatically when error recovery is enabled).
    track_liveness: bool = False


@dataclass
class WiringOptions:
    """Options controlling the syntactic control-flow construction."""

    #: Duplicate tokens per grammatical context (§3.2). The ablation
    #: (False) instantiates one tokenizer per terminal and uses the
    #: terminal-level Follow table — tags then carry no context.
    context_duplication: bool = True
    #: "once": start tokenizers enabled at the beginning of the data;
    #: "always": enabled every cycle, scanning at every byte alignment
    #: (both modes are described in §3.3).
    start_mode: Literal["once", "always"] = "once"
    #: Re-arm the start tokenizers whenever a sentence may have ended,
    #: so a stream of back-to-back messages is tagged continuously
    #: (needed by the XML-RPC router of §4).
    loop_on_accept: bool = True
    #: §5.2 error detection & recovery: when no tokenizer holds any
    #: state ("the parse died"), raise a registered error flag and
    #: re-arm the start tokenizers so processing "continues from the
    #: point of the error".
    error_recovery: bool = False
    tokenizer: TokenizerTemplateOptions = field(
        default_factory=TokenizerTemplateOptions
    )

    def __post_init__(self) -> None:
        if self.start_mode not in ("once", "always"):
            raise ValueError(f"unknown start_mode {self.start_mode!r}")


@dataclass
class TaggerOptions:
    """All generation options, grouped by subsystem."""

    wiring: WiringOptions = field(default_factory=WiringOptions)
    decoder: DecoderOptions = field(default_factory=DecoderOptions)
    #: "or-tree" (default, eqs. 1–4), "priority" (eq. 5 masks),
    #: "case" (naive chain, ablation) or "none" (detect wires only).
    encoder_style: Literal["or-tree", "priority", "case", "none"] = "or-tree"
    #: Also expose one output port per occurrence detect wire.
    expose_detects: bool = True
    #: Expose an "accept" port: OR of the accepting-occurrence detects
    #: (used by stream back-ends to find message boundaries).
    expose_accept: bool = True
