"""Hardware tokenizer templates (the paper's Figs. 6–7).

Every terminal occurrence gets a *tokenizer*: a register per pattern
position (the Glushkov construction realizes exactly the paper's
sequential / Not / One-or-None / One-or-More / Zero-or-More templates),
plus:

* an **arming register** implementing the delimiter stall of §3.2 —
  "the delimiter detection output is inverted and connected to the
  enable signals of the first registers in the token detection chains.
  It is necessary that only the first register of each token is
  stalled": once a predecessor enables this tokenizer, the armed bit
  holds through a run of delimiters and is consumed by the first
  non-delimiter character;
* the **longest-match look-ahead** of Fig. 7 — a detection is
  suppressed while the next character could extend the match, using
  the stage-2 (one-earlier) decoded bits as the "future" character.

Cycle contract (with the aligned decode pipeline of
:class:`~repro.core.decoder.DecoderBank`): a detect output registered
high at cycle ``u`` means the token's last byte was the input byte
presented at cycle ``u - DETECT_LATENCY``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.decoder import CUR_STAGE, DecoderBank
from repro.core.options import TokenizerTemplateOptions
from repro.grammar.lexspec import TokenDef
from repro.grammar.regex import ast as rx
from repro.grammar.regex.glushkov import Glushkov, build_glushkov
from repro.rtl.netlist import Net, Netlist

#: Cycles from a byte on the input pins to a registered detect output
#: whose token ends at that byte (the aligned decode pipeline plus the
#: detect/position register).
DETECT_LATENCY = CUR_STAGE + 1


@dataclass
class TokenizerInstance:
    """The nets of one generated tokenizer."""

    name: str
    token: TokenDef
    glushkov: Glushkov
    enable: Net
    armed: Net
    entry: Net
    position_regs: list[Net]
    detect: Net
    #: High while this tokenizer holds any state for the current char —
    #: a position about to light, the arming bit holding, or a detect.
    #: Used by the §5.2 error detector: when no tokenizer is live the
    #: parse has died.
    liveness: Net | None = None
    #: Registers consumed by this tokenizer (area accounting).
    n_registers: int = 0
    notes: list[str] = field(default_factory=list)


def build_tokenizer(
    netlist: Netlist,
    decoders: DecoderBank,
    token: TokenDef,
    enable: Net,
    name: str,
    options: TokenizerTemplateOptions | None = None,
    glushkov: Glushkov | None = None,
) -> TokenizerInstance:
    """Instantiate the tokenizer hardware for one terminal occurrence.

    ``enable`` is the (possibly placeholder) net carrying the OR of the
    predecessor detections per the Follow-set wiring; it is consumed
    here but driven by :mod:`repro.core.wiring` in a later pass.
    """
    options = options or TokenizerTemplateOptions()
    auto = glushkov if glushkov is not None else build_glushkov(token.pattern)
    nl = netlist
    registers_before = nl.n_registers

    # Arming register (delimiter stall). armed_D is high only while the
    # current character is a delimiter (or the stream idle), so the
    # pending enable survives a delimiter run and dies otherwise. A
    # tokenizer that is enabled at all times ("starting tokenizers can
    # be enabled at all times", §3.3) needs no arming.
    if nl.is_const(enable) == 1:
        armed = nl.const(0)
        entry = enable
    else:
        armed = nl.placeholder(f"{name}_armed")
        entry = nl.or_(enable, armed, name=f"{name}_entry")
        nl.close_reg(
            armed,
            nl.and_(
                entry, decoders.cur_delim_or_idle(), name=f"{name}_armed_d"
            ),
        )

    # One register per pattern position; self/loop edges are sequential
    # (they pass through the position register), so placeholders first.
    position_qs = [
        nl.placeholder(f"{name}_p{p}") for p in range(auto.n_positions)
    ]
    position_ds: list[Net] = []
    # Invert the follow map: sources feeding each position.
    feeders: dict[int, list[int]] = {p: [] for p in range(auto.n_positions)}
    for source, targets in auto.follow.items():
        for target in targets:
            feeders[target].append(source)

    for p in range(auto.n_positions):
        sources: list[Net] = [position_qs[q] for q in sorted(feeders[p])]
        if p in auto.first:
            sources.append(entry)
        if not sources:
            # Unreachable position (possible in odd alternations).
            position_ds.append(nl.const(0))
            nl.drive_const(position_qs[p], 0)
            continue
        activation = (
            sources[0]
            if len(sources) == 1
            else nl.or_tree(sources, name=f"{name}_p{p}_src")
        )
        d = nl.and_(
            activation,
            decoders.cur(auto.position_bytes[p]),
            name=f"{name}_p{p}_d",
        )
        position_ds.append(d)
        nl.close_reg(position_qs[p], d)

    detect_terms: list[Net] = []
    notes: list[str] = []
    boundary_bytes = _keyword_boundary_bytes(token, options)
    for p in sorted(auto.last):
        extension = auto.extension_bytes(p) if options.longest_match else frozenset()
        extension |= boundary_bytes
        if extension:
            # Fig. 7: fire only when the *next* character cannot extend
            # the match. Registered from the D-side so the timing of
            # suppressed and plain detections is identical.
            suppressed = nl.and_(
                position_ds[p],
                nl.not_(decoders.nxt(extension), name=f"{name}_p{p}_next"),
                name=f"{name}_p{p}_lm",
            )
            detect_terms.append(nl.reg(suppressed, name=f"{name}_p{p}_det"))
            notes.append(f"position {p}: longest-match over {len(extension)} bytes")
        else:
            detect_terms.append(position_qs[p])
    detect = (
        detect_terms[0]
        if len(detect_terms) == 1
        else nl.or_tree(detect_terms, name=f"{name}_det")
    )

    # Liveness for the §5.2 error detector: any position about to
    # light, the arming bit about to hold, or a detection firing.
    liveness: Net | None = None
    if options.track_liveness:
        liveness_terms = [d for d in position_ds if nl.is_const(d) is None]
        armed_driver = armed.driver
        if hasattr(armed_driver, "d"):
            liveness_terms.append(armed_driver.d)
        liveness_terms.append(detect)
        liveness = nl.or_tree(liveness_terms, name=f"{name}_live")

    return TokenizerInstance(
        name=name,
        token=token,
        glushkov=auto,
        enable=enable,
        armed=armed,
        entry=entry,
        position_regs=position_qs,
        detect=detect,
        liveness=liveness,
        n_registers=nl.n_registers - registers_before,
        notes=notes,
    )


def _keyword_boundary_bytes(
    token: TokenDef, options: TokenizerTemplateOptions
) -> frozenset[int]:
    """Extension set enforcing a boundary after keyword-like literals."""
    if not options.keyword_boundary or not token.is_literal:
        return frozenset()
    text = token.fixed_text()
    if not text:
        return frozenset()
    if chr(text[-1]).isalnum():
        return rx.ALNUM.matched_bytes()
    return frozenset()
