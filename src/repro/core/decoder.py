"""Character and character-class decoders (the paper's Figs. 4–5).

"In order to design a compact pattern matching engine, our design
decodes the input. … All the letters used in the tokens are decoded
uniquely. Each decoded character is assigned a wire to provide
succinct inputs to the tokenizers." (§3.2)

The bank is *fine-grain pipelined*: a register follows every gate
level, preserving the paper's one-LUT-between-registers discipline
("Such pipelining efficiently utilize the hardware resources while
obtaining low latency", §3.4). All decoded byte-sets are padded to a
common pipeline depth so the tokenizers see aligned signals:

* :meth:`nxt` — the *look-ahead* tap (stage ``NXT_STAGE``), used as
  the "future character" of the longest-match logic (Fig. 7);
* :meth:`cur` — the *current character* tap (one stage later),
  consumed by the tokenizer chains.

Two construction modes:

* ``nibble_sharing=True`` (default) — shared 4→16 one-hot nibble
  decoders, one AND per character, a registered two-level AND-OR per
  class. This sharing is what gives the paper its ~1 LUT per pattern
  byte density.
* ``nibble_sharing=False`` — per-character Fig. 4 decode without any
  sharing (ablation).

``replicas > 1`` implements the §5.2 fan-out mitigation: the final
pipeline registers are duplicated and consumers are dealt round-robin
across the copies, dividing the worst-case fan-out per decoded wire.
"""

from __future__ import annotations

from repro.core.options import DecoderOptions
from repro.rtl.netlist import Net, Netlist

#: Pipeline stage (register count from the input pins) of the
#: look-ahead tap. Chosen to fit the deepest class decode: nibble (1),
#: low-nibble OR tree (2), group AND (1), group OR tree (2), valid
#: gate (1) — see :meth:`DecoderBank._decode_set`.
NXT_STAGE = 7
#: Stage of the current-character tap.
CUR_STAGE = NXT_STAGE + 1

#: A net paired with its pipeline depth (registers from the inputs).
_Timed = tuple[Net, int]


class DecoderBank:
    """Shared decoder bank with a depth-aligned register pipeline.

    Identical byte-sets share hardware — the decoder sharing the paper
    relies on for density and the source of the large fanouts its §4.3
    timing analysis discusses.
    """

    def __init__(
        self,
        netlist: Netlist,
        delimiters: frozenset[int],
        options: DecoderOptions | None = None,
        port_prefix: str = "data",
        valid_port: str = "in_valid",
    ) -> None:
        self.netlist = netlist
        self.options = options or DecoderOptions()
        nl = netlist
        self.data_bits = [nl.input(f"{port_prefix}{bit}") for bit in range(8)]
        self.in_valid = nl.input(valid_port)
        self._inverted_bits = [
            nl.not_(bit, name=f"ndata{i}") for i, bit in enumerate(self.data_bits)
        ]
        self._nibbles: dict[tuple[str, int], Net] = {}
        self._stage_raw: dict[frozenset[int], _Timed] = {}
        self._taps: dict[tuple[frozenset[int], int], list[Net]] = {}
        self._round_robin: dict[tuple[frozenset[int], int], int] = {}

        # Valid pipeline, one register per stage.
        self._valid_stages: list[Net] = [self.in_valid]
        for stage in range(1, CUR_STAGE + 1):
            self._valid_stages.append(
                nl.reg(self._valid_stages[-1], name=f"valid{stage}")
            )
        self.valid_cur = self._valid_stages[CUR_STAGE]

        self.delimiters = frozenset(delimiters)
        # Current char is a delimiter *or* the stream is idle — the
        # condition under which token arming is held (§3.2). One copy
        # per replica so §5.2 fanout balancing also covers this net
        # (it fans out to every tokenizer's arming gate).
        idle = nl.not_(self.valid_cur, name="idle")
        self._delim_or_idle_pool: list[Net] = []
        for replica in range(self.options.replicas):
            delim_cur = (
                self._tap_pool(self.delimiters, CUR_STAGE)[replica]
                if delimiters
                else nl.const(0)
            )
            self._delim_or_idle_pool.append(
                nl.or_(delim_cur, idle, name=f"delim_or_idle_r{replica}")
                if delimiters
                else idle
            )
        self._delim_rr = 0

        started = nl.placeholder("started")
        nl.close_reg(started, nl.or_(started, self.valid_cur, name="started_d"))
        #: One-cycle pulse on the first current-character cycle —
        #: "starting tokenizers can be enabled once at the beginning of
        #: the data" (§3.3).
        self.start_pulse = nl.and_(
            self.valid_cur, nl.not_(started), name="start_pulse"
        )

    # ------------------------------------------------------------------
    # pipelined construction helpers (register after every gate level)
    # ------------------------------------------------------------------
    def _rtree(self, op_name: str, timed: list[_Timed], name: str) -> _Timed:
        """4-ary registered gate tree over depth-aligned operands."""
        nl = self.netlist
        timed = self._align(timed)
        depth = timed[0][1]
        level = [net for net, _ in timed]
        op = nl.or_ if op_name == "or" else nl.and_
        while len(level) > 1:
            nxt: list[Net] = []
            for i in range(0, len(level), 4):
                chunk = level[i : i + 4]
                if len(chunk) == 1:
                    nxt.append(nl.reg(chunk[0], name=f"{name}_p"))
                else:
                    nxt.append(nl.reg(op(*chunk, name=name), name=f"{name}_r"))
            level = nxt
            depth += 1
        return level[0], depth

    def _align(self, timed: list[_Timed]) -> list[_Timed]:
        """Delay-pad operands to the deepest member's stage."""
        deepest = max(depth for _, depth in timed)
        return [
            (self.netlist.delay(net, deepest - depth, name="al"), deepest)
            for net, depth in timed
        ]

    def _pad_to(self, timed: _Timed, stage: int) -> Net:
        net, depth = timed
        if depth > stage:
            raise ValueError(
                f"decode cone deeper ({depth}) than pipeline stage {stage}"
            )
        return self.netlist.delay(net, stage - depth, name="pad")

    # ------------------------------------------------------------------
    # stage-1 nibble decode (shared)
    # ------------------------------------------------------------------
    def _nibble(self, half: str, value: int) -> Net:
        """Registered one-hot nibble decoder output (depth 1, shared)."""
        key = (half, value)
        cached = self._nibbles.get(key)
        if cached is not None:
            return cached
        offset = 0 if half == "lo" else 4
        terms = []
        for bit in range(4):
            wants_one = (value >> bit) & 1
            source = self.data_bits if wants_one else self._inverted_bits
            terms.append(source[offset + bit])
        net = self.netlist.reg(
            self.netlist.and_(*terms, name=f"{half}{value:x}"),
            name=f"{half}{value:x}_q",
        )
        self._nibbles[key] = net
        return net

    def _decode_char(self, byte: int) -> _Timed:
        """AND of the two nibble one-hots (depth 2)."""
        if self.options.nibble_sharing:
            hi = self._nibble("hi", byte >> 4)
            lo = self._nibble("lo", byte & 0xF)
        else:
            # Literal Fig. 4: an unshared 8-input AND, decomposed into
            # two registered 4-input halves to keep one level per stage.
            nl = self.netlist
            halves = []
            for offset in range(0, 8, 4):
                terms = []
                for bit in range(4):
                    wants_one = (byte >> (offset + bit)) & 1
                    source = self.data_bits if wants_one else self._inverted_bits
                    terms.append(source[offset + bit])
                halves.append(
                    nl.reg(nl.and_(*terms, name=f"chr{byte:02x}_h"), name="chrh_q")
                )
            hi, lo = halves[1], halves[0]
        net = self.netlist.reg(
            self.netlist.and_(hi, lo, name=f"chr{byte:02x}"),
            name=f"chr{byte:02x}_q",
        )
        return net, 2

    def _decode_set(self, byte_set: frozenset[int]) -> _Timed:
        """Pipelined decode of an arbitrary byte set (Fig. 5 style)."""
        nl = self.netlist
        if not byte_set:
            return nl.const(0), 0
        if len(byte_set) == 256:
            return nl.const(1), 0
        # Negated classes are cheaper as the complement's inverse
        # (inversion is absorbed into the consuming LUT).
        if len(byte_set) > 128:
            complement = frozenset(range(256)) - byte_set
            net, depth = self._raw(complement)
            return nl.not_(net, name="ncls"), depth
        if len(byte_set) == 1:
            return self._decode_char(next(iter(byte_set)))
        if not self.options.nibble_sharing:
            chars = [self._decode_char(b) for b in sorted(byte_set)]
            return self._rtree("or", chars, name="cls")
        # Group by high nibble: OR_h ( hi_h AND (OR of low nibbles) ).
        groups: dict[int, list[int]] = {}
        for byte in sorted(byte_set):
            groups.setdefault(byte >> 4, []).append(byte & 0xF)
        terms: list[_Timed] = []
        for high, lows in sorted(groups.items()):
            hi = (self._nibble("hi", high), 1)
            if len(lows) == 16:
                terms.append(hi)
                continue
            low_any = self._rtree(
                "or", [(self._nibble("lo", low), 1) for low in lows], name="clslo"
            )
            hi_net = self._pad_to(hi, low_any[1])
            terms.append(
                (
                    nl.reg(
                        nl.and_(hi_net, low_any[0], name="clst"), name="clst_q"
                    ),
                    low_any[1] + 1,
                )
            )
        return self._rtree("or", terms, name="cls")

    def _raw(self, byte_set: frozenset[int]) -> _Timed:
        cached = self._stage_raw.get(byte_set)
        if cached is None:
            cached = self._decode_set(byte_set)
            self._stage_raw[byte_set] = cached
        return cached

    # ------------------------------------------------------------------
    # aligned, replicated taps
    # ------------------------------------------------------------------
    def _tap_pool(self, byte_set: frozenset[int], stage: int) -> list[Net]:
        key = (byte_set, stage)
        pool = self._taps.get(key)
        if pool is not None:
            return pool
        nl = self.netlist
        if stage == NXT_STAGE:
            raw, depth = self._raw(byte_set)
            if nl.is_const(raw) is not None:
                base = raw
            else:
                # Gate with valid one level above the raw cone, then pad.
                valid = self._valid_stages[depth]
                gated = nl.reg(
                    nl.and_(raw, valid, name="dec_v"), name="dec_vq"
                )
                base = self._pad_to((gated, depth + 1), NXT_STAGE)
            sources = [base]
        else:  # CUR_STAGE: one register after the NXT tap, per replica
            sources = self._tap_pool(byte_set, NXT_STAGE)
        pool = []
        for replica in range(self.options.replicas):
            source = sources[replica % len(sources)]
            if stage == NXT_STAGE:
                pool.append(
                    source
                    if replica == 0 or nl.is_const(source) is not None
                    else nl.reg(
                        self._unpad(source), name=f"nxt_r{replica}"
                    )
                )
            else:
                pool.append(
                    source
                    if nl.is_const(source) is not None
                    else nl.reg(source, name=f"cur_r{replica}")
                )
        self._taps[key] = pool
        return pool

    def _unpad(self, net: Net) -> Net:
        """Source of the final pad register, for replica re-registering."""
        from repro.rtl.netlist import Register

        if isinstance(net.driver, Register):
            return net.driver.d
        return net

    def _pick(self, byte_set: frozenset[int], stage: int) -> Net:
        pool = self._tap_pool(byte_set, stage)
        key = (byte_set, stage)
        index = self._round_robin.get(key, 0)
        self._round_robin[key] = (index + 1) % len(pool)
        return pool[index]

    def cur(self, byte_set: frozenset[int]) -> Net:
        """Decoded bit for the *current* character (stage CUR_STAGE)."""
        return self._pick(frozenset(byte_set), CUR_STAGE)

    def cur_delim_or_idle(self) -> Net:
        """Arming-hold condition, dealt round-robin across replicas."""
        net = self._delim_or_idle_pool[self._delim_rr]
        self._delim_rr = (self._delim_rr + 1) % len(self._delim_or_idle_pool)
        return net

    def nxt(self, byte_set: frozenset[int]) -> Net:
        """Decoded bit for the *next* character (stage NXT_STAGE).

        This is the Fig. 7 look-ahead — "by using the decoded bits in
        the earlier stages of the pipeline, we can effectively look at
        the future characters to find the longest pattern."
        """
        return self._pick(frozenset(byte_set), NXT_STAGE)

    # ------------------------------------------------------------------
    @property
    def detect_latency(self) -> int:
        """Cycles from input byte to a registered tokenizer detect."""
        return CUR_STAGE + 1

    @property
    def n_decoded_sets(self) -> int:
        """Distinct byte sets decoded so far (decoder-sharing metric)."""
        return len(self._stage_raw)
