"""Whole-tagger generation: ports, metadata, options plumbing."""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.core.generator import TaggerGenerator, TaggerOptions
from repro.core.decoder import DecoderOptions
from repro.core.options import WiringOptions
from repro.core.tagger import BehavioralTagger
from repro.errors import GenerationError
from repro.grammar.yacc_parser import parse_yacc_grammar
from repro.rtl.simulator import Simulator, stimulus_with_valid

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


class TestCircuitShape:
    def test_ports_present(self, ite_grammar):
        circuit = TaggerGenerator().generate(ite_grammar)
        outputs = circuit.netlist.outputs
        assert "match_valid" in outputs
        assert "accept" in outputs
        assert any(name.startswith("index") for name in outputs)
        assert any(name.startswith("det_") for name in outputs)
        inputs = {net.name for net in circuit.netlist.inputs}
        assert inputs == {f"data{b}" for b in range(8)} | {"in_valid"}

    def test_detect_port_per_occurrence(self, xmlrpc_grammar):
        circuit = TaggerGenerator().generate(xmlrpc_grammar)
        assert len(circuit.detect_ports) == len(circuit.occurrences)

    def test_encoder_metadata(self, ite_grammar):
        circuit = TaggerGenerator().generate(ite_grammar)
        first = circuit.occurrences[0]
        index = circuit.index_of(first)
        assert index == 1
        assert circuit.occurrence_of_index(index) == first
        assert circuit.occurrence_of_index(999) is None

    def test_latencies(self, ite_grammar):
        circuit = TaggerGenerator().generate(ite_grammar)
        assert circuit.index_latency == (
            circuit.detect_latency + circuit.encoder.latency
        )

    def test_pattern_bytes_counts_used_tokens(self, xmlrpc_grammar):
        circuit = TaggerGenerator().generate(xmlrpc_grammar)
        assert circuit.pattern_bytes() == 289

    def test_describe(self, ite_grammar):
        text = TaggerGenerator().generate(ite_grammar).describe()
        assert "7 tokenizers" in text

    @pytest.mark.parametrize("duplication", [True, False])
    def test_accept_pin_pulses_with_the_accepting_unit(self, duplication):
        """``accept`` is high on exactly the cycles the software's
        accepting units detect, in both wirings (collapsed, the one
        unit of ``"a"`` is the start and the accepting unit)."""
        grammar = parse_yacc_grammar('%%\nS: "a" "b" "a";\n%%')
        options = TaggerOptions(
            wiring=WiringOptions(context_duplication=duplication)
        )
        circuit = TaggerGenerator(options).generate(grammar)
        data = b"a b a"
        software = BehavioralTagger(grammar, options)
        expected = [
            e.end for e in software.events(data) if e.occurrence in software.accepting
        ]
        assert expected == ([5] if duplication else [1, 5])

        simulator = Simulator(circuit.netlist)
        latency = circuit.detect_latency
        frames = stimulus_with_valid(data, latency + 2)
        pulses = [
            cycle - latency + 1
            for cycle, frame in enumerate(frames)
            if simulator.step(frame)["accept"]
        ]
        assert pulses == expected


class TestOptions:
    def test_no_encoder(self, ite_grammar):
        options = TaggerOptions(encoder_style="none")
        circuit = TaggerGenerator(options).generate(ite_grammar)
        assert circuit.encoder is None
        assert "match_valid" not in circuit.netlist.outputs
        assert circuit.index_of(circuit.occurrences[0]) is None
        with pytest.raises(GenerationError):
            _ = circuit.index_latency

    def test_priority_encoder(self, xmlrpc_grammar):
        options = TaggerOptions(encoder_style="priority")
        circuit = TaggerGenerator(options).generate(xmlrpc_grammar)
        assert circuit.encoder.style == "mask"
        indices = list(circuit.encoder.index_of_input.values())
        assert len(set(indices)) == len(indices)

    def test_case_encoder(self, ite_grammar):
        options = TaggerOptions(encoder_style="case")
        circuit = TaggerGenerator(options).generate(ite_grammar)
        assert circuit.encoder.style == "case-chain"

    def test_unknown_encoder_rejected(self, ite_grammar):
        options = TaggerOptions(encoder_style="bogus")  # type: ignore[arg-type]
        with pytest.raises(GenerationError, match="unknown encoder"):
            TaggerGenerator(options).generate(ite_grammar)

    def test_no_detect_ports(self, ite_grammar):
        options = TaggerOptions(expose_detects=False, expose_accept=False)
        circuit = TaggerGenerator(options).generate(ite_grammar)
        assert not circuit.detect_ports
        assert "accept" not in circuit.netlist.outputs

    def test_decoder_options_flow_through(self, ite_grammar):
        options = TaggerOptions(
            decoder=DecoderOptions(nibble_sharing=False, replicas=2)
        )
        circuit = TaggerGenerator(options).generate(ite_grammar)
        circuit.netlist.validate()

    def test_custom_netlist_name(self, ite_grammar):
        circuit = TaggerGenerator().generate(ite_grammar, name="custom")
        assert circuit.netlist.name == "custom"


class TestDeterminism:
    def test_generation_is_deterministic(self, xmlrpc_grammar):
        from repro.grammar.examples import xmlrpc

        first = TaggerGenerator().generate(xmlrpc())
        second = TaggerGenerator().generate(xmlrpc())
        assert first.netlist.n_gates == second.netlist.n_gates
        assert first.netlist.n_registers == second.netlist.n_registers
        assert [str(o) for o in first.occurrences] == [
            str(o) for o in second.occurrences
        ]

    def test_netlists_do_not_depend_on_the_hash_seed(self):
        """Two interpreters with different string hashes emit the same
        VHDL: enable OR inputs follow the plan's unit order."""
        code = textwrap.dedent(
            """
            from repro.core.generator import TaggerGenerator, TaggerOptions
            from repro.core.options import WiringOptions
            from repro.core.wide import WideTaggerGenerator
            from repro.grammar.examples import if_then_else
            from repro.rtl.vhdl import emit_vhdl

            for duplication in (True, False):
                wiring = WiringOptions(context_duplication=duplication)
                circuit = TaggerGenerator(TaggerOptions(wiring=wiring)).generate(
                    if_then_else()
                )
                print(emit_vhdl(circuit.netlist))
            print(emit_vhdl(WideTaggerGenerator(4).generate(if_then_else()).netlist))
            """
        )
        texts = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [SRC, env.get("PYTHONPATH")])
            )
            done = subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            texts.append(done.stdout)
        assert texts[0] == texts[1]
