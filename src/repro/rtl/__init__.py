"""Gate-level RTL substrate.

This package is the "reconfigurable device" the reproduction runs on: a
synchronous netlist of boolean gates and D-registers, a cycle-accurate
simulator, structural analysis (logic levels, fanout, pipeline depth),
and a VHDL emitter mirroring the paper's code generator output.
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(globals(), {
    "repro.rtl.netlist": ("Gate", "GateKind", "Net", "Netlist", "Register"),
    "repro.rtl.simulator": ("Simulator",),
    "repro.rtl.bitsim": ("BitParallelSimulator",),
    "repro.rtl.analysis": (
        "NetlistStats", "analyze", "fanout_map", "logic_levels",
    ),
    "repro.rtl.stack": ("build_counter_stack", "build_stack"),
    "repro.rtl.vhdl": ("emit_vhdl",),
    "repro.rtl.testbench": ("emit_testbench",),
    "repro.rtl.vcd": ("VCDWriter", "dump_vcd"),
    "repro.rtl.waveform": ("Waveform",),
})
