"""What a process imports, and the package surfaces that decide it.

The package ``__init__`` files are PEP 562 surfaces: importing a
package loads none of its modules, and a public name imports its
defining module on first use.  So a serving process loads what it
runs — no gate-level, FPGA or worker-pool modules — and the import
graph tests below pin that, each in a fresh interpreter.  The surface
tests pin that laziness changed nothing a caller can see.
"""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import textwrap
import types

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

LAZY_PACKAGES = [
    "repro",
    "repro.core",
    "repro.server",
    "repro.service",
    "repro.apps",
    "repro.apps.xmlrpc",
    "repro.rtl",
    "repro.grammar",
    "repro.software",
]
#: Eager: ``techmap`` is both a submodule and a function of the package.
EAGER_PACKAGES = ["repro.fpga"]


def _loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c",
         textwrap.dedent(code) + "\nimport sys; print(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def _matching(loaded: set[str], prefixes) -> list[str]:
    return sorted(
        name for name in loaded
        for prefix in prefixes
        if name == prefix or name.startswith(prefix + ".")
    )


# ----------------------------------------------------------------------
# import graph
# ----------------------------------------------------------------------
def test_import_repro_loads_no_submodule():
    loaded = _loaded_after("import repro")
    assert _matching(loaded, ["repro"]) == ["repro"]


_SERVE = """
import repro.cli as cli

built = []
cli._serve = lambda endpoint, what, detail: built.append(endpoint) or 0
assert cli.main(["serve", "--engine", "native", "--workers", "0",
                 "--port", "0"]) == 0
(server,) = built
session = server._current.backend.stream()
data = (b"<methodCall><methodName>buy</methodName><params></params>"
        b"</methodCall> ")
(message,) = session.feed(data) + session.finish()
assert message.service == "buy", message
"""

#: What a scan server never runs: the gate-level generator and its
#: netlist modules, the RTL and FPGA models, the wide and stack
#: taggers, the vector engine (native falls back to compiled, never to
#: it), the back-end pipeline and the worker pool.
_NOT_ON_THE_SERVING_PATH = [
    "repro.rtl",
    "repro.fpga",
    "repro.core.wide",
    "repro.core.vectorscan",
    "repro.core.generator",
    "repro.core.decoder",
    "repro.core.encoder",
    "repro.core.tokenizer",
    "repro.core.wiring",
    "repro.core.stack",
    "repro.core.backend",
    "repro.service.pool",
    "multiprocessing",
]


def test_scan_server_loads_only_the_scan_path():
    """``repro serve --workers 0`` as the CLI builds it, one message
    routed through its in-process session."""
    loaded = _loaded_after(_SERVE)
    assert _matching(loaded, _NOT_ON_THE_SERVING_PATH) == []
    assert "repro.core.nativescan" in loaded


_CONTROL_PLANE = """
import repro.cli, repro.server.cluster
from repro.server import protocol

# What the proxy encodes of its own: the HELLO that hands out its ring.
(hello,) = protocol.FrameDecoder().feed(protocol.encode_hello(ring=["h:1"]))
assert protocol.decode_hello_lists(hello) == ((), ("h:1",))
"""


def test_cluster_proxy_loads_no_engine():
    """The control plane never scans a byte: no engine, no grammar,
    no application."""
    loaded = _loaded_after(_CONTROL_PLANE)
    assert _matching(
        loaded, ["repro.core", "repro.grammar", "repro.apps"]
    ) == []


def test_client_places_flows_without_the_proxy():
    """A client placing scan flows on a proxy's ring imports the ring,
    not the proxy that hands it out (nor the metrics it keeps)."""
    loaded = _loaded_after("import repro.server.client")
    assert "repro.server.ring" in loaded
    assert _matching(
        loaded, ["repro.server.cluster", "repro.server.endpoint",
                 "repro.service", "repro.core"]
    ) == []


def test_core_imports_no_layer_above_it():
    """The scan core never imports the service, server or application
    layers, not even inside a function (read from the source, so a
    lazy import counts too): a registry ref becomes a tagger through
    ``Registry(root).load(ref).tagger()``, from above."""
    above = ["repro.service", "repro.server", "repro.apps"]
    core = pathlib.Path(SRC, "repro", "core")
    found = []
    for path in sorted(core.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if _matching(set(names), above):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


# ----------------------------------------------------------------------
# surfaces
# ----------------------------------------------------------------------
@pytest.mark.parametrize("package", LAZY_PACKAGES + EAGER_PACKAGES)
def test_every_public_name_is_its_defining_object(package):
    module = importlib.import_module(package)
    surface = getattr(module, "_SURFACE", {})
    for name in module.__all__:
        value = getattr(module, name)
        if name in surface:
            source, attr = surface[name]
            assert value is getattr(importlib.import_module(source), attr)
        defined_in = getattr(value, "__module__", None)
        if defined_in is not None and hasattr(value, "__name__"):
            home = importlib.import_module(defined_in)
            assert getattr(home, value.__name__) is value, name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_surface_lists_binds_and_refuses(package):
    module = importlib.import_module(package)
    assert module.__all__ == sorted(module._SURFACE)
    assert set(module.__all__) <= set(dir(module))
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name), name
        assert name in vars(module), f"{name} was not cached"
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def test_fpga_techmap_stays_the_function():
    """``repro.fpga`` is eager: importing a submodule named like one
    of its functions must not rebind the package attribute."""
    importlib.import_module("repro.fpga.timing")
    from repro.fpga import techmap

    assert not isinstance(techmap, types.ModuleType)
    assert techmap is sys.modules["repro.fpga.techmap"].techmap
