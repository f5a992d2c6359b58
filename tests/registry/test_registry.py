"""The grammar registry: named, versioned, content-addressed artifacts.

Covers the publish/load round trip (bit-exact events against direct
compilation), content-addressed dedup of structurally-equal grammars
(the on-disk fix for the identity-keyed in-process caches), version
resolution, store healing, gc, `Registry.load(ref).tagger()`, the
spec-over-the-spawn-boundary path, and the CLI surface.
"""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.core.options import TaggerOptions, WiringOptions
from repro.core.tagger import BehavioralTagger
from repro.grammar.examples import if_then_else, xmlrpc
from repro.grammar.writer import write_yacc_grammar
from repro.grammar.yacc_parser import parse_yacc_grammar
from repro.service.registry import Registry, RegistryError, parse_ref

XML_SAMPLE = (
    b"<methodCall><methodName>add</methodName>"
    b"<params><param><value><int>4</int></value></param></params>"
    b"</methodCall>"
)
ITE_SAMPLE = b"if true then go else stop"
#: Messages behind and between junk: only a router whose start
#: tokenizers re-arm (``start_mode="always"``) finds both.
MESSAGE = b"<methodCall><methodName>add</methodName><params></params></methodCall>"
WIRED = b"xx" + MESSAGE + b" junk " + MESSAGE + b" "
ALWAYS = TaggerOptions(wiring=WiringOptions(start_mode="always"))


@pytest.fixture()
def store(tmp_path) -> str:
    return str(tmp_path / "store")


def _object_files(store: str) -> list[str]:
    try:
        return sorted(
            f for f in os.listdir(os.path.join(store, "objects"))
            if f.endswith(".art")
        )
    except OSError:
        return []


# ----------------------------------------------------------------------
# publish / load round trip
# ----------------------------------------------------------------------
def test_publish_returns_pinned_ref(store):
    ref = Registry(store).publish("xmlrpc", xmlrpc())
    assert ref == "xmlrpc@1"
    assert parse_ref(ref) == ("xmlrpc", 1)


@pytest.mark.parametrize("engine", ["compiled", "native"])
def test_loaded_artifact_tags_identically(store, engine):
    expected = BehavioralTagger(xmlrpc(), engine=engine).tag(XML_SAMPLE)
    ref = Registry(store).publish("xmlrpc", xmlrpc())
    # A fresh Registry: nothing shared with the publisher but the disk.
    artifact = Registry(store).load(ref)
    got = artifact.tagger(engine=engine).tag(XML_SAMPLE)
    assert repr(got) == repr(expected)


def test_artifact_metadata(store):
    registry = Registry(store)
    ref = registry.publish("xmlrpc", xmlrpc())
    artifact = registry.load(ref)
    assert artifact.ref == ref
    assert artifact.grammar.name == xmlrpc().name
    assert artifact.nbytes > 0


# ----------------------------------------------------------------------
# content addressing (the WeakKeyDictionary cache-miss fix)
# ----------------------------------------------------------------------
def test_structurally_equal_grammars_share_one_artifact(store):
    registry = Registry(store)
    ref1 = registry.publish("xmlrpc", xmlrpc())
    # A second, structurally-equal grammar object (fresh parse of the
    # same source). The in-process engine caches would miss on it;
    # the store must not.
    reparsed = parse_yacc_grammar(
        write_yacc_grammar(xmlrpc()), name="xmlrpc"
    )
    ref2 = registry.publish("xmlrpc", reparsed)
    assert ref1 == ref2
    assert len(_object_files(store)) == 1


def test_same_content_loads_shared_artifact_object(store):
    registry = Registry(store)
    ref = registry.publish("xmlrpc", xmlrpc())
    assert registry.load(ref) is registry.load(ref)


# ----------------------------------------------------------------------
# versioning
# ----------------------------------------------------------------------
def test_new_content_bumps_version_and_latest_wins(store):
    registry = Registry(store)
    assert registry.publish("g", if_then_else()) == "g@1"
    assert registry.publish("g", xmlrpc()) == "g@2"
    assert registry.load("g").ref == "g@2"
    assert registry.load("g@1").grammar.lexspec.total_pattern_bytes() == (
        if_then_else().lexspec.total_pattern_bytes()
    )


def test_unknown_refs_raise(store):
    registry = Registry(store)
    with pytest.raises(RegistryError, match="unknown grammar"):
        registry.load("nope")
    registry.publish("g", if_then_else())
    with pytest.raises(RegistryError, match="no version 9"):
        registry.load("g@9")


def test_bad_names_and_refs_raise(store):
    registry = Registry(store)
    with pytest.raises(RegistryError):
        registry.publish(".hidden", if_then_else())
    with pytest.raises(RegistryError):
        registry.publish("a/b", if_then_else())
    with pytest.raises(RegistryError, match="version must be an integer"):
        parse_ref("g@two")


# ----------------------------------------------------------------------
# store robustness
# ----------------------------------------------------------------------
def test_load_heals_a_deleted_blob(store):
    ref = Registry(store).publish("g", if_then_else())
    for fname in _object_files(store):
        os.unlink(os.path.join(store, "objects", fname))
    artifact = Registry(store).load(ref)
    got = artifact.tagger(engine="compiled").tag(ITE_SAMPLE)
    expected = BehavioralTagger(if_then_else()).tag(ITE_SAMPLE)
    assert repr(got) == repr(expected)
    # ... and the blob was republished for this interpreter.
    assert len(_object_files(store)) == 1


def test_gc_removes_only_orphans(store):
    registry = Registry(store)
    registry.publish("g", if_then_else())
    keep = _object_files(store)
    orphan = os.path.join(store, "objects", "0" * 64 + ".art")
    with open(orphan, "wb") as fh:
        fh.write(b"junk")
    assert registry.gc() == 1
    assert _object_files(store) == keep


def test_list_and_inspect_shapes(store):
    registry = Registry(store)
    registry.publish("g", if_then_else())
    (entry,) = registry.list()
    assert entry["name"] == "g"
    assert entry["latest"] == 1
    info = registry.inspect("g")
    assert info["ref"] == "g@1"
    assert info["source_bytes"] > 0
    (obj,) = info["objects"].values()
    assert obj["dense"] is True
    assert obj["states"] > 1


# ----------------------------------------------------------------------
# construction APIs riding on refs
# ----------------------------------------------------------------------
def test_loaded_artifact_tagger_defaults_to_native(store):
    ref = Registry(store).publish("xmlrpc", xmlrpc())
    tagger = Registry(store).load(ref).tagger()
    assert tagger.engine == "native"
    expected = BehavioralTagger(xmlrpc()).tag(XML_SAMPLE)
    assert repr(tagger.tag(XML_SAMPLE)) == repr(expected)


def test_tagger_spec_builds_from_registry_ref(store):
    from repro.service import TaggerSpec

    registry = Registry(store)
    for options, data in ((None, XML_SAMPLE), (ALWAYS, WIRED)):
        ref = registry.publish("xmlrpc", xmlrpc(), options)
        spec = TaggerSpec(registry_ref=ref, registry_root=store)
        session = spec.build().stream()
        got = session.feed(data) + session.finish()
        direct = TaggerSpec(grammar=xmlrpc(), options=options).build().stream()
        expected = direct.feed(data) + direct.finish()
        assert repr(got) == repr(expected)


def test_tagger_spec_without_grammar_or_ref_raises(store):
    from repro.service import TaggerSpec
    from repro.service.errors import ServiceError

    with pytest.raises(ServiceError, match="grammar or a registry_ref"):
        TaggerSpec().build()


def test_router_spec_builds_from_registry_ref(store):
    """A ref routes on its published grammar *and* wiring: published
    with ``start_mode="always"``, the router re-arms after the junk
    around each message, as a router over that wiring does."""
    from repro.apps.xmlrpc.router import ContentBasedRouter
    from repro.service import RouterSpec

    registry = Registry(store)
    for options, data in ((None, XML_SAMPLE + b" "), (ALWAYS, WIRED)):
        ref = registry.publish("xmlrpc", xmlrpc(), options)
        spec = RouterSpec(registry_ref=ref, registry_root=store)
        session = spec.build().stream()
        got = session.feed(data) + session.finish()
        tagger = BehavioralTagger(xmlrpc(), options)
        direct = ContentBasedRouter(tagger=tagger).stream()
        expected = direct.feed(data) + direct.finish()
        assert got == expected
    assert len(got) == 2


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_publish_list_inspect_gc(store, capsys):
    assert cli_main(
        ["registry", "--store", store, "publish", "g", "if-then-else"]
    ) == 0
    assert capsys.readouterr().out.strip() == "g@1"

    assert cli_main(["registry", "--store", store, "list", "--json"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)
    assert entry["name"] == "g"

    assert cli_main(["registry", "--store", store, "inspect", "g@1"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["ref"] == "g@1"

    assert cli_main(["registry", "--store", store, "gc"]) == 0
    assert "removed 0" in capsys.readouterr().out


def test_cli_unknown_ref_is_a_clean_error(store, capsys):
    assert cli_main(
        ["registry", "--store", store, "inspect", "ghost"]
    ) == 2
    assert "unknown grammar" in capsys.readouterr().err
