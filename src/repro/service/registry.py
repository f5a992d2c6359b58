"""Named, versioned grammar registry over a content-addressed store.

The paper compiles grammars offline and ships the tables to the
device; this module is that deployment boundary in software.  A
:class:`Registry` maps human references — ``"xmlrpc"`` or pinned
``"xmlrpc@2"`` — onto compiled scan artifacts
(:mod:`repro.core.artifact`) persisted under a store directory:

* ``objects/<sha256>.art`` — immutable artifact blobs, addressed by
  :func:`~repro.core.artifact.object_key` (grammar source + wiring +
  engine ABI + interpreter tag), published atomically (temp file +
  ``os.replace``, the same discipline as ``_native_build``'s kernel
  cache) so racing workers never load a half-written blob;
* ``names/<name>.json`` — a manifest per grammar name: monotonically
  numbered versions, each carrying the canonical grammar source, the
  wiring fields, the ABI-independent content id, and the per-
  interpreter object keys;
* ``objects/<sha256>.msk`` — mask artifacts for constrained decoding
  (:mod:`repro.apps.structgen`), keyed ``content_id × vocab_hash ×
  mask ABI`` and recorded per version under ``"masks"`` in the
  manifest, so workers load the packed per-state token rows instead
  of re-walking the vocabulary.

Publishing the same source + wiring twice (two parses of one DTD, two
workers racing) converges on one version and one object — the on-disk
fix for the in-process memo (one per grammar object) missing on
structurally-equal grammar objects.  Loading under a *different*
interpreter/ABI than the publisher finds the manifest but not a
compatible object, recompiles from the manifest's source, and heals
the store by publishing a blob for the current tag.

The store root defaults to ``$REPRO_REGISTRY``, else
``$XDG_CACHE_HOME/repro-registry``, else ``~/.cache/repro-registry``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from weakref import WeakValueDictionary

from repro.core.artifact import (
    ArtifactError,
    CompiledArtifact,
    build_artifact,
    content_id,
    interpreter_tag,
    load_artifact,
    object_key,
    options_from_wiring_fields,
    read_header,
    wiring_fields,
)
from repro.core.options import TaggerOptions
from repro.errors import ReproError
from repro.grammar.cfg import Grammar
from repro.grammar.writer import write_yacc_grammar
from repro.grammar.yacc_parser import parse_yacc_grammar

__all__ = ["Registry", "RegistryError", "default_root", "parse_ref"]


class RegistryError(ReproError):
    """Unknown reference, malformed name, or unusable store."""


def default_root() -> str:
    """The store directory used when none is given explicitly."""
    override = os.environ.get("REPRO_REGISTRY")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-registry")


def parse_ref(ref: str) -> tuple[str, int | None]:
    """Split ``"name@version"``; a bare name means the latest version."""
    name, sep, version = ref.partition("@")
    _check_name(name)
    if not sep:
        return name, None
    if not version.isdigit():
        raise RegistryError(
            f"bad registry ref {ref!r}: version must be an integer"
        )
    return name, int(version)


def _check_name(name: str) -> None:
    if not name or not all(
        c.isalnum() or c in "-_." for c in name
    ) or name.startswith("."):
        raise RegistryError(
            f"bad grammar name {name!r}: use letters, digits, '-', '_', '.'"
        )


#: Artifacts some live :class:`Registry` holds, by (store root, content
#: id): every Registry over one store shares them, so a spec built from
#: a ref a server's registry already loaded does not load it again.
_LOADED: WeakValueDictionary = WeakValueDictionary()


class Registry:
    """Publish and load named, versioned compiled-grammar artifacts."""

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = os.fspath(root) if root is not None else default_root()
        #: In-process artifact cache by content id: every ref that
        #: resolves to the same logical grammar shares one loaded
        #: artifact (and therefore one grammar object and its warm
        #: memo).
        self._artifacts: dict[str, CompiledArtifact] = {}
        #: In-process mask-table cache by mask key (content × vocab).
        self._masks: dict = {}

    # ------------------------------------------------------------------
    # store layout
    # ------------------------------------------------------------------
    def _objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def _names_dir(self) -> str:
        return os.path.join(self.root, "names")

    def _object_path(self, key: str) -> str:
        return os.path.join(self._objects_dir(), f"{key}.art")

    def _mask_path(self, key: str) -> str:
        return os.path.join(self._objects_dir(), f"{key}.msk")

    def _manifest_path(self, name: str) -> str:
        return os.path.join(self._names_dir(), f"{name}.json")

    def _read_manifest(self, name: str) -> dict | None:
        try:
            with open(self._manifest_path(name), encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise RegistryError(
                f"unreadable manifest for {name!r}: {exc}"
            ) from None

    def _write_atomic(self, path: str, data: bytes) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".publish-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _write_manifest(self, name: str, manifest: dict) -> None:
        self._write_atomic(
            self._manifest_path(name),
            json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
        )

    # ------------------------------------------------------------------
    # publish
    # ------------------------------------------------------------------
    def publish(
        self,
        name: str,
        grammar: Grammar,
        options: TaggerOptions | None = None,
    ) -> str:
        """Compile ``grammar`` ahead of time and store it under ``name``.

        Returns the pinned reference (``"name@N"``).  Content-addressed
        dedup: if some version of ``name`` already holds the same
        source + wiring, that version's ref is returned (the object is
        still published for this interpreter tag if missing).
        """
        _check_name(name)
        options = options or TaggerOptions()
        source = write_yacc_grammar(grammar)
        cid = content_id(source, options.wiring)
        tag = interpreter_tag()
        manifest = self._read_manifest(name) or {
            "name": name,
            "latest": 0,
            "versions": {},
        }
        for vstr, entry in manifest["versions"].items():
            if entry["content"] == cid:
                if tag not in entry["objects"]:
                    entry["objects"][tag] = self._publish_object(
                        grammar, options, source
                    )
                    self._write_manifest(name, manifest)
                return f"{name}@{vstr}"
        version = max(
            (int(v) for v in manifest["versions"]), default=0
        ) + 1
        key = self._publish_object(grammar, options, source)
        manifest["versions"][str(version)] = {
            "content": cid,
            "source": source,
            "wiring": wiring_fields(options.wiring),
            "objects": {tag: key},
            "published": time.time(),
        }
        manifest["latest"] = max(int(manifest.get("latest", 0)), version)
        self._write_manifest(name, manifest)
        return f"{name}@{version}"

    def _publish_object(
        self, grammar: Grammar, options: TaggerOptions, source: str
    ) -> str:
        key = object_key(source, options.wiring)
        path = self._object_path(key)
        if not os.path.exists(path):
            self._write_atomic(path, build_artifact(grammar, options))
        return key

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    def load(self, ref: str) -> CompiledArtifact:
        """Resolve ``ref`` and return its :class:`CompiledArtifact`.

        The fast path reads one blob and installs warm tables; if the
        store lacks a blob for this interpreter/ABI (published under
        another Python, blob deleted, corrupt), the grammar is
        recompiled from the manifest's canonical source and the store
        is healed with a fresh blob.
        """
        name, version, entry, manifest = self._resolve_version(ref)
        cid = entry["content"]
        artifact = _LOADED.get((self.root, cid))
        if artifact is None:
            artifact = self._load_entry(name, version, entry, manifest)
            _LOADED[self.root, cid] = artifact
        self._artifacts[cid] = artifact  # alive while this registry is
        artifact.ref = f"{name}@{version}"
        return artifact

    def _load_entry(
        self, name: str, version: int, entry: dict, manifest: dict
    ) -> CompiledArtifact:
        tag = interpreter_tag()
        key = entry["objects"].get(tag)
        if key:
            try:
                with open(self._object_path(key), "rb") as fh:
                    return load_artifact(fh.read())
            except (OSError, ArtifactError):
                pass
        # Heal: recompile from the canonical source, publish for this
        # interpreter tag, and load the tables we just built.
        grammar = parse_yacc_grammar(entry["source"], name=name)
        options = options_from_wiring_fields(entry["wiring"])
        blob = build_artifact(grammar, options)
        key = object_key(entry["source"], options.wiring)
        try:
            self._write_atomic(self._object_path(key), blob)
            entry["objects"][tag] = key
            self._write_manifest(name, manifest)
        except OSError:
            pass  # read-only store: serve the in-memory compilation
        return load_artifact(blob)

    # ------------------------------------------------------------------
    # mask artifacts (constrained decoding)
    # ------------------------------------------------------------------
    def _resolve_version(self, ref: str) -> tuple[str, int, dict, dict]:
        """(name, version, entry, manifest) for a ref, or raise."""
        name, version = parse_ref(ref)
        manifest = self._read_manifest(name)
        if manifest is None:
            raise RegistryError(
                f"unknown grammar {name!r} in registry {self.root}"
            )
        if version is None:
            version = int(manifest.get("latest", 0))
        entry = manifest["versions"].get(str(version))
        if entry is None:
            raise RegistryError(
                f"grammar {name!r} has no version {version} "
                f"(latest is {manifest.get('latest', 0)})"
            )
        return name, version, entry, manifest

    def publish_masks(self, ref: str, vocab, **build_kwargs) -> dict:
        """Precompute and store the token-mask artifact for ``ref`` ×
        ``vocab`` (:class:`~repro.apps.structgen.Vocabulary`).

        Content-addressed dedup: if the version already records a mask
        for this vocabulary hash and the blob is present, nothing is
        rebuilt.  Returns a summary dict (key, split sizes, bytes).
        """
        from repro.apps.structgen.masks import build_mask_table, mask_key

        name, version, entry, manifest = self._resolve_version(ref)
        vocab_hash = vocab.vocab_hash
        key = mask_key(entry["content"], vocab_hash)
        masks = entry.setdefault("masks", {})
        recorded = masks.get(vocab_hash)
        path = self._mask_path(key)
        if recorded and recorded.get("key") == key and os.path.exists(path):
            return dict(recorded, ref=f"{name}@{version}", rebuilt=False)
        artifact = self.load(f"{name}@{version}")
        table = build_mask_table(
            artifact.grammar, vocab, artifact.options, **build_kwargs
        )
        blob = table.to_blob()
        self._write_atomic(path, blob)
        masks[vocab_hash] = {
            "key": key,
            "vocab_hash": vocab_hash,
            "vocab_size": len(vocab),
            "states": table.n_states,
            "ci": table.ci_count,
            "cd": len(table.cd_ids),
            "bytes": len(blob),
            "published": time.time(),
        }
        self._write_manifest(name, manifest)
        self._masks[key] = table
        return dict(
            masks[vocab_hash],
            ref=f"{name}@{version}",
            rebuilt=True,
            build_ms=table.build_ms,
        )

    def load_masks(self, ref: str, vocab_hash: str | None = None):
        """The :class:`~repro.apps.structgen.MaskTable` for ``ref`` ×
        ``vocab_hash`` (the version's only mask when omitted).

        The scan artifact is loaded first so the mask rows land on the
        exact interned state ids they were built against (the blob's
        table fingerprint enforces it); a foreign or damaged blob heals
        by rebuilding from the vocabulary stored inside it, when that
        still hashes to ``vocab_hash``.
        """
        from repro.apps.structgen.masks import (
            MaskError,
            build_mask_table,
            load_mask_blob,
            mask_key,
            read_mask_sections,
        )

        name, version, entry, manifest = self._resolve_version(ref)
        masks = entry.get("masks", {})
        if vocab_hash is None:
            if len(masks) != 1:
                raise RegistryError(
                    f"grammar {name}@{version} has {len(masks)} mask "
                    "artifacts; pass vocab_hash to pick one"
                )
            vocab_hash = next(iter(masks))
        recorded = masks.get(vocab_hash)
        if recorded is None:
            raise RegistryError(
                f"grammar {name}@{version} has no masks for vocabulary "
                f"{vocab_hash[:16]}; run `repro structgen precompute`"
            )
        key = mask_key(entry["content"], vocab_hash)
        cached = self._masks.get(key)
        if cached is not None:
            return cached
        artifact = self.load(f"{name}@{version}")
        blob = None
        try:
            with open(self._mask_path(key), "rb") as fh:
                blob = fh.read()
            table = load_mask_blob(blob, artifact.grammar, artifact.options)
            if table.vocab_hash != vocab_hash:
                raise MaskError("mask artifact is for another vocabulary")
        except (OSError, MaskError):
            # Heal: the vocabulary rides inside the blob, so a
            # fingerprint mismatch or damage elsewhere rebuilds in
            # place; a missing blob, or one whose vocabulary no longer
            # hashes to what was asked for, cannot.
            vocab = None
            if blob is not None:
                try:
                    vocab = read_mask_sections(blob)[3]
                except MaskError:
                    pass
            if vocab is None or vocab.vocab_hash != vocab_hash:
                raise RegistryError(
                    f"mask artifact for {name}@{version} × "
                    f"{vocab_hash[:16]} is missing or unreadable; "
                    "re-run `repro structgen precompute`"
                ) from None
            table = build_mask_table(
                artifact.grammar, vocab, artifact.options
            )
            try:
                self._write_atomic(self._mask_path(key), table.to_blob())
            except OSError:
                pass  # read-only store: serve the in-memory build
        self._masks[key] = table
        return table

    # ------------------------------------------------------------------
    # introspection / maintenance
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Registered grammar names (sorted)."""
        try:
            files = os.listdir(self._names_dir())
        except OSError:
            return []
        return sorted(
            f[: -len(".json")] for f in files if f.endswith(".json")
        )

    def refs(self) -> list[str]:
        """Every ``name@latest`` ref (for handshake advertisement)."""
        out = []
        for name in self.names():
            manifest = self._read_manifest(name)
            if manifest and manifest.get("latest"):
                out.append(f"{name}@{manifest['latest']}")
        return out

    def list(self) -> list[dict]:
        """Per-name summaries for ``repro registry list``."""
        out = []
        for name in self.names():
            manifest = self._read_manifest(name)
            if manifest is None:
                continue
            versions = {}
            for vstr, entry in sorted(
                manifest["versions"].items(), key=lambda kv: int(kv[0])
            ):
                versions[vstr] = {
                    "content": entry["content"][:16],
                    "published": entry.get("published"),
                    "objects": len(entry.get("objects", {})),
                    "masks": len(entry.get("masks", {})),
                }
            out.append(
                {
                    "name": name,
                    "latest": manifest.get("latest", 0),
                    "versions": versions,
                }
            )
        return out

    def inspect(self, ref: str) -> dict:
        """Everything known about one version, without loading tables."""
        name, version, entry, _manifest = self._resolve_version(ref)
        info = {
            "ref": f"{name}@{version}",
            "content": entry["content"],
            "wiring": entry["wiring"],
            "published": entry.get("published"),
            "source_bytes": len(entry["source"]),
            "objects": {},
        }
        for tag, key in entry.get("objects", {}).items():
            obj: dict = {"key": key}
            try:
                with open(self._object_path(key), "rb") as fh:
                    blob = fh.read()
                obj["bytes"] = len(blob)
                header = read_header(blob)
                for field in ("dense", "states", "classes"):
                    if field in header:
                        obj[field] = header[field]
            except (OSError, ArtifactError) as exc:
                obj["error"] = str(exc)
            info["objects"][tag] = obj
        masks = entry.get("masks", {})
        if masks:
            info["masks"] = {}
            for vocab_hash, recorded in masks.items():
                mask: dict = {
                    "key": recorded.get("key"),
                    "vocab_size": recorded.get("vocab_size"),
                    "states": recorded.get("states"),
                    "ci": recorded.get("ci"),
                    "cd": recorded.get("cd"),
                    "published": recorded.get("published"),
                }
                vocab_size = recorded.get("vocab_size") or 0
                if vocab_size:
                    mask["ci_fraction"] = (recorded.get("ci") or 0) / vocab_size
                try:
                    with open(
                        self._mask_path(recorded["key"]), "rb"
                    ) as fh:
                        blob = fh.read()
                    mask["bytes"] = len(blob)
                    from repro.apps.structgen.masks import read_mask_header

                    header = read_mask_header(blob)
                    mask["abi"] = header.get("abi")
                except (OSError, KeyError, ReproError) as exc:
                    mask["error"] = str(exc)
                info["masks"][vocab_hash[:16]] = mask
        return info

    def gc(self) -> int:
        """Delete objects no manifest references (scan artifacts and
        mask artifacts alike); return the count."""
        referenced = set()
        for name in self.names():
            manifest = self._read_manifest(name)
            if manifest is None:
                continue
            for entry in manifest["versions"].values():
                referenced.update(entry.get("objects", {}).values())
                for recorded in entry.get("masks", {}).values():
                    if recorded.get("key"):
                        referenced.add(recorded["key"])
        removed = 0
        try:
            files = os.listdir(self._objects_dir())
        except OSError:
            return 0
        for fname in files:
            stem, dot, ext = fname.rpartition(".")
            if ext not in ("art", "msk") or not dot:
                continue
            if stem in referenced:
                continue
            try:
                os.unlink(os.path.join(self._objects_dir(), fname))
                removed += 1
            except OSError:
                pass
        return removed
