"""Build and load the native scan kernel.

The kernel ships as C source (``_nativescan.c``) next to this module.
It can be built two ways:

* ahead of time, by ``pip install`` / ``python setup.py build_ext``
  (the optional extension declared in ``setup.py``), which drops
  ``_nativescan.*.so`` next to the source; or
* just in time, here: if no prebuilt extension is importable we invoke
  the platform C compiler once and cache the shared object under a
  user cache directory, so a source checkout run via ``PYTHONPATH=src``
  still gets the native loop without any install step.

Everything degrades to ``None`` — no compiler, sandboxed filesystem,
``REPRO_DISABLE_NATIVE=1`` — and callers fall back down the engine
ladder (native → vector → compiled).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_nativescan.c")

#: Bumped when the kernel's Python-visible contract changes, to key the
#: build cache alongside the source hash.
_ABI_TAG = "2"

_cached_module = None
_attempted = False


def _disabled() -> bool:
    return os.environ.get("REPRO_DISABLE_NATIVE", "") not in ("", "0")


def _compiler() -> list[str] | None:
    """The C compiler command, or None if none is available."""
    cc = sysconfig.get_config_var("CC") or os.environ.get("CC") or "cc"
    argv = shlex.split(cc)
    if not argv:
        return None
    from shutil import which

    return argv if which(argv[0]) else None


def compiler_available() -> bool:
    return _compiler() is not None


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-native")


def _source_key(source: str, *tags: str) -> str:
    """Cache key of one kernel: its source hash plus ``tags``."""
    with open(source, "rb") as fh:
        digest = hashlib.sha256(fh.read())
    for tag in tags:
        digest.update(tag.encode())
    return digest.hexdigest()[:16]


def _kernel_target() -> str:
    """Where the scan kernel's just-in-time build lives in the cache."""
    key = _source_key(_SOURCE, _ABI_TAG, sys.implementation.cache_tag)
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return os.path.join(_cache_dir(), f"_nativescan-{key}{suffix}")


def _compile(source: str, target: str, python_api: bool) -> str | None:
    """Compile ``source`` into ``target`` (a path in the cache) unless
    it is already there; return ``target``, or None on any failure."""
    argv = _compiler()
    if argv is None:
        return None
    if os.path.exists(target):
        return target
    includes: list[str] = []
    if python_api:
        paths = (sysconfig.get_path("include"), sysconfig.get_path("platinclude"))
        if not paths[0]:
            return None
        includes = [f"-I{path}" for path in dict.fromkeys(paths) if path]
    cache = os.path.dirname(target)
    try:
        os.makedirs(cache, exist_ok=True)
        # Build into a private temp name, then atomically publish, so
        # concurrent workers racing on a cold cache never load a
        # half-written object.
        fd, tmp = tempfile.mkstemp(dir=cache, prefix="build-", suffix=".so")
        os.close(fd)
    except OSError:
        return None
    cmd = argv + ["-O2", "-fPIC", "-shared", "-fno-strict-aliasing"]
    cmd += includes + [source, "-o", tmp]
    try:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            os.unlink(tmp)
            return None
        os.replace(tmp, target)
        return target
    except (OSError, subprocess.SubprocessError):
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return None


def _load_from(path: str):
    spec = importlib.util.spec_from_file_location("repro.core._nativescan", path)
    if spec is None or spec.loader is None:
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_kernel(probe: bool = True):
    """Return the loaded ``_nativescan`` module, or None.

    With ``probe=False`` only an already-loaded or prebuilt module is
    returned; the JIT compiler is never invoked (used by capability
    reporting, which must stay cheap and side-effect free).
    """
    global _cached_module, _attempted
    if _disabled():
        return None
    if _cached_module is not None:
        return _cached_module
    # Prebuilt extension installed next to the package?
    try:
        from repro.core import _nativescan  # type: ignore[attr-defined]

        _cached_module = _nativescan
        return _cached_module
    except ImportError:
        pass
    try:
        # A previous JIT build in the cache loads without a compiler, so
        # even probe=False (capability reporting) may use it: loading a
        # built artifact is cheap and side-effect free.
        target = _kernel_target()
        if os.path.exists(target):
            _cached_module = _load_from(target)
            if _cached_module is not None:
                return _cached_module
    except Exception:
        pass
    if not probe or _attempted:
        return None
    _attempted = True
    try:
        path = _compile(_SOURCE, _kernel_target(), python_api=True)
        if path is None:
            return None
        _cached_module = _load_from(path)
    except Exception:
        _cached_module = None
    return _cached_module


def kernel_source() -> str | None:
    """Where the active kernel came from: 'prebuilt', 'jit', or None."""
    module = load_kernel(probe=False)
    if module is None:
        return None
    path = getattr(module, "__file__", "") or ""
    return "jit" if _cache_dir() in path else "prebuilt"


def jit_shared_library(source: str, abi_tag: str) -> str | None:
    """Compile ``source`` (plain C, no CPython API, so the artifact is
    interpreter-independent and loads via ctypes) into the native
    build cache and return the shared-object path, or None.

    Degrades exactly like the scan kernel: ``REPRO_DISABLE_NATIVE=1``,
    a missing compiler, or an unwritable cache all yield None and the
    caller falls back down its engine ladder.  The cache key is the
    source hash plus ``abi_tag``, and the object is published
    atomically so racing workers never load a half-written file.
    """
    if _disabled():
        return None
    try:
        key = _source_key(source, abi_tag)
    except OSError:
        return None
    name = os.path.splitext(os.path.basename(source))[0]
    target = os.path.join(_cache_dir(), f"{name}-{key}.so")
    return _compile(source, target, python_api=False)
