"""Build and load the native kernel module.

The scan kernel and the beam kernels are one CPython extension,
``_nativescan``, shipped as C source (``_nativescan.c``) next to this
module.  It can be built two ways:

* ahead of time, by ``pip install`` / ``python setup.py build_ext``
  (the optional extension declared in ``setup.py``), which drops
  ``_nativescan.*.so`` next to the source; or
* just in time, here: if no prebuilt extension is importable we invoke
  the platform C compiler once and cache the shared object under a
  user cache directory, so a source checkout run via ``PYTHONPATH=src``
  still gets the native loop without any install step.

Everything degrades to ``None`` — no compiler, sandboxed filesystem,
``REPRO_DISABLE_NATIVE=1`` — and callers fall back to their portable
twins (the scan engine to its compiled loop: native → compiled is the
only ladder).
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import os
import re
import shlex
import subprocess
import sys
import sysconfig
import tempfile

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_nativescan.c")

#: The source's ``#define KERNEL_ABI "N"``: the kernel's Python-visible
#: contract version, which a module built from it exports as ``ABI``.
_ABI_DEFINE = re.compile(rb'^#define KERNEL_ABI "([^"]*)"', re.MULTILINE)

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


@functools.lru_cache(maxsize=None)
def abi_tag() -> str | None:
    """The contract version ``_nativescan.c`` declares, or None without
    the source (an install that ships only the built module)."""
    try:
        with open(_SOURCE, "rb") as fh:
            match = _ABI_DEFINE.search(fh.read())
    except OSError:
        return None
    return match.group(1).decode() if match else None


def _kernel_target() -> str:
    """Where the kernel's just-in-time build lives in the cache, keyed
    by the source hash and the interpreter."""
    with open(_SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read())
    digest.update(sys.implementation.cache_tag.encode())
    key = digest.hexdigest()[:16]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return os.path.join(_cache_dir(), f"_nativescan-{key}{suffix}")


def _compile(target: str) -> str | None:
    """Compile the extension into ``target`` (a path in the cache);
    return ``target``, or None on any failure."""
    argv = _compiler()
    if argv is None:
        return None
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
    cmd += includes + [_SOURCE, "-o", tmp]
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
    # Prebuilt extension installed next to the package, built from this
    # source?  An older build lacks entries this one calls: fall through
    # to the just-in-time build.
    try:
        from repro.core import _nativescan  # type: ignore[attr-defined]

        abi = abi_tag()
        if abi is None or getattr(_nativescan, "ABI", None) == abi:
            _cached_module = _nativescan
            return _cached_module
    except ImportError:
        pass
    # A previous JIT build in the cache loads without a compiler, so
    # even probe=False (capability reporting) may use it: loading a
    # built artifact is cheap and side-effect free.
    try:
        target = _kernel_target()
        if not os.path.exists(target):
            if not probe or _attempted:
                return None
            _attempted = True
            if _compile(target) is None:
                return None
        spec = importlib.util.spec_from_file_location(
            "repro.core._nativescan", target
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _cached_module = module
    except Exception:
        pass
    return _cached_module


def loaded_kernel():
    """The kernel if this process already loaded it (and it is not
    disabled), else None: never imports, builds or probes the cache —
    for callers that must not pull the kernel in themselves."""
    return None if _disabled() else _cached_module


def kernel_source() -> str | None:
    """Where the active kernel came from: 'prebuilt', 'jit', or None."""
    module = load_kernel(probe=False)
    if module is None:
        return None
    path = getattr(module, "__file__", "") or ""
    return "jit" if _cache_dir() in path else "prebuilt"

