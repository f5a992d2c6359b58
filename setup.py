"""Legacy setup shim plus the optional native-engine extension.

The evaluation environment has setuptools but no ``wheel`` package, so
PEP 660 editable installs cannot build; this shim lets
``pip install -e . --no-build-isolation --no-use-pep517`` (and plain
``pip install -e .`` via the fallback) use the classic develop path.
All project metadata lives in ``pyproject.toml``.

The native kernel module (``repro.core._nativescan``: the scan loop,
the beam step and the MASKS codec) is declared here as an *optional*
extension: when a C compiler is present the wheel
ships the prebuilt kernel; when compilation fails (or
``REPRO_DISABLE_NATIVE=1`` is set at build time) the build completes
without it and the engine ladder falls back at runtime.  A source
checkout run via ``PYTHONPATH=src`` gets the same kernel through the
just-in-time build in ``repro.core._native_build``, so installing is
never required.  The checked-in C file is the canonical kernel — no
Cython toolchain is needed to build or rebuild it.
"""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build the native kernel if possible; never fail the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover - toolchain-specific
            print(f"skipping optional native extension: {exc}")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # pragma: no cover - toolchain-specific
            print(f"skipping optional extension {ext.name}: {exc}")


if os.environ.get("REPRO_DISABLE_NATIVE", "") not in ("", "0"):
    ext_modules = []
else:
    ext_modules = [
        Extension(
            "repro.core._nativescan",
            sources=["src/repro/core/_nativescan.c"],
            optional=True,
        )
    ]

setup(
    ext_modules=ext_modules,
    cmdclass={"build_ext": optional_build_ext},
)
