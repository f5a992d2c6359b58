"""Run by path (``pytest benchmarks/ledger/tests``); not part of tier-1."""

import pathlib
import sys

LEDGER_DIR = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(LEDGER_DIR))

import procs  # noqa: E402

procs.pin_environment()
