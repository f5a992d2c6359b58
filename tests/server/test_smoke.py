"""Gated end-to-end smoke: the real ``repro serve --workers 2`` process
over localhost TCP, driven by the verifying in-test driver
(byte-for-byte against ``route()``), then a SIGTERM graceful-drain
check.

Heavier than a unit test (spawns an interpreter and a worker pool), so
it only runs when ``RUN_SERVER_SMOKE=1`` — the CI job sets it and
enforces a hard timeout so a hung drain fails fast.
"""

import asyncio
import os
import re
import signal
import subprocess
import sys

import pytest

from tests.server.drivers import run_load

pytestmark = pytest.mark.skipif(
    os.environ.get("RUN_SERVER_SMOKE") != "1",
    reason="set RUN_SERVER_SMOKE=1 to run the server round-trip smoke",
)


def test_server_roundtrip_smoke():
    """serve end to end: 300 messages, exact results, clean SIGTERM
    drain."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.abspath("src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "2",
            "--idle-timeout", "60",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = server.stdout.readline()
        listening = re.search(r"on (127\.0\.0\.1):(\d+)", banner)
        assert listening, banner
        report = asyncio.run(
            run_load(
                listening.group(1), int(listening.group(2)),
                flows=6, messages=300, chunk=777, concurrency=3,
            )
        )
        assert report["failures"] == []
        assert report["mismatches"] == []
        assert report["messages"] == 300

        server.send_signal(signal.SIGTERM)
        out, _ = server.communicate(timeout=30)
        assert server.returncode == 0, out
        assert "drained and stopped" in out
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate(timeout=10)
