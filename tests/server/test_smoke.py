"""Gated end-to-end smoke: the N-core deployment — ``repro cluster``
over two ``repro serve`` processes — over localhost TCP, driven by the
verifying in-test driver (byte-for-byte against ``route()``), then a
SIGTERM graceful-drain check of the proxy and both backends.

Heavier than a unit test (spawns three interpreters), so it only runs
when ``RUN_SERVER_SMOKE=1`` — the CI job sets it and enforces a hard
timeout so a hung drain fails fast.
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


def _launch(env, *argv):
    """One ``repro`` process on an ephemeral port: (process, port)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv,
         "--port", "0", "--idle-timeout", "60"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = process.stdout.readline()
    listening = re.search(r"on 127\.0\.0\.1:(\d+)", banner)
    assert listening, banner
    return process, int(listening.group(1))


def test_server_roundtrip_smoke():
    """cluster over two serve processes end to end: 300 messages,
    exact results, clean SIGTERM drain of every process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.abspath("src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    processes = []
    try:
        backends = []
        for _ in range(2):
            process, port = _launch(env, "serve", "--workers", "0")
            processes.append(process)
            backends += ["--backend", f"127.0.0.1:{port}"]
        proxy, port = _launch(env, "cluster", *backends)
        processes.insert(0, proxy)
        report = asyncio.run(
            run_load(
                "127.0.0.1", port,
                flows=6, messages=300, chunk=777, concurrency=3,
            )
        )
        assert report["failures"] == []
        assert report["mismatches"] == []
        assert report["messages"] == 300

        # The proxy first (its clients are gone), then the backends.
        for process in processes:
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
            assert process.returncode == 0, out
            assert "drained and stopped" in out
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=10)
