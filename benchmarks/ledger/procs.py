"""Hermetic handling of the processes under test.

The SUT is launched the way an operator would — ``python -m repro.cli
serve`` / ``structgen serve`` / ``cluster`` — on ephemeral ports read
back from the CLI banners, with the native JIT cache and the registry
pinned under ``benchmarks/ledger/.cache`` so a run reads and writes
nothing outside its checkout.  Every child is terminated on every exit
path of :class:`Deployment` (including KeyboardInterrupt and a failed
assertion), and every wait has a timeout.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys
import threading
import urllib.request

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
CACHE_DIR = LEDGER_DIR / ".cache"

#: Seconds a child gets to print its banners / to exit after SIGTERM.
BANNER_TIMEOUT = 60.0
EXIT_TIMEOUT = 10.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def pin_environment() -> None:
    """Point this process (and, by inheritance, every child) at the
    checkout's sources and the ledger's private caches, and pin it to
    one CPU.  Must run before ``repro`` is imported.

    One CPU, because on this host the two vCPUs behave like
    hyper-thread siblings: spreading server and client over both buys
    under a quarter more throughput and triples the run-to-run spread
    (which process sits next to which, and how long an idle vCPU takes
    to wake, change from run to run).  On one CPU the loop is serial —
    throughput is 1 / (server + proxy + client CPU per unit) — and the
    host-speed calibration (``hostclock``) runs on the very CPU whose
    speed it corrects for.  README.md has the measurements."""
    src = str(REPO_ROOT / "src")
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"ledger: no repro sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
    os.environ["REPRO_NATIVE_CACHE"] = str(CACHE_DIR / "native")
    os.environ["REPRO_REGISTRY"] = str(CACHE_DIR / "registry")
    for name in ("REPRO_DISABLE_NATIVE", "REPRO_DISABLE_NUMPY"):
        os.environ.pop(name, None)
    # One CPU for the whole run: children inherit the affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class LaunchError(RuntimeError):
    """A child died or stayed silent before printing its banners."""


class Child:
    """One ``repro`` CLI server process and its two endpoints."""

    def __init__(self, argv: list[str]) -> None:
        self.argv = argv
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv,
             "--port", "0", "--admin-port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(REPO_ROOT),
        )
        try:
            self.port = self._banner_port(r"on 127\.0\.0\.1:(\d+)")
            self.admin_port = self._banner_port(r":(\d+)/metrics")
        except BaseException:
            self.stop()
            raise

    def _banner_port(self, pattern: str) -> int:
        # readline() has no timeout of its own; the timer turns a
        # silent child into a dead one, which ends the read.
        watchdog = threading.Timer(BANNER_TIMEOUT, self.process.kill)
        watchdog.daemon = True
        watchdog.start()
        try:
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        match = re.search(pattern, line)
        if match is None:
            raise LaunchError(
                f"repro {' '.join(self.argv)}: expected a banner "
                f"matching {pattern!r}, got {line!r}"
            )
        return int(match.group(1))

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.poll() is None

    def stats(self) -> dict:
        """The admin ``/stats`` snapshot (counters by their registry
        names, engine flags, mask tables)."""
        url = f"http://127.0.0.1:{self.admin_port}/stats"
        with urllib.request.urlopen(url, timeout=10.0) as reply:
            return json.loads(reply.read())

    def counters(self) -> dict:
        return self.stats().get("counters", {})

    def cpu_seconds(self) -> float:
        """utime + stime of the process so far."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            # Field 2 is "(comm)" and may contain spaces.
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        raise LaunchError(f"no VmHWM for pid {self.pid}")

    def stop(self) -> None:
        """SIGTERM (the CLI drains), SIGKILL if that takes too long;
        returns once the process has been reaped."""
        process = self.process
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=EXIT_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()


#: workload -> CLI arguments of the serving process.
_SERVE = ["serve", "--engine", "native", "--workers", "0"]
_SERVER_ARGV = {
    "scan-dense": _SERVE,
    "scan-bulk": _SERVE,
    "scan-shortflows": _SERVE,
    "decode-ci": ["structgen", "serve", "xmlrpc", "--engine", "native",
                  "--vocab-size", "4096", "--vocab-seed", "7"],
    "decode-cd": ["structgen", "serve", "xmlrpc", "--engine", "native",
                  "--vocab-size", "16384", "--vocab-seed", "7"],
}


class Deployment:
    """The SUT of one workload: a server, plus the cluster proxy in
    front of it on ``scan-shortflows``.  Use as a context manager."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.server: Child | None = None
        self.proxy: Child | None = None

    def start(self) -> "Deployment":
        try:
            self.server = Child(_SERVER_ARGV[self.workload])
            if self.workload == "scan-shortflows":
                backend = (
                    f"127.0.0.1:{self.server.port}:"
                    f"{self.server.admin_port}"
                )
                self.proxy = Child(["cluster", "--backend", backend])
        except BaseException:
            self.stop()
            raise
        return self

    __enter__ = start

    def __exit__(self, *_exc) -> None:
        self.stop()

    @property
    def children(self) -> list[Child]:
        return [c for c in (self.server, self.proxy) if c is not None]

    @property
    def port(self) -> int:
        """Where clients connect: the proxy when there is one."""
        front = self.proxy if self.proxy is not None else self.server
        return front.port

    def peak_rss_mb(self) -> float:
        return sum(child.peak_rss_mb() for child in self.children)

    def assert_native(self) -> None:
        """The served engine must really be ``native``; measuring a
        silent fallback would make every later comparison wrong."""
        engine = self.server.stats().get("engine", {})
        if engine.get("name") != "native" or not engine.get("native_active"):
            raise LaunchError(f"served engine is not native: {engine}")

    def stop(self) -> None:
        for child in (self.proxy, self.server):
            if child is not None:
                child.stop()
        self.proxy = self.server = None
