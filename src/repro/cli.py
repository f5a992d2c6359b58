"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflow:

* ``info`` — parse a grammar, print productions and Follow sets;
* ``tag`` — tag a byte stream (behavioral, gate-level or stack mode);
* ``generate`` — compile a grammar to hardware, optionally emit VHDL
  and an implementation report;
* ``route`` — run the XML-RPC router demo on a synthetic workload;
* ``serve-bench`` — throughput of the sharded multi-process scan
  service against the single-process router;
* ``serve`` — the asyncio TCP scan server (framed wire protocol,
  optional worker pool and admin/metrics endpoint);
* ``registry`` — publish, list, inspect, and garbage-collect named
  versioned grammars compiled ahead-of-time into an artifact store
  (plus a cold-start benchmark: registry load vs recompile);
* ``client-bench`` — closed-loop load generator against a running
  server, with byte-for-byte verification;
* ``structgen`` — the constrained-decoding subsystem: precompute
  per-state valid-token masks for a grammar × vocabulary, serve mask
  flows over the wire protocol, and benchmark masks/sec (precomputed
  vs context-dependent split, or remote round trips);
* ``table1`` / ``figure15`` / ``ablation`` — print the experiment
  reproductions.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.generator import TaggerGenerator
from repro.core.stack import StackTagger
from repro.core.tagger import BehavioralTagger, GateLevelTagger
from repro.errors import ReproError
from repro.fpga.device import DEVICES, get_device
from repro.fpga.report import implement
from repro.grammar.examples import balanced_parens, if_then_else, xmlrpc
from repro.grammar.yacc_parser import load_yacc_grammar
from repro.rtl.vhdl import emit_vhdl

_BUILTIN_GRAMMARS = {
    "xmlrpc": xmlrpc,
    "if-then-else": if_then_else,
    "balanced-parens": balanced_parens,
}


def _load_grammar(spec: str):
    builder = _BUILTIN_GRAMMARS.get(spec)
    if builder is not None:
        return builder()
    return load_yacc_grammar(spec)


def _read_input(path: str | None) -> bytes:
    if path is None or path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


# ----------------------------------------------------------------------
def _cmd_info(args: argparse.Namespace) -> int:
    from repro.grammar.analysis import analyze_grammar

    grammar = _load_grammar(args.grammar)
    print(grammar.describe())
    print(f"\ntokens: {len(grammar.lexspec)}, "
          f"pattern bytes: {grammar.lexspec.total_pattern_bytes()}")
    print("\nFollow sets (paper Fig. 10 style):")
    print(analyze_grammar(grammar).describe_follow())
    return 0


def _cmd_tag(args: argparse.Namespace) -> int:
    grammar = _load_grammar(args.grammar)
    data = _read_input(args.input)
    if args.stack:
        tagger = StackTagger(grammar, stream=args.stream)
        for stacked in tagger.run(data):
            print(f"{stacked.token}  depth={stacked.depth}")
        return 0
    if args.gate_level:
        circuit = TaggerGenerator().generate(grammar)
        tokens = GateLevelTagger(circuit).tag(data)
    else:
        tokens = BehavioralTagger(grammar, engine=args.engine).tag(data)
    for token in tokens:
        print(token)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    grammar = _load_grammar(args.grammar)
    circuit = TaggerGenerator().generate(grammar)
    print(circuit.describe())
    if args.vhdl:
        text = emit_vhdl(circuit.netlist)
        with open(args.vhdl, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(text.splitlines())} lines of VHDL to {args.vhdl}")
    if args.report:
        for key in args.device or list(DEVICES):
            report = implement(circuit, get_device(key))
            print(report.timing.summary(), f"({report.n_luts} LUTs, "
                  f"{report.utilization:.2%} of device)")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.apps.xmlrpc import (
        ContentBasedRouter,
        NaiveRouter,
        WorkloadGenerator,
    )

    generator = WorkloadGenerator(
        seed=args.seed, adversarial_rate=args.adversarial
    )
    stream, truth = generator.stream(args.messages)
    router = NaiveRouter() if args.naive else ContentBasedRouter()
    routed = router.route(stream)
    correct = sum(
        1 for m, (_c, p, _d) in zip(routed, truth) if m.port == p
    )
    for message in routed[: args.show]:
        print(message)
    print(f"\n{correct}/{len(truth)} messages routed correctly "
          f"({'naive' if args.naive else 'contextual'} router)")
    return 0 if correct == len(truth) else 1


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import json
    import os
    import time

    from repro.apps.xmlrpc import ContentBasedRouter, WorkloadGenerator
    from repro.service import RouterSpec, ScanService

    generator = WorkloadGenerator(seed=args.seed)
    streams = {}
    per_flow = max(1, args.messages // args.flows)
    for index in range(args.flows):
        stream, _truth = generator.stream(per_flow)
        streams[f"flow-{index}"] = stream
    total_bytes = sum(len(s) for s in streams.values())

    router = ContentBasedRouter()
    started = time.perf_counter()
    expected = {flow: router.route(data) for flow, data in streams.items()}
    single_s = time.perf_counter() - started

    spec = RouterSpec(engine=args.engine)
    started = time.perf_counter()
    with ScanService(
        spec, n_workers=args.workers, queue_depth=args.queue_depth
    ) as service:
        got = service.run_streams(streams, chunk_size=args.chunk)
        service_s = time.perf_counter() - started
        stats = service.stats()

    matched = got == expected
    cpus = os.cpu_count() or 1
    ratio = single_s / service_s
    report = {
        "flows": args.flows,
        "messages": per_flow * args.flows,
        "bytes": total_bytes,
        "workers": args.workers,
        "cpus": cpus,
        "single_process_mbps": total_bytes / single_s / 1e6,
        "service_mbps": total_bytes / service_s / 1e6,
        # On hosts without enough CPUs for real parallelism a worker
        # ratio is a pseudo-regression, not a measurement: record null.
        "speedup": ratio if cpus >= 4 else None,
        "results_match": matched,
    }
    if args.json:
        report["stats"] = stats
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"workload: {report['messages']} messages, "
              f"{args.flows} flows, {total_bytes} bytes")
        print(f"single process : {report['single_process_mbps']:8.2f} MB/s")
        gating = (f"x{ratio:.2f}" if cpus >= 4
                  else f"x{ratio:.2f} ungated: only {cpus} CPUs")
        print(f"{args.workers}-worker service: "
              f"{report['service_mbps']:8.2f} MB/s ({gating})")
        print(f"results match  : {matched}")
        latency = stats["histograms"].get("latency.roundtrip_s", {})
        if latency.get("count"):
            print(f"round trip     : p50 {latency['p50_s'] * 1e3:.2f} ms, "
                  f"p99 {latency['p99_s'] * 1e3:.2f} ms")
    return 0 if matched else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.server import ScanServer
    from repro.service import RouterSpec

    if args.registry is not None:
        # --grammar is a registry ref: the server loads the published
        # artifact (and gains the admin hot-swap endpoint).
        spec = RouterSpec(grammar=None, engine=args.engine)
        registry_kwargs = {
            "registry": args.registry,
            "grammar": args.grammar,
        }
    else:
        grammar = (
            _load_grammar(args.grammar)
            if args.grammar != "xmlrpc"
            else None
        )
        spec = RouterSpec(grammar=grammar, engine=args.engine)
        registry_kwargs = {}

    async def main() -> int:
        server = ScanServer(
            spec,
            host=args.host,
            port=args.port,
            workers=args.workers,
            idle_timeout=args.idle_timeout,
            max_frame=args.max_frame,
            queue_depth=args.queue_depth,
            admin_port=args.admin_port,
            **registry_kwargs,
        )
        await server.start()
        host, port = server.address
        mode = (
            f"{args.workers}-worker service pool"
            if args.workers
            else "in-process sessions"
        )
        print(f"repro scan server listening on {host}:{port} ({mode})",
              flush=True)
        if args.admin_port is not None:
            ahost, aport = server.admin_address
            print(f"admin endpoint on http://{ahost}:{aport}/metrics",
                  flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                signum,
                lambda: asyncio.ensure_future(server.stop(drain=True)),
            )
        await server.serve_forever()
        print("server drained and stopped", flush=True)
        return 0

    return asyncio.run(main())


def _cmd_registry(args: argparse.Namespace) -> int:
    import json

    from repro.service.registry import Registry

    registry = Registry(args.store)
    if args.registry_cmd == "publish":
        grammar = _load_grammar(args.source)
        ref = registry.publish(args.name, grammar)
        print(ref)
        return 0
    if args.registry_cmd == "list":
        entries = registry.list()
        if args.json:
            print(json.dumps(entries, indent=2, sort_keys=True))
            return 0
        if not entries:
            print(f"no grammars in registry {registry.root}")
            return 0
        for entry in entries:
            print(f"{entry['name']}  (latest @{entry['latest']})")
            for vstr, info in entry["versions"].items():
                print(f"  @{vstr}  content {info['content']}  "
                      f"{info['objects']} object(s)")
        return 0
    if args.registry_cmd == "inspect":
        print(json.dumps(registry.inspect(args.ref), indent=2,
                         sort_keys=True))
        return 0
    if args.registry_cmd == "gc":
        removed = registry.gc()
        print(f"removed {removed} unreferenced object(s)")
        return 0
    if args.registry_cmd == "bench":
        return _registry_bench(args, registry)
    raise AssertionError(f"unknown registry command {args.registry_cmd}")


def _registry_bench(args: argparse.Namespace, registry) -> int:
    """Cold-start comparison: loading published tables vs recompiling
    the grammar from source (the whole point of ahead-of-time
    publication).  Every iteration parses/loads a *fresh* grammar
    object, so the per-grammar engine caches are cold each time."""
    import json
    import time

    from repro.core.capabilities import resolve_engine
    from repro.core.tagger import BehavioralTagger
    from repro.grammar.writer import write_yacc_grammar
    from repro.grammar.yacc_parser import parse_yacc_grammar
    from repro.service.registry import Registry

    grammar = _load_grammar(args.grammar)
    name = args.grammar if args.grammar in _BUILTIN_GRAMMARS else (
        grammar.name or "bench"
    )
    source = write_yacc_grammar(grammar)
    engine = resolve_engine("auto", streaming=True)
    ref = registry.publish(name, grammar)
    probe = b"<methodCall><methodName>a</methodName></methodCall>"

    recompile_s = min(
        _timed(
            lambda: BehavioralTagger(
                parse_yacc_grammar(source, name=name), engine=engine
            ).tag(probe),
            time,
        )
        for _ in range(args.repeat)
    )
    load_s = min(
        _timed(
            lambda: Registry(registry.root)
            .load(ref)
            .tagger(engine=engine)
            .tag(probe),
            time,
        )
        for _ in range(args.repeat)
    )
    speedup = recompile_s / load_s if load_s else None
    report = {
        "grammar": ref,
        "engine": engine,
        "recompile_s": round(recompile_s, 6),
        "load_s": round(load_s, 6),
        "speedup": None if speedup is None else round(speedup, 3),
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"grammar   : {ref} (engine {engine})")
        print(f"recompile : {recompile_s * 1e3:8.2f} ms")
        print(f"load      : {load_s * 1e3:8.2f} ms")
        print(f"speedup   : x{speedup:.2f}" if speedup else "speedup  : -")
    if not args.no_record:
        _record_bench_entry("registry cold-start recompile_s", recompile_s)
        _record_bench_entry("registry cold-start load_s", load_s)
        _record_bench_entry("registry cold-start speedup", speedup)
    return 0


def _timed(fn, time) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _record_bench_entry(key: str, value: float | None) -> None:
    """Merge one entry into the repo-root BENCH_throughput.json."""
    import json
    import pathlib

    from repro.bench.host import host_info

    path = pathlib.Path.cwd() / "BENCH_throughput.json"
    rates: dict = {}
    if path.exists():
        try:
            rates = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            rates = {}
    rates[key] = None if value is None else round(value, 9)
    # Stamp the measuring host so cross-host numbers stay interpretable.
    rates.update(host_info())
    path.write_text(
        json.dumps(rates, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _cmd_client_bench(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.server import run_load

    report = asyncio.run(
        run_load(
            args.host,
            args.port,
            flows=args.flows,
            messages=args.messages,
            chunk=args.chunk,
            concurrency=args.concurrency,
            seed=args.seed,
            verify=not args.no_verify,
        )
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"workload : {report['messages']} messages, "
              f"{report['flows']} flows, {report['bytes']} bytes "
              f"({report['concurrency']} connections, "
              f"{report['chunk']}-byte chunks)")
        print(f"rate     : {report['mbps']:8.2f} MB/s "
              f"({report['gbps']:.6f} Gbps)")
        latency = report["latency"]
        print(f"flow RTT : p50 {latency['p50_s'] * 1e3:.2f} ms, "
              f"p99 {latency['p99_s'] * 1e3:.2f} ms "
              f"(n={latency['count']})")
        if report["verified"] is not None:
            print(f"verified : {report['verified']} "
                  "(byte-for-byte vs in-process routing)")
        if report["failures"]:
            print(f"failures : {report['failures'][:3]}")
    if not args.no_record:
        _record_bench_entry("server round-trip", report["gbps"])
    ok = not report["failures"] and report["verified"] is not False
    return 0 if ok else 1


def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.server import ScanProxy

    async def main() -> int:
        proxy = ScanProxy(
            args.backend,
            host=args.host,
            port=args.port,
            admin_port=args.admin_port,
            pool_size=args.pool_size,
            health_interval=args.health_interval,
            idle_timeout=args.idle_timeout,
            max_frame=args.max_frame,
        )
        await proxy.start()
        host, port = proxy.address
        print(f"repro cluster proxy on {host}:{port} over "
              f"{len(args.backend)} backend(s)", flush=True)
        if args.admin_port is not None:
            ahost, aport = proxy.admin_address
            print(f"admin endpoint on http://{ahost}:{aport}/metrics",
                  flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                signum,
                lambda: asyncio.ensure_future(proxy.stop(drain=True)),
            )
        await proxy.serve_forever()
        print("proxy drained and stopped", flush=True)
        return 0

    return asyncio.run(main())


def _spawn_cluster_backend(args, env):
    """Launch one ``repro structgen serve`` child on an ephemeral port
    and return ``(process, (host, port))`` once its banner appears."""
    import re
    import subprocess
    import sys
    import time

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "structgen", "serve", "xmlrpc",
         "--port", "0",
         "--vocab-size", str(args.vocab_size),
         "--vocab-seed", str(args.vocab_seed),
         "--engine", args.engine],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    banner = re.compile(r"structgen server on ([0-9.]+):([0-9]+)")
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = banner.search(line)
        if match:
            return proc, (match.group(1), int(match.group(2)))
    proc.kill()
    raise RuntimeError("cluster backend failed to start within 30s")


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import os
    import pathlib
    import subprocess

    import repro
    from repro.apps.structgen import build_mask_table, synthetic_vocab
    from repro.grammar.examples import xmlrpc
    from repro.server import ScanProxy, run_beam_load, run_load

    vocab = synthetic_vocab(size=args.vocab_size, seed=args.vocab_seed)
    table = build_mask_table(xmlrpc(), vocab)

    # Children must import the same package tree, installed or not.
    pkg_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )

    async def measure(n: int) -> dict:
        procs, addrs = [], []
        try:
            for _ in range(n):
                proc, addr = _spawn_cluster_backend(args, env)
                procs.append(proc)
                addrs.append(addr)
            proxy = ScanProxy(addrs, port=0)
            await proxy.start()
            host, port = proxy.address
            try:
                scan = await run_load(
                    host, port,
                    flows=args.flows,
                    messages=args.messages,
                    chunk=args.chunk,
                    concurrency=args.concurrency,
                    verify=False,
                )
                beam = await run_beam_load(
                    host, port, table,
                    beams=args.beams,
                    width=args.width,
                    steps=args.steps,
                    max_width=args.width * 2,
                    concurrency=args.concurrency,
                    verify=False,
                )
            finally:
                await proxy.stop(drain=False)
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
        failures = scan["failures"] + beam["failures"]
        if failures:
            raise RuntimeError(
                f"cluster bench failed at {n} backend(s): {failures[:3]}"
            )
        return {
            "backends": n,
            "scan_mbps": scan["mbps"],
            "scan_bytes": scan["bytes"],
            "beam_masks_per_s": beam["masks_per_s"],
            "beam_masks": beam["masks"],
        }

    results: dict[int, dict] = {}
    for n in args.scale:
        results[n] = asyncio.run(measure(n))
        print(f"{n} backend(s): "
              f"scan {results[n]['scan_mbps']:8.2f} MB/s, "
              f"beam {results[n]['beam_masks_per_s']:10.0f} masks/s",
              flush=True)

    cpus = os.cpu_count() or 1
    # Scaling ratios on a host without enough CPUs for real
    # parallelism are pseudo-measurements: record null.
    gated = cpus >= 4
    base = results.get(1)
    speedups: dict[int, dict] = {}
    for n, entry in results.items():
        if n == 1 or base is None:
            continue
        speedups[n] = {
            "scan": entry["scan_mbps"] / base["scan_mbps"],
            "beam": entry["beam_masks_per_s"] / base["beam_masks_per_s"],
        }

    if args.json:
        print(json.dumps(
            {
                "cpus": cpus,
                "gated": gated,
                "results": {str(n): r for n, r in results.items()},
                "speedups": {
                    str(n): s for n, s in speedups.items()
                } if gated else None,
            },
            indent=2, sort_keys=True,
        ))
    else:
        for n, ratios in sorted(speedups.items()):
            note = "" if gated else f" (ungated: only {cpus} CPUs)"
            print(f"{n}-backend speedup: scan x{ratios['scan']:.2f}, "
                  f"beam x{ratios['beam']:.2f}{note}")

    if not args.no_record:
        for n, entry in sorted(results.items()):
            _record_bench_entry(f"cluster scan {n}-backend MB/s",
                                entry["scan_mbps"])
            _record_bench_entry(f"cluster beam {n}-backend masks/sec",
                                entry["beam_masks_per_s"])
        for n, ratios in sorted(speedups.items()):
            _record_bench_entry(
                f"cluster scan speedup {n}-backend",
                ratios["scan"] if gated else None,
            )
            _record_bench_entry(
                f"cluster beam speedup {n}-backend",
                ratios["beam"] if gated else None,
            )

    if args.min_speedup is not None and gated and 2 in speedups:
        best = max(speedups[2].values())
        if best < args.min_speedup:
            print(f"FAIL: best 2-backend speedup x{best:.2f} "
                  f"< required x{args.min_speedup:.2f}")
            return 1
        print(f"gate ok: best 2-backend speedup x{best:.2f} "
              f">= x{args.min_speedup:.2f}")
    elif args.min_speedup is not None and not gated:
        print(f"gate skipped: only {cpus} CPUs (need >= 4)")
    return 0


def _structgen_vocab(args: argparse.Namespace):
    from repro.apps.structgen import Vocabulary, synthetic_vocab

    if getattr(args, "tokenizer_json", None):
        return Vocabulary.from_tokenizer_json(args.tokenizer_json)
    if getattr(args, "vocab", None):
        return Vocabulary.from_file(args.vocab)
    return synthetic_vocab(size=args.vocab_size, seed=args.vocab_seed)


def _cmd_structgen(args: argparse.Namespace) -> int:
    if args.structgen_cmd == "precompute":
        return _structgen_precompute(args)
    if args.structgen_cmd == "serve":
        return _structgen_serve(args)
    if args.structgen_cmd == "bench":
        return _structgen_bench(args)
    raise AssertionError(
        f"unknown structgen command {args.structgen_cmd}"
    )


def _structgen_precompute(args: argparse.Namespace) -> int:
    import json

    from repro.service.registry import RegistryError, Registry, parse_ref

    registry = Registry(args.store)
    vocab = _structgen_vocab(args)
    try:
        summary = registry.publish_masks(args.ref, vocab)
    except RegistryError:
        # Unknown ref but a builtin grammar name: publish it first so
        # `precompute xmlrpc` works against an empty store.
        name, _version = parse_ref(args.ref)
        builder = _BUILTIN_GRAMMARS.get(name)
        if builder is None:
            raise
        registry.publish(name, builder())
        summary = registry.publish_masks(args.ref, vocab)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        built = "rebuilt" if summary.get("rebuilt") else "cached"
        print(f"masks    : {summary['ref']} × vocab "
              f"{summary['vocab_hash'][:16]} ({built})")
        print(f"tokens   : {summary['vocab_size']} "
              f"({summary['ci']} precomputed, "
              f"{summary['cd']} context-dependent)")
        print(f"states   : {summary['states']}, "
              f"{summary['bytes']} bytes packed")
        if summary.get("build_ms") is not None:
            print(f"build    : {summary['build_ms']:.1f} ms")
        print(f"key      : {summary['key']}")
    return 0


def _structgen_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.server import ScanServer
    from repro.service import RouterSpec
    from repro.service.registry import Registry

    vocab = _structgen_vocab(args)
    if args.store is not None:
        # Registry mode: precompute (deduped) then let the server load
        # mask tables lazily from the store — hot-swap aware.
        registry = Registry(args.store)
        summary = registry.publish_masks(args.ref, vocab)
        spec = RouterSpec(grammar=None, engine=args.engine)
        server_kwargs = {"registry": args.store, "grammar": args.ref}
        banner = (f"registry masks {summary['ref']} × "
                  f"{summary['vocab_hash'][:16]}")
    else:
        from repro.apps.structgen import build_mask_table

        grammar = _load_grammar(args.ref)
        table = build_mask_table(grammar, vocab)
        spec = RouterSpec(grammar=grammar, engine=args.engine)
        server_kwargs = {"mask_tables": [table]}
        banner = (f"in-memory masks {args.ref} × "
                  f"{table.vocab_hash[:16]}")

    async def main() -> int:
        server = ScanServer(
            spec,
            host=args.host,
            port=args.port,
            idle_timeout=args.idle_timeout,
            max_frame=args.max_frame,
            admin_port=args.admin_port,
            **server_kwargs,
        )
        await server.start()
        host, port = server.address
        print(f"repro structgen server on {host}:{port} ({banner})",
              flush=True)
        if args.admin_port is not None:
            ahost, aport = server.admin_address
            print(f"admin endpoint on http://{ahost}:{aport}/metrics",
                  flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                signum,
                lambda: asyncio.ensure_future(server.stop(drain=True)),
            )
        await server.serve_forever()
        print("server drained and stopped", flush=True)
        return 0

    return asyncio.run(main())


def _structgen_bench(args: argparse.Namespace) -> int:
    import json

    vocab = _structgen_vocab(args)
    if args.remote:
        return _structgen_bench_remote(args, vocab)
    if args.beam:
        return _structgen_bench_beam(args, vocab)
    from repro.apps.structgen import run_mask_bench

    grammar = _load_grammar(args.grammar)
    report = run_mask_bench(
        grammar,
        vocab=vocab,
        steps=args.steps,
        naive_steps=args.naive_steps,
        reps=args.repeat,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"grammar  : {report['grammar']} "
              f"({report['states']} states)")
        print(f"vocab    : {report['vocab_size']} tokens "
              f"({report['ci']} precomputed, "
              f"{report['cd']} context-dependent; "
              f"build {report['build_ms']:.1f} ms)")
        print(f"masks    : {report['masks_per_s']:12.0f} masks/s "
              f"(precomputed path)")
        print(f"naive    : {report['naive_masks_per_s']:12.0f} masks/s "
              f"(per-token rescan)")
        print(f"speedup  : x{report['speedup']:.1f}")
        print(f"per mask : {report['ci_tokens_per_mask']:.1f} "
              f"precomputed-hit tokens, "
              f"{report['cd_checks_per_mask']:.2f} "
              f"context-dependent checks")
    if not args.no_record:
        _record_bench_entry("structgen masks/sec",
                            report["masks_per_s"])
        _record_bench_entry("structgen naive masks/sec",
                            report["naive_masks_per_s"])
        _record_bench_entry("structgen speedup", report["speedup"])
    return 0


def _structgen_bench_beam(args: argparse.Namespace, vocab) -> int:
    """Beam bench: the batched beam engine vs N independent sessions
    replaying the identical schedule, plus the delta-encoding wire
    saving."""
    import json

    from repro.apps.structgen import run_beam_bench

    grammar = _load_grammar(args.grammar)
    report = run_beam_bench(
        grammar,
        vocab=vocab,
        width=args.width,
        steps=args.beam_steps,
        reps=args.repeat,
        path=args.beam_path,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"grammar  : {report['grammar']} "
              f"({report['states']} states)")
        print(f"beam     : width {report['width']}, "
              f"{report['steps']} steps, "
              f"{report['path']} path")
        print(f"batched  : {report['beam_masks_per_s']:12.0f} masks/s "
              f"({report['beam_step_us']:.1f} us/step)")
        print(f"sessions : {report['sessions_masks_per_s']:12.0f} "
              f"masks/s ({report['sessions_step_us']:.1f} us/step)")
        print(f"speedup  : x{report['speedup']:.2f}")
        print(f"wire     : delta {report['wire_delta_bytes']} B vs "
              f"full {report['wire_full_bytes']} B "
              f"(ratio {report['wire_delta_ratio']:.3f})")
    if not args.no_record:
        _record_bench_entry("structgen beam masks/sec",
                            report["beam_masks_per_s"])
        _record_bench_entry("structgen beam sessions masks/sec",
                            report["sessions_masks_per_s"])
        _record_bench_entry("structgen beam speedup",
                            report["speedup"])
        _record_bench_entry("structgen beam wire delta ratio",
                            report["wire_delta_ratio"])
    return 0


def _structgen_bench_remote(args: argparse.Namespace, vocab) -> int:
    """Round-trip bench: mask flows against a live server, every reply
    checked byte-for-byte against an in-process session on the same
    (deterministically rebuilt) table."""
    import asyncio
    import json

    from repro.apps.structgen import build_mask_table
    from repro.server import run_mask_load

    grammar = _load_grammar(args.grammar)
    table = build_mask_table(grammar, vocab)
    report = asyncio.run(
        run_mask_load(
            args.host,
            args.port,
            table,
            sessions=args.sessions,
            steps=args.steps,
            concurrency=args.concurrency,
        )
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"sessions : {report['sessions']} × {report['steps']} "
              f"steps ({report['advances']} advances)")
        print(f"rate     : {report['masks_per_s']:10.0f} masks/s "
              "over the wire")
        latency = report["latency"]
        if latency.get("count"):
            print(f"mask RTT : p50 {latency['p50_s'] * 1e3:.2f} ms, "
                  f"p99 {latency['p99_s'] * 1e3:.2f} ms")
        print(f"verified : {report['verified']} "
              "(byte-for-byte vs in-process session)")
        if report["failures"]:
            print(f"failures : {report['failures'][:3]}")
        if report["mismatches"]:
            print(f"mismatch : {report['mismatches'][:3]}")
    if not args.no_record:
        _record_bench_entry("structgen remote masks/sec",
                            report["masks_per_s"])
    return 0 if report["verified"] else 1


def _cmd_capabilities(args: argparse.Namespace) -> int:
    import json

    from repro.core.capabilities import (
        describe_capabilities,
        engine_capabilities,
    )

    if args.json:
        print(json.dumps(
            engine_capabilities(probe=args.probe), indent=2, sort_keys=True
        ))
    else:
        print(describe_capabilities(probe=args.probe))
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    from repro.bench.table1 import format_table1, run_table1

    print(format_table1(run_table1()))
    return 0


def _cmd_figure15(_args: argparse.Namespace) -> int:
    from repro.bench.figure15 import ascii_plot, format_figure15, run_figure15

    points = run_figure15()
    print(format_figure15(points))
    print(ascii_plot(points))
    return 0


def _cmd_ablation(_args: argparse.Namespace) -> int:
    from repro.bench.ablation import format_ablation, run_ablation

    print(format_ablation(run_ablation()))
    return 0


# ----------------------------------------------------------------------
def _version_string() -> str:
    from repro import __version__
    from repro.core.capabilities import capability_summary

    return f"repro {__version__} ({capability_summary()})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CFG token tagger reproduction (Cho/Moscola/Lockwood)",
    )

    class _Version(argparse.Action):
        # Lazy --version: the capability summary imports engine modules,
        # so compose it only when actually asked for.
        def __call__(self, parser, namespace, values, option_string=None):
            print(_version_string())
            parser.exit()

    parser.add_argument("--version", action=_Version, nargs=0,
                        help="print version and engine capabilities")
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="describe a grammar")
    info.add_argument("grammar", help="grammar file or builtin name "
                      f"({', '.join(_BUILTIN_GRAMMARS)})")
    info.set_defaults(func=_cmd_info)

    tag = sub.add_parser("tag", help="tag a byte stream")
    tag.add_argument("grammar")
    tag.add_argument("input", nargs="?", help="input file (default stdin)")
    tag.add_argument("--gate-level", action="store_true",
                     help="simulate the generated netlist cycle by cycle")
    tag.add_argument("--stack", action="store_true",
                     help="strict PDA mode (§5.2 stack extension)")
    tag.add_argument("--stream", action="store_true",
                     help="with --stack: accept back-to-back sentences")
    from repro.core.capabilities import ENGINE_CHOICES

    tag.add_argument("--engine",
                     choices=ENGINE_CHOICES,
                     default="compiled",
                     help="software scan engine (default: compiled "
                     "tables; vector = wide-datapath NumPy engine; "
                     "native = C inner loop over the dense tables; "
                     "auto = best available)")
    tag.set_defaults(func=_cmd_tag)

    generate = sub.add_parser("generate", help="compile grammar to hardware")
    generate.add_argument("grammar")
    generate.add_argument("--vhdl", metavar="FILE", help="emit VHDL")
    generate.add_argument("--device", action="append",
                          choices=sorted(DEVICES),
                          help="implementation report device(s)")
    generate.add_argument("--report", action="store_true",
                          help="print area/timing reports")
    generate.set_defaults(func=_cmd_generate)

    route = sub.add_parser("route", help="XML-RPC router demo (§4)")
    route.add_argument("--messages", type=int, default=20)
    route.add_argument("--seed", type=int, default=2006)
    route.add_argument("--adversarial", type=float, default=0.0)
    route.add_argument("--naive", action="store_true",
                       help="use the context-free baseline router")
    route.add_argument("--show", type=int, default=5,
                       help="messages to print")
    route.set_defaults(func=_cmd_route)

    serve = sub.add_parser(
        "serve-bench",
        help="benchmark the sharded multi-process scan service",
    )
    serve.add_argument("--messages", type=int, default=400,
                       help="total messages across all flows")
    serve.add_argument("--flows", type=int, default=8)
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--chunk", type=int, default=4096,
                       help="submission chunk size in bytes")
    serve.add_argument("--queue-depth", type=int, default=64)
    serve.add_argument("--seed", type=int, default=2006)
    serve.add_argument("--engine",
                       choices=("auto", "compiled", "vector", "native"),
                       default="compiled",
                       help="scan engine the workers run (streaming "
                       "needs a compiled-family engine; auto = best "
                       "available)")
    serve.add_argument("--json", action="store_true",
                       help="emit the report (plus service stats) as JSON")
    serve.set_defaults(func=_cmd_serve_bench)

    server = sub.add_parser(
        "serve",
        help="run the asyncio TCP scan server (framed wire protocol)",
    )
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument("--port", type=int, default=9431)
    server.add_argument("--admin-port", type=int, default=None,
                        help="plaintext /metrics + /healthz listener")
    server.add_argument("--workers", type=int, default=0,
                        help="scan-service worker processes "
                        "(0 = in-process sessions)")
    server.add_argument("--grammar", default="xmlrpc",
                        help="router grammar (builtin name or file)")
    server.add_argument("--idle-timeout", type=float, default=30.0,
                        help="seconds before an idle connection is cut")
    server.add_argument("--max-frame", type=int, default=1 << 20,
                        help="largest accepted wire frame in bytes")
    server.add_argument("--queue-depth", type=int, default=64,
                        help="per-worker bounded queue depth")
    server.add_argument("--engine",
                        choices=("auto", "compiled", "vector", "native"),
                        default="compiled",
                        help="scan engine for sessions and workers "
                        "(streaming needs a compiled-family engine; "
                        "auto = best available)")
    server.add_argument("--registry", metavar="STORE", default=None,
                        help="grammar-registry store directory; makes "
                        "--grammar a registry ref (name[@version]) and "
                        "enables the admin POST /swap endpoint")
    server.set_defaults(func=_cmd_serve)

    registry = sub.add_parser(
        "registry",
        help="manage the ahead-of-time compiled grammar registry",
    )
    registry.add_argument("--store", default=None,
                          help="store directory (default: "
                          "$REPRO_REGISTRY or ~/.cache/repro-registry)")
    regsub = registry.add_subparsers(dest="registry_cmd", required=True)

    reg_publish = regsub.add_parser(
        "publish", help="compile a grammar and store it under a name"
    )
    reg_publish.add_argument("name", help="grammar name to publish as")
    reg_publish.add_argument("source", help="grammar file or builtin name "
                             f"({', '.join(_BUILTIN_GRAMMARS)})")

    reg_list = regsub.add_parser(
        "list", help="list registered grammars and versions"
    )
    reg_list.add_argument("--json", action="store_true")

    reg_inspect = regsub.add_parser(
        "inspect", help="show one version's manifest entry and objects"
    )
    reg_inspect.add_argument("ref", help="name or name@version")

    regsub.add_parser("gc", help="delete unreferenced artifact objects")

    reg_bench = regsub.add_parser(
        "bench",
        help="cold-start benchmark: registry load vs recompile",
    )
    reg_bench.add_argument("--grammar", default="xmlrpc",
                           help="grammar file or builtin name")
    reg_bench.add_argument("--repeat", type=int, default=3,
                           help="iterations (best-of)")
    reg_bench.add_argument("--json", action="store_true")
    reg_bench.add_argument("--no-record", action="store_true",
                           help="do not update BENCH_throughput.json")
    registry.set_defaults(func=_cmd_registry)

    bench = sub.add_parser(
        "client-bench",
        help="closed-loop load generator against a running server",
    )
    bench.add_argument("--host", default="127.0.0.1")
    bench.add_argument("--port", type=int, default=9431)
    bench.add_argument("--messages", type=int, default=400,
                       help="total messages across all flows")
    bench.add_argument("--flows", type=int, default=8)
    bench.add_argument("--chunk", type=int, default=1024,
                       help="DATA frame payload size in bytes")
    bench.add_argument("--concurrency", type=int, default=4,
                       help="concurrent client connections")
    bench.add_argument("--seed", type=int, default=2006)
    bench.add_argument("--no-verify", action="store_true",
                       help="skip the byte-for-byte differential check")
    bench.add_argument("--no-record", action="store_true",
                       help="do not update BENCH_throughput.json")
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(func=_cmd_client_bench)

    cluster = sub.add_parser(
        "cluster",
        help="consistent-hash proxy over N scan-server backends",
    )
    cluster.add_argument("--backend", action="append", required=True,
                         metavar="HOST:PORT[:ADMIN]",
                         help="backend data address, repeatable; the "
                         "optional third field is the backend's admin "
                         "port (enables /stats + /metrics aggregation)")
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument("--port", type=int, default=9440)
    cluster.add_argument("--admin-port", type=int, default=None,
                         help="aggregated /metrics + /healthz + /stats "
                         "listener")
    cluster.add_argument("--pool-size", type=int, default=2,
                         help="client connections pooled per backend")
    cluster.add_argument("--health-interval", type=float, default=0.5,
                         help="seconds between backend health probes")
    cluster.add_argument("--idle-timeout", type=float, default=30.0,
                         help="seconds before an idle client "
                         "connection is cut")
    cluster.add_argument("--max-frame", type=int, default=1 << 20)
    cluster.set_defaults(func=_cmd_cluster)

    cbench = sub.add_parser(
        "cluster-bench",
        help="scaling bench: proxy over 1/2/4 local backend processes",
    )
    cbench.add_argument("--scale", type=int, nargs="+", default=[1, 2, 4],
                        help="backend counts to measure")
    cbench.add_argument("--flows", type=int, default=16,
                        help="scan flows per measurement")
    cbench.add_argument("--messages", type=int, default=480,
                        help="total scan messages across flows")
    cbench.add_argument("--chunk", type=int, default=4096)
    cbench.add_argument("--concurrency", type=int, default=8,
                        help="driver client connections")
    cbench.add_argument("--beams", type=int, default=8,
                        help="beam flows per measurement")
    cbench.add_argument("--width", type=int, default=16,
                        help="initial beam width")
    cbench.add_argument("--steps", type=int, default=150,
                        help="beam decode steps per flow")
    cbench.add_argument("--vocab-size", type=int, default=2048)
    cbench.add_argument("--vocab-seed", type=int, default=2006)
    cbench.add_argument("--engine",
                        choices=("auto", "compiled", "vector", "native"),
                        default="compiled",
                        help="scan engine the backends run")
    cbench.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the best 2-backend ratio "
                        "reaches this (skipped below 4 CPUs)")
    cbench.add_argument("--json", action="store_true")
    cbench.add_argument("--no-record", action="store_true",
                        help="do not update BENCH_throughput.json")
    cbench.set_defaults(func=_cmd_cluster_bench)

    structgen = sub.add_parser(
        "structgen",
        help="constrained decoding: grammar → per-state token masks",
    )
    sgsub = structgen.add_subparsers(dest="structgen_cmd", required=True)

    def _sg_vocab_args(p):
        p.add_argument("--vocab", metavar="FILE", default=None,
                       help="vocabulary JSON (default: synthetic)")
        p.add_argument("--tokenizer-json", metavar="FILE", default=None,
                       help="import a HuggingFace tokenizer.json "
                       "(BPE/byte-level) as the vocabulary")
        p.add_argument("--vocab-size", type=int, default=2048,
                       help="synthetic vocabulary size")
        p.add_argument("--vocab-seed", type=int, default=2006,
                       help="synthetic vocabulary seed")

    sg_pre = sgsub.add_parser(
        "precompute",
        help="build and publish the mask artifact for a registry ref",
    )
    sg_pre.add_argument("ref", help="registry ref (name[@version]); "
                        "builtin grammar names auto-publish")
    sg_pre.add_argument("--store", default=None,
                        help="registry store directory (default: "
                        "$REPRO_REGISTRY or ~/.cache/repro-registry)")
    _sg_vocab_args(sg_pre)
    sg_pre.add_argument("--json", action="store_true")

    sg_serve = sgsub.add_parser(
        "serve",
        help="serve mask flows (OPEN_MASK/ADVANCE) over the wire "
        "protocol",
    )
    sg_serve.add_argument("ref", nargs="?", default="xmlrpc",
                          help="registry ref (with --store) or grammar "
                          "file/builtin name")
    sg_serve.add_argument("--store", default=None,
                          help="serve registry-published masks (enables "
                          "hot swap) instead of an in-memory table")
    _sg_vocab_args(sg_serve)
    sg_serve.add_argument("--host", default="127.0.0.1")
    sg_serve.add_argument("--port", type=int, default=9431)
    sg_serve.add_argument("--admin-port", type=int, default=None)
    sg_serve.add_argument("--idle-timeout", type=float, default=30.0)
    sg_serve.add_argument("--max-frame", type=int, default=1 << 20)
    sg_serve.add_argument("--engine",
                          choices=("auto", "compiled", "vector", "native"),
                          default="compiled")

    sg_bench = sgsub.add_parser(
        "bench",
        help="masks/sec benchmark (precomputed vs naive split, or "
        "--remote round trips)",
    )
    sg_bench.add_argument("--grammar", default="xmlrpc",
                          help="grammar file or builtin name")
    _sg_vocab_args(sg_bench)
    sg_bench.add_argument("--steps", type=int, default=400,
                          help="decode steps per measurement")
    sg_bench.add_argument("--naive-steps", type=int, default=40,
                          help="decode steps for the naive baseline")
    sg_bench.add_argument("--repeat", type=int, default=3,
                          help="measurement repetitions (best-of)")
    sg_bench.add_argument("--remote", action="store_true",
                          help="drive mask flows against a running "
                          "server and verify byte-for-byte")
    sg_bench.add_argument("--beam", action="store_true",
                          help="beam bench: batched beam-of-N "
                          "advance+mask vs N independent sessions")
    sg_bench.add_argument("--width", type=int, default=32,
                          help="with --beam: beam width")
    sg_bench.add_argument("--beam-steps", type=int, default=200,
                          help="with --beam: decode steps per "
                          "measurement")
    sg_bench.add_argument("--beam-path",
                          choices=("auto", "native", "python"),
                          default="auto",
                          help="with --beam: force a compute path")
    sg_bench.add_argument("--host", default="127.0.0.1")
    sg_bench.add_argument("--port", type=int, default=9431)
    sg_bench.add_argument("--sessions", type=int, default=4,
                          help="with --remote: decode sessions to run")
    sg_bench.add_argument("--concurrency", type=int, default=2,
                          help="with --remote: client connections")
    sg_bench.add_argument("--json", action="store_true")
    sg_bench.add_argument("--no-record", action="store_true",
                          help="do not update BENCH_throughput.json")
    structgen.set_defaults(func=_cmd_structgen)

    caps = sub.add_parser(
        "capabilities",
        help="report per-engine runtime capabilities (numpy, native "
        "kernel, compiler, disable-env flags)",
    )
    caps.add_argument("--probe", action="store_true",
                      help="attempt a just-in-time native kernel build "
                      "instead of only reporting what is loaded")
    caps.add_argument("--json", action="store_true")
    caps.set_defaults(func=_cmd_capabilities)

    sub.add_parser("table1", help="reproduce Table 1").set_defaults(
        func=_cmd_table1
    )
    sub.add_parser("figure15", help="reproduce Figure 15").set_defaults(
        func=_cmd_figure15
    )
    sub.add_parser("ablation", help="design-choice ablations").set_defaults(
        func=_cmd_ablation
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
