"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflow:

* ``info`` — parse a grammar, print productions and Follow sets;
* ``tag`` — tag a byte stream (behavioral, gate-level or stack mode);
* ``generate`` — compile a grammar to hardware, optionally emit VHDL
  and an implementation report;
* ``route`` — run the XML-RPC router demo on a synthetic workload;
* ``serve`` — the asyncio TCP scan server (framed wire protocol,
  optional admin/metrics endpoint);
* ``cluster`` — the consistent-hash proxy over N such servers (the
  way to use N cores);
* ``registry`` — publish, list, inspect, and garbage-collect named
  versioned grammars compiled ahead-of-time into an artifact store;
* ``structgen`` — the constrained-decoding subsystem: precompute
  per-state valid-token masks for a grammar × vocabulary and serve
  beam flows over the wire protocol;
* ``capabilities`` — which scan engines are live on this host;
* ``table1`` / ``figure15`` / ``ablation`` — print the experiment
  reproductions.

Nothing here measures the serving stack: that is
``python3 benchmarks/ledger/run.py``, which drives these commands.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError

#: Builtin grammar names; each names the function (hyphens as
#: underscores) in :mod:`repro.grammar.examples` that returns it.
_BUILTIN_GRAMMARS = ("xmlrpc", "if-then-else", "balanced-parens")

#: ``--engine`` choices of the serving commands: streaming sessions
#: run compiled, or native (the compiled loop when no kernel can load).
_SERVING_ENGINES = ("compiled", "native")


def _load_grammar(spec: str):
    if spec in _BUILTIN_GRAMMARS:
        from repro.grammar import examples

        return getattr(examples, spec.replace("-", "_"))()
    from repro.grammar.yacc_parser import load_yacc_grammar

    return load_yacc_grammar(spec)


def _read_input(path: str | None) -> bytes:
    if path is None or path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


# ----------------------------------------------------------------------
def _cmd_info(args: argparse.Namespace) -> int:
    from repro.grammar.analysis import analyze_grammar_cached

    grammar = _load_grammar(args.grammar)
    print(grammar.describe())
    print(f"\ntokens: {len(grammar.lexspec)}, "
          f"pattern bytes: {grammar.lexspec.total_pattern_bytes()}")
    print("\nFollow sets (paper Fig. 10 style):")
    print(analyze_grammar_cached(grammar).describe_follow())
    return 0


def _cmd_tag(args: argparse.Namespace) -> int:
    grammar = _load_grammar(args.grammar)
    data = _read_input(args.input)
    if args.stack:
        from repro.core.stack import StackTagger

        tagger = StackTagger(grammar, stream=args.stream)
        for stacked in tagger.run(data):
            print(f"{stacked.token}  depth={stacked.depth}")
        return 0
    if args.gate_level:
        from repro.core.generator import TaggerGenerator
        from repro.core.tagger import GateLevelTagger

        circuit = TaggerGenerator().generate(grammar)
        tokens = GateLevelTagger(circuit).tag(data)
    else:
        from repro.core.tagger import BehavioralTagger

        tokens = BehavioralTagger(grammar, engine=args.engine).tag(data)
    for token in tokens:
        print(token)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.core.generator import TaggerGenerator
    from repro.fpga.device import DEVICES, get_device
    from repro.fpga.report import implement
    from repro.rtl.vhdl import emit_vhdl

    # An unknown --device exits 2 (DeviceError) before any generation.
    devices = [get_device(key) for key in args.device or DEVICES]
    grammar = _load_grammar(args.grammar)
    circuit = TaggerGenerator().generate(grammar)
    print(circuit.describe())
    if args.vhdl:
        text = emit_vhdl(circuit.netlist)
        with open(args.vhdl, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(text.splitlines())} lines of VHDL to {args.vhdl}")
    if args.report:
        for device in devices:
            report = implement(circuit, device)
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


def _serve(endpoint, what: str, detail: str) -> int:
    """Run a :class:`~repro.server.endpoint.FramedEndpoint` until
    SIGINT/SIGTERM drains it.  The lines printed here are what
    supervisors (and the ledger) parse for the bound ports and the
    clean stop, so they are part of the interface."""
    import asyncio
    import signal

    async def main() -> int:
        await endpoint.start()
        host, port = endpoint.address
        print(f"{what} on {host}:{port} {detail}", flush=True)
        if endpoint.admin_port is not None:
            ahost, aport = endpoint.admin_address
            print(f"admin endpoint on http://{ahost}:{aport}/metrics",
                  flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                signum,
                lambda: asyncio.ensure_future(endpoint.stop(drain=True)),
            )
        await endpoint.serve_forever()
        print(f"{endpoint.role} drained and stopped", flush=True)
        return 0

    return asyncio.run(main())


def _registry_holding(store: str | None, ref: str):
    """The registry at ``store`` with ``ref`` loadable: a builtin
    grammar name the store lacks is published first, so the serve
    commands and ``structgen precompute`` work on an empty store."""
    from repro.service.registry import Registry, RegistryError, parse_ref

    registry = Registry(store)
    try:
        registry.load(ref)
    except RegistryError:
        name, _version = parse_ref(ref)
        if name not in _BUILTIN_GRAMMARS:
            raise
        registry.publish(name, _load_grammar(name))
    return registry


def _serve_scans(args, what, detail, grammar=None, registry=None, **kwargs):
    """Run the :class:`~repro.server.ScanServer` of both serve
    commands, announced as ``what``/``detail``: a router on
    ``args.engine`` over ``grammar`` — a grammar, None for the builtin
    XML-RPC one, or the ref to serve from ``registry``."""
    from repro.server import ScanServer
    from repro.service import RouterSpec

    if registry is not None:
        kwargs.update(registry=registry, grammar=grammar)
        grammar = None
    server = ScanServer(
        RouterSpec(grammar=grammar, engine=args.engine),
        host=args.host,
        port=args.port,
        idle_timeout=args.idle_timeout,
        max_frame=args.max_frame,
        admin_port=args.admin_port,
        **kwargs,
    )
    return _serve(server, what, detail)


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.workers != 0:
        raise ReproError(
            f"--workers {args.workers}: serve scans in-process only "
            "(--workers 0); to use N cores, run N `repro serve` "
            "processes behind `repro cluster --backend HOST:PORT ...`"
        )
    what, detail = "repro scan server listening", "(in-process sessions)"
    if args.registry is not None:
        # --grammar is a registry ref: the server loads the published
        # artifact (and gains the admin hot-swap endpoint).
        registry = _registry_holding(args.registry, args.grammar)
        return _serve_scans(args, what, detail, args.grammar, registry)
    grammar = None
    if args.grammar != "xmlrpc":
        grammar = _load_grammar(args.grammar)
    return _serve_scans(args, what, detail, grammar)


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
    raise AssertionError(f"unknown registry command {args.registry_cmd}")


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.server import ScanProxy

    proxy = ScanProxy(
        args.backend,
        host=args.host,
        port=args.port,
        admin_port=args.admin_port,
        health_interval=args.health_interval,
        idle_timeout=args.idle_timeout,
        max_frame=args.max_frame,
    )
    return _serve(
        proxy, "repro cluster proxy", f"over {len(args.backend)} backend(s)"
    )


def _structgen_vocab(args: argparse.Namespace):
    from repro.apps.structgen import Vocabulary, synthetic_vocab

    if getattr(args, "tokenizer_json", None):
        return Vocabulary.from_tokenizer_json(args.tokenizer_json)
    if getattr(args, "vocab", None):
        return Vocabulary.from_file(args.vocab)
    try:
        return synthetic_vocab(size=args.vocab_size, seed=args.vocab_seed)
    except ValueError as exc:
        raise ReproError(f"--vocab-size {args.vocab_size}: {exc}") from None


def _cmd_structgen(args: argparse.Namespace) -> int:
    if args.structgen_cmd == "precompute":
        return _structgen_precompute(args)
    if args.structgen_cmd == "serve":
        return _structgen_serve(args)
    raise AssertionError(
        f"unknown structgen command {args.structgen_cmd}"
    )


def _structgen_precompute(args: argparse.Namespace) -> int:
    import json

    vocab = _structgen_vocab(args)
    registry = _registry_holding(args.store, args.ref)
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
    vocab = _structgen_vocab(args)
    if args.store is not None:
        # Registry mode: precompute (deduped) then let the server load
        # mask tables lazily from the store — hot-swap aware.
        registry = _registry_holding(args.store, args.ref)
        summary = registry.publish_masks(args.ref, vocab)
        masks = (f"registry masks {summary['ref']} × "
                 f"{summary['vocab_hash'][:16]}")
        return _serve_scans(
            args, "repro structgen server", f"({masks})", args.ref,
            registry,
        )
    from repro.apps.structgen import build_mask_table

    grammar = _load_grammar(args.ref)
    table = build_mask_table(grammar, vocab)
    masks = f"in-memory masks {args.ref} × {table.vocab_hash[:16]}"
    return _serve_scans(
        args, "repro structgen server", f"({masks})", grammar,
        mask_tables=[table],
    )


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
                     "tables; native = C inner loop over the dense "
                     "tables, the compiled loop when no kernel can "
                     "load; vector = wide-datapath NumPy engine)")
    tag.set_defaults(func=_cmd_tag)

    generate = sub.add_parser("generate", help="compile grammar to hardware")
    generate.add_argument("grammar")
    generate.add_argument("--vhdl", metavar="FILE", help="emit VHDL")
    generate.add_argument("--device", action="append",
                          help="implementation report device(s), e.g. "
                          "virtex4-lx200 (default: every known device)")
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

    server = sub.add_parser(
        "serve",
        help="run the asyncio TCP scan server (framed wire protocol)",
    )
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument("--port", type=int, default=9431)
    server.add_argument("--admin-port", type=int, default=None,
                        help="plaintext /metrics + /healthz listener")
    server.add_argument("--workers", type=int, default=0,
                        help="only 0 (in-process sessions); N cores "
                        "are N serve processes behind `repro cluster`")
    server.add_argument("--grammar", default="xmlrpc",
                        help="router grammar (builtin name or file)")
    server.add_argument("--idle-timeout", type=float, default=30.0,
                        help="seconds before an idle connection is cut")
    server.add_argument("--max-frame", type=int, default=1 << 20,
                        help="largest accepted wire frame in bytes")
    server.add_argument("--engine", choices=_SERVING_ENGINES,
                        default="compiled",
                        help="scan engine for the sessions (native = "
                        "C inner loop, the compiled loop when no "
                        "kernel can load)")
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

    registry.set_defaults(func=_cmd_registry)

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
    cluster.add_argument("--health-interval", type=float, default=0.5,
                         help="seconds between backend health probes")
    cluster.add_argument("--idle-timeout", type=float, default=30.0,
                         help="seconds before an idle client "
                         "connection is cut")
    cluster.add_argument("--max-frame", type=int, default=1 << 20)
    cluster.set_defaults(func=_cmd_cluster)

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
        help="serve beam flows (OPEN_BEAM/BATCH_ADVANCE; a single "
        "decode is a beam of width 1) over the wire protocol",
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
    sg_serve.add_argument("--engine", choices=_SERVING_ENGINES,
                          default="compiled")
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
