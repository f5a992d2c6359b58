"""Command-line interface."""

import pytest

from repro.cli import main


class TestTag:
    def test_tag_builtin_grammar(self, tmp_path, capsys):
        source = tmp_path / "in.txt"
        source.write_bytes(b"if true then go else stop")
        assert main(["tag", "if-then-else", str(source)]) == 0
        out = capsys.readouterr().out
        assert "if@p0.0" in out and "stop@" in out

    def test_tag_gate_level(self, tmp_path, capsys):
        source = tmp_path / "in.txt"
        source.write_bytes(b"go")
        assert main(["tag", "if-then-else", str(source), "--gate-level"]) == 0
        assert "go@" in capsys.readouterr().out

    def test_tag_stack_mode_rejects(self, tmp_path, capsys):
        source = tmp_path / "in.txt"
        source.write_bytes(b"((0)")
        assert main(["tag", "balanced-parens", str(source), "--stack"]) == 2
        assert "error" in capsys.readouterr().err

    def test_tag_stack_mode_depths(self, tmp_path, capsys):
        source = tmp_path / "in.txt"
        source.write_bytes(b"(0)")
        assert main(["tag", "balanced-parens", str(source), "--stack"]) == 0
        assert "depth=1" in capsys.readouterr().out

    def test_tag_custom_grammar_file(self, tmp_path, capsys):
        grammar = tmp_path / "toy.y"
        grammar.write_text('WORD [a-z]+\n%%\ns: "hi" WORD;\n')
        source = tmp_path / "in.txt"
        source.write_bytes(b"hi there")
        assert main(["tag", str(grammar), str(source)]) == 0
        assert "WORD@" in capsys.readouterr().out


class TestInfoGenerate:
    def test_info(self, capsys):
        assert main(["info", "if-then-else"]) == 0
        out = capsys.readouterr().out
        assert "Follow sets" in out and "E → if C then E else E" in out

    def test_generate_with_vhdl_and_report(self, tmp_path, capsys):
        vhdl = tmp_path / "out.vhd"
        assert (
            main(
                [
                    "generate", "if-then-else",
                    "--vhdl", str(vhdl),
                    "--report", "--device", "virtex4-lx200",
                ]
            )
            == 0
        )
        assert vhdl.exists()
        out = capsys.readouterr().out
        assert "MHz" in out and "LUTs" in out

    def test_generate_unknown_device_lists_the_known_ones(self, capsys):
        argv = ["generate", "if-then-else", "--report", "--device", "virtex9"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "unknown device 'virtex9'" in captured.err
        assert "virtex4-lx200" in captured.err
        assert captured.out == ""  # refused before any generation

    def test_missing_grammar_file(self, capsys):
        assert main(["info", "/nonexistent/g.y"]) == 2


class TestRoute:
    def test_clean_routing_exit_zero(self, capsys):
        assert main(["route", "--messages", "5", "--seed", "3"]) == 0
        assert "5/5" in capsys.readouterr().out

    def test_naive_on_adversarial_fails(self, capsys):
        code = main(
            [
                "route", "--messages", "8", "--adversarial", "1.0",
                "--naive", "--seed", "3",
            ]
        )
        assert code == 1


class TestServe:
    def test_workers_other_than_zero_points_at_cluster(self, capsys):
        """N cores are N `repro serve` behind `repro cluster`: a worker
        count is a usage error that says so, before anything binds."""
        assert main(["serve", "--workers", "2", "--port", "0"]) == 2
        captured = capsys.readouterr()
        assert "repro cluster" in captured.err
        assert captured.out == ""


class TestStructgen:
    def test_precompute_autopublishes_builtin(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = [
            "structgen", "precompute", "if-then-else",
            "--store", store, "--vocab-size", "384",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "if-then-else@1" in out and "rebuilt" in out
        # Second run is a content-addressed cache hit.
        assert main(argv) == 0
        assert "cached" in capsys.readouterr().out

    def test_serve_autopublishes_builtin(self, tmp_path, monkeypatch):
        """``structgen serve REF --store DIR`` on a store without REF
        publishes a builtin grammar first, as ``precompute`` does."""
        import repro.cli as cli

        built = []
        monkeypatch.setattr(
            cli, "_serve", lambda *args: built.append(args) or 0
        )
        argv = [
            "structgen", "serve", "xmlrpc", "--port", "0",
            "--store", str(tmp_path / "store"), "--vocab-size", "384",
        ]
        assert main(argv) == 0
        ((server, what, detail),) = built
        assert server.grammar_refs() == ("xmlrpc@1",)
        assert what == "repro structgen server"
        assert detail.startswith("(registry masks xmlrpc@1 × ")

    @pytest.mark.parametrize("command", [
        ["precompute", "xmlrpc"], ["serve", "xmlrpc", "--port", "0"],
    ])
    def test_small_vocab_size_is_a_usage_error(
        self, command, tmp_path, capsys
    ):
        argv = ["structgen", *command, "--vocab-size", "299",
                "--store", str(tmp_path / "store")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --vocab-size 299: ")
        assert "size >= 300" in captured.err and captured.out == ""


class TestExperiments:
    def test_ablation_command(self, capsys):
        assert main(["ablation"]) == 0
        assert "case-chain" in capsys.readouterr().out


_COMMANDS = [
    "info", "tag", "generate", "route", "serve", "cluster",
    "registry", "registry publish", "registry list", "registry inspect",
    "registry gc", "structgen", "structgen precompute", "structgen serve",
    "capabilities", "table1", "figure15", "ablation",
]
#: Measuring is ``benchmarks/ledger/run.py``'s job, not the CLI's.
_REMOVED = [
    "serve-bench", "client-bench", "cluster-bench", "registry bench",
    "structgen bench",
]


@pytest.mark.parametrize(
    "command, status",
    [(c, 0) for c in _COMMANDS] + [(c, 2) for c in _REMOVED],
)
def test_command_set(command, status, capsys):
    """Each of the 18 subcommands builds its ``--help``; the five
    bench subcommands are usage errors."""
    with pytest.raises(SystemExit) as exit_info:
        main([*command.split(), "--help"])
    assert exit_info.value.code == status
    captured = capsys.readouterr()
    if status == 0:
        assert f"usage: repro {command}" in captured.out
    else:
        assert "invalid choice" in captured.err
