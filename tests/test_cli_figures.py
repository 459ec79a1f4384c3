"""Tests for the figures module and the ``python -m repro`` CLI."""

import pytest

from repro.__main__ import COMMANDS
from repro.figures import FIGURES, fig5, fig8, render, rtt


class TestFigures:
    def test_registry_covers_every_figure(self):
        assert set(FIGURES) == {
            "fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "rtt"
        }

    def test_fig5_shape(self):
        title, headers, rows = fig5(threads=(4,))
        assert "Fig. 5" in title
        assert headers[0] == "threads"
        assert len(rows) == 4  # four kernels at one thread count

    def test_fig8_rows_per_config(self):
        _title, _headers, rows = fig8(samples=2_000)
        assert len(rows) == 5
        configs = [row[0] for row in rows]
        assert "local" in configs and "scale-out" in configs

    def test_rtt_values_near_950(self):
        _title, _headers, rows = rtt(samples=4)
        budget_ns = float(rows[0][1].split()[0])
        assert budget_ns == pytest.approx(960, abs=20)

    def test_render_aligns_columns(self):
        text = render(("T", ["a", "bb"], [["1", "2"], ["333", "4"]]))
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert len(lines) == 4


class TestCli:
    def test_list(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "STREAM" in out

    def test_single_figure(self, capsys):
        from repro.__main__ import main

        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "interleaved" in out

    def test_demo(self, capsys):
        from repro.__main__ import main

        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "roundtrip OK" in out
        assert "detached cleanly" in out

    def test_unknown_target_rejected(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["bogus"])


class TestCliHelp:
    """Every subcommand is listed with one-line help, and every entry of
    the command table answers ``--help`` under its own prog."""

    def test_top_level_help_lists_every_subcommand(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in ("list", "all", "demo", "trace", "figures", "sweep",
                        "cluster"):
            assert command in out, command
        for figure in FIGURES:
            assert figure in out, figure

    @pytest.mark.parametrize("command", [c.name for c in COMMANDS])
    def test_subcommand_help(self, command, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert f"python -m repro {command}" in out

    def test_removed_command_is_an_invalid_choice(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["backends"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'backends'" in capsys.readouterr().err

    def test_no_arguments_prints_help(self, capsys):
        from repro.__main__ import main

        assert main([]) == 2
        assert "figures" in capsys.readouterr().out


class TestCliBadNumbers:
    """Out-of-range numbers are usage errors (exit 2) caught by the
    parser, before any artifact directory is created."""

    @pytest.mark.parametrize("argv", [
        ["trace", "stream", "--sample", "0"],
        ["metrics", "stream", "--stride", "0"],
        ["cluster", "--racks", "0"],
        ["cluster", "--sample", "0"],
    ], ids=["trace-sample", "metrics-stride", "cluster-racks",
            "cluster-sample"])
    def test_rejected_by_the_parser(self, argv, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--out", str(out)])
        assert excinfo.value.code == 2
        assert f"python -m repro {argv[0]}: error" in capsys.readouterr().err
        assert not out.exists()


class TestCliSweepEngine:
    def test_figures_subcommand_cached(self, tmp_path, capsys):
        from repro.__main__ import main

        cache_dir = str(tmp_path / "cache")
        argv = ["figures", "fig5", "rtt", "--cache-dir", cache_dir]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "Fig. 5" in cold and "remote access RTT" in cold
        assert "4 executed" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 executed" in warm and "4 hits" in warm
        # The rendered tables themselves are identical cold vs warm.
        assert cold.split("sweep:")[0] == warm.split("sweep:")[0]

    def test_figures_subcommand_rejects_unknown_figure(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["figures", "nope", "--cache-dir", str(tmp_path)])

    def test_sweep_subcommand_grid(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main([
            "sweep", "slice:fig5.threads", "--sweep", "count=4,8",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert '{"count":4}' in out and '{"count":8}' in out
        assert "2 specs" in out

    def test_sweep_subcommand_rejects_unknown_target(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["sweep", "bogus-target", "--cache-dir", str(tmp_path)])

    @pytest.mark.parametrize("argv, named", [
        (["slice:fig5.threads", "--set", "count=4", "--set", "bogus=1"],
         "takes (count)"),
        (["slice:fig5.threads"], "takes (count)"),
        (["slice:nope"], "slice:fig5.threads"),
        (["slice:fig5.threads", "--set", "count"], "KEY=VALUE"),
    ], ids=["unknown-kwarg", "missing-kwarg", "unknown-slice", "no-value"])
    def test_sweep_bad_input_is_a_usage_error(self, argv, named, tmp_path,
                                              capsys):
        """Bad input exits 2 before anything runs or is cached, naming
        the target's parameters or the known targets."""
        from repro.__main__ import main

        cache_dir = tmp_path / "cache"
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *argv, "--cache-dir", str(cache_dir)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "python -m repro sweep: error" in err and named in err
        assert not cache_dir.exists()

    @pytest.mark.parametrize("argv", [
        ["dse"], ["figures", "fig5", "--jobs", "2"],
    ], ids=["dse", "figures-jobs"])
    def test_removed_command_and_option_are_usage_errors(self, argv):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
