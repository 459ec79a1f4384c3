"""``python -m repro cluster`` — the multi-rack replay CLI."""

import json

import pytest

from repro.__main__ import main


class TestClusterCli:
    def test_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "python -m repro cluster" in out
        assert "--racks" in out and "--scale" in out
        assert "--jobs" not in out

    def test_small_run_text_output(self, capsys):
        assert main([
            "cluster", "--racks", "2", "--machines", "8",
            "--tasks", "80", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "cluster : 2 racks" in out
        assert "sync    :" in out and "windows" in out
        assert "classes :" in out and "local" in out

    def test_json_output_is_machine_readable(self, capsys):
        assert main([
            "cluster", "--racks", "2", "--machines", "8",
            "--tasks", "80", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["racks"] == 2
        assert payload["summary"]["tasks"] == 80
        assert set(payload["summary"]["classes"]) == {
            "local", "rack_pool", "remote_pool", "stranded", "rejected"
        }
        assert set(payload["runtime"]) == {"wall_s"}

    def test_scale_sizes_the_fleet(self, capsys):
        assert main([
            "cluster", "--racks", "2", "--scale", "0.001",
            "--tasks", "40", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        # round(12555 * 0.001) = 13 machines.
        assert payload["config"]["machines"] == 13

    def test_scale_out_of_range_rejected(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--scale", "1.5"])

    def test_out_writes_deterministic_artifacts(self, tmp_path, capsys):
        argv = ["cluster", "--racks", "2", "--machines", "8",
                "--tasks", "80", "--chaos"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        for name in ("cluster-summary.json", "cluster-journal.jsonl"):
            first = (tmp_path / "a" / name).read_bytes()
            second = (tmp_path / "b" / name).read_bytes()
            assert first == second, name
