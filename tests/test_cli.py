"""The mantle-sim command-line interface."""

import pytest

from repro.cli import main
from repro.core.policyfile import dump_policy
from repro.core.policies import greedy_spill_policy


class TestPolicies:
    def test_lists_stock_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "greedy-spill" in out
        assert "adaptable" in out
        assert "fill-and-spill" in out


class TestShow:
    def test_show_stock_policy(self, capsys):
        assert main(["show", "greedy-spill"]) == 0
        out = capsys.readouterr().out
        assert "-- @when" in out
        assert "-- @howmuch" in out


class TestValidate:
    def test_validate_stock_policy(self, capsys):
        assert main(["validate", "greedy-spill"]) == 0
        out = capsys.readouterr().out
        assert "ok:       True" in out

    def test_validate_policy_file(self, tmp_path, capsys):
        path = tmp_path / "p.lua"
        path.write_text(dump_policy(greedy_spill_policy()))
        assert main(["validate", str(path)]) == 0

    def test_validate_bad_policy_file(self, tmp_path, capsys):
        path = tmp_path / "bad.lua"
        path.write_text("-- @when\nwhile 1 do end\n-- @where\nx = 1\n")
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "problem:" in out

    def test_unknown_policy_errors(self):
        with pytest.raises(SystemExit):
            main(["validate", "no-such-policy"])


class TestRun:
    def test_run_create_workload(self, capsys):
        code = main(["run", "--mds", "1", "--clients", "1",
                     "--files", "300", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "latency" in out

    def test_run_with_stock_policy_and_decisions(self, capsys):
        code = main(["run", "--policy", "greedy-spill", "--mds", "2",
                     "--clients", "2", "--files", "500", "--shared",
                     "--split-size", "200", "--decisions"])
        assert code == 0
        assert "greedy-spill" in capsys.readouterr().out

    def test_run_refuses_invalid_policy(self, tmp_path, capsys):
        path = tmp_path / "bad.lua"
        path.write_text("-- @when\ngo = nil + 1\n-- @where\nx = 1\n")
        code = main(["run", "--policy", str(path), "--files", "10"])
        assert code == 1
        assert "refusing" in capsys.readouterr().err

    def test_run_zipf(self, capsys):
        code = main(["run", "--workload", "zipf", "--mds", "1",
                     "--clients", "1", "--files", "200", "--ops", "300"])
        assert code == 0


class TestClosedPipe:
    """``mantle-sim run ... | head -1`` exits quietly, with no traceback."""

    @pytest.mark.parametrize("lines_read", [0, 1])
    def test_closed_stdout_exits_quietly(self, lines_read):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "run", "--mds", "2",
             "--clients", "2", "--files", "2000", "--decisions"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        for _ in range(lines_read):
            assert proc.stdout.readline().startswith(b"[none]")
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        status = proc.wait(timeout=120)
        assert stderr == ""
        # Having read a line, the writer may already have finished.
        assert status == 1 or (lines_read and status == 0)
