"""Tests for the command-line interface."""

import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve"])

    def test_full_flag_parsed(self):
        args = build_parser().parse_args(["figure7", "--full"])
        assert args.full


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "T* (Lemma 5.1)" in out
        assert "gogog" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "matches the paper exactly" in capsys.readouterr().out

    def test_solve_acyclic(self, capsys):
        rc = main(
            ["solve", "--source", "6", "--open", "5", "5",
             "--guarded", "4", "1", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Theorem 4.1" in out
        assert "degree_excess" in out

    def test_solve_with_rate(self, capsys):
        rc = main(["solve", "--source", "6", "--open", "5", "5",
                   "--guarded", "4", "1", "1", "--rate", "3.0"])
        assert rc == 0
        assert "rate 3" in capsys.readouterr().out

    def test_solve_cyclic(self, capsys):
        rc = main(["solve", "--source", "5", "--open", "5", "4", "4",
                   "--cyclic"])
        assert rc == 0
        assert "Theorem 5.2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--source", "5", "--open", "3", "2", "--rate", "100"],
             "not acyclically feasible"),
            (["--source", "5", "--open", "3", "2", "--cyclic",
              "--rate", "100"], "exceeds the cyclic optimum"),
            (["--source", "nan", "--open", "3", "2"], "finite"),
            (["--source", "5", "--open", "-1"], ">= 0"),
            (["--source", "5", "--open", "3", "2", "--rate", "nan"],
             "--rate"),
            (["--source", "5", "--open", "3", "2", "--rate", "-1"],
             "--rate"),
            (["--source", "5", "--open", "3", "2", "--rate", "inf"],
             "--rate"),
        ],
    )
    def test_solve_bad_input_fails_cleanly(self, capsys, argv, message):
        rc = main(["solve"] + argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert "Theorem" not in captured.out

    def test_solve_cyclic_rejects_guarded(self, capsys):
        rc = main(["solve", "--source", "5", "--open", "5",
                   "--guarded", "1", "--cyclic"])
        assert rc == 2
        assert "open-only" in capsys.readouterr().err

    def test_worstcase(self, capsys):
        assert main(["worstcase"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "Figure 18" in out
        assert "Theorem 6.3" in out

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "demo"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "gogog" in proc.stdout

    def test_cli_import_leaves_scipy_unloaded(self):
        """scipy backs only the LP oracles, so importing the CLI must not
        pay its start-up time and memory."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; assert 'scipy' not in sys.modules"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("module", ["repro", "repro.algorithms.exact"])
    def test_library_import_leaves_scipy_unloaded(self, module):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}; assert 'scipy' not in sys.modules"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_lp_oracle_loads_scipy_on_first_solve(self):
        """The LP helper imports ``linprog`` when it is first called."""
        script = (
            "import sys\n"
            "from repro import Instance\n"
            "from repro.algorithms.exact import optimal_cyclic_lp\n"
            "rate = optimal_cyclic_lp(Instance(10.0, (5.0, 4.0, 3.0), ()))\n"
            "assert 'scipy' in sys.modules\n"
            "print(rate)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) > 0.0
