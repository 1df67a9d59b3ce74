"""CLI surface of the memory governor: the budget and policy flags."""

import pytest

from repro.cli import main


class TestBudgetFlagParsing:
    def test_garbage_budget_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figures", "figure6", "--memory-budget", "garbage"])
        assert excinfo.value.code == 2
        assert "memory budget" in capsys.readouterr().err

    def test_bad_policy_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["demo", "--eviction-policy", "bogus"])
        assert excinfo.value.code == 2


class TestFiguresWithBudget:
    def test_governed_figure_runs(self, capsys):
        code = main(
            ["figures", "figure6", "--scale", "0.06",
             "--memory-budget", "64", "--eviction-policy", "lru"]
        )
        assert code == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_budget_refuses_parallel_jobs(self, capsys):
        code = main(
            ["figures", "--all", "--jobs", "2", "--memory-budget", "100"]
        )
        assert code == 2
        assert "--jobs" in capsys.readouterr().err
