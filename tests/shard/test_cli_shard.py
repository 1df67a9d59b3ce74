"""The ``--shards`` experiment flag."""

from repro.cli import main


class TestFiguresShardFlag:
    def test_figures_run_sharded(self, capsys):
        # figure8's shape check (lazy purge stays bounded) is robust to
        # the earlier virtual completion sharding brings; tighter
        # figure-5-style ratio checks can shift marginally under K>1.
        assert main(
            ["figures", "figure8", "--scale", "0.05", "--shards", "2"]
        ) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_shards_conflicts_with_jobs(self, capsys):
        code = main(
            ["figures", "figure5", "--scale", "0.05",
             "--shards", "2", "--jobs", "2"]
        )
        assert code == 2
        assert "--shards cannot be combined" in capsys.readouterr().err


class TestDemoShardFlag:
    def test_demo_runs_sharded(self, capsys):
        code = main(
            ["demo", "--tuples", "300", "--spacing-a", "10",
             "--spacing-b", "10", "--shards", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PJoin" in out and "XJoin" in out
