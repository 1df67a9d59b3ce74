"""CLI surface of the skew layer: the ``--jobs`` fallback."""

from repro.cli import main


class TestPlannerJobsFallback:
    def test_adaptive_planner_falls_back_to_serial(self, capsys, caplog):
        code = main(
            ["figures", "figure6", "--scale", "0.06",
             "--planner", "adaptive", "--jobs", "2"]
        )
        assert code == 0
        err = capsys.readouterr().err + caplog.text
        assert "falling back to a serial run" in err
        assert "--planner adaptive cannot fan out" in err

    def test_no_fastpath_still_hard_errors(self, capsys):
        code = main(
            ["figures", "figure6", "--scale", "0.06",
             "--no-fastpath", "--jobs", "2"]
        )
        assert code == 2
        assert "--no-fastpath" in capsys.readouterr().err
