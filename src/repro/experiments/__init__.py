"""The experiment harness: one preset per paper figure.

:mod:`~repro.experiments.harness` runs a join operator over a generated
workload inside one simulation, sampling the paper's two metrics —
state size and cumulative output — over virtual time.
:mod:`~repro.experiments.figures` parameterises one experiment per
figure of the paper's Section 4 (plus the ablations from DESIGN.md);
``python -m repro figures`` runs these presets and prints their tables.
"""

from repro.experiments.harness import (
    ExperimentRun,
    pjoin_factory,
    run_join_experiment,
    shj_factory,
    xjoin_factory,
)
from repro.experiments import ablations, figures

__all__ = [
    "ExperimentRun",
    "run_join_experiment",
    "pjoin_factory",
    "xjoin_factory",
    "shj_factory",
    "figures",
    "ablations",
]
