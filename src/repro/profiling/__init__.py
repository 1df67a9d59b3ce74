"""The ``repro profile`` subsystem: per-layer overhead measurement.

Built on the :mod:`repro.obs.profile` scoped timers:

* :mod:`~repro.profiling.presets` — pinned profiling workloads keyed
  to the paper figures;
* :mod:`~repro.profiling.runner` — runs a preset with a chosen feature
  set (obs x resilience x governor x shard), renders the per-layer
  overhead table and hosts the ``repro profile`` CLI;
* :mod:`~repro.profiling.stacks` — collapsed-stack (FlameGraph) and
  speedscope exports of the per-site self times.
"""

from repro.profiling.presets import (
    ALIASES,
    FEATURES,
    PROFILE_PRESETS,
    ProfilePreset,
    resolve_preset,
)
from repro.profiling.runner import (
    ProfileRun,
    check_profile,
    render_layer_table,
    run_profile,
)
from repro.profiling.stacks import (
    collapsed_stacks,
    save_collapsed,
    save_speedscope,
    to_speedscope,
)

__all__ = [
    "ALIASES",
    "FEATURES",
    "PROFILE_PRESETS",
    "ProfilePreset",
    "resolve_preset",
    "ProfileRun",
    "run_profile",
    "check_profile",
    "render_layer_table",
    "collapsed_stacks",
    "save_collapsed",
    "to_speedscope",
    "save_speedscope",
]
