"""Exception hierarchy for the :mod:`repro` library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  Subclasses are grouped by the subsystem
that raises them; they carry human-readable messages and, where useful,
structured attributes describing the offending object.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A schema is malformed or a tuple does not conform to its schema."""


class PatternError(ReproError):
    """A punctuation pattern is malformed or used incorrectly."""


class PunctuationError(ReproError):
    """A punctuation is malformed or violates stream punctuation rules.

    The most common cause is a *punctuation violation*: a tuple arriving
    after a punctuation that its join value matches.  Sources that emit
    such streams are buggy; operators in this library detect the
    violation (when validation is enabled) rather than silently producing
    incorrect join results.
    """


class SimulationError(ReproError):
    """The discrete-event simulation was driven incorrectly.

    Raised, for example, when scheduling an event in the virtual past or
    running an engine that has already finished.
    """


class OperatorError(ReproError):
    """An operator was configured or wired incorrectly."""


class ShardWorkerError(ReproError):
    """A shard worker outside the simulator failed.

    Raised by the shard supervisor (:mod:`repro.shard.backend`) when a
    worker raises — the message names the shard and carries the
    original exception's type, message and traceback — or dies without
    reporting where nothing respawns it.
    """


class ConfigError(ReproError):
    """An operator/experiment configuration value is invalid."""


class StorageError(ReproError):
    """The simulated secondary storage was used incorrectly."""


class WorkloadError(ReproError):
    """A workload specification is invalid or inconsistent."""


class ResilienceError(ReproError):
    """Base class for the resilience layer (fault policies, chaos).

    Raised when graceful degradation itself cannot proceed: an unknown
    fault policy, an exhausted retry budget, a chaos scenario that is
    inconsistent.  Recoverable conditions (contract violations under
    ``quarantine``/``repair``, transient I/O faults within the retry
    budget) are absorbed and counted instead of raised.
    """


class ContractViolationError(ResilienceError, PunctuationError):
    """A tuple arrived after a same-stream punctuation covering it.

    Raised only under the ``strict`` fault policy; ``quarantine`` routes
    the tuple to the operator's dead-letter store and ``repair``
    retracts the broken promise instead.  Subclasses
    :class:`PunctuationError` so pre-resilience callers that caught the
    old hard failure keep working.
    """


class TransientIOError(ResilienceError, StorageError):
    """A simulated disk fault outlived the configured retry budget.

    The simulated disk absorbs transient faults by retrying with
    exponential backoff in virtual time; this error means the outage
    lasted longer than the whole backoff schedule.  Subclasses
    :class:`StorageError` so storage-level handlers keep working.
    """


class RetryExhaustedError(TransientIOError):
    """The capped total retry budget ran out.

    :class:`~repro.resilience.retry.RetryPolicy` can cap the *total*
    number of retries an injector may spend across a whole run
    (``max_total_retries``); once spent, further faults fail fast with
    this error instead of looping through another backoff schedule.
    Also raised when a single fault outlives its per-operation backoff
    schedule, replacing the untyped :class:`TransientIOError` (which it
    subclasses, so existing handlers keep working).
    """


class RecoveryError(ResilienceError):
    """Crash recovery or rescaling could not restore a consistent run.

    Raised by the checkpoint subsystem (:mod:`repro.checkpoint`) when a
    shard worker keeps dying past the respawn budget, or a rescale has
    no punctuation-cover boundary to quiesce at.
    """


class SourceStallError(ResilienceError):
    """A stream source stalled past the watchdog's tolerance.

    Only raised when a :class:`~repro.resilience.watchdog.StallWatchdog`
    is configured with ``on_stall="raise"``; the default modes synthesise
    heartbeat punctuations or merely flag the run as degraded.
    """


class PerfError(ReproError):
    """A failure in the performance subsystem (:mod:`repro.perf`).

    Raised when a parallel sweep cannot be planned or merged — e.g. an
    experiment function makes a different number of
    ``run_join_experiment`` calls than the planning pass observed, which
    would make a deterministic merge impossible.
    """


class PlannerError(ReproError):
    """A failure in the cost-based planner (:mod:`repro.planner`).

    Raised for malformed planner specifications (unknown mode, an
    initial probe order that is not a permutation of the input streams)
    and for plan swaps that would violate the operator's invariants.
    """
