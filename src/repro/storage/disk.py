"""The simulated disk: virtual-time I/O accounting.

One :class:`SimulatedDisk` is shared by all operators in a query plan.
It does not hold tuple data itself (the hybrid partitions keep their
disk-resident entries as tagged Python objects); it is the authority on
what an I/O operation *costs* and the ledger of how much I/O an
experiment performed.  The ablation A5 reads these counters to
compare PJoin's and XJoin's disk traffic under tight memory thresholds.

Transient faults
----------------
By default the disk never fails — the paper's assumption.  Passing a
:class:`~repro.resilience.retry.DiskFaultProfile` arms a seeded fault
injector: each operation may then hit a transient fault and ride it out
with exponential backoff (see :mod:`repro.resilience.retry`), which
shows up as extra virtual cost on that operation — the join above
simply gets slower, never wrong.  Faults, retries and total backoff
time are all counted, so manifests make every outage auditable.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import StorageError
from repro.resilience.retry import DiskFaultProfile, maybe_injector
from repro.sim.costs import CostModel


class SimulatedDisk:
    """Virtual disk with seek + per-tuple transfer costs.

    Parameters
    ----------
    cost_model:
        Supplies :meth:`~repro.sim.costs.CostModel.disk_write_cost` and
        :meth:`~repro.sim.costs.CostModel.disk_read_cost`.
    bytes_per_tuple:
        Nominal serialised tuple size, used only for the byte-volume
        counters the observability layer reports (the cost model keeps
        charging per tuple).
    fault_profile:
        Optional :class:`~repro.resilience.retry.DiskFaultProfile`
        describing seeded transient faults; ``None`` (default) keeps the
        disk fault-free.
    """

    def __init__(
        self,
        cost_model: CostModel,
        bytes_per_tuple: int = 64,
        fault_profile: Optional[DiskFaultProfile] = None,
    ) -> None:
        if bytes_per_tuple <= 0:
            raise StorageError(
                f"bytes_per_tuple must be positive, got {bytes_per_tuple}"
            )
        self.cost_model = cost_model
        self.bytes_per_tuple = bytes_per_tuple
        self.fault_injector = maybe_injector(fault_profile)
        self.write_ops = 0
        self.read_ops = 0
        self.tuples_written = 0
        self.tuples_read = 0
        self.total_write_time = 0.0
        self.total_read_time = 0.0

    def _fault_penalty(self, operation: str) -> float:
        """Extra virtual cost from riding out a transient fault, if any."""
        if self.fault_injector is None:
            return 0.0
        penalty, _retries = self.fault_injector.charge(operation)
        return penalty

    def write(self, tuples: int) -> float:
        """Record a flush of *tuples* tuples; return its virtual cost."""
        if tuples < 0:
            raise StorageError(f"cannot write a negative tuple count: {tuples}")
        if tuples == 0:
            return 0.0
        cost = self.cost_model.disk_write_cost(tuples)
        cost += self._fault_penalty("write")
        self.write_ops += 1
        self.tuples_written += tuples
        self.total_write_time += cost
        return cost

    def read(self, tuples: int) -> float:
        """Record a fetch of *tuples* tuples; return its virtual cost."""
        if tuples < 0:
            raise StorageError(f"cannot read a negative tuple count: {tuples}")
        if tuples == 0:
            return 0.0
        cost = self.cost_model.disk_read_cost(tuples)
        cost += self._fault_penalty("read")
        self.read_ops += 1
        self.tuples_read += tuples
        self.total_read_time += cost
        return cost

    @property
    def total_io_time(self) -> float:
        """Total virtual time spent on disk I/O."""
        return self.total_write_time + self.total_read_time

    @property
    def bytes_written(self) -> int:
        """Nominal bytes flushed (``tuples_written * bytes_per_tuple``)."""
        return self.tuples_written * self.bytes_per_tuple

    @property
    def bytes_read(self) -> int:
        """Nominal bytes fetched (``tuples_read * bytes_per_tuple``)."""
        return self.tuples_read * self.bytes_per_tuple

    def stats(self) -> dict:
        """A snapshot of all counters, for metrics and reports."""
        return {
            "write_ops": self.write_ops,
            "read_ops": self.read_ops,
            "tuples_written": self.tuples_written,
            "tuples_read": self.tuples_read,
            "total_write_time": self.total_write_time,
            "total_read_time": self.total_read_time,
            "total_io_time": self.total_io_time,
        }

    def counters(self) -> dict:
        """The uniform registry form (see :mod:`repro.obs.counters`)."""
        out = self.stats()
        out["bytes_written"] = self.bytes_written
        out["bytes_read"] = self.bytes_read
        if self.fault_injector is not None:
            for key, value in self.fault_injector.counters().items():
                out[f"fault.{key}"] = value
        return out

    def __repr__(self) -> str:
        return (
            f"SimulatedDisk(writes={self.write_ops}/{self.tuples_written}t, "
            f"reads={self.read_ops}/{self.tuples_read}t)"
        )
