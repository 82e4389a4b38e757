"""The simulated GPU context: device + cost ledger + launch bookkeeping.

A :class:`GpuContext` is the handle every kernel in this library runs
against.  It owns the :class:`~repro.gpusim.cost.CostLedger` and knows how
many warps the device can execute concurrently, which the launch framework
uses to serialize oversubscribed grids in the cost model (a grid of 10,000
warps on a device with 336 resident warps takes ~30 "waves").
"""

from __future__ import annotations

from repro.gpusim.cost import CostLedger
from repro.gpusim.device import A6000, DeviceSpec

#: Number of threads in a warp; fixed by the CUDA architecture and by the
#: paper's bucket size (Section V.A).
WARP_SIZE = 32

#: All-lanes-active mask, the ``FULL`` constant of the paper's pseudocode.
FULL_MASK = 0xFFFFFFFF


class GpuContext:
    """Simulated GPU device state shared by all kernels.

    Attributes:
        device: Performance specification used for cost estimates.
        ledger: Operation counters grouped into named sections.
        allocations: Named device-memory allocations (bytes).
        peak_allocated_bytes: High-water mark of device memory in use.
        shadow: Warp-access sanitizer hook
            (:class:`repro.analysis.shadow.ShadowTracker`), or ``None``.
            Always ``None`` outside a
            :class:`~repro.analysis.shadow.ShadowSession`; the launch
            framework and the atomics check it with a single attribute
            read, so disabled runs pay nothing and charge no ledger
            entries either way.
    """

    def __init__(self, device: DeviceSpec = A6000):
        self.device = device
        self.ledger = CostLedger(device)
        self.allocations: dict[str, int] = {}
        self.peak_allocated_bytes = 0
        # Typed loosely to keep gpusim free of an analysis-layer import;
        # repro.analysis.shadow.ShadowSession is the only writer.
        self.shadow: "object | None" = None

    # -- device memory accounting ---------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        """Device memory currently registered as allocated."""
        return sum(self.allocations.values())

    def allocate(self, name: str, nbytes: int) -> None:
        """Register a named device allocation, checking capacity.

        The paper's structures pre-allocate large blocks up front
        (Section V.A); modeling the allocations lets experiments report
        footprints and catch configurations that would not fit on the
        target device.  Raises :class:`~repro.utils.errors.CapacityError`
        when the device memory would be exceeded.
        """
        from repro.utils.errors import CapacityError

        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if name in self.allocations:
            raise ValueError(f"allocation {name!r} already exists")
        capacity = int(self.device.memory_gbytes * 1e9)
        if self.allocated_bytes + nbytes > capacity:
            raise CapacityError(
                f"device memory exhausted: {name!r} needs {nbytes} B, "
                f"{capacity - self.allocated_bytes} B free of {capacity} B"
            )
        self.allocations[name] = nbytes
        self.peak_allocated_bytes = max(
            self.peak_allocated_bytes, self.allocated_bytes
        )

    def free(self, name: str) -> None:
        """Release a named allocation."""
        if name not in self.allocations:
            raise KeyError(f"no allocation named {name!r}")
        del self.allocations[name]

    def reallocate(self, name: str, nbytes: int) -> None:
        """Resize an allocation (free + allocate, capacity-checked)."""
        if name in self.allocations:
            self.free(name)
        self.allocate(name, nbytes)

    @property
    def resident_warps(self) -> int:
        """Warps the device executes concurrently (one wave)."""
        return self.device.sm_count * self.device.warps_per_sm

    def charge_wavefront(
        self,
        n_warps: int,
        instructions_per_warp: int,
        transactions_per_warp: int = 0,
    ) -> None:
        """Charge a grid where every warp does the same amount of work.

        The grid charges ``max(n_warps * instructions_per_warp,
        instructions_per_warp * sm_count)`` instructions: throughput-bound
        at its total, but never cheaper than one warp's critical path,
        which counts ``sm_count``-fold against device throughput.  Memory
        transactions are bandwidth-bound and simply sum.
        """
        if n_warps <= 0:
            return
        # Instruction charges are in device-throughput units: the cost
        # model divides by the whole-device instruction rate, so a fully
        # parallel grid charges its total instruction count.  A grid that
        # cannot fill the device is latency-bound instead: a single warp
        # occupies one SM, so its critical path counts `sm_count` times
        # relative to device throughput.
        total = n_warps * instructions_per_warp
        latency_bound = instructions_per_warp * self.device.sm_count
        self.ledger.charge_instructions(max(total, latency_bound))
        self.ledger.charge_transactions(n_warps * transactions_per_warp)

    def charge_irregular_warps(
        self,
        instructions_per_warp: "list[int] | object",
        transactions_per_warp: "list[int] | object | None" = None,
    ) -> None:
        """Charge a grid whose warps do differing amounts of work.

        With dynamic assignment (the paper's centralized-buffer strategy),
        warps are load balanced: the grid is throughput-bound at the sum
        of per-warp instruction counts, but never cheaper than its
        critical path (the longest warp running alone on one SM, which
        counts ``sm_count``-fold against device throughput).
        """
        import numpy as np

        instrs = np.asarray(instructions_per_warp, dtype=np.int64)
        if instrs.size == 0:
            return
        total = int(instrs.sum())
        longest = int(instrs.max())
        latency_bound = longest * self.device.sm_count
        self.ledger.charge_instructions(max(total, latency_bound))
        if transactions_per_warp is not None:
            trans = np.asarray(transactions_per_warp, dtype=np.int64)
            self.ledger.charge_transactions(int(trans.sum()))
