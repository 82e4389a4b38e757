"""Analytic cost model for the GPU execution model.

The CUDA implementation in the paper reports wall-clock seconds on an
A6000.  This reproduction cannot time real kernels, so every simulated
operation is *counted* and converted to estimated seconds using the device
rates in :mod:`repro.gpusim.device`:

* ``kernel_launches``   -- fixed per-launch host overhead,
* ``warp_instructions`` -- warp-wide ALU/control instructions,
* ``transactions``      -- 128-byte global-memory transactions,
* ``atomic_ops``        -- global atomics (``atomicAdd`` etc.),
* ``h2d_bytes``/``d2h_bytes`` -- PCIe transfers,
* ``host_ops``          -- scalar CPU work (e.g. CSR rebuilds).

Kernels overlap compute and memory, so per-kernel time is the *maximum*
of the compute and memory components rather than their sum.  Counters are
grouped into named sections (``"modification"``, ``"partitioning"``) so
the harness can reproduce the paper's Table I runtime breakdown.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator

from repro.gpusim.device import A6000, DeviceSpec


@dataclass
class Counters:
    """Raw operation counts accumulated by the simulator."""

    kernel_launches: int = 0
    warp_instructions: int = 0
    transactions: int = 0
    atomic_ops: int = 0
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    host_ops: int = 0
    #: Sum over kernels of max(compute_time, memory_time); filled by
    #: :meth:`CostLedger.end_kernel` so overlapped kernels are priced
    #: correctly.  Expressed in seconds.
    overlapped_kernel_seconds: float = 0.0

    def __iadd__(self, other: "Counters") -> "Counters":
        self.kernel_launches += other.kernel_launches
        self.warp_instructions += other.warp_instructions
        self.transactions += other.transactions
        self.atomic_ops += other.atomic_ops
        self.h2d_bytes += other.h2d_bytes
        self.d2h_bytes += other.d2h_bytes
        self.host_ops += other.host_ops
        self.overlapped_kernel_seconds += other.overlapped_kernel_seconds
        return self

    def copy(self) -> "Counters":
        return Counters(
            kernel_launches=self.kernel_launches,
            warp_instructions=self.warp_instructions,
            transactions=self.transactions,
            atomic_ops=self.atomic_ops,
            h2d_bytes=self.h2d_bytes,
            d2h_bytes=self.d2h_bytes,
            host_ops=self.host_ops,
            overlapped_kernel_seconds=self.overlapped_kernel_seconds,
        )

    def diff(self, baseline: "Counters") -> "Counters":
        """Return the counts accumulated since ``baseline`` was copied."""
        return Counters(
            kernel_launches=self.kernel_launches - baseline.kernel_launches,
            warp_instructions=(
                self.warp_instructions - baseline.warp_instructions
            ),
            transactions=self.transactions - baseline.transactions,
            atomic_ops=self.atomic_ops - baseline.atomic_ops,
            h2d_bytes=self.h2d_bytes - baseline.h2d_bytes,
            d2h_bytes=self.d2h_bytes - baseline.d2h_bytes,
            host_ops=self.host_ops - baseline.host_ops,
            overlapped_kernel_seconds=(
                self.overlapped_kernel_seconds
                - baseline.overlapped_kernel_seconds
            ),
        )


class CostModel:
    """Converts :class:`Counters` into estimated seconds for a device."""

    def __init__(self, device: DeviceSpec = A6000):
        self.device = device

    def kernel_seconds(self, warp_instructions: int, transactions: int) -> float:
        """Time of one kernel: max of compute and memory components."""
        compute = warp_instructions / self.device.warp_instruction_rate
        memory = transactions / self.device.transaction_rate
        return max(compute, memory)

    def seconds(self, counters: Counters) -> float:
        """Estimated wall-clock seconds for ``counters``.

        Uses the pre-overlapped per-kernel seconds when available and
        falls back to pricing the raw instruction/transaction totals for
        counts recorded outside a kernel scope.
        """
        device = self.device
        launch = counters.kernel_launches * device.kernel_launch_overhead_s
        kernels = counters.overlapped_kernel_seconds
        atomics = counters.atomic_ops / (device.atomic_throughput_gops * 1e9)
        pcie = (counters.h2d_bytes + counters.d2h_bytes) / (
            device.pcie_bytes_per_second
        )
        host = counters.host_ops / device.host_ops_per_second
        return launch + kernels + atomics + pcie + host


@dataclass
class _KernelScope:
    """Instruction/transaction counts of the currently open kernel."""

    warp_instructions: int = 0
    transactions: int = 0
    name: str = "kernel"


class CostLedger:
    """Accumulates counters into named sections.

    A ledger has one *current section* at a time; every charge lands both
    in the current section and in the global total.  Sections let the
    experiment harness split runtime into the paper's "modification" and
    "partitioning" columns.
    """

    DEFAULT_SECTION = "unattributed"

    def __init__(self, device: DeviceSpec = A6000):
        self.model = CostModel(device)
        self.total = Counters()
        self.sections: Dict[str, Counters] = {}
        self._section_stack: list[str] = [self.DEFAULT_SECTION]
        self._kernel_stack: list[_KernelScope] = []
        #: Observability hook (:class:`repro.obs.tracer.Tracer` installs
        #: itself here while active).  Checked with a single attribute
        #: read in :meth:`end_kernel`, so un-traced runs pay nothing —
        #: the same contract as ``GpuContext.shadow``.  Called as
        #: ``hook(name, section, warp_instructions, transactions,
        #: seconds)`` after each kernel scope closes; the hook must not
        #: charge the ledger.
        self.obs_hook: "object | None" = None

    # -- section management -------------------------------------------------

    @property
    def current_section(self) -> str:
        return self._section_stack[-1]

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Attribute all charges inside the ``with`` block to ``name``."""
        self._section_stack.append(name)
        try:
            yield
        finally:
            self._section_stack.pop()

    def _bucket(self) -> Counters:
        name = self.current_section
        bucket = self.sections.get(name)
        if bucket is None:
            bucket = Counters()
            self.sections[name] = bucket
        return bucket

    # -- kernel scoping ------------------------------------------------------

    def begin_kernel(self, name: str = "kernel") -> None:
        """Open a kernel scope; instruction/transaction charges inside it
        are overlapped (max of compute and memory) when the scope closes."""
        self.total.kernel_launches += 1
        self._bucket().kernel_launches += 1
        self._kernel_stack.append(_KernelScope(name=name))

    def end_kernel(self) -> None:
        scope = self._kernel_stack.pop()
        seconds = self.model.kernel_seconds(
            scope.warp_instructions, scope.transactions
        )
        self.total.overlapped_kernel_seconds += seconds
        self._bucket().overlapped_kernel_seconds += seconds
        if self.obs_hook is not None:
            self.obs_hook(
                scope.name,
                self.current_section,
                scope.warp_instructions,
                scope.transactions,
                seconds + self.model.device.kernel_launch_overhead_s,
            )

    @contextmanager
    def kernel(self, name: str = "kernel") -> Iterator[None]:
        """Context-manager form of ``begin_kernel``/``end_kernel``."""
        self.begin_kernel(name)
        try:
            yield
        finally:
            self.end_kernel()

    # -- charging ------------------------------------------------------------

    def charge_instructions(self, n: int) -> None:
        """Charge ``n`` warp-wide instructions."""
        if n <= 0:
            return
        self.total.warp_instructions += n
        self._bucket().warp_instructions += n
        if self._kernel_stack:
            self._kernel_stack[-1].warp_instructions += n

    def adjust_instructions(self, delta: int) -> None:
        """Add ``delta`` (possibly negative) warp instructions.

        Used by the launch framework to replace a serially-accumulated
        per-warp sum with the parallel-execution cost.
        """
        if delta == 0:
            return
        self.total.warp_instructions += delta
        self._bucket().warp_instructions += delta
        if self._kernel_stack:
            self._kernel_stack[-1].warp_instructions += delta

    def charge_transactions(self, n: int) -> None:
        """Charge ``n`` 128-byte global-memory transactions."""
        if n <= 0:
            return
        self.total.transactions += n
        self._bucket().transactions += n
        if self._kernel_stack:
            self._kernel_stack[-1].transactions += n

    def charge_atomics(self, n: int) -> None:
        if n <= 0:
            return
        self.total.atomic_ops += n
        self._bucket().atomic_ops += n

    def charge_h2d(self, nbytes: int) -> None:
        """Charge a host-to-device PCIe transfer of ``nbytes``."""
        if nbytes <= 0:
            return
        self.total.h2d_bytes += nbytes
        self._bucket().h2d_bytes += nbytes

    def charge_d2h(self, nbytes: int) -> None:
        """Charge a device-to-host PCIe transfer of ``nbytes``."""
        if nbytes <= 0:
            return
        self.total.d2h_bytes += nbytes
        self._bucket().d2h_bytes += nbytes

    def charge_host_ops(self, n: int) -> None:
        """Charge ``n`` scalar CPU operations (e.g. a CSR rebuild loop)."""
        if n <= 0:
            return
        self.total.host_ops += n
        self._bucket().host_ops += n

    # -- reporting -----------------------------------------------------------

    def seconds(self, section: str | None = None) -> float:
        """Estimated seconds for one section, or for the whole run."""
        if section is None:
            return self.model.seconds(self.total)
        counters = self.sections.get(section)
        if counters is None:
            return 0.0
        return self.model.seconds(counters)

    def snapshot(self) -> Counters:
        """Copy of the running totals (for before/after differencing)."""
        return self.total.copy()
