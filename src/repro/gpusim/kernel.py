"""Kernel launch framework for the warp-faithful execution path.

``launch_warps`` runs a Python function once per warp, giving it a
:class:`~repro.gpusim.warp.Warp` bound to the context.  The framework

* charges one kernel launch,
* overlaps compute and memory per kernel (via the ledger's kernel scope),
* re-prices the *sum* of per-warp instruction counts for parallel
  execution as ``max(sum, longest_warp * sm_count)`` — i.e. warps run
  concurrently, so the grid is throughput-bound at the instruction total
  but never cheaper than its critical path (the slowest warp alone on one
  SM, which counts ``sm_count``-fold against device throughput).  This
  matches how the paper's dynamic warp assignment from a centralized
  buffer balances irregular work.

The vectorized kernels in :mod:`repro.core` do not use this module's
per-warp loop; they charge the identical counts in bulk through
``GpuContext.charge_wavefront`` inside a ``ledger.kernel()`` scope.

Sanitizer integration: when ``ctx.shadow`` holds a
:class:`~repro.analysis.shadow.ShadowTracker`, each launch opens a
tracker scope and announces the executing warp, so accesses to
instrumented arrays are attributed ``(kernel, warp)``.  The ``ordered``
flag is the launch's concurrency contract — see below.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.gpusim.context import GpuContext
from repro.gpusim.warp import Warp


def launch_warps(
    ctx: GpuContext,
    work_items: Sequence[object],
    body: Callable[[Warp, object], None],
    name: str = "warp-grid",
    ordered: bool = False,
) -> None:
    """Launch one warp per element of ``work_items``.

    ``body(warp, item)`` is executed for each item with a fresh warp.
    All per-warp charges made through the warp (or directly through the
    ledger) are collected and re-priced for parallel execution.

    ``ordered`` declares the launch's concurrency contract to the
    warp-access sanitizer: ``False`` (the default) claims the warps are
    order-independent — any cross-warp same-address conflict that is
    not atomic-mediated is then reported as a race.  ``True`` declares
    that correctness *depends* on warps executing in work-item order
    (the simulator guarantees it; a CUDA port must serialize dependent
    items, e.g. by chaining grids or claiming slots with atomics), so
    cross-warp conflicts are exempt and the launch's determinism is
    guarded by its access-trace digest instead.
    """
    ledger = ctx.ledger
    shadow = ctx.shadow
    if shadow is not None:
        shadow.begin_launch(name, ordered)
    try:
        with ledger.kernel(name):
            if not len(work_items):
                return
            per_warp: list[int] = []
            for index, item in enumerate(work_items):
                if shadow is not None:
                    shadow.begin_warp(index)
                before = ledger.total.warp_instructions
                warp = Warp(ctx)
                body(warp, item)
                per_warp.append(ledger.total.warp_instructions - before)
            _reprice_for_parallelism(ctx, per_warp)
    finally:
        if shadow is not None:
            shadow.end_launch()


def launch_threads(
    ctx: GpuContext,
    work_items: Sequence[object],
    body: Callable[[int, object], None],
    instructions_per_thread: int = 1,
    name: str = "thread-grid",
    ordered: bool = False,
) -> None:
    """Launch one *thread* per work item (e.g. Algorithm 3 lines 25-26).

    Threads are grouped into warps of 32 for costing; ``body(i, item)``
    runs sequentially in the simulator.  The sanitizer sees thread ``i``
    as lane ``i % 32`` of warp ``i // 32``, and ``ordered`` has the same
    contract as in :func:`launch_warps`.
    """
    ledger = ctx.ledger
    shadow = ctx.shadow
    if shadow is not None:
        shadow.begin_launch(name, ordered)
    try:
        with ledger.kernel(name):
            n = len(work_items)
            if n == 0:
                return
            for i, item in enumerate(work_items):
                if shadow is not None:
                    shadow.begin_warp(i // 32)
                body(i, item)
            n_warps = math.ceil(n / 32)
            ctx.charge_wavefront(n_warps, instructions_per_thread)
            ledger.charge_transactions(n_warps)
    finally:
        if shadow is not None:
            shadow.end_launch()


def _reprice_for_parallelism(ctx: GpuContext, per_warp: list[int]) -> None:
    """Replace the serially-accumulated instruction sum with parallel cost.

    The warp bodies charged ``sum(per_warp)`` instructions while the
    simulator ran them one after another.  On the device they run
    concurrently: the grid is throughput-bound at the instruction total,
    but never cheaper than its critical path (the longest warp occupying
    one SM, which counts ``sm_count``-fold against device throughput).
    """
    total = sum(per_warp)
    if total == 0:
        return
    longest = max(per_warp)
    parallel_cost = max(total, longest * ctx.device.sm_count)
    ctx.ledger.adjust_instructions(parallel_cost - total)
