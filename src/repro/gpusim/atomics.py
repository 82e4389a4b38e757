"""Simulated CUDA global-memory atomics.

The simulator executes warps sequentially, so the operations themselves
are trivially race-free; what matters is that they (a) return the *old*
value like the CUDA intrinsics, (b) charge the ledger, because atomic
contention is a real component of kernel cost (e.g. the ``atomicAdd`` on
``vertex_in_pseudo_size`` in Algorithm 3 serializes across warps), and
(c) announce themselves to the warp-access sanitizer: accesses made
inside an ``atomic_*`` count as *mediated*, so concurrent warps updating
one address through atomics are not reported as races, while the same
accesses done with plain loads/stores are.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.gpusim.context import GpuContext


@contextmanager
def _mediated(ctx: GpuContext) -> Iterator[None]:
    """Mark the enclosed read-modify-write as one atomic operation."""
    shadow = ctx.shadow
    if shadow is None:
        yield
        return
    with shadow.atomic_scope():  # type: ignore[attr-defined]
        yield


def atomic_add(
    ctx: GpuContext, array: np.ndarray, index: int, value: object
) -> object:
    """``atomicAdd``: add ``value`` at ``array[index]``, return the old value."""
    ctx.ledger.charge_atomics(1)
    with _mediated(ctx):
        old = array[index]
        array[index] = old + value
    return old
