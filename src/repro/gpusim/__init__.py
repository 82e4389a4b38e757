"""Warp-level GPU execution model (substrate for the CUDA kernels).

This package replaces the CUDA runtime the paper builds on.  It provides

* :class:`~repro.gpusim.context.GpuContext` -- the simulated device,
* :class:`~repro.gpusim.warp.Warp` -- 32-lane warps with
  ``ballot_sync``/``ffs``/``popc``/``any_sync``/``reduce_min_sync``,
* :mod:`~repro.gpusim.atomics` -- ``atomicAdd``, returning the old value,
* :mod:`~repro.gpusim.kernel` -- warp-grid launches with parallel cost
  repricing,
* :mod:`~repro.gpusim.primitives` -- segmented scan / radix sort (the
  CUB-equivalents),
* :mod:`~repro.gpusim.cost` -- the analytic cost model that converts
  operation counts into estimated A6000 seconds.
"""

from repro.gpusim.context import FULL_MASK, WARP_SIZE, GpuContext
from repro.gpusim.cost import CostLedger, CostModel, Counters
from repro.gpusim.device import A6000, TINY_GPU, DeviceSpec, scale_device
from repro.gpusim.warp import Warp, ffs, popc

__all__ = [
    "GpuContext",
    "Warp",
    "WARP_SIZE",
    "FULL_MASK",
    "ffs",
    "popc",
    "CostLedger",
    "CostModel",
    "Counters",
    "DeviceSpec",
    "A6000",
    "TINY_GPU",
    "scale_device",
]
