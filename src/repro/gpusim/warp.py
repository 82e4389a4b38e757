"""A 32-lane warp and the CUDA warp-level primitives the paper uses.

The pseudocode of Algorithms 1-4 is written per warp: each of the 32
threads holds a scalar, and the warp combines them with ``__ballot_sync``,
``__ffs``, ``__popc`` and ``__any_sync``.  :class:`Warp` models exactly
that: lane-private values are length-32 NumPy arrays, the primitives
combine them the way the hardware does, and every primitive call charges
one warp instruction to the context's ledger.

Semantics follow the CUDA C++ Programming Guide:

* ``ballot_sync(mask, pred)`` returns a 32-bit integer whose bit *i* is
  set iff lane *i* is in ``mask`` and its predicate is true.
* ``ffs(x)`` returns the 1-based position of the least-significant set
  bit of ``x``, or 0 when ``x == 0`` (so the paper's ``__ffs(b) - 1``
  yields -1 when no slot matched).
* ``any_sync`` reduces predicates across the mask.
* ``popc(x)`` counts set bits.

Sanitizer integration: ``load``/``store`` index their target array, so
when the array is a :class:`~repro.analysis.shadow.ShadowArray` the
access is recorded with the executing warp automatically.  Collectives
additionally report their *results* to the tracker — ballot masks decide
leader election, so hashing them makes the per-launch trace digest
sensitive to control-flow nondeterminism, not just memory addresses.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.context import FULL_MASK, WARP_SIZE, GpuContext


def ffs(x: int) -> int:
    """CUDA ``__ffs``: 1-based index of least-significant set bit, 0 if none."""
    if x == 0:
        return 0
    return (x & -x).bit_length()


def popc(x: int) -> int:
    """CUDA ``__popc``: number of set bits in a 32-bit integer."""
    return bin(x & FULL_MASK).count("1")


class Warp:
    """One 32-lane warp bound to a :class:`GpuContext`.

    The warp exposes ``lane_id`` (a vector 0..31) plus the warp-level
    collectives.  Lane-private data is represented as NumPy arrays of
    length 32; inactive lanes simply carry don't-care values, mirroring
    how predicated-off CUDA lanes still occupy their slots.
    """

    def __init__(self, ctx: GpuContext):
        self.ctx = ctx
        self.lane_id = np.arange(WARP_SIZE, dtype=np.int64)

    # -- cost helpers --------------------------------------------------------

    def charge(self, instructions: int = 1, transactions: int = 0) -> None:
        """Charge warp-wide work that is not a collective (loads, ALU)."""
        self.ctx.ledger.charge_instructions(instructions)
        self.ctx.ledger.charge_transactions(transactions)

    def _note_collective(self, kind: str, value: object) -> None:
        """Report a collective's result to the warp-access sanitizer."""
        shadow = self.ctx.shadow
        if shadow is not None:
            shadow.record_collective(kind, value)

    def load(self, array: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Warp-wide gather ``array[indices]`` with memory-transaction cost.

        A coalesced 32-lane access of 4-byte words costs one 128-byte
        transaction; scattered indices cost one transaction per distinct
        128-byte segment touched, which is how the hardware coalescer
        behaves.
        """
        idx = np.asarray(indices, dtype=np.int64)
        segments = np.unique(idx >> 5)
        self.charge(instructions=1, transactions=len(segments))
        return array[idx]

    def store(
        self, array: np.ndarray, indices: np.ndarray, values: object
    ) -> None:
        """Warp-wide scatter with the same coalescing cost as :meth:`load`."""
        idx = np.asarray(indices, dtype=np.int64)
        segments = np.unique(idx >> 5)
        self.charge(instructions=1, transactions=len(segments))
        array[idx] = values

    # -- warp collectives ----------------------------------------------------

    def ballot_sync(self, mask: int, predicate: np.ndarray) -> int:
        """``__ballot_sync``: pack per-lane predicates into a 32-bit mask."""
        self.charge()
        pred = np.asarray(predicate, dtype=bool)
        if pred.shape != (WARP_SIZE,):
            raise ValueError(
                f"ballot_sync expects {WARP_SIZE} lane predicates, "
                f"got shape {pred.shape}"
            )
        bits = 0
        for lane in range(WARP_SIZE):
            if (mask >> lane) & 1 and pred[lane]:
                bits |= 1 << lane
        self._note_collective("ballot", bits)
        return bits

    def any_sync(self, mask: int, predicate: np.ndarray) -> bool:
        """``__any_sync``: true iff any in-mask lane's predicate holds."""
        self.charge()
        pred = np.asarray(predicate, dtype=bool)
        result = False
        for lane in range(WARP_SIZE):
            if (mask >> lane) & 1 and pred[lane]:
                result = True
                break
        self._note_collective("any", result)
        return result

    def reduce_min_sync(self, mask: int, values: np.ndarray) -> object:
        """Warp-wide min reduction (``__reduce_min_sync`` on sm_80+).

        Charged as log2(32) = 5 butterfly steps like a shuffle reduction.
        """
        self.charge(instructions=5)
        vals = np.asarray(values)
        active = [lane for lane in range(WARP_SIZE) if (mask >> lane) & 1]
        result = vals[active].min()
        self._note_collective("reduce_min", result)
        return result
