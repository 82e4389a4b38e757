"""Shadow-memory warp-access sanitizer for the simulated GPU.

The simulator executes warps one after another, so data races never
corrupt results *here* — but the same kernels, compiled to CUDA, would
run their warps concurrently.  A kernel that is only correct because the
simulator serializes warps is a porting bug waiting to happen, and a
silent one: it would surface on real hardware as a flaky cut size or a
drifting partition digest.

The sanitizer makes the hazard machine-checked.  It has three parts:

* :func:`shadow_wrap` view-casts a device array into a
  :class:`ShadowArray`, an ``ndarray`` subclass whose ``__getitem__`` /
  ``__setitem__`` report the touched *flat addresses* to a
  :class:`ShadowTracker` before delegating to NumPy.  Wrapping shares
  the buffer — no copy, bit-identical behavior — and arrays are only
  wrapped while a session is active, so disabled runs pay nothing.
* :class:`ShadowTracker` hangs off ``GpuContext.shadow`` (``None`` by
  default).  The launch framework (:mod:`repro.gpusim.kernel`) tells it
  when a launch opens, which warp is executing, and whether the launch
  is *ordered* (see below); the atomics module flags accesses performed
  inside an ``atomic_*`` read-modify-write.  Accesses outside a launch
  are host code and are ignored.
* At launch end the tracker classifies conflicts and appends
  :class:`RaceFinding` records, plus one :class:`LaunchTrace` (a digest
  of the full in-order access stream) used by
  :func:`compare_traces` to detect cross-run nondeterminism.

Conflict model
--------------

Within one launch, two accesses to the same address from *different*
warps conflict when at least one is a write and they are not both
atomic.  A launch declared ``ordered=True`` (e.g. ``apply-modifiers``,
whose slot ops are dependent by construction and documented to
serialize in batch order) skips the cross-warp check — its determinism
is guarded by the trace digest instead.  Within one warp, a single
scatter that writes the same address from multiple lanes is always a
conflict: the hardware would land an arbitrary lane's value.  A scalar
(single-address) write is leader-mediated by construction — the
ballot/``__ffs`` election patterns of Algorithms 1-4 funnel into
exactly one lane before storing.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

#: Findings stop being *stored* (but keep being counted) past this cap,
#: so a hopelessly racy kernel cannot exhaust memory via its report.
MAX_FINDINGS = 200


@dataclass(frozen=True)
class RaceFinding:
    """One unmediated conflicting access pair inside a launch."""

    kind: str  #: ``write-write`` | ``read-write`` | ``intra-warp-write``
    kernel: str
    launch_seq: int
    array: str
    address: int
    first_warp: int
    second_warp: int
    detail: str = ""

    def __str__(self) -> str:
        return (
            f"[{self.kind}] kernel {self.kernel!r} (launch "
            f"#{self.launch_seq}): {self.array}[{self.address}] touched "
            f"by warps {self.first_warp} and {self.second_warp}"
            + (f" — {self.detail}" if self.detail else "")
        )


@dataclass(frozen=True)
class LaunchTrace:
    """Digest of one launch's in-order access stream."""

    seq: int
    kernel: str
    ordered: bool
    n_warps: int
    n_events: int
    digest: str


@dataclass
class _LaunchState:
    seq: int
    kernel: str
    ordered: bool
    warp: int = -1
    n_warps: int = 0
    n_events: int = 0
    hasher: Any = field(
        default_factory=lambda: hashlib.blake2b(digest_size=16)
    )
    #: Per array name: parallel event lists (warp id, is_write, atomic,
    #: flat address vector).  Only analyzed for unordered launches.
    events: dict = field(default_factory=dict)


def compare_traces(
    first: "list[LaunchTrace]", second: "list[LaunchTrace]"
) -> list[str]:
    """Explain how two launch-trace streams diverge (empty = identical).

    Two runs of the same seeded workload must produce the same launches
    in the same order with the same access digests; anything else means
    some kernel's memory behavior depends on state outside the seed —
    exactly the nondeterminism the perf/chaos digests would only catch
    downstream, after it has already corrupted a result.
    """
    problems: list[str] = []
    if len(first) != len(second):
        problems.append(
            f"launch count differs: {len(first)} vs {len(second)}"
        )
    for a, b in zip(first, second):
        if a.kernel != b.kernel:
            problems.append(
                f"launch #{a.seq}: kernel {a.kernel!r} vs {b.kernel!r}"
            )
        elif a.digest != b.digest:
            problems.append(
                f"launch #{a.seq} ({a.kernel!r}): access trace diverged "
                f"({a.n_events} vs {b.n_events} events)"
            )
    return problems


class ShadowTracker:
    """Collects access events and classifies intra-launch conflicts.

    One tracker is attached per :class:`~repro.gpusim.context.GpuContext`
    (via :class:`ShadowSession`); it is cheap to create and holds only
    findings, launch digests, and the currently-open launch's events.
    """

    def __init__(self, max_findings: int = MAX_FINDINGS) -> None:
        self.max_findings = max_findings
        self.findings: list[RaceFinding] = []
        self.n_conflicts = 0
        self.launches: list[LaunchTrace] = []
        self._launch: "_LaunchState | None" = None
        self._depth = 0
        self._atomic_depth = 0
        self._index_maps: dict[str, np.ndarray] = {}

    # -- launch scoping (called by repro.gpusim.kernel) ---------------------

    def begin_launch(self, kernel: str, ordered: bool) -> None:
        """Open a launch scope.

        A launch opened while another is active has no CUDA analogue
        (kernels here never launch kernels); its accesses fold into the
        outer launch and only the matching ``end_launch`` closes it.
        """
        self._depth += 1
        if self._depth > 1:
            return
        self._launch = _LaunchState(
            seq=len(self.launches), kernel=kernel, ordered=ordered
        )

    def begin_warp(self, warp: int) -> None:
        """Attribute subsequent accesses to warp ``warp`` (0-based)."""
        st = self._launch
        if st is not None:
            st.warp = warp
            st.n_warps = max(st.n_warps, warp + 1)

    def end_launch(self) -> None:
        """Close the launch: run conflict analysis, record the digest."""
        st = self._launch
        if st is None or self._depth == 0:
            return
        self._depth -= 1
        if self._depth > 0:
            return
        self._launch = None
        if not st.ordered:
            self._analyze_conflicts(st)
        self.launches.append(
            LaunchTrace(
                seq=st.seq,
                kernel=st.kernel,
                ordered=st.ordered,
                n_warps=st.n_warps,
                n_events=st.n_events,
                digest=st.hasher.hexdigest(),
            )
        )

    # -- access scoping ------------------------------------------------------

    @contextmanager
    def atomic_scope(self) -> Iterator[None]:
        """Mark accesses in the block as one atomic read-modify-write."""
        self._atomic_depth += 1
        try:
            yield
        finally:
            self._atomic_depth -= 1

    @property
    def active(self) -> bool:
        """True when accesses would currently be recorded."""
        return self._launch is not None

    # -- event recording -----------------------------------------------------

    def record_indexed(
        self, name: str, array: np.ndarray, key: object, is_write: bool
    ) -> None:
        """Record one indexed access of ``array`` (named ``name``).

        ``key`` is whatever was passed to ``__getitem__``/``__setitem__``;
        the touched flat addresses are recovered by applying the same key
        to a cached ``arange`` map, so every indexing form NumPy accepts
        (ints, slices, fancy vectors, boolean masks, tuples) is
        supported uniformly.
        """
        st = self._launch
        if st is None:
            return
        flat = self._flat_indices(name, array, key)
        if flat is None:
            return
        atomic = self._atomic_depth > 0
        st.n_events += 1
        st.hasher.update(
            b"W" if is_write else b"R"
        )
        st.hasher.update(
            st.warp.to_bytes(4, "little", signed=True)
            + (b"A" if atomic else b"-")
            + name.encode()
            + b"\x00"
            + flat.tobytes()
        )
        if is_write and not atomic and flat.size > 1:
            self._check_scatter_duplicates(st, name, flat)
        if not st.ordered:
            st.events.setdefault(name, []).append(
                (st.warp, is_write, atomic, flat)
            )

    def record_collective(self, kind: str, value: object) -> None:
        """Fold a warp collective's result into the launch digest.

        Ballot masks and reduction results determine which lane is
        elected leader and which branch a warp takes, so two runs whose
        *memory* accesses happen to coincide but whose collectives
        differ are still nondeterministic — hashing the collective
        results makes the trace digest sensitive to that too.
        """
        st = self._launch
        if st is None:
            return
        st.n_events += 1
        st.hasher.update(
            b"C"
            + st.warp.to_bytes(4, "little", signed=True)
            + kind.encode()
            + b"\x00"
            + str(value).encode()
        )

    def _flat_indices(
        self, name: str, array: np.ndarray, key: object
    ) -> "np.ndarray | None":
        base = np.asarray(array)
        index_map = self._index_maps.get(name)
        if index_map is None or index_map.shape != base.shape:
            index_map = np.arange(base.size, dtype=np.int64).reshape(
                base.shape
            )
            self._index_maps[name] = index_map
        try:
            selected = index_map[key]
        except (IndexError, TypeError, ValueError):
            # The real access will raise (or use a form the map cannot
            # mirror); nothing sound to record.
            return None
        return np.atleast_1d(np.asarray(selected, dtype=np.int64)).ravel()

    def _check_scatter_duplicates(
        self, st: _LaunchState, name: str, flat: np.ndarray
    ) -> None:
        unique, counts = np.unique(flat, return_counts=True)
        for addr in unique[counts > 1]:
            lanes = np.flatnonzero(flat == addr)
            self._add_finding(
                RaceFinding(
                    kind="intra-warp-write",
                    kernel=st.kernel,
                    launch_seq=st.seq,
                    array=name,
                    address=int(addr),
                    first_warp=st.warp,
                    second_warp=st.warp,
                    detail=(
                        f"one scatter writes the address from lanes "
                        f"{lanes.tolist()}; the hardware would keep an "
                        "arbitrary lane's value (no leader election)"
                    ),
                )
            )

    # -- conflict analysis ---------------------------------------------------

    def _analyze_conflicts(self, st: _LaunchState) -> None:
        for name, events in st.events.items():
            writes = [e for e in events if e[1]]
            if not writes:
                continue
            written = np.unique(np.concatenate([e[3] for e in writes]))
            # (warp, is_write, atomic) participants per written address.
            per_addr: dict[int, list[tuple[int, bool, bool]]] = {}
            for warp, is_write, atomic, flat in events:
                hits = flat[np.isin(flat, written)]
                for addr in np.unique(hits):
                    per_addr.setdefault(int(addr), []).append(
                        (warp, is_write, atomic)
                    )
            for addr, accesses in sorted(per_addr.items()):
                self._classify_address(st, name, addr, accesses)

    def _classify_address(
        self,
        st: _LaunchState,
        name: str,
        addr: int,
        accesses: "list[tuple[int, bool, bool]]",
    ) -> None:
        """Report the first unmediated cross-warp conflict on ``addr``."""
        for i, (warp_a, write_a, atomic_a) in enumerate(accesses):
            for warp_b, write_b, atomic_b in accesses[i + 1 :]:
                if warp_a == warp_b:
                    continue  # same warp: warp-synchronous, ordered
                if not (write_a or write_b):
                    continue  # read-read never conflicts
                if atomic_a and atomic_b:
                    continue  # atomics serialize against each other
                kind = (
                    "write-write"
                    if write_a and write_b
                    else "read-write"
                )
                mediation = (
                    "one side is atomic, the other is a plain access"
                    if atomic_a or atomic_b
                    else "neither access is atomic"
                )
                self._add_finding(
                    RaceFinding(
                        kind=kind,
                        kernel=st.kernel,
                        launch_seq=st.seq,
                        array=name,
                        address=addr,
                        first_warp=warp_a,
                        second_warp=warp_b,
                        detail=(
                            f"{mediation}; launch is declared "
                            "order-independent"
                        ),
                    )
                )
                return

    def _add_finding(self, finding: RaceFinding) -> None:
        self.n_conflicts += 1
        if len(self.findings) < self.max_findings:
            self.findings.append(finding)


# ---------------------------------------------------------------------------
# The instrumented array type.
# ---------------------------------------------------------------------------


class ShadowArray(np.ndarray):
    """``ndarray`` view that reports indexed accesses to a tracker.

    Only the *named* wrapper object records: views and ufunc results
    derived from it come out of ``__array_finalize__`` with no tracker
    attached, so downstream temporaries behave like plain arrays.  The
    buffer is shared with the wrapped array — wrapping never copies.
    """

    _shadow_name: "str | None"
    _shadow_tracker: "ShadowTracker | None"

    def __array_finalize__(self, obj: object) -> None:
        self._shadow_name = None
        self._shadow_tracker = None

    def __getitem__(self, key: object) -> Any:
        tracker = self._shadow_tracker
        if tracker is not None and tracker.active:
            tracker.record_indexed(
                self._shadow_name or "?", self, key, is_write=False
            )
        return super().__getitem__(key)

    def __setitem__(self, key: object, value: object) -> None:
        tracker = self._shadow_tracker
        if tracker is not None and tracker.active:
            tracker.record_indexed(
                self._shadow_name or "?", self, key, is_write=True
            )
        super().__setitem__(key, value)

    def __reduce__(self) -> Any:
        # Pickle (np.savez of an instrumented graph) as a plain array:
        # the tracker is session state, never part of the data.
        return np.asarray(self).__reduce__()


def shadow_wrap(
    array: np.ndarray, name: str, tracker: ShadowTracker
) -> ShadowArray:
    """Return a tracked view of ``array`` registered under ``name``."""
    view = np.asarray(array).view(ShadowArray)
    view._shadow_name = name
    view._shadow_tracker = tracker
    return view


# ---------------------------------------------------------------------------
# Session: attach/detach instrumentation around a workload.
# ---------------------------------------------------------------------------


#: Device arrays of a :class:`~repro.graph.bucketlist.BucketListGraph`
#: that the incremental kernels (Algorithms 1-4) read and write.
GRAPH_ARRAYS = ("bucket_list", "slot_wgt", "vertex_status", "vwgt")

#: Device arrays of a :class:`~repro.partition.state.PartitionState`
#: the refinement/balancing kernels consult.
STATE_ARRAYS = ("partition", "part_weights")


class ShadowSession:
    """Scoped shadow-memory mode on one :class:`GpuContext`.

    Entering the session sets ``ctx.shadow`` (observed by the launch
    framework and the atomics) and swaps the registered arrays for
    tracked views; exiting restores both, so instrumentation can never
    leak into a production run.  Attach targets after entering::

        tracker = ShadowTracker()
        with ShadowSession(ig.ctx, tracker) as session:
            session.attach_graph(ig.graph)
            session.attach_state(ig.state)
            for batch in trace:
                ig.apply(batch)
        assert not tracker.findings

    Arrays an object *reassigns* during the session (e.g. a bucket pool
    grown past its capacity) silently drop their instrumentation; the
    sweep sizes its workloads so pools are stable, and the trace digest
    still covers every access made before the reassignment.
    """

    def __init__(
        self, ctx: Any, tracker: "ShadowTracker | None" = None
    ) -> None:
        self.ctx = ctx
        self.tracker = tracker if tracker is not None else ShadowTracker()
        self._restore: list[tuple[Any, str, np.ndarray]] = []
        self._entered = False

    def attach(self, obj: Any, attrs: "tuple[str, ...]", prefix: str) -> None:
        """Swap ``obj.<attr>`` for tracked views named ``prefix.<attr>``."""
        if not self._entered:
            raise RuntimeError("attach targets after entering the session")
        for attr in attrs:
            array = getattr(obj, attr)
            self._restore.append((obj, attr, array))
            setattr(
                obj, attr, shadow_wrap(array, f"{prefix}.{attr}", self.tracker)
            )

    def attach_graph(self, graph: Any, prefix: str = "graph") -> None:
        self.attach(graph, GRAPH_ARRAYS, prefix)

    def attach_state(self, state: Any, prefix: str = "state") -> None:
        self.attach(state, STATE_ARRAYS, prefix)

    def __enter__(self) -> "ShadowSession":
        if getattr(self.ctx, "shadow", None) is not None:
            raise RuntimeError("context already has an active shadow session")
        self.ctx.shadow = self.tracker
        self._entered = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        for obj, attr, array in reversed(self._restore):
            setattr(obj, attr, array)
        self._restore.clear()
        self.ctx.shadow = None
        self._entered = False
