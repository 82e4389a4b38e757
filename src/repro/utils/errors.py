"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  The subclasses mirror the main failure domains: graph
consistency, bucket-list capacity, modifier application, and partitioning.
"""


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class GraphConsistencyError(ReproError):
    """An invariant of a graph data structure was violated.

    Raised by the validation routines in :mod:`repro.graph` when, for
    example, an adjacency is not symmetric or an edge references a deleted
    vertex.
    """


class CapacityError(ReproError):
    """A pre-allocated capacity (vertex IDs or bucket pool) was exhausted.

    The bucket-list structure pre-allocates memory exactly like the CUDA
    implementation does; running out mirrors a device-side allocation
    failure and is reported eagerly instead of silently reallocating.
    """


class ModifierError(ReproError):
    """A graph modifier could not be applied (e.g. deleting a missing edge).

    ``modifier_index``, when not None, is the failing modifier's
    position in the (coalesced) batch — the structured counterpart of
    the index named in the message, which lets the stream layer isolate
    a poison modifier without bisecting.
    """

    def __init__(
        self, message: str, modifier_index: "int | None" = None
    ) -> None:
        super().__init__(message)
        self.modifier_index = modifier_index


class PartitionError(ReproError):
    """A partitioning operation failed or produced an invalid state."""


class TransactionError(ReproError):
    """A transactional rollback failed to restore the pre-batch state.

    Raised only when digest verification is enabled and the post-rollback
    sha256 state digest differs from the pre-batch one — i.e. the undo
    log missed a write site.  This is a bug in the library, never in the
    caller's input.
    """


class StreamError(ReproError):
    """A streaming-service operation failed (:mod:`repro.stream`)."""


class BackpressureError(StreamError):
    """The bounded ingest queue is full and the session's policy is
    ``"reject"``.

    Producers are expected to retry after the scheduler has flushed;
    under the ``"block"`` policy the session flushes on their behalf and
    this error is never raised.
    """


class JournalError(StreamError):
    """The recovery journal is missing, corrupt, or inconsistent with
    its checkpoint (e.g. a flush record references unlogged modifiers).
    """


class ServeError(ReproError):
    """The partition server rejected a request (:mod:`repro.serve`).

    ``code`` is the wire protocol's typed error code (one of
    :data:`repro.serve.protocol.ERROR_CODES`) and ``retryable`` mirrors
    the response's retry hint: quota and load-shed rejections clear on
    their own, so clients should back off and resubmit; the rest are
    caller bugs.
    """

    def __init__(
        self, message: str, code: str = "internal",
        retryable: bool = False,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retryable = retryable


class ServeTimeout(ServeError):
    """A client-side per-request deadline elapsed before the response.

    Never sent by the server: the :class:`~repro.serve.client.
    ServeClient` raises it when a request's socket deadline passes.  The
    request's fate is *ambiguous* — the server may or may not have
    executed it — so retry loops must re-synchronize (``attach`` reports
    the session's ``next_seq``) before resubmitting.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message, code="timeout", retryable=True)


class WorkerFault(ServeError):
    """A device worker died while (or before) executing a request.

    Fail-stop model: the worker's in-memory session state is treated as
    lost; the supervisor restores its sessions on surviving workers from
    their journals.  The rejected request is retryable — after failover
    the same session answers from a surviving worker.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message, code="worker-failed", retryable=True)
