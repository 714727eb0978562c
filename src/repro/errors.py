"""Exception types for the repro library."""


class ReproError(Exception):
    """Base class for all library errors."""


class EmbeddingError(ReproError):
    """A rotation system is inconsistent or the graph is not planar."""


class NotConnectedError(ReproError):
    """An operation required a connected (sub)graph."""


class NegativeCycleError(ReproError):
    """A negative cycle was detected in a shortest-path computation.

    The distributed algorithms report this via a global broadcast; in the
    library it surfaces as an exception carrying the detecting bag/graph.
    """

    def __init__(self, message="negative cycle detected", where=None):
        super().__init__(message)
        self.where = where


class NegativeWeightError(ReproError):
    """A query that needs nonnegative weights (the weighted girth) was
    given a negative one.  The message names the first negative edge id
    and its weight, identically on every backend and across the wire."""

    @classmethod
    def at(cls, eid, weight):
        return cls(f"edge {eid}: weight {weight!r} is negative; the "
                   f"girth needs nonnegative weights")

    @classmethod
    def check(cls, weights):
        """Raise for the first negative entry of ``weights``."""
        for eid, w in enumerate(weights):
            if w < 0:
                raise cls.at(eid, w)


class InfeasibleFlowError(ReproError):
    """A requested flow value is not feasible."""


class DecompositionError(ReproError):
    """The BDD construction violated one of its structural guarantees."""


class SimulationError(ReproError):
    """The CONGEST simulator was driven into an invalid state."""


class ServiceError(ReproError):
    """The serving layer was asked for an unknown graph or an invalid
    query (e.g. a backend it does not recognize)."""


class AuditError(ServiceError):
    """An integrity audit found a served artifact diverging from its
    from-scratch rebuild (see ``GraphCatalog.audit_labeling``).
    ``report`` carries the audit's findings when available."""

    def __init__(self, message="audit divergence", report=None):
        super().__init__(message)
        self.report = report


class ReplayDivergenceError(ServiceError):
    """A workload replay produced a response or audit checkpoint that
    differs bit-for-bit from the single-threaded reference replay (see
    ``repro.workload.replay.assert_replay_parity``).  ``record``
    carries the first diverging record's canonical payload when
    available."""

    def __init__(self, message="replay divergence", record=None):
        super().__init__(message)
        self.record = record


class ProtocolError(ReproError):
    """A ``repro.server`` wire frame was malformed: bad JSON, a
    mismatched protocol version, an unknown verb, or an unknown
    query/result kind."""


class RemoteError(ReproError):
    """A server-side failure whose exception type the client could not
    reconstruct locally; ``remote_type`` carries the remote class name.

    Failures whose type *is* known locally (every :class:`ReproError`
    subclass plus the common builtins) are re-raised as that type
    instead — see :func:`repro.server.wire.exception_from_wire`.
    """

    def __init__(self, message="remote failure", remote_type=None):
        super().__init__(message)
        self.remote_type = remote_type
