"""Exception hierarchy for the Sweet KNN reproduction.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class OutOfDeviceMemory(ReproError):
    """Raised when a simulated device allocation exceeds global memory.

    The CUBLAS-style baseline catches this to trigger query-set
    partitioning, mirroring the behaviour described in Section V-A of
    the paper.
    """

    def __init__(self, requested, available, capacity):
        self.requested = int(requested)
        self.available = int(available)
        self.capacity = int(capacity)
        super().__init__(
            "device allocation of %d bytes exceeds the %d bytes available "
            "(capacity %d)" % (self.requested, self.available, self.capacity)
        )


class LaunchConfigError(ReproError):
    """Raised for an invalid simulated kernel launch configuration."""


class DatasetError(ReproError):
    """Raised when a dataset name or specification is invalid."""


class ValidationError(ReproError):
    """Raised when user-facing API inputs fail validation."""


class ServeError(ReproError):
    """Base class for errors raised by the :mod:`repro.serve` layer."""


class Overloaded(ServeError):
    """Raised when admission control rejects a request.

    The serving queue is bounded (:class:`repro.serve.ServeConfig.
    max_queue_depth`); once it is full, new requests are rejected
    immediately instead of growing an unbounded backlog.  Callers are
    expected to back off and retry.
    """

    def __init__(self, depth, limit):
        self.depth = int(depth)
        self.limit = int(limit)
        super().__init__(
            "server overloaded: queue depth %d at its limit %d"
            % (self.depth, self.limit))


class DeadlineExceeded(ServeError):
    """Raised when a request's deadline expired before execution.

    The micro-batch scheduler drops expired requests at flush time so
    no device work is spent on answers nobody is waiting for.
    """

    def __init__(self, waited_s, deadline_s):
        self.waited_s = float(waited_s)
        self.deadline_s = float(deadline_s)
        super().__init__(
            "request deadline of %.3f s exceeded after waiting %.3f s"
            % (self.deadline_s, self.waited_s))
