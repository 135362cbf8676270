"""Exception types raised across the library."""


class VertexCutsError(Exception):
    """Base class for all library errors."""


class OutOfRange(VertexCutsError):
    """A vertex id is outside [0, n)."""


class DisconnectedInput(VertexCutsError):
    """The operation requires a connected input graph."""


class SizeCapExceeded(VertexCutsError):
    """An exhaustive enumeration would exceed the configured budget."""


class TooManyFailures(VertexCutsError):
    """A query set is larger than the structure's failure parameter f."""


class QueriedFailedVertex(VertexCutsError):
    """A connectivity query named a vertex in the current failure set."""


class BudgetExceeded(VertexCutsError):
    """A build would exceed its configured budget (a US detector's |U| past
    its 2f+2 cap, which bounds its rows, one per W ⊆ U with |W| <= f)."""


class QueryOutsideSU(VertexCutsError):
    """A US-detector query set is not contained in S ∪ U."""


class InvalidCut(VertexCutsError):
    """A claimed vertex cut partition has an L-R edge or is malformed."""


class ContractUnsatisfiable(VertexCutsError):
    """The sparse-cut finder (or tree builder) could not honor its contract."""


class NotFConnected(VertexCutsError):
    """f-connected mode was requested but the graph is not f-connected."""


class WrongQuerySize(VertexCutsError):
    """The f-connected detector only accepts queries of size exactly f."""


class FTooLarge(VertexCutsError):
    """The labeling scheme requires f < n/2."""


class MissingExplicitLabel(VertexCutsError):
    """A required explicit label L(K) is absent (construction bug surfaced)."""


class InvalidParams(VertexCutsError):
    """Generator parameters are out of their documented range."""


class CertificationFailed(VertexCutsError):
    """A generated graph failed its advertised certification."""
