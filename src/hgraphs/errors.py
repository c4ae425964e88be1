"""Exception types shared across the package."""


class HgraphsError(Exception):
    """Base class for all errors raised by this package."""


class OracleLimitExceeded(HgraphsError):
    """A brute-force oracle was called on an instance above its size limit."""


class ExactLimitExceeded(HgraphsError):
    """Exact treewidth was requested for a graph above the subset-DP limit."""


class SearchLimitExceeded(HgraphsError):
    """A search hit its limit: the tripartition search on a component above
    its node limit, or list coloring past its DP state budget."""


class DomainMismatch(HgraphsError):
    """A representation, profile, or list set does not match the graph's vertices."""


class InvalidPartition(HgraphsError):
    """A tripartition failed re-validation against its pattern."""


class NotAnAtom(HgraphsError):
    """Arc-model peeling was applied to a subgraph with a clique cutset."""


class NotCactus(HgraphsError):
    """A cactus-only algorithm was invoked with a non-cactus pattern."""


class InvalidRepresentation(HgraphsError):
    """A representation failed verification; carries the verdict."""

    def __init__(self, verdict):
        super().__init__("representation failed verification")
        self.verdict = verdict


class InvalidDecomposition(HgraphsError):
    """A tree decomposition violated one of the three decomposition axioms."""


class ListColorOutOfRange(HgraphsError):
    """A color list is missing, empty, or uses colors outside 1..k."""


class ParseError(HgraphsError):
    """Malformed input file; carries path and 1-based line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
        self.message = message
