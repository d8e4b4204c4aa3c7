"""Exception hierarchy shared across the package."""


class GbfPumError(Exception):
    """Base class for all package errors."""


class GraphError(GbfPumError):
    """Errors raised by graph construction or queries."""


class ParseError(GraphError):
    def __init__(self, line_no: int, line: str):
        self.line_no = line_no
        self.line = line
        super().__init__(f"malformed edge-list line {line_no}: {line!r}")


class SelfLoopError(GraphError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"self-loop at vertex {vertex}")


class DisconnectedError(GraphError):
    def __init__(self):
        super().__init__("graph is not connected")


class OutOfRangeError(GraphError):
    def __init__(self, vertex: int, n: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} out of range for graph of order {n}")


class EmptySetError(GbfPumError):
    def __init__(self, what: str = "vertex set"):
        super().__init__(f"empty {what}")


class NumericalError(GbfPumError):
    """Errors raised by the linear algebra layer."""


class NotSymmetricError(NumericalError):
    def __init__(self, max_asym: float):
        self.max_asym = max_asym
        super().__init__(f"matrix is not symmetric (max |M - M^T| = {max_asym:g})")


class NonFiniteMatrixError(NumericalError):
    def __init__(self):
        super().__init__("matrix is non-finite (holds NaN or inf)")


class NotPositiveDefiniteError(NumericalError):
    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix is not positive definite (pivot {pivot})")


class SparseSolverError(NumericalError):
    def __init__(self, solver: str, reason: str):
        self.solver = solver
        self.reason = reason
        super().__init__(f"{solver} failed: {reason}")


class NonPositiveShiftError(NumericalError):
    def __init__(self, shift: float, tol: float):
        self.shift = shift
        self.tol = tol
        super().__init__(
            f"epsilon + lambda_min = {shift:g} is not above the bound {tol:g}; "
            "kernel undefined or numerically singular"
        )


class SampleFreePieceError(NumericalError):
    def __init__(self, community_id: int, piece_size: int):
        self.community_id = community_id
        self.piece_size = piece_size
        super().__init__(
            f"community {community_id} has a connected piece of {piece_size} "
            "vertices with no interpolation node; the interpolant there is undefined"
        )


class NonFiniteResidualError(NumericalError):
    def __init__(self, community_id: int):
        self.community_id = community_id
        super().__init__(
            f"community {community_id}: the residual or right-hand-side norm of its solve "
            "is not finite; the kernel's entries (about epsilon^s) overflow"
        )


class ZeroSignalError(GbfPumError):
    def __init__(self):
        super().__init__("reference signal has zero norm; relative error undefined")


class UncoveredVertexError(GbfPumError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} lies in no subdomain")
