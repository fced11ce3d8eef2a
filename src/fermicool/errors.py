"""Exception types shared across the package."""


class FermicoolError(Exception):
    """Base class for all fermicool errors."""


class DimensionMismatchError(FermicoolError):
    """Operands have incompatible dimensions."""


class NotPositiveDefiniteError(FermicoolError):
    """A matrix that must be positive definite has a non-positive eigenvalue."""

    def __init__(self, eigenvalue):
        self.eigenvalue = float(eigenvalue)
        super().__init__(
            f"matrix is not positive definite: smallest eigenvalue is {self.eigenvalue:.6g}"
        )


class OverlapTraceError(FermicoolError):
    """An overlap's trace Tr[S], the full filling of its basis, passes the largest float."""

    def __init__(self, largest_diagonal):
        self.largest_diagonal = float(largest_diagonal)
        super().__init__(
            f"the overlap's trace Tr[S] passes the largest float (its largest "
            f"diagonal entry is {self.largest_diagonal:.6g}): full filling and "
            f"the trace of a state are not defined"
        )


class MatrixParseError(FermicoolError):
    """A dense matrix text file failed to parse."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = int(line)
        super().__init__(f"{self.path}:{self.line}: {message}")


class InfeasibleEnsembleError(FermicoolError):
    """The requested electron count cannot be realized by the system."""


class BracketError(FermicoolError):
    """A root-finding bracket does not straddle the target value."""


class MuConvergenceError(FermicoolError):
    """Chemical potential search did not reach the requested tolerance."""

    def __init__(self, residual, iterations):
        self.residual = float(residual)
        self.iterations = int(iterations)
        super().__init__(
            f"mu search stopped after {self.iterations} iterations with "
            f"occupation residual {self.residual:.3e}"
        )


class DegenerateTraceError(FermicoolError):
    """The canonical trace constraint is degenerate (state fully occupied or empty)."""


class ScfConvergenceError(FermicoolError):
    """Self-consistent field iteration failed to converge."""

    def __init__(self, residual, iterations, message=None):
        self.residual = float(residual)
        self.iterations = int(iterations)
        super().__init__(
            message
            or f"SCF did not converge in {self.iterations} iterations, "
            f"last residual {self.residual:.3e}"
        )


class SolverAbortError(FermicoolError):
    """Integration produced non-finite values and was aborted."""

    def __init__(self, last_good_beta):
        self.last_good_beta = float(last_good_beta)
        super().__init__(
            f"non-finite values in the density matrix; last good beta is "
            f"{self.last_good_beta:.6g}"
        )
