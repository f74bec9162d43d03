"""Exception types shared across the package."""


class InternalInvariantError(RuntimeError):
    """An invariant that only an implementation bug can break was violated.

    Examples: a fraction-free elimination step left a nonzero remainder, or
    the cofactors of construction rows 2..n do not begin with F_k.  This is
    never caused by bad user input; the CLI maps it to exit status 3.
    """


class TargetOutOfRangeError(ValueError):
    """Requested determinant lies outside the certified constructive range."""

    def __init__(self, n: int, k: int, target: int, bound: int):
        self.n = n
        self.k = k
        self.target = target
        self.bound = bound
        super().__init__(
            f"target {target} is out of range for n={n}, k={k}: "
            f"|target| must be at most {bound}"
        )


class DependentRowsError(ValueError):
    """The supplied rows are linearly dependent, so no unique cofactor line exists."""


class EnumerationCapError(ValueError):
    """Requested enumeration exceeds the configured work cap."""
