"""Exception and warning types shared across the package."""


class ImaginaryResidueError(RuntimeError):
    """An inverse transform produced a significant imaginary part.

    All fields handled by the solver are real, so every spectrum fed to the
    inverse transform must be (numerically) Hermitian.  A large imaginary
    residue signals a corrupted spectrum upstream, not a rounding issue.
    """


class SingularMomentError(RuntimeError):
    """A node inside the physical domain has a singular moment matrix.

    Raised when the LDL^T factorization of the node's moment matrix meets a
    pivot |D_k| below 1e-14 max|M|, i.e. the node has fewer effective
    neighbors than the basis size requires.
    """

    def __init__(self, node_index, coordinate, pivot):
        self.node_index = tuple(node_index)
        self.coordinate = tuple(coordinate)
        self.pivot = float(pivot)
        super().__init__(
            f"singular moment matrix at node {self.node_index} "
            f"(x = {self.coordinate}): pivot {self.pivot:.3e} below threshold; "
            "the node has too few neighbors for the requested basis degree"
        )


class LineSearchError(RuntimeError):
    """Backtracking line search exhausted its halving budget."""


class IllConditionedMomentWarning(UserWarning):
    """Moment matrix condition estimate exceeded 1e12 at some node."""


class NonPositiveLumpedMassWarning(UserWarning):
    """Lumped mass is non-positive at an active node (boundary pathology)."""
