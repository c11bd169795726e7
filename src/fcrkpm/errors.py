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


class InteriorMomentError(RuntimeError):
    """An active node off the boundary band has a moment matrix that is not
    the interior one.

    Off the band every kernel footprint lies inside the domain, so every
    such node must carry the same moment matrix up to rounding; the b-rows
    are stored once for all of them.  A larger deviation means the band was
    derived wrongly or the moment stack is not a masked convolution.
    """

    def __init__(self, node_index, coordinate, deviation):
        self.node_index = tuple(node_index)
        self.coordinate = tuple(coordinate)
        self.deviation = float(deviation)
        super().__init__(
            f"moment matrix at node {self.node_index} "
            f"(x = {self.coordinate}) deviates from the interior one by "
            f"{self.deviation:.3e} relative; it lies off the boundary band, "
            "so it must match to rounding"
        )


class LineSearchError(RuntimeError):
    """Backtracking line search exhausted its halving budget."""


class IllConditionedMomentWarning(UserWarning):
    """Moment matrix condition estimate exceeded 1e12 at some node."""


class NonPositiveLumpedMassWarning(UserWarning):
    """Lumped mass is non-positive at an active node (boundary pathology)."""
