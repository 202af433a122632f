"""Exception types shared across the package."""


class GasketError(Exception):
    pass


class AddressError(GasketError, ValueError):
    """Digit out of range, or a vertex that is not in V_* of the gasket."""


class CapabilityError(GasketError, NotImplementedError):
    """Operation not available for the requested gasket level."""


class ContractViolation(GasketError, ValueError):
    """A precondition (harmonicity, convergence, totality) does not hold."""


class SolvabilityError(GasketError, ValueError):
    """Singular Dirichlet system (interior component not touching the boundary)."""


class ResolutionError(GasketError, ValueError):
    """Domain descriptor and requested level/vertex cannot be reconciled."""


class AccuracyError(GasketError, ArithmeticError):
    """Requested certified accuracy is unreachable within the iteration budget."""
