"""Exception hierarchy shared across the package.

``DomainError`` subclasses ``ValueError`` so plain validation failures and
solver-level failures can be caught with one handler (the CLI maps them to
exit code 1).
"""


class DomainError(ValueError):
    """Invalid physical input or a computation that left its valid domain."""


class SingularityError(DomainError):
    """An algebraic reduction hit a vanishing denominator."""


class DegenerateMediumError(DomainError):
    """Reference medium violates 2*mu0 + lam0 != 0 or mu0 > 0."""


class ZeroMeanStressError(DomainError):
    """Convergence metric is undefined: the mean stress is identically zero."""


class NonConvergenceError(DomainError):
    """The cell solver stopped before reaching the tolerance.

    Raised at the iteration cap, on a non-finite equilibrium index, or when
    the stiffness field turns out not to be positive definite.  Carries the
    full residual history so the cap can be retuned per contrast.
    """

    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


class PackingError(DomainError):
    """Fiber packing failed to reach the target volume fraction."""


class InstabilityError(DomainError):
    """Phase-field evolution left its physically admissible range."""


class MeshError(DomainError):
    """Macro mesh is invalid (bad connectivity or non-positive Jacobian)."""


class ConfigError(Exception):
    """Malformed run configuration (a usage error, CLI exit code 2)."""
