"""Exception types shared across the package."""


class InvalidInput(ValueError):
    """Arguments violate a documented precondition."""


class DegenerateInput(ValueError):
    """Structurally valid input with no defined result (e.g. a zero vector)."""


class ConvergenceFailure(RuntimeError):
    """Iterative routine did not converge; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual


class Infeasible(ValueError):
    """Calibration target cannot be reached anywhere in the search bracket."""


class SchemaError(ValueError):
    """File contents do not match the expected schema."""
