"""Exception types shared across the package."""


class InvalidInput(ValueError):
    """Arguments violate a documented precondition."""


class DegenerateInput(ValueError):
    """Structurally valid input with no defined result (e.g. a zero vector)."""


class Infeasible(ValueError):
    """Calibration target cannot be reached anywhere in the search bracket."""


class SchemaError(ValueError):
    """File contents do not match the expected schema."""
