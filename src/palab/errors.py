"""Exception taxonomy shared by all palab modules."""


class PalabError(Exception):
    """Base of the documented failures: bad inputs, budgets, tolerances."""


class ParameterError(PalabError, ValueError):
    """An argument is outside the documented domain (negative rate, bad shape, ...)."""


class ContractError(PalabError, ValueError):
    """Inputs are individually valid but mutually inconsistent (marginal mismatch,
    non-Lipschitz table declared Lipschitz, ...)."""


class CapacityError(PalabError, RuntimeError):
    """A requested computation would exceed the configured memory budget."""


class BudgetError(PalabError, RuntimeError):
    """A sampler or rejection loop exceeded its iteration budget."""


class QuadratureError(PalabError, RuntimeError):
    """A quadrature failed to reach the requested tolerance."""
