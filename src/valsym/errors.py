"""Exceptions shared across the solver."""


class ModelError(ValueError):
    """A model is malformed: bad scope, bad domain, undeclared variable."""


class DimacsParseError(ValueError):
    """DIMACS graph text could not be parsed; message names the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnsupportedModeError(ValueError):
    """The requested symmetry mode cannot run on this model's symmetries."""


class GroupTooLarge(RuntimeError):
    """A list of symmetry group elements would pass its size limit; raised
    only by `symmetry.require_enumerable`, with `size` and `cap` counting
    elements past GROUP_CAP or value-map entries past VALUE_MAP_CAP.
    Static-lex and getree build such lists, so `verify` raises it for them,
    and for `none` only when its generators alone pass the limit."""

    def __init__(self, size: int, cap: int, message: str | None = None):
        super().__init__(message or f"group closure exceeded cap ({size} > {cap})")
        self.size = size
        self.cap = cap


class BudgetExceeded(RuntimeError):
    """A search passed its node budget.

    It carries the search's partial stats, its mode and the solutions it
    found before the budget ran out; a comparison adds, in `completed`, the
    results of the modes that finished before it.
    """

    def __init__(self, budget: int, stats, mode: str, solutions=()):
        super().__init__(f"enumeration budget exceeded ({budget})")
        self.budget = budget
        self.stats = stats
        self.mode = mode
        self.solutions = list(solutions)
        self.completed = []
