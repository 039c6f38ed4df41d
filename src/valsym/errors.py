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
    """A symmetry group's elements would pass their cap: raised by
    `close_group` when a closure outgrows it and, before building anything,
    by `SymmetrySpec.closed_group` for a value class or class product past
    it and by the search's mode check (`solve` and `break_group` alike) for
    static-lex on classes with too many value-map entries. Only static-lex
    and getree close a group, so `verify` raises it for no other mode."""

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
