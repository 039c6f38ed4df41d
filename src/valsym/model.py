"""Model = variables with initial domains, constraint descriptors, symmetries."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .domains import VarId, mask_of, values_of
from .errors import ModelError
from .symmetry import SymmetrySpec


class ConstraintKind(enum.Enum):
    NOT_EQUAL = "not-equal"
    ABS_DIFF = "abs-diff"
    ALL_DIFFERENT = "all-different"
    LEX_LEADER = "lex-leader"
    ORDERING_CHAIN = "ordering-chain"
    # used by the pigeonhole family
    LAZY_ALL_DIFFERENT = "lazy-all-different"
    EQUALITY_DISJUNCTION = "equality-disjunction"


@dataclass(frozen=True)
class Constraint:
    """Declarative constraint descriptor; propagators are built from these."""

    kind: ConstraintKind
    scope: tuple[VarId, ...]
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.scope)) != len(self.scope) and self.kind in (
            ConstraintKind.NOT_EQUAL,
            ConstraintKind.ALL_DIFFERENT,
            ConstraintKind.LAZY_ALL_DIFFERENT,
        ):
            raise ModelError(f"{self.kind.value} scope repeats a variable: {self.scope}")


@dataclass(frozen=True)
class Model:
    """Immutable problem description.

    domains holds one bitmask per variable (bit v set iff value v is in the
    initial domain), each non-empty and inside 0..universe_size-1.
    symmetry_scope names the variables the declared symmetries act on (in
    order). Orbit computations, lex-leader posting and dynamic filtering all
    work on the projection of assignments onto that scope; any remaining
    variables are auxiliary.
    """

    name: str
    universe_size: int
    domains: tuple[int, ...]
    constraints: tuple[Constraint, ...]
    symmetry: SymmetrySpec
    symmetry_scope: tuple[VarId, ...]
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        n = self.num_vars
        full = (1 << self.universe_size) - 1
        for i, d in enumerate(self.domains):
            if not isinstance(d, int):
                raise ModelError(f"initial domain of var {i} is not an int bitmask: {d!r}")
            if d == 0:
                raise ModelError(f"initial domain of var {i} is empty")
            if d & ~full:  # also catches negative ints, whose high bits are all set
                raise ModelError(f"initial domain of var {i} leaves the universe")
        for c in self.constraints:
            for v in c.scope:
                if not 0 <= v < n:
                    raise ModelError(f"constraint {c.kind.value} names unknown var {v}")
        for v in self.symmetry_scope:
            if not 0 <= v < n:
                raise ModelError(f"symmetry scope names unknown var {v}")
        if self.symmetry.scope_len != len(self.symmetry_scope):
            raise ModelError("symmetry scope length mismatch")
        if self.symmetry.universe_size != self.universe_size:
            raise ModelError("symmetry universe mismatch")
        # declared symmetries must map initial scope domains onto each other
        for g in self.symmetry.explicit:
            for pos, var in enumerate(self.symmetry_scope):
                image_var = self.symmetry_scope[g.theta[pos]]
                image = mask_of(g.sigma(v) for v in values_of(self.domains[var]))
                if image != self.domains[image_var]:
                    raise ModelError(
                        f"declared symmetry does not preserve domains "
                        f"(var {var} -> var {image_var})"
                    )

    @property
    def num_vars(self) -> int:
        return len(self.domains)

    def initial_domains(self) -> list[int]:
        """The solver's working domains: one bitmask per variable."""
        return list(self.domains)

    def project_scope(self, assignment: Sequence[int]) -> tuple[int, ...]:
        return tuple(assignment[v] for v in self.symmetry_scope)

    def describe(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}
