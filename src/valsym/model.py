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
    # used by the pigeonhole family
    LAZY_ALL_DIFFERENT = "lazy-all-different"
    EQUALITY_DISJUNCTION = "equality-disjunction"


# bound once: Python 3.11 looks enum members up slowly, per Constraint built
_NOT_EQUAL = ConstraintKind.NOT_EQUAL
_ABS_DIFF = ConstraintKind.ABS_DIFF
_DISJUNCTION = ConstraintKind.EQUALITY_DISJUNCTION


@dataclass(frozen=True)
class Constraint:
    """Declarative constraint descriptor; propagators are built from these."""

    kind: ConstraintKind
    scope: tuple[VarId, ...]
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        kind = self.kind
        arity = 2 if kind is _NOT_EQUAL else 3 if kind is _ABS_DIFF else None
        if arity is not None and len(self.scope) != arity:
            raise ModelError(f"{kind.value} takes {arity} variables, got scope {self.scope}")
        if len(set(self.scope)) != len(self.scope) and kind in (
            ConstraintKind.NOT_EQUAL,
            ConstraintKind.ABS_DIFF,
            ConstraintKind.ALL_DIFFERENT,
            ConstraintKind.LAZY_ALL_DIFFERENT,
        ):
            raise ModelError(f"{kind.value} scope repeats a variable: {self.scope}")
        if kind is _DISJUNCTION:
            pairs = self.params.get("pairs")  # () is legal: the disjunction is then false
            if not isinstance(pairs, (tuple, list)) or not all(
                isinstance(p, (tuple, list)) and len(p) == 2 and p[0] != p[1]
                and p[0] in self.scope and p[1] in self.scope for p in pairs
            ):
                raise ModelError(f"equality-disjunction pairs must be distinct scope vars: {pairs}")


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
        if len(set(self.symmetry_scope)) != len(self.symmetry_scope):
            raise ModelError(f"symmetry scope repeats a variable: {self.symmetry_scope}")
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
        # a class's permutations preserve a domain iff it holds all or none of the class
        for cls in self.symmetry.interchangeable_classes:
            cls_mask = mask_of(cls)
            for var in self.symmetry_scope:
                if (self.domains[var] & cls_mask) not in (0, cls_mask):
                    raise ModelError(
                        f"initial domain of var {var} holds part of interchangeable "
                        f"class {cls}, not all of it"
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
