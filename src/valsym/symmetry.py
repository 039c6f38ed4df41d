"""Value and variable/value symmetries, group closure, orbits, exact pruning.

A symmetry acts on assignments to an ordered tuple of scope variables. The
element (theta, sigma) maps assignment A to A' with A'(theta(i)) = sigma(A(i)):
variable position i's value is pushed through sigma and lands at position
theta(i). Pure value symmetries have theta = identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .domains import values_of
from .errors import BudgetExceeded, GroupTooLarge, ModelError

GROUP_CAP = 10_080
MAX_FULL_SYMMETRIC = 8


@dataclass(frozen=True)
class ValuePermutation:
    """Bijection on the value universe, stored as an image tuple."""

    image: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.image) != list(range(len(self.image))):
            raise ModelError(f"not a permutation image: {self.image}")

    @classmethod
    def identity(cls, size: int) -> "ValuePermutation":
        return cls(tuple(range(size)))

    @classmethod
    def from_cycle(cls, size: int, cycle: Sequence[int]) -> "ValuePermutation":
        img = list(range(size))
        for a, b in zip(cycle, cycle[1:] + type(cycle)([cycle[0]])):
            img[a] = b
        return cls(tuple(img))

    def __call__(self, value: int) -> int:
        return self.image[value]

    @property
    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.image))

    def inverse(self) -> "ValuePermutation":
        inv = [0] * len(self.image)
        for i, v in enumerate(self.image):
            inv[v] = i
        return ValuePermutation(tuple(inv))

    def after(self, first: "ValuePermutation") -> "ValuePermutation":
        """Composite mapping v -> self(first(v))."""
        return ValuePermutation(tuple(self.image[v] for v in first.image))


def inversion_permutation(size: int) -> ValuePermutation:
    """v -> (size-1) - v, the order-reversing value map."""
    return ValuePermutation(tuple(size - 1 - v for v in range(size)))


@dataclass(frozen=True)
class VarValueSymmetry:
    """Combined variable/value symmetry over a scope of a fixed length.

    theta permutes scope positions, sigma permutes values. Pure variable
    symmetries have identity sigma, pure value symmetries identity theta.
    """

    theta: tuple[int, ...]
    sigma: ValuePermutation

    def __post_init__(self):
        if sorted(self.theta) != list(range(len(self.theta))):
            raise ModelError(f"not a position permutation: {self.theta}")

    @classmethod
    def identity(cls, scope_len: int, universe_size: int) -> "VarValueSymmetry":
        return cls(tuple(range(scope_len)), ValuePermutation.identity(universe_size))

    @classmethod
    def value_only(cls, scope_len: int, sigma: ValuePermutation) -> "VarValueSymmetry":
        return cls(tuple(range(scope_len)), sigma)

    @classmethod
    def variable_only(cls, theta: Sequence[int], universe_size: int) -> "VarValueSymmetry":
        return cls(tuple(theta), ValuePermutation.identity(universe_size))

    @property
    def is_identity(self) -> bool:
        return self.theta_is_identity and self.sigma.is_identity

    @property
    def theta_is_identity(self) -> bool:
        return all(i == p for i, p in enumerate(self.theta))

    def theta_inverse(self) -> tuple[int, ...]:
        inv = [0] * len(self.theta)
        for i, p in enumerate(self.theta):
            inv[p] = i
        return tuple(inv)

    def apply(self, assignment: Sequence[int]) -> tuple[int, ...]:
        out = [0] * len(assignment)
        for i, v in enumerate(assignment):
            out[self.theta[i]] = self.sigma(v)
        return tuple(out)

    def compose(self, then: "VarValueSymmetry") -> "VarValueSymmetry":
        """Element acting as self first, `then` second."""
        theta = tuple(then.theta[p] for p in self.theta)
        return VarValueSymmetry(theta, then.sigma.after(self.sigma))

    def inverse(self) -> "VarValueSymmetry":
        return VarValueSymmetry(self.theta_inverse(), self.sigma.inverse())


def close_group(generators: Iterable[VarValueSymmetry], cap: int = GROUP_CAP) -> list[VarValueSymmetry]:
    """BFS closure of the generators under composition, identity included.

    Raises GroupTooLarge as soon as the closure would exceed `cap`.
    """
    gens = [g for g in generators]
    if not gens:
        return []
    ident = VarValueSymmetry.identity(len(gens[0].theta), len(gens[0].sigma.image))
    seen = {ident}
    frontier = [ident]
    for g in gens:
        if g not in seen:
            seen.add(g)
            frontier.append(g)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = a.compose(g)
                if c not in seen:
                    if len(seen) + 1 > cap:
                        raise GroupTooLarge(len(seen) + 1, cap)
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    # deterministic order: identity first, then sorted by (theta, sigma image)
    out = sorted(seen, key=lambda s: (s.theta, s.sigma.image))
    out.remove(ident)
    return [ident] + out


def full_symmetric_group(values: Sequence[int], scope_len: int, universe_size: int) -> list[VarValueSymmetry]:
    """All |values|! pure value symmetries permuting `values` among themselves.

    Guarded at MAX_FULL_SYMMETRIC values; factorial growth beyond that is a
    caller bug, not a workload.
    """
    vals = list(values)
    if len(vals) > MAX_FULL_SYMMETRIC:
        raise GroupTooLarge(
            len(vals), MAX_FULL_SYMMETRIC,
            f"static-lex enumerates a value class's permutations only up to "
            f"{MAX_FULL_SYMMETRIC} values, got a class of {len(vals)}",
        )
    if len(set(vals)) != len(vals):
        raise ModelError("interchangeable values must be distinct")
    out = []
    for perm in itertools.permutations(vals):
        img = list(range(universe_size))
        for src, dst in zip(vals, perm):
            img[src] = dst
        out.append(VarValueSymmetry.value_only(scope_len, ValuePermutation(tuple(img))))
    return out


def product_group(groups: Sequence[list[VarValueSymmetry]], cap: int = GROUP_CAP) -> list[VarValueSymmetry]:
    """Direct product of groups with disjoint supports (e.g. one per value class)."""
    if not groups:
        return []
    total = 1
    for g in groups:
        total *= len(g)
        if total > cap:
            raise GroupTooLarge(total, cap)
    out = groups[0]
    for g in groups[1:]:
        out = [a.compose(b) for a in out for b in g]
    return out


@dataclass(frozen=True)
class ClassProduct:
    """Direct product of the full symmetric groups on disjoint value classes,
    kept as its classes rather than as |class|! enumerated elements.

    Its lex-least image of an assignment is the first-occurrence relabelling:
    reading left to right, the k-th distinct value met from a class becomes
    that class's k-th smallest value, and values outside every class stay
    fixed. Each step takes the least value not yet used as an image, which is
    the greedy choice that minimises the image position by position.
    """

    classes: tuple[tuple[int, ...], ...]
    scope_len: int
    universe_size: int
    _ascending: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _class_of: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        class_of: dict[int, int] = {}
        for idx, cls in enumerate(self.classes):
            for v in cls:
                if v in class_of:
                    raise ModelError(f"value {v} in two interchangeable classes")
                if not 0 <= v < self.universe_size:
                    raise ModelError(f"class value {v} outside universe")
                class_of[v] = idx
        object.__setattr__(self, "_ascending", tuple(tuple(sorted(cls)) for cls in self.classes))
        object.__setattr__(self, "_class_of", class_of)

    def canonical(self, assignment: Sequence[int]) -> tuple[int, ...]:
        """Lex-least image of the assignment, in one pass over it."""
        class_of = self._class_of
        fresh = [iter(cls) for cls in self._ascending]
        relabel: dict[int, int] = {}
        for v in assignment:
            if v not in relabel:
                idx = class_of.get(v)
                relabel[v] = v if idx is None else next(fresh[idx])
        return tuple([relabel[v] for v in assignment])


@dataclass(frozen=True)
class SymmetrySpec:
    """Declared symmetries of a model.

    explicit: generator elements (closure taken on demand).
    interchangeable_classes: value classes whose members may be permuted
    freely; each class is an ordered tuple, the order being the one precedence
    constraints enforce on first occurrences.
    """

    scope_len: int
    universe_size: int
    explicit: tuple[VarValueSymmetry, ...] = ()
    interchangeable_classes: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        self.class_product()  # checks the classes
        for g in self.explicit:
            if len(g.theta) != self.scope_len or len(g.sigma.image) != self.universe_size:
                raise ModelError("symmetry shape does not match scope/universe")

    @property
    def is_trivial(self) -> bool:
        return not self.explicit and not self.interchangeable_classes

    def class_groups(self) -> list[list[VarValueSymmetry]]:
        return [
            full_symmetric_group(cls, self.scope_len, self.universe_size)
            for cls in self.interchangeable_classes
        ]

    def class_product(self) -> ClassProduct:
        """The interchangeable classes' group in structural form."""
        return ClassProduct(self.interchangeable_classes, self.scope_len, self.universe_size)

    def closed_group(self, cap: int = GROUP_CAP) -> list[VarValueSymmetry]:
        """Full group the spec denotes: closure of explicit generators combined
        with the symmetric group of every interchangeable class."""
        parts: list[list[VarValueSymmetry]] = []
        if self.interchangeable_classes:
            parts.append(product_group(self.class_groups(), cap))
        if self.explicit:
            parts.append(close_group(self.explicit, cap))
        if not parts:
            return []
        if len(parts) == 1:
            return parts[0]
        return close_group([g for part in parts for g in part], cap)


Group = Sequence[VarValueSymmetry] | ClassProduct


def orbit_partition(
    assignments: Iterable[Sequence[int]], group: Group
) -> list[list[tuple[int, ...]]]:
    """Partition assignments into orbits under the group.

    Two assignments share an orbit iff some group element maps one to the
    other; membership is computed by canonical (lex-least image) forms, so the
    input need not be closed under the group. Orbits are returned sorted, each
    orbit internally sorted, so the first element of each orbit is its
    canonical representative among the *inputs*.
    """
    # a ClassProduct holds no element list, so it never goes through
    # canonical_form, which bench/tracer.py sizes with len(group) per call
    if isinstance(group, ClassProduct):
        canon = group.canonical
    else:
        def canon(t):
            return canonical_form(t, group)
    buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for a in assignments:
        t = tuple(a)
        buckets.setdefault(canon(t), []).append(t)
    return [sorted(orbit) for _, orbit in sorted(buckets.items())]


def canonical_form(assignment: Sequence[int], group: Group) -> tuple[int, ...]:
    """Lex-least image of the assignment over all group elements."""
    t = tuple(assignment)
    if isinstance(group, ClassProduct):
        return group.canonical(t)
    if not group:
        return t
    return min(g.apply(t) for g in group)


def exact_valsym_prune(
    domains: Sequence[int],
    symmetries: Sequence[VarValueSymmetry],
    budget: int = 1_000_000,
) -> list[int] | None:
    """Ground-truth filter for the conjunction of all lex-leader comparisons.

    Enumerates every full assignment from the domain masks (no other
    constraints) and keeps a value iff it appears in some assignment A with
    A <=lex g(A) for every listed symmetry. Returns the surviving masks, or
    None when nothing survives (failure). Raises BudgetExceeded if the product
    of domain sizes passes `budget`.
    """
    total = 1
    for d in domains:
        total *= d.bit_count()
        if total > budget:
            raise BudgetExceeded(budget)
    support = [0] * len(domains)
    for combo in itertools.product(*[list(values_of(d)) for d in domains]):
        if all(combo <= g.apply(combo) for g in symmetries):
            for i, v in enumerate(combo):
                support[i] |= 1 << v
    if any(m == 0 for m in support):
        return None
    return support
