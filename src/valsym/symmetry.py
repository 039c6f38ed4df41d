"""Value and variable/value symmetries, group closure, orbits.

A symmetry acts on assignments to an ordered tuple of scope variables. The
element (theta, sigma) maps assignment A to A' with A'(theta(i)) = sigma(A(i)):
variable position i's value is pushed through sigma and lands at position
theta(i). Pure value symmetries have theta = identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import GroupTooLarge, ModelError

GROUP_CAP = 10_080
# GROUP_CAP maps over 7 values, the largest class whose permutations fit GROUP_CAP
VALUE_MAP_CAP = 70_560


def require_enumerable(elements: int, universe_size: int, what: str) -> None:
    """The one size limit on a list of group elements: raise GroupTooLarge
    when `elements` value maps over `universe_size` values pass GROUP_CAP
    elements or VALUE_MAP_CAP value-map entries (elements times universe
    size). Every builder of such a list calls it before it grows the list."""
    entries = elements * universe_size
    if entries > VALUE_MAP_CAP:
        raise GroupTooLarge(entries, VALUE_MAP_CAP, f"{what} holds one map of {universe_size} values per "
                            f"element, up to {VALUE_MAP_CAP} entries, got {entries}")
    if elements > GROUP_CAP:
        raise GroupTooLarge(elements, GROUP_CAP, f"{what} holds up to {GROUP_CAP} elements, got {elements}")


@dataclass(frozen=True)
class ValuePermutation:
    """Bijection on the value universe, stored as an image tuple.
    `fixed_mask` has bit v set iff the permutation fixes v."""

    image: tuple[int, ...]
    fixed_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if sorted(self.image) != list(range(len(self.image))):
            raise ModelError(f"not a permutation image: {self.image}")
        fixed = 0
        for v, w in enumerate(self.image):
            fixed |= (v == w) << v
        object.__setattr__(self, "fixed_mask", fixed)

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


def close_group(generators: Iterable[VarValueSymmetry]) -> list[VarValueSymmetry]:
    """BFS closure of the generators under composition, identity included,
    sorted with the identity first. `SymmetrySpec.closed_group` builds every
    enumerated group with it. Each new element passes `require_enumerable`
    before it is kept."""
    gens = list(generators)
    if not gens:
        return []
    universe = len(gens[0].sigma.image)
    ident = VarValueSymmetry.identity(len(gens[0].theta), universe)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = a.compose(g)
                if c not in seen:
                    require_enumerable(len(seen) + 1, universe, "the group closure")
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    # deterministic order: identity first, then sorted by (theta, sigma image)
    out = sorted(seen, key=lambda s: (s.theta, s.sigma.image))
    out.remove(ident)
    return [ident] + out


@dataclass(frozen=True)
class ClassProduct:
    """Direct product of the full symmetric groups on disjoint value classes,
    kept as its classes rather than as |class|! enumerated elements.

    Its lex-least image of an assignment is the first-occurrence relabelling:
    reading left to right, the k-th distinct value met from a class becomes
    that class's k-th smallest value, and values outside every class stay
    fixed. Each step takes the least value not yet used as an image, which is
    the greedy choice that minimises the image position by position, on an
    assignment of any length. `class_of` maps each class value to the index
    of its class, `class_masks` holds each class as a value mask and
    `class_union` their union.
    """

    classes: tuple[tuple[int, ...], ...]
    universe_size: int
    _ascending: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    class_of: dict[int, int] = field(init=False, repr=False, compare=False)
    class_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    class_union: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        class_of: dict[int, int] = {}
        for idx, cls in enumerate(self.classes):
            for v in cls:
                if v in class_of:
                    raise ModelError(f"value {v} in two interchangeable classes")
                if not 0 <= v < self.universe_size:
                    raise ModelError(f"class value {v} outside universe")
                class_of[v] = idx
        masks = tuple(sum(1 << v for v in cls) for cls in self.classes)
        object.__setattr__(self, "_ascending", tuple(tuple(sorted(cls)) for cls in self.classes))
        object.__setattr__(self, "class_of", class_of)
        object.__setattr__(self, "class_masks", masks)
        object.__setattr__(self, "class_union", sum(masks))

    def canonical(self, assignment: Sequence[int]) -> tuple[int, ...]:
        """Lex-least image of the assignment, in one pass over it."""
        class_of = self.class_of
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

    def class_product(self) -> ClassProduct:
        """The interchangeable classes' group in structural form."""
        return ClassProduct(self.interchangeable_classes, self.universe_size)

    def class_swaps(self) -> list[VarValueSymmetry]:
        """The transposition of each pair of adjacent values of each sorted
        class: together they generate the class product, and the
        conjunction of their lex-leaders is value precedence. Refused by
        `require_enumerable` before any is built."""
        size = self.universe_size
        count = sum(len(cls) - 1 for cls in self.interchangeable_classes)
        require_enumerable(count, size, "the list of adjacent class transpositions (static-lex's "
                           "elements, verify's orbit generators)")
        return [VarValueSymmetry.value_only(self.scope_len, ValuePermutation.from_cycle(size, pair))
                for cls in self.interchangeable_classes for pair in itertools.pairwise(sorted(cls))]

    def closed_group(self) -> list[VarValueSymmetry]:
        """The whole group the spec denotes: `close_group` of the explicit
        elements and the class swaps. Only static-lex and getree on specs
        with explicit elements need it. The class product is a subgroup, so
        its order, taken as a running product of the class factorials,
        passes `require_enumerable` before anything is built."""
        if self.is_trivial:
            return []
        order = 1
        for cls in self.interchangeable_classes:
            for k in range(2, len(cls) + 1):
                order *= k
                require_enumerable(order, self.universe_size, "the whole symmetry group (enumerated for "
                                   "static-lex or getree under explicit symmetries)")
        return close_group(list(self.explicit) + self.class_swaps()) or [
            VarValueSymmetry.identity(self.scope_len, self.universe_size)]


Group = Sequence[VarValueSymmetry] | ClassProduct


def orbit_partition(
    assignments: Iterable[Sequence[int]], group: Group
) -> list[list[tuple[int, ...]]]:
    """Partition assignments into orbits under the group.

    A ClassProduct buckets each assignment by its canonical form, in one pass.
    A list of elements, the whole group or only its generators, joins each
    assignment to its image under each element (union-find: the orbit
    algorithm), so the input must be closed under every listed element, as a
    solution set is under a genuine symmetry; an image outside the input
    raises ModelError naming the element, the assignment and the image.
    Orbits are returned each sorted and in order of their least members.
    """
    points = [tuple(a) for a in assignments]
    if isinstance(group, ClassProduct):
        key = group.canonical
    else:
        index: dict[tuple[int, ...], int] = {}
        for t in points:
            index.setdefault(t, len(index))
        parent = list(range(len(index)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            return i

        for g in group:
            for t, i in index.items():
                image = g.apply(t)
                j = index.get(image)
                if j is None:
                    raise ModelError(f"symmetry element {g} maps {t} to {image}, which is not among "
                                     f"the assignments: the element is not a symmetry of them")
                parent[find(i)] = find(j)

        def key(t):
            return find(index[t])
    buckets: dict = {}
    for t in points:
        buckets.setdefault(key(t), []).append(t)
    return sorted(sorted(orbit) for orbit in buckets.values())


def canonical_form(assignment: Sequence[int], group: Group) -> tuple[int, ...]:
    """Lex-least image of the assignment over all group elements. Unlike
    `orbit_partition` on a list of elements, it needs the whole group but
    no set of assignments closed under it."""
    t = tuple(assignment)
    if isinstance(group, ClassProduct):
        return group.canonical(t)
    if not group:
        return t
    return min(g.apply(t) for g in group)
