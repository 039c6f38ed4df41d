"""Concrete propagators and the descriptor-to-propagator factory.

Every propagator is contracting (only removes values) and monotone, and each
carries an exact check() used at search leaves, so propagation strength below
GAC never lets a false solution through. Domains are bitmasks (see
`domains.py`); a propagator writes `domains[v] = mask` for the watched
variables it narrows. The engine prunes not-equal itself, so a not-equal
star is only a leaf check and its centre's neighbour list.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Optional, Sequence

from .domains import VarId, mask_of, values_of
from .engine import Propagator
from .errors import ModelError
from .model import Constraint, ConstraintKind, Model
from .symmetry import VarValueSymmetry

# bound once: enum member lookup is slow
_NOT_EQUAL, _ALL_DIFFERENT = ConstraintKind.NOT_EQUAL, ConstraintKind.ALL_DIFFERENT


class NotEqualProp(Propagator):
    """x differs from each of `others`: the not-equal star centred on x. The
    engine prunes not-equal itself, through the neighbour lists
    `build_watchers` takes from the stars' `others`, so a star has no
    `propagate` of its own and runs only as a leaf check. check() tests x
    against `checked`, all of `others` unless given.

    `build_propagators` puts each edge into the stars of both its ends, so
    that either end's fix prunes the other, and checks it at a leaf only in
    the star of its lower-numbered end: each star is given the neighbours
    above its centre as `checked`, and a model's stars test every edge once.
    The edges between two variables of an all-different join the stars too,
    so the engine prunes its assigned values, but not `checked`: the
    all-different's own check covers them at a leaf.
    """

    __slots__ = ("x", "others", "checked")  # a model holds one star per variable
    kind = "not-equal"

    def __init__(self, x: VarId, others: Sequence[VarId], checked: Optional[Sequence[VarId]] = None):
        self.x = x
        self.others = tuple(others)
        self.checked = self.others if checked is None else tuple(checked)

    def check(self, values):
        # a plain loop: a generator per leaf costs more than the comparisons
        v = values[self.x]
        for y in self.checked:
            if values[y] == v:
                return False
        return True


class AbsDiffProp(Propagator):
    """|x - y| = d on three distinct variables, filtered to generalised arc
    consistency.

    One word-level sweep over the distances reaches GAC: a distance w has
    support iff X shifted by w either way meets Y, and then X's shifted copy
    joins Y's supports and Y's shifted copy joins X's. Each kept value lies
    in a supporting triple (x, y, w) whose members are all kept, and a
    removed value had no support even in the input domains, so the result is
    the GAC closure and a second sweep would move nothing. A scope that
    repeats a variable is refused, as `Constraint` refuses it.
    """

    kind = "abs-diff"

    def __init__(self, x: VarId, y: VarId, d: VarId):
        if len({x, y, d}) != 3:
            raise ModelError(f"abs-diff scope repeats a variable: {(x, y, d)}")
        self.x = x
        self.y = y
        self.d = d
        self.watches = (x, y, d)

    def propagate(self, domains):
        x, y, d = self.x, self.y, self.d
        dx, dy, dd = domains[x], domains[y], domains[d]
        keep = sx = sy = 0
        rest = dd
        while rest:
            bit = rest & -rest  # 2**w for a distance w
            rest ^= bit
            # multiplying and dividing by 2**w shift by w without computing w
            a = dx * bit | dx // bit
            if a & dy:
                keep |= bit
                sy |= a
                sx |= dy * bit | dy // bit
        if not keep:
            domains[d] = 0
            return True, [d]
        changed = []
        if keep != dd:
            domains[d] = keep
            changed.append(d)
        if dx & sx != dx:
            domains[x] = dx & sx
            changed.append(x)
        if dy & sy != dy:
            domains[y] = dy & sy
            changed.append(y)
        return False, changed

    def check(self, values):
        return abs(values[self.x] - values[self.y]) == values[self.d]


class AllDifferentProp(Propagator):
    """The counting rules of all-different: fewer available values than
    variables fails, and when there are as many as variables, a value held
    by only one variable is fixed there. The engine prunes its assigned
    values, through the not-equal stars `build_propagators` posts beside it.

    A round reads the scope once. It counts holders with two words, `twice |=
    once & d; once |= d`, so `once & ~twice` holds the values with exactly
    one holder, and looks for them only in the union of the open domains: a
    value whose only holder is fixed needs no write. Values are fixed in
    ascending order at the first variable holding them; a fix that drops a
    value with other holders counts again, so a value left with one holder
    by an earlier fix is fixed in the same round, and the writes are those
    of one scope scan per value. A round that fixes no value is the last.
    """

    kind = "all-different"
    late = True

    def __init__(self, scope: Sequence[VarId]):
        self.scope = tuple(scope)
        self.watches = self.scope

    def propagate(self, domains):
        scope = self.scope
        size = len(scope)
        changed = set()
        while True:
            moved = False
            once = twice = open_union = 0
            for v in scope:
                d = domains[v]
                twice |= once & d
                once |= d
                if d & (d - 1):
                    open_union |= d
            count = once.bit_count()
            if count < size:
                return True, list(changed)
            if count == size:
                # every available value is used exactly once; domains only
                # shrink, so open_union still covers every open domain
                single = once & ~twice & open_union
                while single:
                    bit = single & -single
                    single ^= bit
                    for v in scope:
                        d = domains[v]
                        if d & bit:
                            if d != bit:
                                domains[v] = bit
                                changed.add(v)
                                moved = True
                                if d & twice:
                                    # a dropped value may have one holder left
                                    once = twice = 0
                                    for u in scope:
                                        e = domains[u]
                                        twice |= once & e
                                        once |= e
                                    single = once & ~twice & open_union & -(bit << 1)
                            break
            if not moved:
                return False, list(changed)

    def check(self, values):
        vals = [values[v] for v in self.scope]
        return len(set(vals)) == len(vals)


class LazyAllDifferentProp(AllDifferentProp):
    """All-different posted without the not-equal stars: only the counting
    rules prune, and two variables on one value are left to the leaf check."""

    kind = "lazy-all-different"


class OrderingChainProp(Propagator):
    """v0 < v1 < ..., kept bounds consistent; entailed once each variable's
    maximum is below the next one's minimum."""

    kind = "ordering-chain"

    def __init__(self, chain: Sequence[VarId]):
        self.chain = tuple(chain)
        self.watches = self.chain

    def propagate(self, domains):
        # one round is the fixpoint: the backward sweep only lowers maxima, so
        # the minima the forward sweep bounded on stay put (or a domain empties)
        chain = self.chain
        changed = set()
        for k in range(1, len(chain)):
            prev = domains[chain[k - 1]]
            above = -1 << (prev & -prev).bit_length()
            d = domains[chain[k]]
            if d & above != d:
                d = domains[chain[k]] = d & above
                changed.add(chain[k])
                if not d:
                    return True, list(changed)
        entailed = None
        for k in range(len(chain) - 2, -1, -1):
            nxt = domains[chain[k + 1]]
            below = (1 << (nxt.bit_length() - 1)) - 1
            d = domains[chain[k]]
            if d & below != d:
                d = domains[chain[k]] = d & below
                changed.add(chain[k])
                if not d:
                    return True, list(changed)
            if d >= nxt & -nxt:  # the largest value reaches the next one's least
                entailed = False
        return entailed, list(changed)

    def check(self, values):
        seq = [values[v] for v in self.chain]
        return all(a < b for a, b in zip(seq, seq[1:]))


class PrecedenceProp(Propagator):
    """Value precedence on one interchangeable class: the k-th class value to
    appear (scanning the scope left to right) must be the k-th in the declared
    order, so used class values always form a prefix of that order.

    Filtering runs the counting automaton over the scope (state = number of
    class values introduced so far) and keeps exactly the values on a path
    from the start state to any end state: generalized arc consistency. The
    state sets are bitmasks over 0..len(order) and each position's class
    values become a rank mask R, so each step is a few word operations:
    a class value of rank r moves state r to r+1 and keeps every state above
    r; a non-class value keeps every state.

    Once the state set is exactly {len(order)}, every path has introduced the
    whole class: the states stay there and no later value can be pruned, so
    both sweeps stop at that position and the rest of the scope is not read.
    When every position the forward sweep read is fixed, there is one path
    and the backward sweep is skipped; the propagator is then entailed, since
    no narrowing can change those positions and the scope after them is free.

    Both sweeps go by runs of equal masks. A mask that leaves the forward
    state set unchanged leaves it unchanged at every equal mask after it, so
    the forward sweep then only compares masks until one differs, and keeps
    one state set per run. The backward sweep walks a run from its end; once
    a position writes nothing and leaves the backward state set unchanged,
    every earlier position of the run has the same inputs, so it jumps to the
    run's start. The writes come in the same order as from a sweep of every
    position.
    """

    kind = "precedence"
    late = True

    def __init__(self, scope: Sequence[VarId], order: Sequence[int]):
        if len(set(order)) != len(order):
            raise ModelError("precedence order repeats a value")
        self.scope = tuple(scope)
        if len(set(self.scope)) != len(self.scope):
            raise ModelError(f"precedence scope repeats a variable: {self.scope}")
        self.order = tuple(order)
        self.rank = {v: r for r, v in enumerate(order)}
        self.class_mask = mask_of(order)
        self.rank_bit = {1 << v: 1 << r for r, v in enumerate(order)}
        self.value_bit = {1 << r: 1 << v for r, v in enumerate(order)}
        self.watches = self.scope

    def _ranks(self, mask: int) -> int:
        """Rank mask of the class values in a domain mask."""
        rank_bit = self.rank_bit
        ranks = 0
        mask &= self.class_mask
        while mask:
            low = mask & -mask
            ranks |= rank_bit[low]
            mask ^= low
        return ranks

    def propagate(self, domains):
        scope = self.scope
        n = len(scope)
        class_mask = self.class_mask
        full = 1 << len(self.order)
        runs = []  # (start, end, the states before each of them, mask, rank mask)
        states = 1
        loose = 0  # nonzero once the sweep has read an open domain
        i = 0
        while i < n and states != full:
            dm = domains[scope[i]]
            loose |= dm & (dm - 1)
            r = self._ranks(dm)
            if dm & ~class_mask:
                after = states | ((states & r) << 1)
            else:
                # only states above the least rank can stay
                after = (states & -((r & -r) << 1)) | ((states & r) << 1)
            end = i + 1
            if after == states:
                # a mask that keeps the states keeps them at each equal mask after it
                while end < n and domains[scope[end]] == dm:
                    end += 1
            elif not after:
                return True, []
            runs.append((i, end, states, dm, r))
            states = after
            i = end
        if not loose:
            # one path through singletons: the backward sweep keeps every value
            return None, []
        changed = []
        value_bit = self.value_bit
        bwd = states
        for start, i, f, dm, r in reversed(runs):
            other = dm & ~class_mask
            while i > start:
                i -= 1
                stay = f & bwd  # states that can stay and still reach an end
                step = f & (bwd >> 1)  # states whose step up reaches an end
                keep_r = r & (step | ((1 << (stay.bit_length() - 1)) - 1 if stay else 0))
                write = keep_r != r or (other and not stay)
                if write:
                    keep = other if stay else 0
                    while keep_r:
                        low = keep_r & -keep_r
                        keep |= value_bit[low]
                        keep_r ^= low
                    domains[scope[i]] = keep
                    changed.append(scope[i])
                    if not keep:
                        return True, changed
                after = (stay if other else stay & -((r & -r) << 1)) | (step & r)
                if after == bwd and not write:
                    break  # the rest of the run has the same inputs: no write either
                bwd = after
        return False, changed

    def check(self, values):
        nxt = 0  # rank of the next class value allowed to appear first
        for var in self.scope:
            r = self.rank.get(values[var], -1)
            if r > nxt:
                return False
            nxt += r == nxt
        return True


def _image(mask: int, sig: Sequence[int]) -> int:
    """The mask of sigma's images of the values in `mask`."""
    img = 0
    while mask:
        low = mask & -mask
        mask ^= low
        img |= 1 << sig[low.bit_length() - 1]
    return img


def _descends(domains, scope, v_vars, sig, fixed, j):
    """Whether the first position from j on that is not a forced tie forces
    U > V: its least U value is above every image V can take."""
    for k in range(j, len(scope)):
        u, v = scope[k], v_vars[k]
        du, dv = domains[u], domains[v]
        if (du & ~fixed) if u == v else (dv & (dv - 1) or du != 1 << sig[dv.bit_length() - 1]):
            return not _image(dv, sig) >> ((du & -du).bit_length() - 1)
    return False


class LexLeaderProp(Propagator):
    """Assignment <=lex its image under each of some variable/value
    symmetries, filtered element by element.

    For one element, with U_j = X at scope position j and V_j = sigma(X at
    position theta^-1(j)), the image assignment reads V_0 V_1 ... and the
    constraint is U <=lex V. One walk serves every element: it skips forced
    ties and enforces U <= V at the first open position j, strictly when the
    next open position forces U > V. If U_j and V_j read one variable, U_j
    keeps the values sigma raises or fixes (raises, if strict), and the walk
    goes on only if j now ties. Otherwise U_j keeps the values up to V_j's
    largest image and V_j those whose image reaches U_j's least value (both
    strictly, if strict), and after a write the walk redoes j: j may tie
    now, or V's write may have narrowed a later position. Sweeps repeat until
    one changes nothing: the common fixpoint of one propagator per element,
    not a filter of the conjunction. The leaf check is exact.

    Forced ties stay forced under any narrowing, so an element is entailed
    when its walk crosses only forced ties to the end of the scope, or
    crosses forced ties to a one-variable position where sigma raises every
    value of U_j. The propagator is entailed when, in its last sweep, every
    element's walk ends in one of these two ways.
    """

    kind = "lex-leader"
    late = True

    def __init__(self, scope: Sequence[VarId], *syms: VarValueSymmetry):
        if not syms:
            raise ModelError("lex-leader needs at least one symmetry")
        scope = self.scope = tuple(scope)
        elements = []
        for sym in syms:
            if len(sym.theta) != len(scope):
                raise ModelError("lex-leader symmetry does not fit scope")
            sig, fixed = sym.sigma.image, sym.sigma.fixed_mask
            # values sigma moves upwards
            rising = 0
            for v, w in enumerate(sig):
                rising |= (w > v) << v
            # V's variables by position; a value-only element shares the scope
            v_vars = scope if sym.theta_is_identity else tuple(scope[i] for i in sym.theta_inverse())
            elements.append((v_vars, sig, fixed, rising))
        self.elements = tuple(elements)
        self.watches = tuple(sorted(set(scope)))

    def propagate(self, domains):
        scope, n = self.scope, len(self.scope)
        changed = []
        while True:
            moved = False
            entailed = None  # until an element's walk stops where it could prune
            for v_vars, sig, fixed, rising in self.elements:
                j = 0
                while j < n:
                    u, v = scope[j], v_vars[j]
                    du = domains[u]
                    if u == v:
                        if not du & ~fixed:
                            j += 1  # a forced tie
                            continue
                        if not du & ~rising:
                            break  # U_j < V_j for every value: nothing to write
                        keep = du & (rising | fixed)
                        if keep & fixed and _descends(domains, scope, v_vars, sig, fixed, j + 1):
                            keep &= rising
                        if keep == du:
                            entailed = False
                            break
                        domains[u] = keep
                        changed.append(u)
                        moved = True
                        if not keep:
                            return True, changed
                        if keep & ~fixed:
                            break  # a redo would stop here and write nothing
                        j += 1  # position j ties now
                        continue
                    dv = domains[v]
                    if not dv & (dv - 1) and du == 1 << sig[dv.bit_length() - 1]:
                        j += 1  # a forced tie
                        continue
                    strict = _descends(domains, scope, v_vars, sig, fixed, j + 1)
                    before = len(changed)
                    keep = du & ((1 << (_image(dv, sig).bit_length() - strict)) - 1)
                    if keep != du:
                        du = domains[u] = keep
                        changed.append(u)
                        if not du:
                            return True, changed
                    # V_j keeps the values whose image is at least min U_j (+1 if strict)
                    floor = (du & -du).bit_length() - 1 + strict
                    keep = 0
                    for b in values_of(dv):
                        keep |= (sig[b] >= floor) << b
                    if keep != dv:
                        domains[v] = keep
                        changed.append(v)
                        if not keep:
                            return True, changed
                    if len(changed) == before:
                        entailed = False
                        break  # nothing to write
                    moved = True  # redo position j
            if not moved:
                return entailed, changed

    def check(self, values):
        u = [values[v] for v in self.scope]
        for v_vars, sig, _, _ in self.elements:
            if u > [sig[values[v]] for v in v_vars]:
                return False
        return True


class FirstOccurrenceChannelProp(Propagator):
    """Channel between scope variables and first-occurrence position variables.

    For the class value of rank k (1-based), z_k is its first-occurrence
    position among the scope (1-based), or the sentinel len(scope)+1+k when
    the value never occurs. Deductions kept deliberately at forward-checking
    strength:
      - a scope var fixed to the value bounds z from above;
      - a scope var fixed to something else removes that position from z;
      - positions before min(z) cannot hold the value;
      - a fixed z forces its position's variable;
      - a value absent from every scope domain forces the sentinel.

    A call reads the scope once: the mask of fixed positions and, per class
    value, the positions fixed to it (bit i stands for position i) up to the
    last position any z holds, or the whole scope while some z holds its
    sentinel; a later position lies above every z and cannot move one, and z
    domains only shrink, so later rounds need no more. The channel's own
    writes are the only writes during a call, and each one that fixes a
    scope variable updates both masks in place. Only a class value fixed at
    none of those positions needs the union of all the scope domains, which
    is taken on first need after each write to the scope. Each z is narrowed
    with word operations on those masks. The rules run in the same order and
    reach the same domains and the same `changed` list, on failure too, as
    one scan of the whole scope per class value and round.

    Once every z is fixed the channel is entailed: at its fixpoint a z fixed
    to a position has that position's variable fixed to its value and no
    earlier position holding it, and a z fixed to its sentinel has no scope
    domain holding it, which no narrowing can undo.
    """

    kind = "first-occurrence-channel"
    late = True

    def __init__(self, x_scope: Sequence[VarId], z_vars: Sequence[VarId], order: Sequence[int]):
        if len(z_vars) != len(order):
            raise ModelError("one position variable per class value required")
        self.x_scope = tuple(x_scope)
        self.z_vars = tuple(z_vars)
        self.order = tuple(order)
        self.class_mask = mask_of(order)
        self.watches = self.x_scope + self.z_vars

    def sentinel(self, k: int) -> int:
        return len(self.x_scope) + 1 + (k + 1)

    def position_mask(self, k: int) -> int:
        """Initial domain of z_k: positions 1..len(scope) plus its sentinel."""
        return ((1 << (len(self.x_scope) + 1)) - 2) | (1 << self.sentinel(k))

    def propagate(self, domains):
        x_scope = self.x_scope
        n = len(x_scope)
        class_mask = self.class_mask
        live = 0
        for z in self.z_vars:
            live |= domains[z]
        # fixed positions and, per class value, the positions fixed to it
        fixed = 0
        at: dict[int, int] = {}
        pos = 2  # position 1
        for var in x_scope[: n if live >> (n + 1) else live.bit_length() - 1]:
            dx = domains[var]
            if not dx & (dx - 1):
                fixed |= pos
                if dx & class_mask:
                    at[dx] = at.get(dx, 0) | pos
            pos <<= 1
        union = None  # ORed on first need, once per write to the scope
        changed = set()
        while True:
            moved = False
            for k, val in enumerate(self.order):
                z = self.z_vars[k]
                dz = domains[z]
                bit = 1 << val
                hits = at.get(bit, 0)
                keep = dz & ~(fixed ^ hits)  # not at a position fixed to another value
                if hits:
                    keep &= ((hits & -hits) << 1) - 1  # z <= the first position fixed to val
                else:
                    # a position fixed to val puts val in the union, so only
                    # a value without one needs the union of the scope
                    if union is None:
                        union = reduce(or_, map(domains.__getitem__, x_scope), 0)
                    if not union & bit:
                        keep &= 1 << self.sentinel(k)
                if keep != dz:
                    dz = domains[z] = keep
                    changed.add(z)
                    moved = True
                if not dz:
                    return True, list(changed)
                lb = (dz & -dz).bit_length() - 1
                if lb > 1:
                    # positions before min(z) lose val; a fixed one among them is
                    # fixed to another value (z <= every position fixed to val),
                    # so only open domains are visited, and none of them empties
                    rest = ((1 << min(lb, n + 1)) - 2) & ~fixed
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        x = x_scope[low.bit_length() - 2]
                        dx = domains[x]
                        if dx & bit:
                            dx = domains[x] = dx ^ bit
                            changed.add(x)
                            moved, union = True, None
                            if not dx & (dx - 1):
                                fixed |= low
                                if dx & class_mask:
                                    at[dx] = at.get(dx, 0) | low
                if not dz & (dz - 1):
                    pos = dz.bit_length() - 1
                    if pos <= n:
                        x = x_scope[pos - 1]
                        dx = domains[x]
                        if dx & ~bit:
                            dx = domains[x] = dx & bit
                            changed.add(x)
                            if not dx:
                                return True, list(changed)
                            moved, union = True, None
                            fixed |= 1 << pos
                            at[bit] = at.get(bit, 0) | 1 << pos
            if not moved:
                for z in self.z_vars:
                    dz = domains[z]
                    if dz & (dz - 1):
                        return False, list(changed)
                return None, list(changed)  # every z is fixed: entailed

    def check(self, values):
        for k, val in enumerate(self.order):
            first = self.sentinel(k)
            for i1, var in enumerate(self.x_scope, start=1):
                if values[var] == val:
                    first = i1
                    break
            if values[self.z_vars[k]] != first:
                return False
        return True


def post_first_occurrence_channel(
    domains: list[int], x_scope: Sequence[VarId], order: Sequence[int]
) -> list[Propagator]:
    """Number one position variable per value of `order` after every variable
    in `domains`, so existing ids stay, append their initial masks, and return
    the channel and the strict ordering chain over the new variables."""
    z_vars = tuple(range(len(domains), len(domains) + len(order)))
    channel = FirstOccurrenceChannelProp(x_scope, z_vars, order)
    domains += [channel.position_mask(k) for k in range(len(order))]
    return [channel, OrderingChainProp(z_vars)]


class EqualityDisjunctionProp(Propagator):
    """Some listed pair of variables must be equal; evaluated only once its
    whole scope is fixed, so a late run returns at the first open variable.
    With no pairs it always fails, at the root, which runs every propagator."""

    kind = "equality-disjunction"
    late = True

    def __init__(self, pairs: Sequence[tuple[VarId, VarId]]):
        self.pairs = tuple(tuple(p) for p in pairs)
        self.watches = tuple(sorted({v for p in self.pairs for v in p}))

    def propagate(self, domains):
        # in input order the scope's tail is fixed last, so scanning from the
        # end usually stops at once
        for v in reversed(self.watches):
            d = domains[v]
            if d & (d - 1):
                return False, []
        # singleton masks are equal exactly when their values are
        return not any(domains[a] == domains[b] for a, b in self.pairs), []

    def check(self, values):
        return any(values[a] == values[b] for a, b in self.pairs)


def build_propagator(c: Constraint) -> Propagator:
    """The propagator of one constraint other than not-equal (see below)."""
    kind = c.kind
    if kind is ConstraintKind.ABS_DIFF:
        x, y, d = c.scope
        return AbsDiffProp(x, y, d)
    if kind is ConstraintKind.ALL_DIFFERENT:
        return AllDifferentProp(c.scope)
    if kind is ConstraintKind.LAZY_ALL_DIFFERENT:
        return LazyAllDifferentProp(c.scope)
    if kind is ConstraintKind.EQUALITY_DISJUNCTION:
        return EqualityDisjunctionProp(c.params["pairs"])
    raise ModelError(f"no propagator for constraint kind {kind}")


def build_propagators(model: Model) -> tuple[list[NotEqualProp], list[Propagator]]:
    """The model's not-equal stars and its propagators, one per constraint
    but the not-equals. The not-equals become one star per variable over its
    distinct neighbours, each checking at a leaf only its neighbours above its
    centre (see `NotEqualProp`). An all-different also puts its pairwise
    differences into the stars, so the engine prunes its assigned values, and
    its own propagator holds the counting rules; those edges are left out of
    `checked`. A lazy all-different posts no stars."""
    neighbours: dict[VarId, dict[VarId, None]] = {}
    cliques = []
    props = []
    for c in model.constraints:
        if c.kind is _NOT_EQUAL:
            x, y = c.scope
            neighbours.setdefault(x, {})[y] = None
            neighbours.setdefault(y, {})[x] = None
        else:
            if c.kind is _ALL_DIFFERENT:
                cliques.append(c.scope)
            props.append(build_propagator(c))
    checked = {x: [y for y in others if y > x] for x, others in neighbours.items()}
    for scope in cliques:
        clique = dict.fromkeys(scope)
        for x in scope:
            others = neighbours.setdefault(x, {})
            others.update(clique)
            del others[x]
    return [NotEqualProp(x, others, checked.get(x, ())) for x, others in neighbours.items()], props


def check_all(propagators: Sequence[Propagator], values: Sequence[int]) -> bool:
    """Whether every check accepts the full assignment, run in order up to the first refusal."""
    for p in propagators:
        if not p.check(values):
            return False
    return True
