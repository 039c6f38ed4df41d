"""Concrete propagators and the descriptor-to-propagator factory.

Every propagator is contracting (only removes values) and monotone, and each
carries an exact check() used at search leaves, so propagation strength below
GAC never lets a false solution through. Domains are bitmasks (see
`domains.py`); a propagator writes `domains[v] = mask` for the watched
variables it narrows.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Sequence

from .domains import VarId, mask_of, values_of
from .engine import Propagator
from .errors import ModelError
from .model import Constraint, ConstraintKind, Model
from .symmetry import VarValueSymmetry


class NotEqualProp(Propagator):
    kind = "not-equal"
    fix_only = True

    def __init__(self, x: VarId, y: VarId):
        self.x = x
        self.y = y
        self.watches = (x, y)

    def propagate(self, domains):
        changed = []
        x, y = self.x, self.y
        dx, dy = domains[x], domains[y]
        # a fixed variable's mask is its value's bit; drop it from the other
        if not dx & (dx - 1) and dy & dx:
            dy ^= dx
            domains[y] = dy
            if not dy:
                return True, [y]
            changed.append(y)
        if not dy & (dy - 1) and dx & dy:
            dx ^= dy
            domains[x] = dx
            if not dx:
                return True, [x]
            changed.append(x)
        return False, changed

    def check(self, values):
        return values[self.x] != values[self.y]


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
    """Assigned values are pruned from the rest of the scope; when the number
    of available values equals the scope size, a value held by only one
    variable is fixed there; fewer available values than variables fails.

    Holders are counted with two words in the same scope pass that takes the
    union: `twice |= once & d; once |= d`, so `once & ~twice` holds the values
    with exactly one holder. Values are fixed in ascending order at the first
    variable holding them; a fix that drops a value with other holders counts
    again, so a value left with one holder by an earlier fix is fixed in the
    same round, and the writes are those of one scope scan per value. A round
    that fixes no value and leaves no new assigned variable is the last: the
    next one would prune nothing and find every single holder fixed already.
    """

    kind = "all-different"
    prune_assigned = True

    def __init__(self, scope: Sequence[VarId]):
        self.scope = tuple(scope)
        self.watches = self.scope

    def propagate(self, domains):
        scope = self.scope
        prune = self.prune_assigned
        changed = set()
        while True:
            moved = False
            # pruning assigned values leaves each pruned value in the singleton
            # holding it, so it neither shrinks the union nor leaves a value
            # with one holder that needs a write: the counts need no redo
            once = twice = fixed_mask = 0
            for v in scope:
                d = domains[v]
                twice |= once & d
                once |= d
                if prune and not d & (d - 1):
                    if d & fixed_mask:
                        return True, list(changed)  # two vars on one value
                    fixed_mask |= d
            if fixed_mask:
                for v in scope:
                    d = domains[v]
                    if d & (d - 1) and d & fixed_mask:
                        d = domains[v] = d & ~fixed_mask
                        changed.add(v)
                        if not d:
                            return True, list(changed)
                        if not d & (d - 1):
                            moved = True  # a new assignment to prune next round
            if once.bit_count() < len(scope):
                return True, list(changed)
            if once.bit_count() == len(scope):
                # every available value is used exactly once
                single = once & ~twice
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
                                    single = once & ~twice & -(bit << 1)
                            break
            if not moved:
                return False, list(changed)

    def check(self, values):
        vals = [values[v] for v in self.scope]
        return len(set(vals)) == len(vals)


class LazyAllDifferentProp(AllDifferentProp):
    """All-different that deliberately skips assigned-value pruning; it only
    applies the counting rules, leaving individual collisions to the leaf
    check."""

    kind = "lazy-all-different"
    prune_assigned = False


class OrderingChainProp(Propagator):
    """v0 < v1 < ..., kept bounds consistent."""

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
        for k in range(len(chain) - 2, -1, -1):
            below = (1 << (domains[chain[k + 1]].bit_length() - 1)) - 1
            d = domains[chain[k]]
            if d & below != d:
                d = domains[chain[k]] = d & below
                changed.add(chain[k])
                if not d:
                    return True, list(changed)
        return False, list(changed)

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
    """

    kind = "precedence"

    def __init__(self, scope: Sequence[VarId], order: Sequence[int]):
        if len(set(order)) != len(order):
            raise ModelError("precedence order repeats a value")
        self.scope = tuple(scope)
        self.order = tuple(order)
        self.rank = {v: r for r, v in enumerate(order)}
        self.class_mask = mask_of(order)
        self.rank_bit = {1 << v: 1 << r for r, v in enumerate(order)}
        self.value_bit = {1 << r: 1 << v for r, v in enumerate(order)}
        self.watches = self.scope

    def _dest(self, state: int, value: int) -> int:
        # -1 = dead
        r = self.rank.get(value)
        if r is None or r < state:
            return state
        if r == state:
            return state + 1
        return -1

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
        class_mask = self.class_mask
        full = 1 << len(self.order)
        # domains repeat along the scope, so translate each distinct one once
        rank_of = {}
        fwd = []  # fwd[i]: the states before scope position i
        states = 1
        for var in scope:
            if states == full:
                break
            fwd.append(states)
            dm = domains[var]
            r = rank_of.get(dm)
            if r is None:
                r = rank_of[dm] = self._ranks(dm)
            if dm & ~class_mask:
                states |= (states & r) << 1
            else:
                # only states above the least rank can stay
                states = (states & -((r & -r) << 1)) | ((states & r) << 1)
            if not states:
                return True, []
        changed = []
        bwd = states
        for i in range(len(fwd) - 1, -1, -1):
            var = scope[i]
            dm = domains[var]
            r = rank_of.get(dm)
            if r is None:
                r = rank_of[dm] = self._ranks(dm)
            f = fwd[i]
            stay = f & bwd  # states that can stay and still reach an end
            step = f & (bwd >> 1)  # states whose step up reaches an end
            keep_r = r & (step | ((1 << (stay.bit_length() - 1)) - 1 if stay else 0))
            other = dm & ~class_mask
            if keep_r != r or (other and not stay):
                keep = other if stay else 0
                value_bit = self.value_bit
                while keep_r:
                    low = keep_r & -keep_r
                    keep |= value_bit[low]
                    keep_r ^= low
                domains[var] = keep
                changed.append(var)
                if not keep:
                    return True, changed
            bwd = (stay if other else stay & -((r & -r) << 1)) | (step & r)
        return False, changed

    def check(self, values):
        state = 0
        for var in self.scope:
            dest = self._dest(state, values[var])
            if dest < 0:
                return False
            state = dest
        return True


class LexLeaderProp(Propagator):
    """Assignment <=lex its image under one variable/value symmetry.

    With U_j = X at scope position j and V_j = sigma(X at position
    theta^-1(j)), the image assignment reads V_0 V_1 ... and the constraint is
    U <=lex V. A pass walks the forced-tie prefix and enforces U <= V at the
    first open position (strict when the positions after it force U > V);
    passes repeat until one changes nothing. The leaf check is exact.
    """

    kind = "lex-leader"

    def __init__(self, scope: Sequence[VarId], sym: VarValueSymmetry):
        if len(sym.theta) != len(scope):
            raise ModelError("lex-leader symmetry does not fit scope")
        self.scope = tuple(scope)
        inv = sym.theta_inverse()
        self.v_vars = tuple(self.scope[inv[j]] for j in range(len(scope)))
        self.sig = sym.sigma.image
        # values sigma fixes, and values sigma moves upwards
        self.fixed = mask_of(v for v, w in enumerate(self.sig) if w == v)
        self.rising = mask_of(v for v, w in enumerate(self.sig) if w > v)
        self.watches = tuple(sorted(set(self.scope) | set(self.v_vars)))

    def _forced_tie(self, domains, j: int) -> bool:
        uv, vv = self.scope[j], self.v_vars[j]
        if uv == vv:
            return not domains[uv] & ~self.fixed
        du, dv = domains[uv], domains[vv]
        return (
            not du & (du - 1)
            and not dv & (dv - 1)
            and du == 1 << self.sig[dv.bit_length() - 1]
        )

    def propagate(self, domains):
        changed = []
        while True:
            failed, more = self._pass(domains)
            changed += more
            if failed or not more:
                return failed, changed

    def _pass(self, domains):
        L = len(self.scope)
        sig = self.sig
        j = 0
        while j < L and self._forced_tie(domains, j):
            j += 1
        if j == L:
            return False, []  # equality: constraint holds
        alpha = j
        # positions after a fully tied block that force U > V make alpha strict
        k = alpha + 1
        while k < L and self._forced_tie(domains, k):
            k += 1
        strict = False
        if k < L:
            du = domains[self.scope[k]]
            min_u = (du & -du).bit_length() - 1
            max_v = max(sig[b] for b in values_of(domains[self.v_vars[k]]))
            if min_u > max_v:
                strict = True
        changed = []
        uv, vv = self.scope[alpha], self.v_vars[alpha]
        if uv == vv:
            d = domains[uv]
            keep = d & (self.rising if strict else self.rising | self.fixed)
            if keep != d:
                domains[uv] = keep
                changed.append(uv)
                if not keep:
                    return True, changed
        else:
            du, dv = domains[uv], domains[vv]
            max_v = max(sig[b] for b in values_of(dv))
            keep = du & ((1 << (max_v if strict else max_v + 1)) - 1)
            if keep != du:
                du = domains[uv] = keep
                changed.append(uv)
                if not du:
                    return True, changed
            min_u = (du & -du).bit_length() - 1
            keep = 0
            for b in values_of(dv):
                if sig[b] > min_u or (not strict and sig[b] == min_u):
                    keep |= 1 << b
            if keep != dv:
                domains[vv] = keep
                changed.append(vv)
                if not keep:
                    return True, changed
        return False, changed

    def check(self, values):
        u = tuple(values[v] for v in self.scope)
        w = tuple(self.sig[values[v]] for v in self.v_vars)
        return u <= w


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

    A pass reads the scope once: the union of all its domains, and the mask
    of fixed positions and the positions fixed to each value (bit i stands
    for position i) up to the last position any z still holds, or the whole
    scope while some z still holds its sentinel; a later position lies above
    every z and cannot move one. Each z is then narrowed with word operations
    on those masks. The rules run in the same order and reach the same
    domains, on failure too, as one scan of the whole scope per class value:
    the scan is redone before the next value whenever a rule narrowed a scope
    variable.
    """

    kind = "first-occurrence-channel"

    def __init__(self, x_scope: Sequence[VarId], z_vars: Sequence[VarId], order: Sequence[int]):
        if len(z_vars) != len(order):
            raise ModelError("one position variable per class value required")
        self.x_scope = tuple(x_scope)
        self.z_vars = tuple(z_vars)
        self.order = tuple(order)
        self.watches = self.x_scope + self.z_vars

    def sentinel(self, k: int) -> int:
        return len(self.x_scope) + 1 + (k + 1)

    def position_mask(self, k: int) -> int:
        """Initial domain of z_k: positions 1..len(scope) plus its sentinel."""
        return ((1 << (len(self.x_scope) + 1)) - 2) | (1 << self.sentinel(k))

    def _scan(self, domains, last: int) -> tuple[int, int, dict[int, int]]:
        """(union of the scope domains, fixed positions up to `last`,
        singleton domain -> positions up to `last` fixed to it)."""
        union = reduce(or_, map(domains.__getitem__, self.x_scope), 0)
        fixed = 0
        at: dict[int, int] = {}
        pos = 2  # position 1
        for var in self.x_scope[:last]:
            dx = domains[var]
            if not dx & (dx - 1):
                fixed |= pos
                at[dx] = at.get(dx, 0) | pos
            pos <<= 1
        return union, fixed, at

    def propagate(self, domains):
        x_scope = self.x_scope
        n = len(x_scope)
        changed = set()
        while True:
            moved = False
            stale = True
            live = 0
            for z in self.z_vars:
                live |= domains[z]
            last = n if live >> (n + 1) else live.bit_length() - 1
            for k, val in enumerate(self.order):
                if stale:
                    union, fixed, at = self._scan(domains, last)
                    stale = False
                z = self.z_vars[k]
                dz = domains[z]
                bit = 1 << val
                hits = at.get(bit, 0)
                keep = dz & ~(fixed ^ hits)  # not at a position fixed to another value
                if hits:
                    keep &= ((hits & -hits) << 1) - 1  # z <= the first position fixed to val
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
                            domains[x] = dx ^ bit
                            changed.add(x)
                            moved = stale = True
                if not dz & (dz - 1):
                    pos = dz.bit_length() - 1
                    if pos <= n:
                        x = x_scope[pos - 1]
                        dx = domains[x]
                        if dx & ~bit:
                            dx = domains[x] = dx & bit
                            changed.add(x)
                            moved = stale = True
                            if not dx:
                                return True, list(changed)
            if not moved:
                return False, list(changed)

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
    whole scope is fixed. With no pairs it always fails."""

    kind = "equality-disjunction"
    fix_only = True

    def __init__(self, pairs: Sequence[tuple[VarId, VarId]]):
        self.pairs = tuple(tuple(p) for p in pairs)
        self.watches = tuple(sorted({v for p in self.pairs for v in p}))

    def propagate(self, domains):
        if not self.pairs:
            return True, []
        if all(not domains[v] & (domains[v] - 1) for v in self.watches):
            # singleton masks are equal exactly when their values are
            if not any(domains[a] == domains[b] for a, b in self.pairs):
                return True, []
        return False, []

    def check(self, values):
        return any(values[a] == values[b] for a, b in self.pairs)


def build_propagator(c: Constraint) -> Propagator:
    kind = c.kind
    if kind is ConstraintKind.NOT_EQUAL:
        x, y = c.scope
        return NotEqualProp(x, y)
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


def build_propagators(model: Model) -> list[Propagator]:
    return [build_propagator(c) for c in model.constraints]


def check_all(propagators: Sequence[Propagator], values: Sequence[int]) -> bool:
    return all(p.check(values) for p in propagators)
