"""Finite pointed sets with a right trace-monoid action.

The carrier is a finite element list plus a distinguished basepoint "*".
Generators act on the right; the basepoint is fixed by every generator,
and independent generators must act interchangeably:

    (x.a).b == (x.b).a   whenever a and b are independent.

That compatibility is exactly what extends a generator table to a
well-defined action of the whole monoid.

An action is full when all generators act as one common map.
``check_conditions`` decides that and counts the map's cycles among the
elements, the two terms ``verify`` needs for its closed form.

An action is never changed after validation, so ``chains`` keeps its
image tables on it through ``alphabet._kept``.  The reference actions
(``x0_mset``, ``chain_mset``, ``fan_mset``) are built afresh on each
call, and nothing keeps an action on its alphabet.

``iso_check`` is a complete search, so its None certifies that two
actions are not isomorphic.  Each assignment x -> y also assigns the
x.e -> y.e it forces and is undone from a log when one clashes; some
pairs of actions still take it time exponential in their size.
"""

from .errors import ValidationError
from .records import Record

BASEPOINT = "*"


class PointedMSet:
    """Validated action table over an IndependenceAlphabet.

    ``action`` maps element name -> {generator -> target}; a row for the
    basepoint may be omitted and is filled in with fixity.  Construction
    raises ValidationError listing every missing cell, moved basepoint,
    and violated commutation square.  The validated table is held as
    one ``{generator: target}`` dict per carrier point, in carrier
    order; the commutation squares and the chain complex's image table
    read it row by row, and ``check_conditions`` reads the common image
    of each point whose generators agree, worked out here.  The action
    never changes after validation, so what other modules derive from
    it is kept on it (``alphabet._kept``).
    """

    __slots__ = ("alphabet", "elements", "_rows", "_common", "_kept")

    def __init__(self, alphabet, elements, action):
        problems = []
        elems = tuple(elements)
        # the carrier holds each well-formed element name once; the others
        # are reported here and take no further part
        carrier = []
        carrier_set = {BASEPOINT}
        for x in elems:
            if not isinstance(x, str) or not x:
                problems.append(f"element {x!r} is not a nonempty string")
            elif x == BASEPOINT:
                problems.append("element name '*' is reserved "
                                "for the basepoint")
            elif x in carrier_set:
                problems.append(f"duplicate element {x!r}")
            else:
                carrier.append(x)
                carrier_set.add(x)
        carrier.append(BASEPOINT)
        for x in action:
            if x not in carrier_set:
                problems.append(f"action row for undeclared element {x!r}")
        rows = {}
        for x in carrier:
            row = action.get(x, {})
            if x == BASEPOINT and not row:
                # omitted basepoint row: fixity by default
                rows[x] = dict.fromkeys(alphabet.generators, BASEPOINT)
                continue
            for e in row:
                if e not in alphabet._index:
                    problems.append(f"action row {x!r} names "
                                    f"unknown generator {e!r}")
            targets = rows[x] = {}
            for e in alphabet.generators:
                if e not in row:
                    problems.append(f"missing action entry ({x!r}, {e!r})")
                    continue
                y = row[e]
                if not isinstance(y, str) or y not in carrier_set:
                    problems.append(f"action target {x!r}.{e!r} = {y!r} "
                                    "is not an element or the basepoint")
                elif x == BASEPOINT and y != BASEPOINT:
                    problems.append(f"basepoint moved: *.{e!r} = {y!r}")
                else:
                    targets[e] = y
        common = {}
        if not problems:
            # the common image of each point whose generators agree; with
            # no generators, a point is its own image
            for x, row in rows.items():
                images = set(row.values()) or {x}
                if len(images) == 1:
                    common[x] = images.pop()
            # the squares at the elements, in any order: those at '*'
            # hold, as its row is all '*'.  So do those at a constant
            # row x -> y whose image's row is constant too, as
            # (x.a).b = (x.b).a = y's common image.  The failures, if
            # any, sorted by pair and then by carrier point
            failures = []
            pairs = alphabet.pairs
            for k, x in enumerate(carrier[:-1]):
                if common.get(x) in common:
                    continue
                row = rows[x]
                for a, b in pairs:
                    lhs = rows[row[a]][b]
                    rhs = rows[row[b]][a]
                    if lhs != rhs:
                        failures.append((
                            (a, b), k, f"commutation fails at {x!r}: "
                            f"({x}.{a}).{b} = {lhs} but ({x}.{b}).{a} = {rhs}"))
            failures.sort()
            problems = [message for _, _, message in failures]
        if problems:
            raise ValidationError(problems)
        self.alphabet = alphabet
        self.elements = elems
        self._rows = rows
        self._common = common
        self._kept = {}

    @property
    def carrier(self):
        return self.elements + (BASEPOINT,)

    def act(self, x, e):
        try:
            return self._rows[x][e]
        except KeyError:
            raise ValueError(f"no action entry for ({x!r}, {e!r})") from None

    def __repr__(self):
        return (f"PointedMSet({len(self.elements)} elements over "
                f"{len(self.alphabet.generators)} generators)")


def full_action_from_successor(alpha, successor):
    """Mset where every generator acts as the same function.

    Such actions are automatically commutation compatible.  ``successor``
    maps each element to its common image.
    """
    elements = tuple(successor)
    action = {x: {e: successor[x] for e in alpha.generators}
              for x in elements}
    return PointedMSet(alpha, elements, action)


def x0_mset(alpha):
    """The two-point reference: one element sent to the basepoint by
    every generator."""
    return full_action_from_successor(alpha, {"x0": BASEPOINT})


def chain_mset(alpha):
    """Two elements in a row: x0 -> x1 -> * under every generator."""
    return full_action_from_successor(alpha, {"x0": "x1", "x1": BASEPOINT})


def fan_mset(alpha):
    """Two elements sent straight to the basepoint: x0 -> *, x1 -> *."""
    return full_action_from_successor(alpha,
                                      {"x0": BASEPOINT, "x1": BASEPOINT})


class ConditionsReport(Record):
    """The cycles of an action's common map among its elements, and why
    the action is not full, if it is not."""

    __slots__ = ("cycles", "violations")

    def __init__(self, cycles, violations):
        self._set(cycles=cycles, violations=violations)

    @property
    def full(self):
        return not self.violations


def check_conditions(m):
    """The terms of the closed form that ``verify`` checks, in one pass.

    The action is full when all generators agree at every point; with no
    generators every point is fixed, so every action is full.  Its
    reduced transition graph has an edge x -> y when every generator
    sends x to y, and a point whose generators disagree has none.  Its
    cycles are counted among the elements: a fixed element is a cycle,
    the basepoint's self-loop is not counted, and a path that reaches
    the basepoint ends in no cycle.
    """
    successor = m._common
    violations = []
    for x in m.elements:
        if x not in successor:
            pairs = ", ".join(f"{x}.{e} = {y}" for e, y in m._rows[x].items())
            violations.append(f"action not full at {x!r}: {pairs}")
    cycles = 0
    seen = {BASEPOINT}
    for x in successor:
        path = set()
        while x in successor and x not in seen:
            seen.add(x)
            path.add(x)
            x = successor[x]
        cycles += x in path
    return ConditionsReport(cycles, tuple(violations))


def iso_check(m1, m2):
    """Search for a basepoint-preserving equivariant bijection.

    Returns ``(witness, tried)``: the bijection as a dict, basepoint
    first, or None when there is none, and the number of candidates
    assigned at branch points (0 when the sizes differ).  m1's elements
    branch in their order and m2's are tried in theirs, so the witness
    is the first equivariant bijection in that order.

    The two alphabets must present one monoid: the same generators and
    the same unordered independence pairs, in any declaration order,
    as rows are read by generator name.  Otherwise it raises
    ValueError."""
    a1, a2 = m1.alphabet, m2.alphabet
    if set(a1.generators) != set(a2.generators) or \
            set(map(frozenset, a1.pairs)) != set(map(frozenset, a2.pairs)):
        raise ValueError("msets live over different alphabets")
    xs, ys = m1.elements, m2.elements
    n = len(xs)
    if n != len(ys):
        return None, 0
    phi, taken, log = {BASEPOINT: BASEPOINT}, {BASEPOINT}, []

    def assign(x, y):
        # x -> y and every pair x.e -> y.e it forces; False on a pair
        # that contradicts phi or maps onto a point already taken
        pending = [(x, y)]
        while pending:
            a, b = pending.pop()
            if a in phi or b in taken:
                if phi.get(a) != b:
                    return False
                continue
            phi[a] = b
            taken.add(b)
            log.append(a)
            row1, row2 = m1._rows[a], m2._rows[b]
            pending.extend((row1[e], row2[e]) for e in row1)
        return True

    tried = k = 0
    stack = []  # per open branch: [element index, next candidate, log mark]
    while True:
        while k < n and xs[k] in phi:
            k += 1
        if k == n:
            return {x: phi[x] for x in (BASEPOINT, *xs)}, tried
        stack.append([k, 0, len(log)])
        while stack:  # undo to the innermost branch, try its next candidate
            k, j, mark = frame = stack[-1]
            while len(log) > mark:
                taken.discard(phi.pop(log.pop()))
            while j < n and ys[j] in taken:
                j += 1
            if j == n:
                stack.pop()
                continue
            frame[1] = j + 1
            tried += 1
            if assign(xs[k], ys[j]):
                break
        else:
            return None, tried
