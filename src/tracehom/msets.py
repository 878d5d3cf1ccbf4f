"""Finite pointed sets with a right trace-monoid action.

The carrier is a finite element list plus a distinguished basepoint "*".
Generators act on the right; the basepoint is fixed by every generator,
and independent generators must act interchangeably:

    (x.a).b == (x.b).a   whenever a and b are independent.

That compatibility is exactly what extends a generator table to a
well-defined action of the whole monoid.
"""

from collections import defaultdict
from dataclasses import dataclass
from math import factorial

from .errors import ValidationError

BASEPOINT = "*"


class PointedMSet:
    """Validated action table over an IndependenceAlphabet.

    ``action`` maps element name -> {generator -> target}; a row for the
    basepoint may be omitted and is filled in with fixity.  Construction
    raises ValidationError listing every missing cell, moved basepoint,
    and violated commutation square.
    """

    __slots__ = ("alphabet", "elements", "_table")

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
        table = {}
        for x in carrier:
            row = action.get(x, {})
            if x == BASEPOINT and not row:
                # omitted basepoint row: fixity by default
                for e in alphabet.generators:
                    table[(x, e)] = BASEPOINT
                continue
            for e in row:
                if e not in alphabet._index:
                    problems.append(f"action row {x!r} names "
                                    f"unknown generator {e!r}")
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
                    table[(x, e)] = y
        if not problems:
            for a, b in sorted(alphabet.pairs):
                for x in carrier:
                    lhs = table[(table[(x, a)], b)]
                    rhs = table[(table[(x, b)], a)]
                    if lhs != rhs:
                        problems.append(
                            f"commutation fails at {x!r}: "
                            f"({x}.{a}).{b} = {lhs} but ({x}.{b}).{a} = {rhs}")
        if problems:
            raise ValidationError(problems)
        self.alphabet = alphabet
        self.elements = elems
        self._table = table

    @property
    def carrier(self):
        return self.elements + (BASEPOINT,)

    def act(self, x, e):
        try:
            return self._table[(x, e)]
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


@dataclass(frozen=True)
class ConditionsReport:
    """Whether an action is full and its reduced transition graph is a
    tree rooted at the basepoint."""

    full: bool
    tree: bool
    violations: tuple

    @property
    def satisfied(self):
        return self.full and self.tree


def check_conditions(m):
    """The preconditions of the power and main identities, in one pass.

    The action is full when all generators agree at every point.  Its
    reduced transition graph has an edge x -> y when every generator
    sends x to y; a point whose generators disagree has no edge, and the
    basepoint's self-loop is dropped.  The graph is a tree rooted at the
    basepoint when every element has an edge and following the edges
    from it reaches the basepoint, so a self-loop or a cycle is not a
    tree.  With no generators no element has an edge: only the
    one-point action passes.
    """
    violations = []
    gens = m.alphabet.generators
    successor = {}
    for x in m.elements:
        images = {m.act(x, e) for e in gens}
        if len(images) == 1:
            successor[x] = images.pop()
        elif images:
            pairs = ", ".join(f"{x}.{e} = {m.act(x, e)}" for e in gens)
            violations.append(f"action not full at {x!r}: {pairs}")
    full = not violations
    tree = len(successor) == len(m.elements)
    rooted = {BASEPOINT}
    for x in successor:
        path = set()
        while tree and x not in rooted:
            tree = x not in path
            path.add(x)
            x = successor[x]
        rooted |= path
    if not tree:
        violations.append(
            "reduced transition graph is not a tree rooted at the basepoint")
    return ConditionsReport(full, tree, tuple(violations))


def _signature(m, x):
    sig = []
    for e in m.alphabet.generators:
        y = m.act(x, e)
        sig.append(BASEPOINT if y == BASEPOINT
                   else ("self" if y == x else "move"))
    return tuple(sig)


def iso_check(m1, m2):
    """Search for a basepoint-preserving equivariant bijection.

    Returns one as a dict (basepoint included) or None.  The search is
    exhaustive backtracking over element assignments, pruned by local
    image signatures and by partial equivariance."""
    if m1.alphabet != m2.alphabet:
        raise ValueError("msets live over different alphabets")
    if len(m1.elements) != len(m2.elements):
        return None
    gens = m1.alphabet.generators
    sig2 = defaultdict(list)
    for y in m2.elements:
        sig2[_signature(m2, y)].append(y)

    phi = {BASEPOINT: BASEPOINT}
    taken = {BASEPOINT: BASEPOINT}

    def consistent():
        for a, fa in phi.items():
            for e in gens:
                img = m1.act(a, e)
                timg = m2.act(fa, e)
                if img in phi:
                    if phi[img] != timg:
                        return False
                elif timg in taken:
                    # timg is reserved for a different preimage
                    return False
        return True

    def assign(k):
        if k == len(m1.elements):
            return True
        x = m1.elements[k]
        for y in sig2[_signature(m1, x)]:
            if y in taken:
                continue
            phi[x] = y
            taken[y] = x
            if consistent() and assign(k + 1):
                return True
            del phi[x], taken[y]
        return False

    if assign(0):
        return dict(phi)
    return None


def bijection_count(m):
    """Number of basepoint-preserving bijections an exhaustive search
    ranges over."""
    return factorial(len(m.elements))
