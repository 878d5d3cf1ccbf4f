"""Chain complexes of pointed trace-monoid actions.

Degree n is free abelian on pairs (x, K): a carrier point x whose
coefficient group has rank 1, and a size-n clique K of independent
generators.  The boundary of (x, K) with K = (e_1 < ... < e_n) is

    sum over s of (-1)^s [ (x.e_s, K minus e_s) - (x, K minus e_s) ]

where the first term is dropped whenever the coefficient group at
x.e_s has rank 0; a step between two rank-1 points acts as the
identity.  Three built-in coefficient systems cover the constant, the
basepoint-punctured, and the basepoint-only cases.
"""

from .alphabet import enumerate_cliques, max_clique_size
from .intlinalg import IntegerMatrix, homology_of_pair
from .msets import BASEPOINT as STAR


class CoefficientSystem:
    """Rank 0/1 coefficient data on a pointed carrier.

    value_at gives the rank (0 or 1) of the group attached to a point.
    It depends only on whether the point is the basepoint, because the
    basepoint is fixed: every step out of it stays at it.
    """

    __slots__ = ("name", "_value")

    def __init__(self, name, value_at_element, value_at_basepoint):
        self.name = name
        self._value = (value_at_element, value_at_basepoint)

    def value_at(self, x):
        return self._value[x == STAR]

    def __repr__(self):
        return f"CoefficientSystem({self.name!r})"


#: constant Z everywhere
DELTA = CoefficientSystem("delta", 1, 1)
#: Z on the elements, 0 at the basepoint
PUNCTURED = CoefficientSystem("punctured", 1, 0)
#: Z at the basepoint only
BASEPOINT_ONLY = CoefficientSystem("basepoint", 0, 1)

SYSTEMS = {s.name: s for s in (DELTA, PUNCTURED, BASEPOINT_ONLY)}


def enumerate_basis(m, system, degree):
    """Degree-n basis: (x, K) pairs in element-major order.

    Carrier points come in declaration order with the basepoint last,
    cliques in lexicographic order; points whose coefficient group is
    trivial are skipped.
    """
    cliques = enumerate_cliques(m.alphabet, degree)
    return [(x, K) for x in m.carrier if system.value_at(x)
            for K in cliques]


def boundary_matrix(m, system, degree):
    """Matrix of the degree-n boundary over the degree n-1 basis."""
    if degree < 1:
        raise ValueError(f"boundary needs degree >= 1, got {degree}")
    lower = enumerate_basis(m, system, degree - 1)
    upper = enumerate_basis(m, system, degree)
    index = {b: i for i, b in enumerate(lower)}
    entries = {}

    def add(row, col, v):
        key = (row, col)
        entries[key] = entries.get(key, 0) + v

    for col, (x, K) in enumerate(upper):
        for s in range(1, len(K) + 1):
            e = K[s - 1]
            face = K[:s - 1] + K[s:]
            sign = -1 if s % 2 else 1
            y = m.act(x, e)
            if system.value_at(y):
                add(index[(y, face)], col, sign)
            add(index[(x, face)], col, -sign)

    return IntegerMatrix(len(lower), len(upper), entries)


class ChainComplex:
    """Bases and boundary maps for degrees 0 .. top.

    top is the largest clique size of the alphabet, above which every
    degree is zero, unless the complex was built with a lower bound.
    Boundary maps at the ends are zero maps of the right shape.
    """

    __slots__ = ("bases", "_boundaries")

    def __init__(self, bases, boundaries):
        self.bases = bases
        self._boundaries = boundaries

    @property
    def top(self):
        return len(self.bases) - 1

    def dim(self, n):
        if 0 <= n <= self.top:
            return len(self.bases[n])
        return 0

    def boundary(self, n):
        if 1 <= n <= self.top:
            return self._boundaries[n - 1]
        if n == 0:
            return IntegerMatrix(0, self.dim(0))
        return IntegerMatrix(self.dim(n - 1), 0)

    def homology(self, top=None):
        """Homology groups in degrees 0 .. top (default: the complex's
        top).  A degree needs the boundary out of the next one, so a
        complex built only up to a bound is exact below it."""
        if top is None:
            top = self.top
        return [homology_of_pair(self.boundary(n), self.boundary(n + 1))
                for n in range(top + 1)]


def build_complex(m, system, top=None):
    """Assemble the bases and boundaries of degrees 0 .. top.

    top defaults to the largest clique size; a lower one leaves every
    clique above it unlisted.  That d o d = 0 is checked where homology
    is taken, by ``homology_of_pair``.
    """
    if top is None:
        top = max_clique_size(m.alphabet)
    bases = [enumerate_basis(m, system, n) for n in range(top + 1)]
    boundaries = [boundary_matrix(m, system, n) for n in range(1, top + 1)]
    return ChainComplex(bases, boundaries)


def homology(m, system, max_degree=None):
    """Homology of the action in degrees 0 .. max_degree (default: the
    largest clique size).  Only degrees up to max_degree + 1 are built;
    degrees above the largest clique size come out as zero groups, and a
    negative bound gives none."""
    top = None if max_degree is None else max_degree + 1
    return build_complex(m, system, top).homology(max_degree)
