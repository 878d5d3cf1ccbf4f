"""Independence alphabets.

An alphabet is an ordered list of generators together with an
irreflexive symmetric independence relation; independent generators
commute in the monoid the alphabet presents.  Cliques of the relation
(sets of pairwise independent generators) index everything downstream,
and are always handled as tuples sorted by declaration order.
"""

from .errors import ValidationError


class IndependenceAlphabet:
    """Generators in declaration order plus unordered independence pairs."""

    __slots__ = ("generators", "pairs", "_index", "_adjacent", "_cliques")

    def __init__(self, generators, independence=()):
        problems = []
        gens = tuple(generators)
        index = {}
        for k, g in enumerate(gens):
            if not isinstance(g, str) or not g:
                problems.append(f"generator #{k} is not a nonempty string")
            elif g == "*":
                problems.append("generator name '*' is reserved")
            elif g in index:
                problems.append(f"duplicate generator {g!r}")
            else:
                index[g] = k
        pairs = set()
        for pair in independence:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(isinstance(g, str) for g in pair)):
                problems.append(f"independence pair {pair!r} is not a pair "
                                "of generator names")
                continue
            a, b = pair
            if a not in index or b not in index:
                problems.append(f"independence pair ({a!r}, {b!r}) "
                                "names unknown generators")
            elif a == b:
                problems.append(f"independence pair ({a!r}, {a!r}) "
                                "is reflexive")
            else:
                if index[a] > index[b]:
                    a, b = b, a
                pairs.add((a, b))
        if problems:
            raise ValidationError(problems)
        self.generators = gens
        self.pairs = frozenset(pairs)
        self._index = index
        adjacent = {g: set() for g in gens}
        later = [0] * len(gens)
        for a, b in pairs:
            adjacent[a].add(b)
            adjacent[b].add(a)
            later[index[a]] |= 1 << index[b]
        self._adjacent = adjacent
        # clique table: level k holds the k-cliques and, for each, the
        # bitmask of later generators independent of all its members;
        # the 1-cliques' masks are the later-neighbour masks themselves.
        # Higher levels are added on demand by enumerate_cliques.
        self._cliques = [([()], [(1 << len(gens)) - 1]),
                         ([(g,) for g in gens], later)]

    def index(self, g):
        try:
            return self._index[g]
        except KeyError:
            raise ValueError(f"unknown generator {g!r}") from None

    def independent(self, a, b):
        self.index(a), self.index(b)
        return b in self._adjacent[a]

    def __eq__(self, other):
        if not isinstance(other, IndependenceAlphabet):
            return NotImplemented
        return (self.generators, self.pairs) == \
            (other.generators, other.pairs)

    def __repr__(self):
        return (f"IndependenceAlphabet({list(self.generators)!r}, "
                f"{sorted(self.pairs)!r})")


def _next_level(gens, later, cliques, masks):
    """The (k+1)-cliques and their masks from the k-cliques: each clique
    is extended by every bit of its mask, in ascending order, so the new
    level is again in lexicographic order of member indices."""
    out, out_masks = [], []
    for K, mask in zip(cliques, masks):
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            mask ^= low
            out.append(K + (gens[j],))
            out_masks.append(mask & later[j])
    return out, out_masks


def enumerate_cliques(alpha, k):
    """All k-element cliques of the independence relation, each sorted by
    declaration order, listed in lexicographic order of member indices.

    k = 0 gives the single empty clique.  Levels are computed once per
    alphabet, up to the largest k asked for, and kept on it; each call
    returns a fresh list.
    """
    if k < 0:
        raise ValueError(f"negative clique size {k}")
    table = alpha._cliques
    while len(table) <= k and table[-1][0]:
        table.append(_next_level(alpha.generators, table[1][1], *table[-1]))
    return list(table[k][0]) if k < len(table) else []


def clique_counts(alpha, top=None):
    """Clique counts [p_0, p_1, ..., p_w] up to the largest clique size w,
    or only up to p_top when top is given.

    p_0 = 1 for the empty clique, so an alphabet with no independence at
    all still reports [1, n].
    """
    counts = [1]
    while top is None or len(counts) <= top:
        n = len(enumerate_cliques(alpha, len(counts)))
        if not n:
            break
        counts.append(n)
    return counts


def max_clique_size(alpha):
    return len(clique_counts(alpha)) - 1
