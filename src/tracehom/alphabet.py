"""Independence alphabets.

An alphabet is an ordered list of generators together with an
irreflexive symmetric independence relation; independent generators
commute in the monoid the alphabet presents.  Cliques of the relation
(sets of pairwise independent generators) index everything downstream,
and are always handled as tuples sorted by declaration order.

The cliques are kept on the alphabet level by level, as bitmasks: each
k-clique carries the mask of the later generators independent of all
its members, and its children are the clique plus each bit of that
mask, in ascending order, so every level is in lexicographic order of
member indices.  ``_next_level`` is the one place that turns a mask
into children.  As it grows a level it records, per new clique, the
position of the clique it extends and the generator it adds; names and
the face tables of ``chains`` are built from that record alone.  The
size of a level is the number of set bits in the masks below it, so it
is known before the level is grown, and a level of more than
``_SIZE_CAP`` cliques is refused with a ``ValidationError`` before
anything is listed.

Every other term derived from an alphabet or an action is kept on it
through ``_kept``, in one table per owner: a kind, named by the module
that derives the term, and a key that module chooses.  No other module
reads that kind.
"""

from .errors import ValidationError

#: the most items one listing may hold: the cliques of one level, the
#: basis of a whole chain complex (``chains``), the simplices of a clique
#: complex and the faces of a flagified face list (``simplicial``)
_SIZE_CAP = 10 ** 6
#: the most mask bits one clique level may hold, 32 MiB: a level under
#: the size cap can still be large when its masks are long
_MASK_BITS_CAP = 2 ** 28


def _kept(owner, kind, key, build, *args):
    """The term of this kind kept on owner, an alphabet or an action,
    under key: build(*args) on first use, the kept term after that."""
    terms = owner._kept.setdefault(kind, {})
    if key not in terms:
        terms[key] = build(*args)
    return terms[key]


def _check_size(where, count, unit, cap=None):
    """Refuse a listing of count items before it is made, past the cap
    (``_SIZE_CAP`` unless another is given)."""
    cap = _SIZE_CAP if cap is None else cap
    if count > cap:
        raise ValidationError([f"too large: {where} would hold {count} "
                               f"{unit}; the limit is {cap}"])


class IndependenceAlphabet:
    """Generators in declaration order plus unordered independence pairs."""

    __slots__ = ("generators", "pairs", "_index", "_cliques", "_grown",
                 "_names", "_kept")

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
        later = [0] * len(gens)
        for a, b in pairs:
            later[index[a]] |= 1 << index[b]
        # clique table: level k holds, per k-clique in lexicographic
        # order, the bitmask of later generators independent of all its
        # members, and _grown beside it what _next_level recorded.  The
        # 1-cliques' masks are the later-neighbour masks themselves.
        # Higher levels are added on demand by _level, and the cliques
        # as name tuples only when enumerate_cliques asks.
        self._cliques = [[(1 << len(gens)) - 1], later]
        self._grown = [([], []), ([0] * len(gens), list(range(len(gens))))]
        self._names = [[()]]
        # terms other code derives from the alphabet, by kind and key
        self._kept = {}

    def index(self, g):
        try:
            return self._index[g]
        except KeyError:
            raise ValueError(f"unknown generator {g!r}") from None

    def independent(self, a, b):
        # bit j of the later-neighbour mask of i, for i <= j
        i, j = sorted((self.index(a), self.index(b)))
        return bool(self._cliques[1][i] >> j & 1)

    def __eq__(self, other):
        if not isinstance(other, IndependenceAlphabet):
            return NotImplemented
        return (self.generators, self.pairs) == \
            (other.generators, other.pairs)

    def __repr__(self):
        return (f"IndependenceAlphabet({list(self.generators)!r}, "
                f"{sorted(self.pairs)!r})")


def _next_level(later, masks):
    """The masks of the (k+1)-cliques from those of the k-cliques: each
    clique is extended by every bit of its mask, in ascending order, so
    the new level is again in lexicographic order of member indices.
    Also the record of the new level: per clique, the position p of the
    clique it extends and the generator j it adds, as two lists."""
    out, parents, added = [], [], []
    for p, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            mask ^= low
            j = low.bit_length() - 1
            parents.append(p)
            added.append(j)
            out.append(mask & later[j])
    return out, (parents, added)


def enumerate_cliques(alpha, k):
    """All k-element cliques of the independence relation, each sorted by
    declaration order, listed in lexicographic order of member indices.

    k = 0 gives the single empty clique.  Levels are computed once per
    alphabet, up to the largest k asked for, and kept on it; each call
    returns a fresh list.
    """
    if k < 0:
        raise ValueError(f"negative clique size {k}")
    names, gens = alpha._names, alpha.generators
    while len(names) <= k and names[-1]:
        parents, added = _growth(alpha, len(names))
        below = names[-1]
        names.append([below[p] + (gens[j],) for p, j in zip(parents, added)])
    return list(names[k]) if k < len(names) else []


def _level(alpha, k):
    """The kept masks of the k-cliques (k >= 0), grown on demand; one
    per clique, so the level's length is its clique count.  It is not a
    copy: callers read it and must not change it.  A level of more than
    ``_SIZE_CAP`` cliques, or of masks that may hold more than
    ``_MASK_BITS_CAP`` bits, raises ``ValidationError`` before it is
    grown.  A clique with mask m has m.bit_count() children, each with a
    mask no longer than m, so the level below bounds those bits."""
    table = alpha._cliques
    while len(table) <= k and table[-1]:
        where = f"clique level {len(table)}"
        _check_size(where, sum(mask.bit_count() for mask in table[-1]),
                    "cliques")
        _check_size(where, sum(mask.bit_count() * mask.bit_length()
                               for mask in table[-1]),
                    "mask bits at most", _MASK_BITS_CAP)
        masks, grown = _next_level(table[1], table[-1])
        table.append(masks)
        alpha._grown.append(grown)
    return table[k] if k < len(table) else ()


def _growth(alpha, k):
    """The record of level k (k >= 0), grown on demand: the kept lists
    of each k-clique's parent p in level k-1 and added generator j."""
    _level(alpha, k)
    return alpha._grown[k] if k < len(alpha._grown) else ((), ())


def _position(alpha, k):
    """A dict from the (p, j) of each k-clique to its position in level
    k, built once per level and kept."""
    parents, added = _growth(alpha, k)
    return _kept(alpha, "position", k, dict,
                 zip(zip(parents, added), range(len(parents))))


def clique_counts(alpha, top=None):
    """Clique counts [p_0, p_1, ..., p_w] up to the largest clique size w,
    or only up to p_top when top is given.

    p_0 = 1 for the empty clique, so an alphabet with no independence at
    all still reports [1, n].
    """
    counts = [1]
    while top is None or len(counts) <= top:
        n = len(_level(alpha, len(counts)))
        if not n:
            break
        counts.append(n)
    return counts


def max_clique_size(alpha):
    return len(clique_counts(alpha)) - 1
