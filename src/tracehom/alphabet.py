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
into children.  Each level is one record (masks, parents, added): per
clique, its mask, the position of the clique it extends one level down
and the generator it adds.  Only this module reads that record; the
cliques as name tuples and the face tables of ``chains`` are built from
it and kept through ``_kept``.  The size of a level is the number of
set bits in the masks below it, so it is known before the level is
grown, and a level of more than ``_SIZE_CAP`` cliques is refused with a
``ValidationError`` before anything is listed.

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

    __slots__ = ("generators", "pairs", "_index", "_cliques", "_kept")

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
        # bit j of later[i] marks the pair (i, j), for i < j
        later = [0] * len(gens)
        for pair in independence:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and isinstance(pair[0], str)
                    and isinstance(pair[1], str)):
                problems.append(f"independence pair {pair!r} is not a pair "
                                "of generator names")
                continue
            a, b = pair
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                problems.append(f"independence pair ({a!r}, {b!r}) "
                                "names unknown generators")
            elif i == j:
                problems.append(f"independence pair ({a!r}, {a!r}) "
                                "is reflexive")
            elif i < j:
                pairs.add((a, b))
                later[i] |= 1 << j
            else:
                pairs.add((b, a))
                later[j] |= 1 << i
        if problems:
            raise ValidationError(problems)
        self.generators = gens
        self.pairs = frozenset(pairs)
        self._index = index
        # clique table: level k is the record of the k-cliques, as
        # _next_level gives it.  The 1-cliques' masks are the
        # later-neighbour masks themselves, and their parent is the
        # empty clique.  Higher levels are added on demand by _level.
        self._cliques = [([(1 << len(gens)) - 1], [], []),
                         (later, [0] * len(gens), list(range(len(gens))))]
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
        return bool(self._cliques[1][0][i] >> j & 1)

    def __eq__(self, other):
        if not isinstance(other, IndependenceAlphabet):
            return NotImplemented
        return (self.generators, self.pairs) == \
            (other.generators, other.pairs)

    def __repr__(self):
        return (f"IndependenceAlphabet({list(self.generators)!r}, "
                f"{sorted(self.pairs)!r})")


def _next_level(later, masks):
    """The record of the (k+1)-cliques from the masks of the k-cliques:
    each clique is extended by every bit of its mask, in ascending order,
    so the new level is again in lexicographic order of member indices.
    Per new clique the record holds its mask, the position p of the
    clique it extends and the generator j it adds, as three lists."""
    out, parents, added = [], [], []
    for p, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            mask ^= low
            j = low.bit_length() - 1
            parents.append(p)
            added.append(j)
            out.append(mask & later[j])
    return out, parents, added


def _level(alpha, k):
    """The kept record (masks, parents, added) of the k-cliques (k >= 0),
    grown on demand; each list holds one entry per clique, and past the
    largest clique size they are empty.  It is not a copy: callers read
    it and must not change it.  A level of more than ``_SIZE_CAP``
    cliques, or of masks that may hold more than ``_MASK_BITS_CAP``
    bits, raises ``ValidationError`` before it is grown.  A clique with
    mask m has m.bit_count() children, each with a mask no longer than
    m, so the level below bounds those bits."""
    table = alpha._cliques
    while len(table) <= k and table[-1][0]:
        masks = table[-1][0]
        where = f"clique level {len(table)}"
        _check_size(where, sum(mask.bit_count() for mask in masks),
                    "cliques")
        _check_size(where, sum(mask.bit_count() * mask.bit_length()
                               for mask in masks),
                    "mask bits at most", _MASK_BITS_CAP)
        table.append(_next_level(table[1][0], masks))
    return table[k] if k < len(table) else ((), (), ())


def enumerate_cliques(alpha, k):
    """All k-element cliques of the independence relation, each sorted by
    declaration order, listed in lexicographic order of member indices.

    k = 0 gives the single empty clique.  Levels are computed once per
    alphabet, up to the largest k asked for, and kept on it, and so are
    the names of each level asked for; each call returns a fresh list.
    """
    if k < 0:
        raise ValueError(f"negative clique size {k}")
    return list(_kept(alpha, "names", k, _clique_names, alpha, k))


def _clique_names(alpha, k):
    # clique (p, j) of level k is clique p of level k-1 plus generator j
    _, parents, added = _level(alpha, k)
    if not parents:
        return [()] if k == 0 else []
    below = _kept(alpha, "names", k - 1, _clique_names, alpha, k - 1)
    gens = alpha.generators
    return [below[p] + (gens[j],) for p, j in zip(parents, added)]


def _face_table(alpha, degree):
    """The face table of the n-cliques (n >= 1): per n-clique, (face
    index, generator position, sign) for s = 0 .. n-1, the sign being
    (-1)^(s+1).  Built once per degree and kept on the alphabet.

    Clique (p, j) of level n extends clique p of level n-1 by generator
    j.  Its faces are the children (f, j) of the faces f of p, with the
    generator and sign of f, and p itself, without j, with the sign
    (-1)^n.  No clique is named."""
    return _kept(alpha, "faces", degree, _faces, alpha, degree)


def _faces(alpha, degree):
    _, parents, added = _level(alpha, degree)
    if not parents:
        return []
    # the empty clique has no faces
    below = _face_table(alpha, degree - 1) if degree > 1 else [[]]
    # position in level n-1 of the clique with each (parent, generator)
    _, up, gen = _level(alpha, degree - 1)
    child = dict(zip(zip(up, gen), range(len(up))))
    sign = 1 if degree % 2 == 0 else -1
    return [[(child[f, j], s, sg) for f, s, sg in below[p]] + [(p, j, sign)]
            for p, j in zip(parents, added)]


def clique_counts(alpha, top=None):
    """Clique counts [p_0, p_1, ..., p_w] up to the largest clique size w,
    or only up to p_top when top is given.

    p_0 = 1 for the empty clique, so an alphabet with no independence at
    all still reports [1, n].
    """
    # a level already grown is read off the table; only a level above
    # them all, and not above top, is grown
    table = alpha._cliques
    counts = [1]
    while top is None or len(counts) <= top:
        k = len(counts)
        masks = table[k][0] if k < len(table) else _level(alpha, k)[0]
        if not masks:
            break
        counts.append(len(masks))
    return counts


def max_clique_size(alpha):
    return len(clique_counts(alpha)) - 1
