"""Abstract simplicial complexes and their integer homology.

This is a second, deliberately separate route to the same invariants as
chains.py: simplices are stored as sorted vertex tuples and the boundary
is the standard alternating face sum.  Keeping the two implementations
independent lets the test suite and ``verify`` play them against each
other, so this module imports nothing from chains.py.  Like the chains
route, it fills each boundary column by column from a table of facet
indices, here the one its closure check makes, and hands the columns to
``IntegerMatrix`` unchecked.
"""

from itertools import chain, combinations
from operator import lt

from .alphabet import (IndependenceAlphabet, _check_size, clique_counts,
                       enumerate_cliques)
from .errors import ValidationError
from .intlinalg import IntegerMatrix, homology_of_complex


class SimplicialComplex:
    """Finite abstract simplicial complex.

    ``simplices[k]`` lists the dimension-k simplices as tuples sorted by
    vertex order.  Construction first validates every level (each
    simplex has k + 1 vertices of the complex, in strictly increasing
    vertex order, and no simplex listed twice) and then checks closure
    under taking faces, level by level.  That check looks each facet up
    once and keeps the result: for each k-simplex with k >= 1, the row
    indices of its facets in level k - 1, in ``combinations`` order (the
    last vertex dropped first).  The boundaries are filled from that
    table.  Row and column numbers, in the table, the boundaries and the
    augmentation alike, come from one list of ints per complex, so every
    map keys a basis index by the same object.
    """

    __slots__ = ("vertices", "simplices", "_facets", "_numbers")

    def __init__(self, vertices, simplices):
        self.vertices = tuple(vertices)
        vindex = {v: k for k, v in enumerate(self.vertices)}
        if len(vindex) != len(self.vertices):
            raise ValidationError(["duplicate vertices"])
        levels = []
        for k, level in enumerate(simplices):
            keyed = []
            for simplex in level:
                simplex = tuple(simplex)
                if len(simplex) != k + 1:
                    raise ValidationError(
                        [f"simplex {simplex!r} is not {k}-dimensional"])
                idx = tuple(map(vindex.get, simplex))
                if None in idx or not all(map(lt, idx, idx[1:])):
                    raise ValidationError(
                        [f"simplex {simplex!r} is not a sorted vertex tuple"])
                keyed.append((idx, simplex))
            # distinct simplices have distinct idx, so no two vertices
            # are ever ordered; copies of one simplex end up side by side
            keyed.sort()
            for (idx, simplex), (after, _) in zip(keyed, keyed[1:]):
                if idx == after:
                    raise ValidationError(
                        [f"simplex {simplex!r} is listed twice"])
            levels.append([simplex for _, simplex in keyed])
        self.simplices = levels
        self._numbers = numbers = list(range(max(map(len, levels),
                                                 default=0)))
        # _facets[k - 1][c]: the rows in level k - 1 of the facets of
        # simplex c of level k
        self._facets = []
        for k in range(1, len(levels)):
            lower = dict(zip(levels[k - 1], numbers)).get
            rows = []
            for simplex in levels[k]:
                row = list(map(lower, combinations(simplex, k)))
                if None in row:
                    facet = list(combinations(simplex, k))[row.index(None)]
                    raise ValidationError(
                        [f"missing face {facet!r} of {simplex!r}"])
                rows.append(row)
            self._facets.append(rows)

    @classmethod
    def from_maximal_faces(cls, faces):
        """Downward closure of the given faces.

        Vertex order is sorted token order, so the complex does not
        depend on how the face list was written down.
        """
        closure = set()
        for face in faces:
            face = tuple(sorted(set(face)))
            if not face:
                raise ValidationError(["empty face"])
            for k in range(1, len(face) + 1):
                closure.update(combinations(face, k))
        vertices = sorted({v for s in closure for v in s})
        top = max((len(s) for s in closure), default=0)
        levels = [[s for s in closure if len(s) == k + 1]
                  for k in range(top)]
        return cls(vertices, levels)

    @property
    def dim(self):
        return len(self.simplices) - 1

    def count(self, k):
        if 0 <= k < len(self.simplices):
            return len(self.simplices[k])
        return 0

    def euler_characteristic(self):
        return sum((-1) ** k * len(level)
                   for k, level in enumerate(self.simplices))

    def augmentation(self):
        """The all-ones map from vertices to Z."""
        return IntegerMatrix._unchecked(
            1, self.count(0),
            {j: {0: 1} for j in self._numbers[:self.count(0)]})

    def boundary_matrix(self, k):
        """Standard simplicial boundary from dimension k to k - 1.

        The facet that drops vertex i of a simplex gets the sign (-1)^i.
        Columns are filled from the facet table that the closure check
        made, so the entries are ±1 inside the shape by construction
        and go to ``IntegerMatrix`` unchecked.  Past the top dimension
        the map is zero.  A solid triangle's d_2 has one column, over
        the edges ab, ac, bc:

        >>> cx = SimplicialComplex.from_maximal_faces([("a", "b", "c")])
        >>> cx.simplices[1]
        [('a', 'b'), ('a', 'c'), ('b', 'c')]
        >>> cx.boundary_matrix(2).columns
        {0: {0: 1, 1: -1, 2: 1}}
        """
        if k < 1:
            raise ValueError(f"boundary needs dimension >= 1, got {k}")
        if k > self.dim:
            return IntegerMatrix(self.count(k - 1), 0)
        # combinations drops the last vertex first
        signs = [-1 if i % 2 else 1 for i in range(k, -1, -1)]
        return IntegerMatrix._unchecked(
            self.count(k - 1), self.count(k),
            {c: dict(zip(row, signs))
             for c, row in zip(self._numbers, self._facets[k - 1])})

    def reduced_homology(self):
        """Reduced homology groups in degrees 0 .. dim.

        Degree 0 is taken against the augmentation, so a connected
        complex reports 0 there.  An empty complex has no degrees.  The
        augmentation and the boundaries go through one top-down
        reduction, ``homology_of_complex``, which also checks that each
        adjacent pair composes to zero.
        """
        if not self.vertices:
            return []
        return homology_of_complex(
            [self.augmentation()]
            + [self.boundary_matrix(k) for k in range(1, self.dim + 2)])

    def __repr__(self):
        sizes = [len(level) for level in self.simplices]
        return f"SimplicialComplex(sizes={sizes})"


def clique_complex(alpha, top=None):
    """Flag complex of the independence relation: the dimension-k
    simplices are the (k + 1)-element cliques.

    With top given, only simplices of dimension up to top are listed.
    That skeleton has the reduced homology of the whole complex in
    degrees below top.  A complex of more than ``alphabet._SIZE_CAP``
    simplices raises ``ValidationError`` before any clique is named.
    """
    counts = clique_counts(alpha, None if top is None else top + 1)
    _check_size("the clique complex", sum(counts[1:]), "simplices")
    levels = []
    while top is None or len(levels) <= top:
        cliques = enumerate_cliques(alpha, len(levels) + 1)
        if not cliques:
            break
        levels.append(cliques)
    return SimplicialComplex(alpha.generators, levels)


def read_face_list(text):
    """Parse a face-list file: one maximal face per line, vertices as
    whitespace-separated tokens.

    A line whose first token starts with '#' is a comment line; '#'
    starts no comment anywhere else.  Every line that has a token
    starting with '#' after its first token, and every line that
    repeats a vertex, is named in one ``ValidationError``.
    """
    faces = []
    problems = []
    for lineno, line in enumerate(text.splitlines(), 1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if any(t.startswith("#") for t in tokens[1:]):
            problems.append(f"line {lineno}: '#' starts a comment only at "
                            f"the start of a line: {line.strip()!r}")
        if len(set(tokens)) != len(tokens):
            problems.append(
                f"line {lineno}: face repeats a vertex: {line.strip()!r}")
        faces.append(tokens)
    if problems:
        raise ValidationError(problems)
    return faces


def barycentric_flagification(maximal_faces):
    """Alphabet whose generators are the nonempty faces of the input
    complex, independent exactly when one strictly contains the other.

    The clique complex of the result is the barycentric subdivision of
    the input, so both carry the same reduced homology.  Generator names
    join the face's vertices with commas; generators are ordered by
    (dimension, vertex order).  A vertex name holding a comma can give
    two faces the same name; every such pair is named in one
    ``ValidationError``.  So is a face list whose distinct faces have
    more than ``alphabet._SIZE_CAP`` nonempty subfaces, a subface of
    two of them counted twice, before any face is listed, and a complex
    whose (subface, face) pairs, the alphabet's 2-cliques, would number
    more than that, before any pair is listed.
    """
    maximal_faces = list(maximal_faces)
    _check_size("the face list", sum(2 ** len(face) - 1 for face
                                     in set(map(frozenset, maximal_faces))),
                "faces")
    complex_ = SimplicialComplex.from_maximal_faces(maximal_faces)
    faces = list(chain.from_iterable(complex_.simplices))
    _check_size("clique level 2", sum(2 ** len(f) - 2 for f in faces),
                "cliques")
    names, owner = {}, {}
    problems = []
    for face in faces:
        name = names[face] = ",".join(face)
        first = owner.setdefault(name, face)
        if first != face:
            problems.append(f"faces {first!r} and {face!r} both get the "
                            f"generator name {name!r}: a vertex name must "
                            "not contain ','")
    if problems:
        raise ValidationError(problems)
    # every proper subface of a face is a face of the complex, as the
    # same sorted tuple
    pairs = [(names[small], names[big]) for big in faces
             for k in range(1, len(big))
             for small in combinations(big, k)]
    return IndependenceAlphabet([names[f] for f in faces], pairs)
