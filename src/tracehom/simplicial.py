"""Abstract simplicial complexes and their integer homology.

This is a second, deliberately separate route to the same invariants as
chains.py: simplices are stored as sorted vertex tuples and the boundary
is the standard alternating face sum.  Keeping the two implementations
independent lets the test suite play them against each other.
"""

from itertools import chain, combinations

from .alphabet import IndependenceAlphabet, enumerate_cliques
from .errors import ValidationError
from .intlinalg import IntegerMatrix, homology_of_pair


class SimplicialComplex:
    """Finite abstract simplicial complex.

    ``simplices[k]`` lists the dimension-k simplices as tuples sorted by
    vertex order; closure under taking faces is checked on construction.
    """

    __slots__ = ("vertices", "simplices", "_index")

    def __init__(self, vertices, simplices):
        self.vertices = tuple(vertices)
        vindex = {v: k for k, v in enumerate(self.vertices)}
        if len(vindex) != len(self.vertices):
            raise ValidationError(["duplicate vertices"])
        levels = []
        for k, level in enumerate(simplices):
            cleaned = []
            for simplex in level:
                simplex = tuple(simplex)
                if len(simplex) != k + 1:
                    raise ValidationError(
                        [f"simplex {simplex!r} is not {k}-dimensional"])
                idx = [vindex.get(v) for v in simplex]
                if None in idx or sorted(set(idx)) != idx:
                    raise ValidationError(
                        [f"simplex {simplex!r} is not a sorted vertex tuple"])
                cleaned.append(simplex)
            levels.append(sorted(cleaned, key=lambda s: [vindex[v] for v in s]))
        self.simplices = levels
        self._index = [{s: i for i, s in enumerate(level)}
                       for level in levels]
        for k in range(1, len(levels)):
            for simplex in levels[k]:
                for facet in combinations(simplex, k):
                    if facet not in self._index[k - 1]:
                        raise ValidationError(
                            [f"missing face {facet!r} of {simplex!r}"])

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
        return IntegerMatrix(1, self.count(0),
                             {(0, j): 1 for j in range(self.count(0))})

    def boundary_matrix(self, k):
        """Standard simplicial boundary from dimension k to k - 1."""
        if k < 1:
            raise ValueError(f"boundary needs dimension >= 1, got {k}")
        if k > self.dim:
            return IntegerMatrix(self.count(k - 1), 0)
        faces = self._index[k - 1]
        entries = {}
        for col, simplex in enumerate(self.simplices[k]):
            for i in range(len(simplex)):
                face = simplex[:i] + simplex[i + 1:]
                entries[(faces[face], col)] = -1 if i % 2 else 1
        return IntegerMatrix(self.count(k - 1), self.count(k), entries)

    def reduced_homology(self):
        """Reduced homology groups in degrees 0 .. dim.

        Degree 0 is taken against the augmentation, so a connected
        complex reports 0 there.  An empty complex has no degrees.
        """
        if not self.vertices:
            return []
        out = []
        for k in range(self.dim + 1):
            d_in = self.boundary_matrix(k) if k else self.augmentation()
            out.append(homology_of_pair(d_in, self.boundary_matrix(k + 1)))
        return out

    def __repr__(self):
        sizes = [len(level) for level in self.simplices]
        return f"SimplicialComplex(sizes={sizes})"


def clique_complex(alpha, top=None):
    """Flag complex of the independence relation: the dimension-k
    simplices are the (k + 1)-element cliques.

    With top given, only simplices of dimension up to top are listed.
    That skeleton has the reduced homology of the whole complex in
    degrees below top.
    """
    levels = []
    while top is None or len(levels) <= top:
        cliques = enumerate_cliques(alpha, len(levels) + 1)
        if not cliques:
            break
        levels.append(cliques)
    return SimplicialComplex(alpha.generators, levels)


def read_face_list(text):
    """Parse a face-list file: one maximal face per line, vertices as
    whitespace-separated tokens, '#' starting a comment line."""
    faces = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("#"):
            continue
        tokens = line.split()
        if not tokens:
            continue
        if len(set(tokens)) != len(tokens):
            raise ValidationError(
                [f"line {lineno}: face repeats a vertex: {line.strip()!r}"])
        faces.append(tokens)
    return faces


def barycentric_flagification(maximal_faces):
    """Alphabet whose generators are the nonempty faces of the input
    complex, independent exactly when one strictly contains the other.

    The clique complex of the result is the barycentric subdivision of
    the input, so both carry the same reduced homology.  Generator names
    join the face's vertices with commas; generators are ordered by
    (dimension, vertex order).
    """
    complex_ = SimplicialComplex.from_maximal_faces(maximal_faces)
    faces = list(chain.from_iterable(complex_.simplices))
    names = {face: ",".join(face) for face in faces}
    pairs = []
    for i, small in enumerate(faces):
        small_set = set(small)
        for big in faces[i + 1:]:
            if len(big) > len(small) and small_set.issubset(big):
                pairs.append((names[small], names[big]))
    return IndependenceAlphabet([names[f] for f in faces], pairs)
