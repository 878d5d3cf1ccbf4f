"""Chain complexes of pointed trace-monoid actions.

Degree n is free abelian on pairs (x, K): a carrier point x whose
coefficient group has rank 1, and a size-n clique K of independent
generators.  The boundary of (x, K) with K = (e_1 < ... < e_n) is

    sum over s of (-1)^s [ (x.e_s, K minus e_s) - (x, K minus e_s) ]

where the first term is dropped whenever the coefficient group at
x.e_s has rank 0; a step between two rank-1 points acts as the
identity.  Three built-in coefficient systems cover the constant, the
basepoint-punctured, and the basepoint-only cases.

Bases are element-major: with p_n the number of n-cliques, basis
element (point k, clique c) of degree n sits at index k * p_n + c.  A
boundary is assembled from the face table of the n-cliques, which
``alphabet._face_table`` builds once per degree and keeps on the
alphabet: for each n-clique, the index of each face K minus e_s in
level n-1, the generator e_s and the sign.  This module reads the
clique table through that table and the clique counts alone.  Rows and
columns are then index arithmetic on the action's image table (each
rank-1 point's images under the generators, as basis positions), which
is built once per coefficient system and kept on the action.  The two
terms of a face cancel when x.e_s = x and are left out; no other two
terms of a column share a row, so each entry is stored once, as +-1,
into one row-keyed dict per column.  A column left empty is not
stored.  A boundary with no n-cliques, or with every rank-1 point
fixed by every generator, is zero and is returned without a face
table.  Only the public ``IntegerMatrix`` constructor validates
entries; the builder's columns are handed over unchecked.

``build_complex`` lists the boundaries d_0 .. d_top+1 that
``homology_of_complex`` takes, and nothing else: the dimension of
degree n is the column count of d_n, and a complex of more than
``alphabet._SIZE_CAP`` basis elements in all is refused before any map
is built.  The alphabet and the image table determine the whole complex,
so ``homology`` keeps its groups on the alphabet under the image table.
Face tables, image tables and groups are all kept through
``alphabet._kept``.  There are no chains above the largest clique size
w, so ``homology`` builds nothing above degree w + 1 and pads the
groups with zeros; a bound that would report more than
``alphabet._SIZE_CAP`` groups is refused.
"""

from .alphabet import (_check_size, _face_table, _kept, clique_counts,
                       enumerate_cliques, max_clique_size)
from .intlinalg import AbelianGroup, IntegerMatrix, homology_of_complex
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
    return [(x, K) for x in _basis_points(m, system) for K in cliques]


def _basis_points(m, system):
    """Carrier points whose coefficient group has rank 1, in basis order."""
    return [x for x in m.carrier if system.value_at(x)]


def _image_table(m, system):
    """What the action gives the complex: one tuple per rank-1 point, in
    basis order, holding per generator the basis position of the point's
    image, None for an image of rank 0 and -1 for the point itself.
    Over one alphabet, equal tables give equal complexes.  Built on
    first use and kept on the action, one table per system."""
    return _kept(m, "images", system, _images, m, system)


def _images(m, system):
    points = _basis_points(m, system)
    where = {x: k for k, x in enumerate(points)}
    gens, rows = m.alphabet.generators, m._rows
    table = []
    for k, x in enumerate(points):
        where[x] = -1
        row = rows[x]
        table.append(tuple([where.get(row[e]) for e in gens]))
        where[x] = k
    return tuple(table)


def boundary_matrix(m, system, degree):
    """Matrix of the degree-n boundary over the degree n-1 basis, filled
    column by column from the face table of the n-cliques (see the
    module docstring)."""
    if degree < 1:
        raise ValueError(f"boundary needs degree >= 1, got {degree}")
    alpha = m.alphabet
    images = _image_table(m, system)
    # the clique counts of levels n-1 and n, zero above the largest
    p_lo, p_up = (clique_counts(alpha, degree)[degree - 1:] + [0, 0])[:2]
    shape = len(images) * p_lo, len(images) * p_up
    fixed = (-1,) * len(alpha.generators)
    if not p_up or all(image == fixed for image in images):
        # no columns, or every face's two terms cancel at every point
        return IntegerMatrix._unchecked(*shape, {})
    faces = _face_table(alpha, degree)
    columns = {}
    for k, image in enumerate(images):
        if image == fixed:
            # every face's two terms cancel: the columns are zero
            continue
        # row offset of each generator's image; None and -1 as in the
        # image table
        offset = [j if j is None or j == -1 else j * p_lo for j in image]
        own = k * p_lo
        for col, clique_faces in enumerate(faces, k * p_up):
            column = {}
            for f, s, sign in clique_faces:
                y = offset[s]
                if y == -1:
                    continue
                if y is not None:
                    column[y + f] = sign
                column[own + f] = -sign
            if column:
                columns[col] = column
    return IntegerMatrix._unchecked(*shape, columns)


def build_complex(m, system, top=None):
    """The maps [d_0, d_1, ..., d_top+1] that homology in degrees 0 ..
    top needs, as ``homology_of_complex`` takes them.

    d_0 is the zero map out of degree 0 and d_n is ``boundary_matrix``.
    top defaults to the largest clique size w, where d_w+1 has no
    columns.  A lower top leaves every clique above it unlisted, a
    higher one adds zero maps, and a negative one gives [d_0] alone.
    Degree n has dimension (points of rank 1) x (n-cliques), the column
    count of d_n; its basis is never listed.  A complex of more than
    ``alphabet._SIZE_CAP`` basis elements in degrees 0 .. top+1 raises
    ``ValidationError`` before any map is built.  That d o d = 0 is
    checked where homology is taken.
    """
    if top is None:
        top = max_clique_size(m.alphabet)
    points = len(_image_table(m, system))
    _check_size("the chain complex",
                points * sum(clique_counts(m.alphabet, top + 1)),
                "basis elements")
    maps = [IntegerMatrix(0, points)]
    maps.extend(boundary_matrix(m, system, n) for n in range(1, top + 2))
    return maps


def homology(m, system, max_degree=None):
    """Homology of the action in degrees 0 .. max_degree (default: the
    largest clique size w).  Only degrees up to max_degree + 1, and none
    above w + 1, are built; degrees above w come out as zero groups, and
    a negative bound gives none.  A bound past ``alphabet._SIZE_CAP``
    groups raises ``ValidationError`` before anything is built.

    The groups are kept on the alphabet, one entry per distinct image
    table and resolved bound.  Equal image tables give equal boundaries,
    so a complex that two actions or two systems share, like PUNCTURED
    of ``x0_mset`` and of the same action under another element name,
    is built and reduced once; each call returns a fresh list."""
    top = max_clique_size(m.alphabet) if max_degree is None else max_degree
    _check_size(f"homology up to degree {top}", top + 1, "groups")
    key = (_image_table(m, system), top)
    return list(_kept(m.alphabet, "homology", key, _homology, m, system, top))


def _homology(m, system, top):
    # there are no chains above w: build up to w at most, then pad
    built = min(top, len(clique_counts(m.alphabet, top + 1)) - 1)
    return homology_of_complex(build_complex(m, system, built)) \
        + [AbelianGroup(0) for _ in range(top - built)]
