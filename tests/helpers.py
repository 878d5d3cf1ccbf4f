"""Shared test utilities: independent oracles and random instance
generators.  The oracles here deliberately avoid the code paths they
check."""

import signal
from contextlib import contextmanager
from itertools import combinations, permutations
from math import gcd

from hypothesis import strategies as st

from tracehom import (BASEPOINT, IndependenceAlphabet, IntegerMatrix,
                      PointedMSet, barycentric_flagification,
                      enumerate_basis, enumerate_cliques,
                      full_action_from_successor)

#: the six-vertex triangulation of the projective plane
RP2_TRIANGLES = ["124", "126", "134", "135", "156",
                 "235", "236", "245", "346", "456"]


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError inside the block once it has run for seconds
    of wall time, so a test whose work blows up fails instead of hanging.

    It sets the real-time interval timer, so it works only in the main
    thread, on a platform with SIGALRM, around a block that sets no timer
    of its own."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def moore_faces(n):
    """A mod-n Moore space as a face list (n >= 1): a circle a, b, c and
    a disc whose boundary reads a b c n times, triangulated through an
    inner ring u0 .. u(3n-1) and a centre w.  Face counts (3n + 4,
    12n + 3, 9n), reduced homology [0, Z/n, 0]."""
    rim = "abc" * n
    ring = [f"u{i}" for i in range(3 * n)]
    faces = []
    for i in range(3 * n):
        j = (i + 1) % (3 * n)
        faces += [(rim[i], rim[j], ring[i]), (rim[j], ring[i], ring[j]),
                  (ring[i], ring[j], "w")]
    return faces


def sd2_rp2():
    """Alphabet of the second barycentric subdivision of RP2: 181
    generators, clique counts [1, 181, 540, 360]."""
    sd1 = barycentric_flagification(RP2_TRIANGLES)
    return barycentric_flagification(enumerate_cliques(sd1, 3))


def _bareiss(rows):
    """Fraction-free Gaussian elimination: the rank over the rationals,
    and the last pivot, which is up to sign the determinant of a
    nonsingular minor of that size (1 for a zero matrix)."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(nc):
        pivot_row = next((i for i in range(row, nr) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for i in range(row + 1, nr):
            for j in range(col + 1, nc):
                m[i][j] = (pivot * m[i][j] - m[i][col] * m[row][j]) // prev
            m[i][col] = 0
        prev = pivot
        rank += 1
        row += 1
        if row == nr:
            break
    return rank, prev


def bareiss_rank(rows):
    """Rank over the rationals by fraction-free Gaussian elimination."""
    return _bareiss(rows)[0]


def rank_mod(rows, p):
    """Rank over the field of p elements, p prime."""
    m = [[v % p for v in r] for r in rows]
    nc = len(m[0]) if m else 0
    rank = 0
    for col in range(nc):
        pivot_row = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        top = m[rank]
        inverse = pow(top[col], -1, p)
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                f = m[i][col] * inverse % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], top)]
        rank += 1
    return rank


def rank_mod_p_sparse(m, p):
    """Rank over the field of p elements, p prime, of an IntegerMatrix,
    by the column reduction of persistence algorithms: each column is
    reduced mod p against the kept columns, keyed by their lowest row,
    until its lowest row is new or it is zero.  It reads only
    ``m.rows``, ``m.cols`` and ``m.columns``."""
    lowest = {}  # lowest row -> kept column, 1 at that row
    for j in range(m.cols):
        col = {i: v % p for i, v in m.columns.get(j, {}).items() if v % p}
        while col:
            low = max(col)
            kept = lowest.get(low)
            if kept is None:
                inverse = pow(col[low], -1, p)
                lowest[low] = {i: v * inverse % p for i, v in col.items()}
                break
            f = col[low]
            for i, v in kept.items():
                w = (col.get(i, 0) - f * v) % p
                if w:
                    col[i] = w
                else:
                    del col[i]
        if len(lowest) == m.rows:
            break
    return len(lowest)


def mod_p_betti(boundaries, p):
    """dim H_n(C (x) F_p), n = 0 .. top, of the complex [d_0, d_1, ...,
    d_top+1] that ``build_complex`` gives, by ``rank_mod_p_sparse``."""
    ranks = [rank_mod_p_sparse(d, p) for d in boundaries]
    return [boundaries[n].cols - ranks[n] - ranks[n + 1]
            for n in range(len(boundaries) - 1)]


def prime_factors(n):
    """The primes dividing n != 0, by trial division."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def determinantal_factors(rows):
    """Invariant factors as successive quotients of minor gcds.

    Exponential in the matrix size; only for tiny frozen examples."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    factors = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, _det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def torsion_factors(rows):
    """The invariant factors above 1 of a matrix, exactly.

    Their product divides any nonzero maximal minor, here the last
    Bareiss pivot, so only its primes p can occur, and t_p = rank -
    (rank mod p) of the factors are divisible by p.  When t_p equals the
    power of p in the minor, each of them holds p exactly once.  Only a
    matrix where some prime could occur squared reaches the exponential
    ``determinantal_factors``."""
    rank, minor = _bareiss(rows)
    factors = [1] * rank
    for p in prime_factors(minor):
        t = rank - rank_mod(rows, p)
        if t and minor % p ** (t + 1) == 0:
            return [d for d in determinantal_factors(rows) if d > 1]
        for i in range(rank - t, rank):
            factors[i] *= p
    return [d for d in factors if d > 1]


def _min_abs_pivot(m, t, nr, nc):
    # Smallest |entry| in the active submatrix m[t:, t:]; ties go to the
    # lowest (row, col) because the scan is row-major and strict.
    best = 0
    bi = bj = -1
    for i in range(t, nr):
        mi = m[i]
        for j in range(t, nc):
            v = mi[j]
            if v:
                if v < 0:
                    v = -v
                if best == 0 or v < best:
                    best, bi, bj = v, i, j
                    if best == 1:
                        return bi, bj, 1
    return bi, bj, best


def diagonalize(rows):
    """Reduce an integer matrix to diagonal form with unimodular row and
    column operations and return the positive diagonal entries.

    The oracle for ``smith_normal_form``: a dense reduction that pivots
    on the entry of least absolute value, rescanning the whole active
    block for each pivot.  The entries come back in pivot order with no
    divisibility normalization (``divisor_chain`` does that).  ``rows``
    is a dense list of lists and is not modified.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    m = [list(r) for r in rows]
    diag = []
    t = 0
    while t < nr and t < nc:
        pi, pj, pv = _min_abs_pivot(m, t, nr, nc)
        if pv == 0:
            break
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        mt = m[t]
        if mt[t] < 0:
            mt[t:] = [-x for x in mt[t:]]
        a = mt[t]
        dirty = False
        for i in range(t + 1, nr):
            mi = m[i]
            v = mi[t]
            if not v:
                continue
            q, r = divmod(v, a)
            if q:
                mi[t:] = [x - q * y for x, y in zip(mi[t:], mt[t:])]
            if r:
                dirty = True
        if dirty:
            # The column now holds a remainder smaller than the pivot;
            # rescan so it becomes the next pivot.
            continue
        for j in range(t + 1, nc):
            # The column below the pivot is already clear, so a column
            # shear only changes the pivot row.
            r = mt[j] % a
            if r != mt[j]:
                mt[j] = r
            if r:
                dirty = True
        if dirty:
            continue
        diag.append(a)
        t += 1
    return diag



def divisor_chain(values):
    """The invariant factors of diag(values), values positive.

    diag(a, b) and diag(gcd(a, b), lcm(a, b)) present the same group.
    Pairing each entry with every later one leaves in it the gcd of all
    of them, which divides every lcm left behind, so one pass over the
    pairs yields a chain."""
    d = list(values)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return d


def dense(m):
    """The rows of an IntegerMatrix, read from its entries."""
    entries = m.entries
    return [[entries.get((i, j), 0) for j in range(m.cols)]
            for i in range(m.rows)]


def assert_column_storage(m):
    """m holds only nonempty columns of nonzero integers, all inside its
    shape, and its entries view counts exactly what it holds."""
    stored = 0
    for j, col in m.columns.items():
        assert 0 <= j < m.cols and col, (j, col)
        for i, v in col.items():
            assert 0 <= i < m.rows and type(v) is int and v, (i, j, v)
        stored += len(col)
    assert len(m.entries) == stored


def dense_product(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row) if x)
             for j in range(len(b[0]) if b else 0)] for row in a]


def pair_route_homology(boundaries):
    """Oracle for ``homology_of_complex``: each degree on its own, from
    dense copies of the full maps out of and into it.  The free rank is
    dim C_n minus the Bareiss ranks of d_n and d_n+1, the torsion is
    ``torsion_factors`` of d_n+1.  Groups come back as (free rank,
    torsion) pairs, already in invariant factor form."""
    rows = [dense(d) for d in boundaries]
    return [(boundaries[n].cols - bareiss_rank(rows[n])
             - bareiss_rank(rows[n + 1]), tuple(torsion_factors(rows[n + 1])))
            for n in range(len(boundaries) - 1)]


def as_pairs(groups):
    return [(g.free_rank, g.torsion) for g in groups]


def composes_to_zero(boundaries):
    """Whether every adjacent pair of maps composes to zero, by dense
    products."""
    rows = [dense(d) for d in boundaries]
    return all(not any(any(row) for row in dense_product(rows[n - 1], rows[n]))
               for n in range(1, len(rows)))


def change_one_entry(draw, boundaries):
    """The maps with one entry of one nonempty map changed by a nonzero
    amount; None when every map is empty."""
    nonempty = [n for n, d in enumerate(boundaries) if d.rows and d.cols]
    if not nonempty:
        return None
    n = draw(st.sampled_from(nonempty))
    d = boundaries[n]
    key = (draw(st.integers(0, d.rows - 1)), draw(st.integers(0, d.cols - 1)))
    entries = dict(d.entries)
    entries[key] = entries.get(key, 0) + draw(st.sampled_from((1, -1, 2)))
    changed = IntegerMatrix(d.rows, d.cols, entries)
    return boundaries[:n] + [changed] + boundaries[n + 1:]


def _unimodular(draw, n):
    """A random n x n unimodular matrix and its inverse, as products of
    row shears, swaps and sign changes."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = [row[:] for row in u]
    if n == 0:
        return u, inverse
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(index), draw(index)
        kind = draw(st.sampled_from(("shear", "shear", "swap", "sign")))
        if kind == "shear" and i != j:
            # U <- E U with E adding c times row j to row i;
            # U^-1 <- U^-1 E^-1, which subtracts c times column i from j
            c = draw(st.sampled_from((-2, -1, 1, 2)))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            for row in inverse:
                row[j] -= c * row[i]
        elif kind == "swap":
            u[i], u[j] = u[j], u[i]
            for row in inverse:
                row[i], row[j] = row[j], row[i]
        elif kind == "sign":
            u[i] = [-x for x in u[i]]
            for row in inverse:
                row[i] = -row[i]
    return u, inverse


def _canonical_torsion(values):
    """Invariant factors of the sum of Z/v over values in {2, 3, 6}:
    every 6 is Z/2 + Z/3, and a 2 and a 3 pair up into a 6."""
    twos = sum(v in (2, 6) for v in values)
    threes = sum(v in (3, 6) for v in values)
    sixes = min(twos, threes)
    rest = 2 if twos > threes else 3
    return (rest,) * abs(twos - threes) + (6,) * sixes


@st.composite
def diagonal_complexes(draw, max_maps=4):
    """Hypothesis strategy: maps d_0 .. d_L-1 with d_m from term m+1 to
    term m, and the homology at terms 1 .. L-1 read off in closed form.

    Map m is U_m D_m U_m+1^-1 with U unimodular and D_m a partial
    diagonal: k_m entries in {0, 1, 2, 3, 6} that send the m-th block of
    "sources" of term m+1 to the block of "targets" of term m.  Each
    term is [targets of the map into it | sources of the map out of it |
    f free coordinates], so D_m D_m+1 = 0 and then d_m d_m+1 = 0.  The
    homology at term t has free rank dim - rank D_t-1 - rank D_t and the
    entries of D_t above 1 as torsion."""
    maps = draw(st.integers(1, max_maps))
    values = [draw(st.lists(st.sampled_from((0, 1, 2, 3, 6)), max_size=3))
              for _ in range(maps)]
    k = [len(v) for v in values] + [0]
    free = [draw(st.integers(0, 2)) for _ in range(maps + 1)]
    # term t: k[t] targets of map t, then k[t - 1] sources of map t - 1
    dims = [k[t] + (k[t - 1] if t else 0) + free[t] for t in range(maps + 1)]
    units = [_unimodular(draw, n) for n in dims]
    boundaries = []
    for m in range(maps):
        diag = [[0] * dims[m + 1] for _ in range(dims[m])]
        for a, v in enumerate(values[m]):
            diag[a][k[m + 1] + a] = v
        rows = dense_product(dense_product(units[m][0], diag),
                             units[m + 1][1])
        boundaries.append(IntegerMatrix(dims[m], dims[m + 1], {
            (i, j): v for i, row in enumerate(rows)
            for j, v in enumerate(row) if v}))
    groups = []
    for t in range(1, maps):
        rank_out = sum(v != 0 for v in values[t - 1])
        rank_in = sum(v != 0 for v in values[t])
        groups.append((dims[t] - rank_out - rank_in,
                       _canonical_torsion([v for v in values[t] if v > 1])))
    return boundaries, groups


def brute_force_cliques(alpha, k):
    """All k-subsets of generators that are pairwise independent,
    found by checking every subset against the alphabet's pairs, which
    list each pair in declaration order."""
    out = []
    for combo in combinations(alpha.generators, k):
        if all(pair in alpha.pairs for pair in combinations(combo, 2)):
            out.append(combo)
    return out


def brute_force_iso(m1, m2):
    """The first basepoint-preserving equivariant bijection from m1 to
    m2 as a dict, or None: each ordering of m2's elements, in the order
    ``itertools.permutations`` lists them, is matched with m1's elements
    and checked at every point and generator."""
    if len(m1.elements) != len(m2.elements):
        return None
    gens = m1.alphabet.generators
    for image in permutations(m2.elements):
        phi = dict(zip(m1.elements, image))
        phi[BASEPOINT] = BASEPOINT
        if all(phi[m1.act(x, e)] == m2.act(phi[x], e)
               for x in phi for e in gens):
            return phi
    return None


def action_problems(alpha, elements, action):
    """What ``PointedMSet`` raises on an action table with distinct
    element names and every target in the carrier, [] when it is valid:
    the missing cells and moved basepoint, point by point, or else every
    failed commutation square, sorted by pair and then by carrier point.
    An omitted basepoint row means fixity.  Every independent pair is
    checked at every carrier point, the basepoint included."""
    carrier = [*elements, BASEPOINT]
    rows = {x: action.get(x, {}) for x in carrier}
    rows[BASEPOINT] = rows[BASEPOINT] or dict.fromkeys(alpha.generators,
                                                       BASEPOINT)
    problems = []
    for x in carrier:
        for e in alpha.generators:
            y = rows[x].get(e)
            if y is None:
                problems.append(f"missing action entry ({x!r}, {e!r})")
            elif x == BASEPOINT and y != BASEPOINT:
                problems.append(f"basepoint moved: *.{e!r} = {y!r}")
    if problems:
        return problems
    pairs = sorted((a, b) for a, b in combinations(alpha.generators, 2)
                   if alpha.independent(a, b))
    for a, b in pairs:
        for x in carrier:
            lhs, rhs = rows[rows[x][a]][b], rows[rows[x][b]][a]
            if lhs != rhs:
                problems.append(f"commutation fails at {x!r}: "
                                f"({x}.{a}).{b} = {lhs} but "
                                f"({x}.{b}).{a} = {rhs}")
    return problems


def successor_cycles(successor):
    """The cycles of the map x -> successor[x] with the basepoint fixed,
    each as a tuple of its points; the basepoint's loop is one."""
    f = {**successor, BASEPOINT: BASEPOINT}
    seen, cycles = set(), []
    for start in f:
        path = []
        x = start
        while x not in seen:
            seen.add(x)
            path.append(x)
            x = f[x]
        if x in path:
            cycles.append(tuple(path[path.index(x):]))
    return cycles


#: (rank at an element, rank at the basepoint) of each coefficient system
_RANKS = {"delta": (1, 1), "punctured": (1, 0), "basepoint": (0, 1)}


def closed_form_homology(alpha, successor, coefficients):
    """Homology of the full action where every generator sends x to
    successor[x], in degrees 0 .. w, as (free rank, torsion) pairs.

    Let P be the points of rank 1 under the named coefficient system,
    N = |P|, and c the number of cycles of the map that lie inside P (a
    fixed point is a cycle, and so is the basepoint).  Then

        H_n = (N - c) H~_n-1 + Z^(c p_n),

    with H~ the reduced homology of the clique complex, where H~_-1 is Z
    for the empty alphabet and 0 otherwise.  The cliques are brute-forced
    and H~ comes from dense augmented boundaries through
    ``diagonalize``; no engine code is used."""
    at_element, at_base = _RANKS[coefficients]
    rank_one = {x for x in successor if at_element}
    rank_one |= {BASEPOINT} if at_base else set()
    n_points = len(rank_one)
    c = sum(set(cycle) <= rank_one for cycle in successor_cycles(successor))
    levels = [[()]]
    while levels[-1]:
        levels.append(brute_force_cliques(alpha, len(levels)))
    # diags[s]: the diagonal of the boundary from the s-cliques to the
    # (s-1)-cliques, the faces of the 1-cliques being the empty clique
    diags = [[]]
    for s in range(1, len(levels)):
        index = {K: i for i, K in enumerate(levels[s - 1])}
        rows = [[0] * len(levels[s]) for _ in levels[s - 1]]
        for j, K in enumerate(levels[s]):
            for i in range(s):
                rows[index[K[:i] + K[i + 1:]]][j] = (-1) ** i
        diags.append(diagonalize(rows))
    groups = []
    for n in range(len(levels) - 1):
        # H~_n-1 is ker of the boundary out of the n-cliques over the
        # image of the one into them
        free = len(levels[n]) - len(diags[n]) - len(diags[n + 1])
        torsion = [d for d in diags[n + 1] if d > 1] * (n_points - c)
        groups.append(((n_points - c) * free + c * len(levels[n]),
                       tuple(d for d in divisor_chain(torsion) if d > 1)))
    return groups


def degree_zero_rank(m, coefficients):
    """The rank of H_0 of any action, full or not, under the named
    coefficient system; H_0 is free.

    d_1 sends (x, e) to x.e - x, or to -x when x.e has rank 0, so H_0
    is free on the components of the transition graph on the rank-1
    points that hold no point with a step to a rank-0 point.  The
    components come from a union-find over the action table."""
    at_element, at_base = _RANKS[coefficients]
    ranked = [x for x in m.elements if at_element]
    ranked += [BASEPOINT] if at_base else []
    parent = {x: x for x in ranked}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    leaking = []
    for x in ranked:
        for e in m.alphabet.generators:
            y = m.act(x, e)
            if y in parent:
                parent[find(x)] = find(y)
            else:
                leaking.append(x)
    return len({find(x) for x in ranked} - {find(x) for x in leaking})


@st.composite
def successor_maps(draw, max_elements=4):
    """Hypothesis strategy: a map from elements x0, x1, ... into the
    elements and the basepoint, so cycles, fixed points and trees all
    occur."""
    names = [f"x{k}" for k in range(draw(st.integers(0, max_elements)))]
    points = st.sampled_from(names + [BASEPOINT])
    return {x: draw(points) for x in names}

def random_matrix(rng, max_dim=8, lo=-9, hi=9):
    nr = rng.randint(0, max_dim)
    nc = rng.randint(0, max_dim)
    rows = [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]
    return IntegerMatrix.from_rows(rows)


def random_alphabet(rng, max_size=6, min_size=1):
    n = rng.randint(min_size, max_size)
    gens = [f"e{k}" for k in range(n)]
    density = rng.choice((0.2, 0.4, 0.6, 0.9))
    pairs = [(a, b) for a, b in combinations(gens, 2)
             if rng.random() < density]
    return IndependenceAlphabet(gens, pairs)


@st.composite
def alphabets(draw, max_size=10, min_size=0):
    """Hypothesis strategy: generators e0, e1, ... with each pair drawn
    independent or not."""
    gens = [f"e{k}" for k in range(draw(st.integers(min_size, max_size)))]
    pairs = list(combinations(gens, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return IndependenceAlphabet(gens, [p for p, k in zip(pairs, keep) if k])


@st.composite
def actions(draw, alpha, max_elements=4, min_elements=0):
    """Hypothesis strategy: a valid action over alpha, on min_elements
    to max_elements elements.

    A generator with an independent partner acts as a power of one
    shared function f (powers of f commute); the power 0 is the identity
    and f may fix points, so x.e = x is drawn often.  A generator with
    no partner needs to commute with nothing and acts by any table."""
    names = [f"x{k}" for k in
             range(draw(st.integers(min_elements, max_elements)))]
    carrier = names + [BASEPOINT]
    points = st.sampled_from(carrier)
    f = {x: draw(points) for x in names}
    f[BASEPOINT] = BASEPOINT
    partnered = {g for pair in alpha.pairs for g in pair}
    action = {x: {} for x in names}
    for e in alpha.generators:
        if e in partnered:
            power = draw(st.integers(0, 2))
            for x in names:
                y = x
                for _ in range(power):
                    y = f[y]
                action[x][e] = y
        else:
            for x in names:
                action[x][e] = draw(points)
    return PointedMSet(alpha, names, action)


def reference_boundary(m, system, degree):
    """The degree-n boundary built term by term: every (x, K) basis
    element is indexed by a dict, and the two terms of each face are
    added up, so terms that cancel sum to a zero the public constructor
    drops."""
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


def reference_face_table(alpha, degree):
    """The face table of the n-cliques, as ``alphabet._face_table``
    gives it, found from the cliques as name tuples: each face K minus
    e_s is looked up by name in level n-1."""
    position = {g: s for s, g in enumerate(alpha.generators)}
    face_index = {K: f for f, K in
                  enumerate(enumerate_cliques(alpha, degree - 1))}
    return [[(face_index[K[:s] + K[s + 1:]], position[K[s]],
              1 if s % 2 else -1) for s in range(len(K))]
            for K in enumerate_cliques(alpha, degree)]


def random_mset(rng, alpha, max_elements=4):
    """Random valid action over alpha.

    Commutation compatibility is guaranteed by construction: every
    generator acts as one of a set of pairwise commuting functions
    (a single shared function, powers of one function, or functions
    with disjoint support).  Over a free alphabet a fully random table
    is also allowed, since there is nothing to violate."""
    n = rng.randint(0, max_elements)
    names = [f"x{k}" for k in range(n)]
    carrier = names + [BASEPOINT]
    styles = ["full", "powers", "split"]
    if not alpha.pairs:
        styles.append("free")
    style = rng.choice(styles)
    if style == "full":
        return full_action_from_successor(
            alpha, {x: rng.choice(carrier) for x in names})
    if style == "free":
        action = {x: {e: rng.choice(carrier) for e in alpha.generators}
                  for x in names}
        return PointedMSet(alpha, names, action)
    if style == "powers":
        f = {x: rng.choice(carrier) for x in names}
        f[BASEPOINT] = BASEPOINT

        def power(x, k):
            for _ in range(k):
                x = f[x]
            return x

        exponent = {e: rng.randint(0, 2) for e in alpha.generators}
        action = {x: {e: power(x, exponent[e]) for e in alpha.generators}
                  for x in names}
        return PointedMSet(alpha, names, action)
    # split: two functions with disjoint support commute
    half = len(names) // 2
    part_a, part_b = names[:half], names[half:]

    def jump(part):
        moved = {x: rng.choice(part + [BASEPOINT]) for x in part}
        return lambda x: moved.get(x, x)

    maps = {"lo": jump(part_a), "hi": jump(part_b), "id": lambda x: x}
    choice = {e: rng.choice(sorted(maps)) for e in alpha.generators}
    action = {x: {e: maps[choice[e]](x) for e in alpha.generators}
              for x in names}
    return PointedMSet(alpha, names, action)


def relabel_elements(m):
    """Same action with every element renamed."""
    mapping = {x: f"y{k}" for k, x in enumerate(reversed(m.elements))}
    mapping[BASEPOINT] = BASEPOINT
    action = {mapping[x]: {e: mapping[m.act(x, e)]
                           for e in m.alphabet.generators}
              for x in m.elements}
    return PointedMSet(m.alphabet, [mapping[x] for x in m.elements], action)


def shuffle_generators(rng, m):
    """Same action with the generators declared in a different order."""
    order = list(m.alphabet.generators)
    rng.shuffle(order)
    alpha = IndependenceAlphabet(order, m.alphabet.pairs)
    action = {x: {e: m.act(x, e) for e in order} for x in m.elements}
    return PointedMSet(alpha, m.elements, action)


def rename_generators(m, order):
    """Same action over the same alphabet up to isomorphism: generators
    declared in the given order of the old names and renamed."""
    names = {g: f"r{k}" for k, g in enumerate(order)}
    alpha = IndependenceAlphabet([names[g] for g in order],
                                 [(names[a], names[b])
                                  for a, b in m.alphabet.pairs])
    action = {x: {names[e]: m.act(x, e) for e in order} for x in m.elements}
    return PointedMSet(alpha, m.elements, action)
