"""Shared test utilities: independent oracles and random instance
generators.  The oracles here deliberately avoid the code paths they
check."""

from itertools import combinations
from math import gcd

from hypothesis import strategies as st

from tracehom import (BASEPOINT, IndependenceAlphabet, IntegerMatrix,
                      PointedMSet, barycentric_flagification,
                      enumerate_basis, enumerate_cliques,
                      full_action_from_successor)

#: the six-vertex triangulation of the projective plane
RP2_TRIANGLES = ["124", "126", "134", "135", "156",
                 "235", "236", "245", "346", "456"]


def sd2_rp2():
    """Alphabet of the second barycentric subdivision of RP2: 181
    generators, clique counts [1, 181, 540, 360]."""
    sd1 = barycentric_flagification(RP2_TRIANGLES)
    return barycentric_flagification(enumerate_cliques(sd1, 3))


def bareiss_rank(rows):
    """Rank over the rationals by fraction-free Gaussian elimination."""
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
    return rank


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


def brute_force_cliques(alpha, k):
    """All k-subsets of generators that are pairwise independent,
    found by checking every subset."""
    out = []
    for combo in combinations(alpha.generators, k):
        if all(alpha.independent(a, b) for a, b in combinations(combo, 2)):
            out.append(combo)
    return out


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
def actions(draw, alpha, max_elements=4):
    """Hypothesis strategy: a valid action over alpha.

    A generator with an independent partner acts as a power of one
    shared function f (powers of f commute); the power 0 is the identity
    and f may fix points, so x.e = x is drawn often.  A generator with
    no partner needs to commute with nothing and acts by any table."""
    names = [f"x{k}" for k in range(draw(st.integers(0, max_elements)))]
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
