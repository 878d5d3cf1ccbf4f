"""Mechanical checks of the homology decomposition identities.

Each check recomputes both sides of an isomorphism with the engine and
compares canonical group descriptors degree by degree:

  split: constant coefficients = punctured coefficients + free part of
         rank p_s, in every degree s >= 1, for any valid action.
  power: for a full action whose reduced transition graph is a tree
         rooted at the basepoint, punctured homology is the |X|-fold
         power of the two-point reference.
  main:  under the same conditions, constant-coefficient homology is
         the |X|-fold power of the clique complex's reduced homology
         one degree down, plus the free part of rank p_s.
  aug:   for the two-point reference itself, punctured homology in
         degree n is the clique complex's reduced homology in n - 1.

Checks whose preconditions fail report "not applicable" rather than
passing silently.

The identities share terms.  Each term is computed once and kept on the
alphabet through ``alphabet._kept``: the homology of an action, one
entry per distinct image table (see ``chains.homology``), the two-point
reference and, kept by this module, the clique complex's reduced
homology per degree bound.  On the two-point action itself, its
PUNCTURED complex is the reference's, so ``verify all`` reduces three
complexes, not four.  main and aug still compare a side from the
chains route with one from the simplicial route.
"""

from .alphabet import _kept, clique_counts, max_clique_size
from .chains import DELTA, PUNCTURED, homology
from .intlinalg import AbelianGroup
from .msets import chain_mset, check_conditions, fan_mset, iso_check, x0_mset
from .records import Record
from .simplicial import clique_complex


class DegreeComparison(Record):
    __slots__ = ("degree", "lhs", "rhs")

    def __init__(self, degree, lhs, rhs):
        self._set(degree=degree, lhs=lhs, rhs=rhs)

    @property
    def ok(self):
        return self.lhs == self.rhs


class VerificationReport(Record):
    __slots__ = ("claim", "applicable", "comparisons", "note")

    def __init__(self, claim, applicable, comparisons=(), note=""):
        self._set(claim=claim, applicable=applicable,
                  comparisons=comparisons, note=note)

    @property
    def holds(self):
        return self.applicable and all(c.ok for c in self.comparisons)

    @property
    def status(self):
        if not self.applicable:
            return "N-A"
        return "PASS" if self.holds else "FAIL"

    @property
    def witness(self):
        for c in self.comparisons:
            if not c.ok:
                return c
        return None


def _at(groups, s):
    return groups[s] if 0 <= s < len(groups) else AbelianGroup(0)


def _count_at(counts, s):
    return counts[s] if s < len(counts) else 0


def _reduced(alpha, max_degree):
    """Reduced homology of the clique complex up to max_degree, by the
    simplicial route; computed once per bound and kept on the alphabet."""
    return list(_kept(alpha, "reduced", max_degree, lambda: clique_complex(
        alpha, max_degree).reduced_homology()))


def _degrees(alpha, max_degree):
    if max_degree is None:
        max_degree = max_clique_size(alpha)
    return range(1, max_degree + 1)


def check_lemma_split(m, max_degree=None):
    """delta = punctured + Z^(p_s) in every degree s >= 1."""
    counts = clique_counts(m.alphabet, max_degree)
    h_delta = homology(m, DELTA, max_degree)
    h_punct = homology(m, PUNCTURED, max_degree)
    comparisons = tuple(
        DegreeComparison(s, _at(h_delta, s),
                         _at(h_punct, s) + AbelianGroup(_count_at(counts, s)))
        for s in _degrees(m.alphabet, max_degree))
    return VerificationReport("split", True, comparisons)


def check_prop_power(m, max_degree=None):
    """punctured(m) = punctured(two-point reference)^|X| under the full
    action and rooted tree conditions."""
    conditions = check_conditions(m)
    if not conditions.satisfied:
        return VerificationReport("power", False,
                                  note="; ".join(conditions.violations))
    copies = len(m.elements)
    h_m = homology(m, PUNCTURED, max_degree)
    h_ref = homology(x0_mset(m.alphabet), PUNCTURED, max_degree)
    comparisons = tuple(
        DegreeComparison(s, _at(h_m, s), copies * _at(h_ref, s))
        for s in _degrees(m.alphabet, max_degree))
    return VerificationReport("power", True, comparisons)


def check_theorem_main(m, max_degree=None):
    """delta(m) = reduced(clique complex)^|X| one degree down, plus
    Z^(p_s), under the same conditions as the power check."""
    conditions = check_conditions(m)
    if not conditions.satisfied:
        return VerificationReport("main", False,
                                  note="; ".join(conditions.violations))
    copies = len(m.elements)
    counts = clique_counts(m.alphabet, max_degree)
    h_delta = homology(m, DELTA, max_degree)
    reduced = _reduced(m.alphabet, max_degree)
    comparisons = tuple(
        DegreeComparison(
            s, _at(h_delta, s),
            copies * _at(reduced, s - 1) + AbelianGroup(_count_at(counts, s)))
        for s in _degrees(m.alphabet, max_degree))
    return VerificationReport("main", True, comparisons)


def check_theorem_aug(alpha, max_degree=None):
    """punctured(two-point reference) in degree n = reduced homology of
    the clique complex in degree n - 1, for n >= 1.

    The two sides go through the two independent boundary
    implementations (chains vs simplicial)."""
    h_punct = homology(x0_mset(alpha), PUNCTURED, max_degree)
    reduced = _reduced(alpha, max_degree)
    comparisons = tuple(
        DegreeComparison(n, _at(h_punct, n), _at(reduced, n - 1))
        for n in _degrees(alpha, max_degree))
    return VerificationReport("aug", True, comparisons)


ALL_CHECKS = ("split", "power", "main", "aug")


class CounterexampleReport(Record):
    """Two different actions over one alphabet with identical homology.

    The chain sends x0 -> x1 -> *, the fan sends both elements straight
    to *.  For any alphabet with at least one generator they are not
    isomorphic, yet every homology group agrees.  ``bijections_searched``
    is the number of assignments ``iso_check`` tried to decide that.
    """

    __slots__ = ("isomorphic", "witness", "bijections_searched", "tables",
                 "note")

    def __init__(self, isomorphic, witness, bijections_searched, tables=None,
                 note=""):
        self._set(isomorphic=isomorphic, witness=witness,
                  bijections_searched=bijections_searched,
                  tables={} if tables is None else tables, note=note)

    @property
    def homology_equal(self):
        return all(c.ok for table in self.tables.values() for c in table)


def counterexample_report(alpha, max_degree=None):
    chain = chain_mset(alpha)
    fan = fan_mset(alpha)
    witness, tried = iso_check(chain, fan)
    top = max_clique_size(alpha) if max_degree is None else max_degree
    tables = {}
    for system in (DELTA, PUNCTURED):
        h_chain = homology(chain, system, max_degree)
        h_fan = homology(fan, system, max_degree)
        tables[system.name] = tuple(
            DegreeComparison(s, _at(h_chain, s), _at(h_fan, s))
            for s in range(top + 1))
    note = ""
    if not alpha.generators:
        note = ("no generators: both actions degenerate to the same "
                "trivial one, so they are isomorphic")
    return CounterexampleReport(witness is not None, witness, tried, tables,
                                note)
