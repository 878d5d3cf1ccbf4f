"""Mechanical checks of the homology decomposition identities.

Each check recomputes both sides of an isomorphism with the engine and
compares canonical group descriptors degree by degree:

  split: constant coefficients = punctured coefficients + free part of
         rank p_s, in every degree s >= 1, for any valid action.
  power: for a full action, punctured homology follows the closed form
         below with N = |X|; on a tree rooted at the basepoint it is
         the |X|-fold power of the two-point reference's.
  main:  the same for constant-coefficient homology, N = |X| + 1.
  aug:   for the two-point reference itself, punctured homology in
         degree n is the clique complex's reduced homology in n - 1.

The closed form: with N points of rank 1 and c cycles of the common map
among them (a fixed point is one), H_s = (N - c) U_s + Z^(c p_s), U_s
being the clique complex's reduced homology in degree s - 1.  power
reads U_s off the two-point reference, main off the simplicial route.

Checks whose preconditions fail report "not applicable" rather than
passing silently; ``run_checks`` picks the checks that apply.  Each
report covers the degrees s >= 1 of the list ``chains.homology`` gives.

The identities share terms.  Each term is computed once and kept on the
alphabet through ``alphabet._kept``: the homology of an action, one
entry per distinct image table (see ``chains.homology``), and, kept by
this module, the clique complex's reduced homology per resolved degree
bound, read off the list ``chains.homology`` gave.  Each check that
reads the two-point reference builds it afresh, and finds its groups
kept.  On the two-point action itself, its PUNCTURED complex is the
reference's, so ``verify all`` reduces three complexes, not four.  main
and aug still compare a side from the chains route with one from the
simplicial route.
"""

from .alphabet import _kept, clique_counts
from .chains import DELTA, PUNCTURED, homology
from .intlinalg import AbelianGroup
from .msets import (BASEPOINT, chain_mset, check_conditions, fan_mset,
                    iso_check, x0_mset)
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


def _reduced(alpha, groups):
    """Reduced homology of the clique complex up to the top degree of
    groups, a list ``chains.homology`` gave, by the simplicial route;
    computed once per resolved bound and kept on the alphabet."""
    top = len(groups) - 1
    return list(_kept(alpha, "reduced", top, lambda: clique_complex(
        alpha, top).reduced_homology()))


def check_lemma_split(m, max_degree=None):
    """delta = punctured + Z^(p_s) in every degree s >= 1."""
    counts = clique_counts(m.alphabet, max_degree)
    h_delta = homology(m, DELTA, max_degree)
    h_punct = homology(m, PUNCTURED, max_degree)
    comparisons = tuple(
        DegreeComparison(s, h_delta[s],
                         h_punct[s] + AbelianGroup(_count_at(counts, s)))
        for s in range(1, len(h_delta)))
    return VerificationReport("split", True, comparisons)


def _closed_form(claim, m, system, max_degree, reference):
    """H_s(m) against (N - c) U_s + Z^(c p_s) for s >= 1, N-A when m is
    not full.  N - c is |X| less the cycles among the elements, as the
    basepoint adds to both or to neither.  reference(H(m)) lists U_s."""
    conditions = check_conditions(m)
    if not conditions.full:
        return VerificationReport(claim, False,
                                  note="; ".join(conditions.violations))
    copies = len(m.elements) - conditions.cycles
    cycles = conditions.cycles + system.value_at(BASEPOINT)
    h_m = homology(m, system, max_degree)
    counts = clique_counts(m.alphabet, max_degree)
    units = reference(h_m)
    comparisons = tuple(
        DegreeComparison(s, h_m[s], copies * _at(units, s)
                         + AbelianGroup(cycles * _count_at(counts, s)))
        for s in range(1, len(h_m)))
    return VerificationReport(claim, True, comparisons)


def check_prop_power(m, max_degree=None):
    """The closed form under PUNCTURED, U_s being the two-point
    reference's punctured homology."""
    return _closed_form(
        "power", m, PUNCTURED, max_degree,
        lambda h_m: homology(x0_mset(m.alphabet), PUNCTURED, max_degree))


def check_theorem_main(m, max_degree=None):
    """The closed form under DELTA, U_s being the clique complex's
    reduced homology one degree down."""
    return _closed_form(
        "main", m, DELTA, max_degree,
        lambda h_m: [AbelianGroup(0)] + _reduced(m.alphabet, h_m))


def check_theorem_aug(alpha, max_degree=None):
    """punctured(two-point reference) in degree n = reduced homology of
    the clique complex in degree n - 1, for n >= 1.

    The two sides go through the two independent boundary
    implementations (chains vs simplicial)."""
    h_punct = homology(x0_mset(alpha), PUNCTURED, max_degree)
    reduced = _reduced(alpha, h_punct)
    comparisons = tuple(
        DegreeComparison(n, h_punct[n], _at(reduced, n - 1))
        for n in range(1, len(h_punct)))
    return VerificationReport("aug", True, comparisons)


ALL_CHECKS = ("split", "power", "main", "aug")


def run_checks(which, alpha, m, max_degree=None):
    """Reports of the check named which, or of all of ``ALL_CHECKS``, in
    order, when which is "all".  aug reads the alphabet alone; with m
    None, as for a file with no action table, every other check is N-A."""
    # looked up on each call: a tracer or a test may rebind the checks
    on_action = {"split": check_lemma_split, "power": check_prop_power,
                 "main": check_theorem_main}
    return [check_theorem_aug(alpha, max_degree) if name == "aug"
            else on_action[name](m, max_degree) if m is not None
            else VerificationReport(name, False,
                                    note="file has no action table")
            for name in (ALL_CHECKS if which == "all" else (which,))]


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
    tables = {}
    for system in (DELTA, PUNCTURED):
        h_chain = homology(chain, system, max_degree)
        h_fan = homology(fan, system, max_degree)
        tables[system.name] = tuple(
            DegreeComparison(s, a, b)
            for s, (a, b) in enumerate(zip(h_chain, h_fan)))
    note = ""
    if not alpha.generators:
        note = ("no generators: both actions degenerate to the same "
                "trivial one, so they are isomorphic")
    return CounterexampleReport(witness is not None, witness, tried, tables,
                                note)
