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
passing silently; ``run_checks`` picks the checks that apply.  Each
report covers the degrees s >= 1 of the list ``chains.homology`` gives.

The identities share terms.  Each term is computed once and kept on the
alphabet through ``alphabet._kept``: the homology of an action, one
entry per distinct image table (see ``chains.homology``), the two-point
reference and, kept by this module, the clique complex's reduced
homology per resolved degree bound, read off the list
``chains.homology`` gave.  On the two-point action itself, its
PUNCTURED complex is the reference's, so ``verify all`` reduces three
complexes, not four.  main and aug still compare a side from the
chains route with one from the simplicial route.
"""

from .alphabet import _kept, clique_counts
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


def _reduced(alpha, groups):
    """Reduced homology of the clique complex up to the top degree of
    groups, a list ``chains.homology`` gave, by the simplicial route;
    computed once per resolved bound and kept on the alphabet."""
    top = len(groups) - 1
    return list(_kept(alpha, "reduced", top, lambda: clique_complex(
        alpha, top).reduced_homology()))


def _unmet(claim, m):
    """The N-A report of power or main on m, None when m qualifies."""
    conditions = check_conditions(m)
    return None if conditions.satisfied else VerificationReport(
        claim, False, note="; ".join(conditions.violations))


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


def check_prop_power(m, max_degree=None):
    """punctured(m) = punctured(two-point reference)^|X| under the full
    action and rooted tree conditions."""
    if unmet := _unmet("power", m):
        return unmet
    copies = len(m.elements)
    h_m = homology(m, PUNCTURED, max_degree)
    h_ref = homology(x0_mset(m.alphabet), PUNCTURED, max_degree)
    comparisons = tuple(DegreeComparison(s, h_m[s], copies * h_ref[s])
                        for s in range(1, len(h_m)))
    return VerificationReport("power", True, comparisons)


def check_theorem_main(m, max_degree=None):
    """delta(m) = reduced(clique complex)^|X| one degree down, plus
    Z^(p_s), under the same conditions as the power check."""
    if unmet := _unmet("main", m):
        return unmet
    copies = len(m.elements)
    counts = clique_counts(m.alphabet, max_degree)
    h_delta = homology(m, DELTA, max_degree)
    reduced = _reduced(m.alphabet, h_delta)
    comparisons = tuple(
        DegreeComparison(
            s, h_delta[s],
            copies * _at(reduced, s - 1) + AbelianGroup(_count_at(counts, s)))
        for s in range(1, len(h_delta)))
    return VerificationReport("main", True, comparisons)


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
