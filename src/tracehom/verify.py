"""Mechanical checks of the homology decomposition identities.

Each check recomputes both sides with the engine and compares canonical
group descriptors in every degree s >= 1.  All four identities read
H_s = k U_s + Z^(j p_s), p_s counting the s-cliques; ``_identity``
makes every comparison, and each check names its row:

  claim  H_s                        k      U_s                         j
  split  H_s(m), constant           1      H_s(m), punctured           1
  power  H_s(m), punctured          N - c  H_s(two-point), punctured   c
  main   H_s(m), constant           N - c  H~_{s-1}(clique complex)    c + 1
  aug    H_s(two-point), punctured  1      H~_{s-1}(clique complex)    0

split holds for any valid action; power and main are the closed form
of a full action m, with N = |X| and c the cycles of its common map
among the elements (a fixed point is one).  Under constant coefficients
the basepoint adds one point of rank 1 and one cycle, so k stays N - c
and j gains 1.  power reads U_s by the chains route, main and aug by
the simplicial route.

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
    return groups[s] if s < len(groups) else AbelianGroup(0)


def _count_at(counts, s):
    return counts[s] if s < len(counts) else 0


def _identity(claim, lhs, copies, units, free, counts):
    """The report of lhs_s = copies U_s + Z^(free p_s) in every degree
    s >= 1 of lhs, a list ``chains.homology`` gave, U_s and p_s being
    zero past the end of units and of counts."""
    return VerificationReport(claim, True, tuple(
        DegreeComparison(s, lhs[s], copies * _at(units, s)
                         + AbelianGroup(free * _count_at(counts, s)))
        for s in range(1, len(lhs))))


def _units(alpha, groups):
    """U_s = the clique complex's reduced homology in degree s - 1, with
    U_0 = 0, up to the top degree of groups, a list ``chains.homology``
    gave, by the simplicial route; computed once per resolved bound and
    kept on the alphabet."""
    top = len(groups) - 1
    reduced = _kept(alpha, "reduced", top, lambda: clique_complex(
        alpha, top).reduced_homology())
    return [AbelianGroup(0)] + reduced


def check_lemma_split(m, max_degree=None):
    """delta = punctured + Z^(p_s) in every degree s >= 1."""
    counts = clique_counts(m.alphabet, max_degree)
    return _identity("split", homology(m, DELTA, max_degree), 1,
                     homology(m, PUNCTURED, max_degree), 1, counts)


def _closed_form(claim, m, system, max_degree, reference):
    """H_s(m) against (N - c) U_s + Z^((c + system at *) p_s) for s >= 1,
    N-A when m is not full.  reference(H(m)) lists U_s."""
    conditions = check_conditions(m)
    if not conditions.full:
        return VerificationReport(claim, False,
                                  note="; ".join(conditions.violations))
    h_m = homology(m, system, max_degree)
    counts = clique_counts(m.alphabet, max_degree)
    return _identity(claim, h_m, len(m.elements) - conditions.cycles,
                     reference(h_m),
                     conditions.cycles + system.value_at(BASEPOINT), counts)


def check_prop_power(m, max_degree=None):
    """The closed form under PUNCTURED, U_s being the two-point
    reference's punctured homology."""
    return _closed_form(
        "power", m, PUNCTURED, max_degree,
        lambda h_m: homology(x0_mset(m.alphabet), PUNCTURED, max_degree))


def check_theorem_main(m, max_degree=None):
    """The closed form under DELTA, U_s being the clique complex's
    reduced homology one degree down."""
    return _closed_form("main", m, DELTA, max_degree,
                        lambda h_m: _units(m.alphabet, h_m))


def check_theorem_aug(alpha, max_degree=None):
    """punctured(two-point reference) in degree n = reduced homology of
    the clique complex in degree n - 1, for n >= 1.

    The two sides go through the two independent boundary
    implementations (chains vs simplicial)."""
    h_punct = homology(x0_mset(alpha), PUNCTURED, max_degree)
    return _identity("aug", h_punct, 1, _units(alpha, h_punct), 0, ())


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
