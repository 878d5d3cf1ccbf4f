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
"""

from dataclasses import dataclass, field

from .alphabet import clique_counts, max_clique_size
from .chains import DELTA, PUNCTURED, homology
from .intlinalg import AbelianGroup
from .msets import (bijection_count, chain_mset, check_conditions, fan_mset,
                    iso_check, x0_mset)
from .simplicial import clique_complex


@dataclass(frozen=True)
class DegreeComparison:
    degree: int
    lhs: AbelianGroup
    rhs: AbelianGroup

    @property
    def ok(self):
        return self.lhs == self.rhs


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    applicable: bool
    comparisons: tuple = ()
    note: str = ""

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
    reduced = clique_complex(m.alphabet, max_degree).reduced_homology()
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
    reduced = clique_complex(alpha, max_degree).reduced_homology()
    comparisons = tuple(
        DegreeComparison(n, _at(h_punct, n), _at(reduced, n - 1))
        for n in _degrees(alpha, max_degree))
    return VerificationReport("aug", True, comparisons)


ALL_CHECKS = ("split", "power", "main", "aug")


@dataclass(frozen=True)
class CounterexampleReport:
    """Two different actions over one alphabet with identical homology.

    The chain sends x0 -> x1 -> *, the fan sends both elements straight
    to *.  For any alphabet with at least one generator they are not
    isomorphic, yet every homology group agrees.
    """

    isomorphic: bool
    witness: dict | None
    bijections_searched: int
    tables: dict = field(default_factory=dict)
    note: str = ""

    @property
    def homology_equal(self):
        return all(c.ok for table in self.tables.values() for c in table)


def counterexample_report(alpha, max_degree=None):
    chain = chain_mset(alpha)
    fan = fan_mset(alpha)
    witness = iso_check(chain, fan)
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
    return CounterexampleReport(witness is not None, witness,
                                bijection_count(chain), tables, note)
