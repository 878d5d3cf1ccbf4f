"""Command line interface.

Problem files are JSON objects with keys "generators", "independence",
and optionally "elements" and "action" (together).  The basepoint is
spelled "*"; an omitted "*" row in the action table means fixity.
Exit codes: 0 success, 1 a semantic check failed (a FAIL verdict or a
negative isomorphism test), 2 malformed input.
"""

import json
import sys
from pathlib import Path

import click

from . import chains, verify
from .alphabet import IndependenceAlphabet, clique_counts
from .errors import ValidationError
from .msets import PointedMSet, bijection_count, iso_check
from .simplicial import (barycentric_flagification, clique_complex,
                         read_face_list)

_DOCUMENT_KEYS = {"generators", "independence", "elements", "action"}


def _die(problems):
    for p in problems:
        click.echo(f"error: {p}", err=True)
    sys.exit(2)


def _read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _die([str(exc)])
    except UnicodeDecodeError as exc:
        _die([f"{path}: not UTF-8 text: {exc}"])


def _load_document(path):
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        _die([f"{path}: {exc}"])
    if not isinstance(doc, dict):
        _die([f"{path}: top level must be a JSON object"])
    return doc


def _parse_alphabet(path, doc):
    problems = []
    for key in sorted(set(doc) - _DOCUMENT_KEYS):
        problems.append(f"{path}: unknown key {key!r}")
    generators = doc.get("generators")
    if not isinstance(generators, list):
        problems.append(f"{path}: \"generators\" must be a list of strings")
        generators = []
    independence = doc.get("independence", [])
    if not isinstance(independence, list):
        problems.append(f"{path}: \"independence\" must be a list of pairs")
        independence = []
    try:
        alpha = IndependenceAlphabet(generators, independence)
    except ValidationError as exc:
        _die(problems + list(exc.problems))
    if problems:
        _die(problems)
    return alpha


def _parse_mset(path, doc, alpha):
    if ("elements" in doc) != ("action" in doc):
        _die([f"{path}: \"elements\" and \"action\" must be given together"])
    if "elements" not in doc:
        return None
    elements = doc["elements"]
    action = doc["action"]
    problems = []
    if not isinstance(elements, list):
        problems.append(f"{path}: \"elements\" must be a list of strings")
        elements = []
    if not isinstance(action, dict) or \
            not all(isinstance(row, dict) for row in action.values()):
        problems.append(f"{path}: \"action\" must map elements to "
                        "generator-to-target objects")
        action = {}
    if problems:
        _die(problems)
    try:
        return PointedMSet(alpha, elements, action)
    except ValidationError as exc:
        _die([f"{path}: {p}" for p in exc.problems])


def _load_problem(path, need_action):
    doc = _load_document(path)
    alpha = _parse_alphabet(path, doc)
    m = _parse_mset(path, doc, alpha)
    if need_action and m is None:
        _die([f"{path}: this command needs \"elements\" and \"action\""])
    return alpha, m


def _group_json(g):
    return {"rank": g.free_rank, "torsion": list(g.torsion)}


_coeff_option = click.option(
    "--coeff", type=click.Choice(sorted(chains.SYSTEMS)), default="delta",
    show_default=True, help="Coefficient system.")
_format_option = click.option(
    "--format", "fmt", type=click.Choice(["human", "json"]),
    default="human", show_default=True, help="Output format.")
_degree_option = click.option(
    "--max-degree", type=int, default=None,
    help="Compute and report degrees up to this bound (default: largest "
         "clique size); a negative bound reports none.")


@click.group()
def main():
    """Exact integer homology of pointed sets over trace monoids."""


@main.command("homology")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@_coeff_option
@_format_option
@_degree_option
def cmd_homology(problem, coeff, fmt, max_degree):
    """Homology of the action in a problem file, one group per degree."""
    _, m = _load_problem(problem, need_action=True)
    groups = chains.homology(m, chains.SYSTEMS[coeff], max_degree)
    if fmt == "json":
        click.echo(json.dumps({
            "coefficients": coeff,
            "homology": [{"degree": n, **_group_json(g)}
                         for n, g in enumerate(groups)],
        }, indent=2))
    else:
        click.echo(f"coefficients: {coeff}")
        for n, g in enumerate(groups):
            click.echo(f"H_{n} = {g}")


@main.command("schema")
@click.argument("source", type=click.Path(exists=True, dir_okay=False))
@click.option("--flagify", is_flag=True,
              help="Treat SOURCE as a face list (one maximal face per "
                   "line) and build the alphabet of its faces first.")
@_format_option
def cmd_schema(source, flagify, fmt):
    """Clique counts and reduced homology of the clique complex."""
    if flagify:
        try:
            alpha = barycentric_flagification(read_face_list(
                _read_text(source)))
        except ValidationError as exc:
            _die([f"{source}: {p}" for p in exc.problems])
    else:
        alpha = _parse_alphabet(source, _load_document(source))
    counts = clique_counts(alpha)
    reduced = clique_complex(alpha).reduced_homology()
    if fmt == "json":
        click.echo(json.dumps({
            "generators": list(alpha.generators),
            "clique_counts": counts,
            "reduced_homology": [{"degree": n, **_group_json(g)}
                                 for n, g in enumerate(reduced)],
        }, indent=2))
        return
    click.echo(f"p = {counts}")
    if not reduced:
        click.echo("empty schema: no generators, nothing to report")
    for n, g in enumerate(reduced):
        click.echo(f"H̃_{n} = {g}")


@main.command("verify")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option("--which", type=click.Choice(verify.ALL_CHECKS + ("all",)),
              default="all", show_default=True, help="Which identity.")
@_format_option
@_degree_option
def cmd_verify(problem, which, fmt, max_degree):
    """Check the decomposition identities on a problem file.

    The aug check only needs the alphabet; the others also need an
    action table and report N-A without one.
    """
    alpha, m = _load_problem(problem, need_action=False)
    wanted = verify.ALL_CHECKS if which == "all" else (which,)
    reports = []
    for name in wanted:
        if name == "aug":
            reports.append(verify.check_theorem_aug(alpha, max_degree))
        elif m is None:
            reports.append(verify.VerificationReport(
                name, False, note="file has no action table"))
        elif name == "split":
            reports.append(verify.check_lemma_split(m, max_degree))
        elif name == "power":
            reports.append(verify.check_prop_power(m, max_degree))
        else:
            reports.append(verify.check_theorem_main(m, max_degree))
    if fmt == "json":
        click.echo(json.dumps({"checks": [{
            "claim": r.claim,
            "status": r.status,
            "note": r.note,
            "degrees": [{"degree": c.degree,
                         "lhs": _group_json(c.lhs),
                         "rhs": _group_json(c.rhs),
                         "equal": c.ok} for c in r.comparisons],
        } for r in reports]}, indent=2))
    else:
        for r in reports:
            if not r.applicable:
                click.echo(f"[N-A ] {r.claim}: {r.note}")
                continue
            for c in r.comparisons:
                mark = "PASS" if c.ok else "FAIL"
                click.echo(f"[{mark}] {r.claim} degree {c.degree}: "
                           f"{c.lhs} = {c.rhs}")
            if not r.comparisons:
                click.echo(f"[PASS] {r.claim}: no degrees to check")
    sys.exit(1 if any(r.applicable and not r.holds for r in reports) else 0)


@main.command("iso")
@click.argument("left", type=click.Path(exists=True, dir_okay=False))
@click.argument("right", type=click.Path(exists=True, dir_okay=False))
@_format_option
def cmd_iso(left, right, fmt):
    """Decide basepoint-preserving equivariant isomorphism of two
    actions over the same alphabet.  Exits 1 when there is none."""
    alpha_l, m_l = _load_problem(left, need_action=True)
    alpha_r, m_r = _load_problem(right, need_action=True)
    if alpha_l != alpha_r:
        _die([f"{left} and {right} use different alphabets"])
    witness = iso_check(m_l, m_r)
    searched = bijection_count(m_l) if \
        len(m_l.elements) == len(m_r.elements) else 0
    if fmt == "json":
        click.echo(json.dumps({"isomorphic": witness is not None,
                               "witness": witness,
                               "bijections_searched": searched}, indent=2))
    elif witness is None:
        click.echo(f"NOT ISOMORPHIC (searched {searched} "
                   "basepoint-preserving bijections)")
    else:
        click.echo("ISOMORPHIC")
        for x in sorted(witness):
            click.echo(f"  {x} -> {witness[x]}")
    sys.exit(0 if witness is not None else 1)


@main.command("counterexample")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@_format_option
@_degree_option
def cmd_counterexample(problem, fmt, max_degree):
    """Build the chain and fan actions over the file's alphabet and show
    they are non-isomorphic with identical homology."""
    alpha, _ = _load_problem(problem, need_action=False)
    report = verify.counterexample_report(alpha, max_degree)
    if fmt == "json":
        click.echo(json.dumps({
            "isomorphic": report.isomorphic,
            "witness": report.witness,
            "bijections_searched": report.bijections_searched,
            "homology_equal": report.homology_equal,
            "note": report.note,
            "tables": {name: [{"degree": c.degree,
                               "chain": _group_json(c.lhs),
                               "fan": _group_json(c.rhs),
                               "equal": c.ok} for c in table]
                       for name, table in report.tables.items()},
        }, indent=2))
        return
    click.echo(f"alphabet: {len(alpha.generators)} generators, "
               f"{len(alpha.pairs)} independence pairs")
    click.echo("actions: chain x0 -> x1 -> *  vs  fan x0 -> *, x1 -> *")
    iso_text = "YES" if report.isomorphic else "NO"
    click.echo(f"isomorphic: {iso_text} (searched "
               f"{report.bijections_searched} bijections)")
    if report.note:
        click.echo(f"note: {report.note}")
    for name, table in report.tables.items():
        click.echo(f"{name}:")
        for c in table:
            mark = "ok" if c.ok else "MISMATCH"
            click.echo(f"  H_{c.degree}: {c.lhs} = {c.rhs}  {mark}")
    if not report.isomorphic and report.homology_equal:
        click.echo("verdict: non-isomorphic actions, identical homology")


if __name__ == "__main__":
    main()
