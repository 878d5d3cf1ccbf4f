"""Command line interface.

Problem files are JSON objects with keys "generators", "independence",
and optionally "elements" and "action" (together).  The basepoint is
spelled "*"; an omitted "*" row in the action table means fixity.
Exit codes: 0 success, 1 a semantic check failed (a FAIL verdict, a
negative isomorphism test, or a chain and fan whose homology differs),
2 a usage error, malformed input, or an input whose cliques or chain
complex would be too large to list.

The commands and their options are declared once, in ``_COMMANDS``.
A well-formed command line is read straight from that table; argparse
is imported, and its parser built from the same table, only for
``--help`` and usage errors, so their text and exit code 2 are
argparse's own.
"""

import functools
import gc
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import chains, verify
from .alphabet import IndependenceAlphabet, clique_counts
from .errors import ValidationError
from .msets import PointedMSet, iso_check
from .simplicial import (barycentric_flagification, clique_complex,
                         read_face_list)

_DOCUMENT_KEYS = {"generators", "independence", "elements", "action"}


def _echo(line, stream=None):
    """Write one line to stdout (or stream).  A line the stream cannot
    encode, say under an ASCII locale, goes to its buffer as UTF-8."""
    stream = stream or sys.stdout
    line += "\n"
    try:
        stream.write(line)
    except UnicodeEncodeError:
        stream.flush()
        stream.buffer.write(line.encode("utf-8"))


def _json(value, indent="\n"):
    """value as ``json.dumps(value, indent=2)`` writes it, in one pass.

    json.dumps leaves its C encoder whenever indent is set.  This writes
    the same text for None, bools, ints, strings, and lists, tuples and
    dicts with string keys, each string through json's own escaper, and
    raises TypeError on any other value or key.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    # a str or int child (not a bool) is written here, without recursing
    if isinstance(value, dict):
        ends = "{}"
        items = [_quote(k) + ": " + (
            _quote(v) if type(v) is str else
            repr(v) if type(v) is int else _json(v, inner))
            for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        ends = "[]"
        items = [_quote(v) if type(v) is str else
                 repr(v) if type(v) is int else _json(v, inner)
                 for v in value]
    else:
        raise TypeError(f"cannot write {type(value).__name__} as JSON")
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


def _die(problems):
    for p in problems:
        _echo(f"error: {p}", sys.stderr)
    sys.exit(2)


def _read_text(path):
    """The file's text; exit 2 naming the path if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        _die([str(exc)])
    except UnicodeDecodeError as exc:
        _die([f"{path}: not UTF-8 text: {exc}"])


def _load_document(path):
    try:
        doc = json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nested deeper than the parser can follow
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
        _die(problems + [f"{path}: {p}" for p in exc.problems])
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
    if not isinstance(action, dict) or \
            not all(isinstance(row, dict) for row in action.values()):
        problems.append(f"{path}: \"action\" must map elements to "
                        "generator-to-target objects")
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
    return {"rank": g.free_rank, "torsion": g.torsion}


def cmd_homology(problem, coeff, fmt, max_degree):
    """Homology of the action in a problem file, one group per degree."""
    _, m = _load_problem(problem, need_action=True)
    groups = chains.homology(m, chains.SYSTEMS[coeff], max_degree)
    if fmt == "json":
        _echo(_json({
            "coefficients": coeff,
            "homology": [{"degree": n, **_group_json(g)}
                         for n, g in enumerate(groups)],
        }))
    else:
        _echo(f"coefficients: {coeff}")
        for n, g in enumerate(groups):
            _echo(f"H_{n} = {g}")


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
        _echo(_json({
            "generators": alpha.generators,
            "clique_counts": counts,
            "reduced_homology": [{"degree": n, **_group_json(g)}
                                 for n, g in enumerate(reduced)],
        }))
        return
    _echo(f"p = {counts}")
    if not reduced:
        _echo("empty schema: no generators, nothing to report")
    for n, g in enumerate(reduced):
        _echo(f"H̃_{n} = {g}")


def cmd_verify(problem, which, fmt, max_degree):
    """Check the decomposition identities on a problem file.

    The aug check only needs the alphabet; the others also need an
    action table and report N-A without one.
    """
    alpha, m = _load_problem(problem, need_action=False)
    reports = verify.run_checks(which, alpha, m, max_degree)
    if fmt == "json":
        _echo(_json({"checks": [{
            "claim": r.claim,
            "status": r.status,
            "note": r.note,
            "degrees": [{"degree": c.degree,
                         "lhs": _group_json(c.lhs),
                         "rhs": _group_json(c.rhs),
                         "equal": c.ok} for c in r.comparisons],
        } for r in reports]}))
    else:
        for r in reports:
            if not r.applicable:
                _echo(f"[N-A ] {r.claim}: {r.note}")
                continue
            for c in r.comparisons:
                mark = "PASS" if c.ok else "FAIL"
                _echo(f"[{mark}] {r.claim} degree {c.degree}: "
                      f"{c.lhs} = {c.rhs}")
            if not r.comparisons:
                _echo(f"[PASS] {r.claim}: no degrees to check")
    if any(r.applicable and not r.holds for r in reports):
        sys.exit(1)


def cmd_iso(left, right, fmt):
    """Decide basepoint-preserving equivariant isomorphism of two
    actions over the same alphabet, its generators declared in any
    order.  Exits 1 when there is none."""
    _, m_l = _load_problem(left, need_action=True)
    _, m_r = _load_problem(right, need_action=True)
    try:
        witness, tried = iso_check(m_l, m_r)
    except ValueError:  # the two files present different monoids
        _die([f"{left} and {right} use different alphabets"])
    if fmt == "json":
        _echo(_json({"isomorphic": witness is not None,
                     "witness": witness,
                     "bijections_searched": tried}))
    elif witness is None:
        _echo(f"NOT ISOMORPHIC (tried {tried} assignments)")
    else:
        _echo("ISOMORPHIC")
        for x in sorted(witness):
            _echo(f"  {x} -> {witness[x]}")
    if witness is None:
        sys.exit(1)


def cmd_counterexample(problem, fmt, max_degree):
    """Build the chain and fan actions over the file's alphabet and show
    they are non-isomorphic with identical homology.  Exits 1 when their
    homology differs in some degree."""
    alpha, _ = _load_problem(problem, need_action=False)
    report = verify.counterexample_report(alpha, max_degree)
    if fmt == "json":
        _echo(_json({
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
        }))
    else:
        _echo(f"alphabet: {len(alpha.generators)} generators, "
              f"{len(alpha.pairs)} independence pairs")
        _echo("actions: chain x0 -> x1 -> *  vs  fan x0 -> *, x1 -> *")
        iso_text = "YES" if report.isomorphic else "NO"
        _echo(f"isomorphic: {iso_text} (tried "
              f"{report.bijections_searched} assignments)")
        if report.note:
            _echo(f"note: {report.note}")
        for name, table in report.tables.items():
            _echo(f"{name}:")
            for c in table:
                mark = "ok" if c.ok else "MISMATCH"
                _echo(f"  H_{c.degree}: {c.lhs} = {c.rhs}  {mark}")
        if not report.isomorphic and report.homology_equal:
            _echo("verdict: non-isomorphic actions, identical homology"
                  if any(report.tables.values()) else
                  "verdict: no degrees compared")
    if not report.homology_equal:
        sys.exit(1)


_FORMAT = ("--format", "fmt", ("human", "json"), "human",
           "Output format (default: %(default)s).")
_MAX_DEGREE = ("--max-degree", "max_degree", int, None,
               "Compute and report degrees up to this bound (default: "
               "largest clique size); a negative bound reports none.")

#: Each command's function, the metavars of its positionals (each one's
#: dest is its metavar in lower case) and its options, each as (flag,
#: dest, kind, default, help): kind is a tuple of choices, int for an
#: integer value (metavar N), or bool for a switch.  `_parse` reads
#: well-formed command lines from this table; `_build_parser` builds
#: argparse's parser from it.
_COMMANDS = {
    "homology": (cmd_homology, ("PROBLEM",), (
        ("--coeff", "coeff", tuple(sorted(chains.SYSTEMS)), "delta",
         "Coefficient system (default: %(default)s)."),
        _FORMAT, _MAX_DEGREE)),
    "schema": (cmd_schema, ("SOURCE",), (_FORMAT, (
        "--flagify", "flagify", bool, False,
        "Treat SOURCE as a face list (one maximal face per line) and "
        "build the alphabet of its faces first."))),
    "verify": (cmd_verify, ("PROBLEM",), (_FORMAT, _MAX_DEGREE, (
        "--which", "which", verify.ALL_CHECKS + ("all",), "all",
        "Which identity (default: %(default)s)."))),
    "iso": (cmd_iso, ("LEFT", "RIGHT"), (_FORMAT,)),
    "counterexample": (cmd_counterexample, ("PROBLEM",),
                       (_FORMAT, _MAX_DEGREE)),
}


def _parse(argv):
    """What ``vars(_build_parser().parse_args(argv))`` returns, for a
    well-formed argv; None for any other.

    Well-formed is a command, then its positionals and options in any
    order, each option given once or more (the last wins) by its full
    flag, a value after ``=`` or in the next word.  None comes back for
    ``-h``, ``--help``, ``--``, an unknown or abbreviated option, a
    value that starts with ``-``, is outside its choices or is not an
    integer (read with int, as argparse does), ``=`` on a switch, or the
    wrong number of positionals.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    run, positionals, options = _COMMANDS[argv[0]]
    by_flag = {option[0]: option for option in options}
    args = {dest: default for _, dest, _, default, _ in options}
    args["run"] = run
    values = []
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            values.append(word)
            continue
        flag, eq, value = word.partition("=")
        if flag not in by_flag:
            return None
        _, dest, kind, _, _ = by_flag[flag]
        if kind is bool:
            if eq:
                return None
            value = True
        else:
            if not eq:  # a missing value reads as "-", refused below
                value = next(words, "-")
            if value.startswith("-"):
                return None
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            elif value not in kind:
                return None
        args[dest] = value
    if len(values) != len(positionals):
        return None
    args.update(zip(map(str.lower, positionals), values))
    return args


@functools.cache
def _build_parser():
    """argparse's parser for `_COMMANDS`, built on first use: it reads
    every argv that `_parse` does not, for help and usage errors."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="tracehom", allow_abbrev=False,
        description="Exact integer homology of pointed sets over trace "
                    "monoids.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, (run, positionals, options) in _COMMANDS.items():
        doc = run.__doc__
        sub = commands.add_parser(name, allow_abbrev=False,
                                  help=doc.split("\n\n")[0],
                                  description=doc)
        sub.set_defaults(run=run)
        for metavar in positionals:
            sub.add_argument(metavar.lower(), metavar=metavar)
        for flag, dest, kind, default, text in options:
            if kind is bool:
                how = {"action": "store_true"}
            elif kind is int:
                how = {"type": int, "metavar": "N"}
            else:
                how = {"choices": kind}
            sub.add_argument(flag, dest=dest, default=default, help=text,
                             **how)
    return parser


def main(argv=None, standalone_mode=True):
    """Run the command line on argv (default: sys.argv[1:]).

    Returns on success and otherwise raises SystemExit with exit code 1
    or 2 (see the module docstring).  A ``ValidationError`` that a
    command raises, such as an input too large to list, is printed as
    ``error:`` lines and exits 2.  standalone_mode is accepted and
    ignored: the benchmark (``perfbench/worker.py``) passes
    ``standalone_mode=False``.

    argv is read by `_parse` when it is well formed; otherwise argparse
    reads it, printing help or a usage error (exit 2) where it must.

    The command runs with the cyclic garbage collector paused, since a
    pass would only rescan the matrices it holds, and the collector's
    state is restored however the command ends.  Reference counting
    frees everything a command allocates.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        args = vars(_build_parser().parse_args(argv))
    enabled = gc.isenabled()
    gc.disable()
    try:
        args.pop("run")(**args)
    except ValidationError as exc:
        _die(exc.problems)
    finally:
        if enabled:
            gc.enable()
