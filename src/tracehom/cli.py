"""Command line interface.

Problem files are JSON objects with keys "generators", "independence",
and optionally "elements" and "action" (together).  The basepoint is
spelled "*"; an omitted "*" row in the action table means fixity.
Exit codes: 0 success, 1 a semantic check failed (a FAIL verdict or a
negative isomorphism test), 2 a usage error, malformed input, or an
input whose cliques or chain complex would be too large to list.
"""

import argparse
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
    if isinstance(value, dict):
        ends = "{}"
        items = [_quote(k) + ": " + _json(v, inner)
                 for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        ends = "[]"
        items = [_json(v, inner) for v in value]
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
    actions over the same alphabet.  Exits 1 when there is none."""
    alpha_l, m_l = _load_problem(left, need_action=True)
    alpha_r, m_r = _load_problem(right, need_action=True)
    if alpha_l != alpha_r:
        _die([f"{left} and {right} use different alphabets"])
    witness, tried = iso_check(m_l, m_r)
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
    they are non-isomorphic with identical homology."""
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
        return
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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tracehom", allow_abbrev=False,
        description="Exact integer homology of pointed sets over trace "
                    "monoids.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, run, *positionals, coeff=False, max_degree=False):
        doc = run.__doc__
        sub = commands.add_parser(name, allow_abbrev=False,
                                  help=doc.split("\n\n")[0],
                                  description=doc)
        sub.set_defaults(run=run)
        for metavar in positionals:
            sub.add_argument(metavar.lower(), metavar=metavar)
        if coeff:
            sub.add_argument("--coeff", choices=sorted(chains.SYSTEMS),
                             default="delta",
                             help="Coefficient system (default: %(default)s).")
        sub.add_argument("--format", dest="fmt", choices=["human", "json"],
                         default="human",
                         help="Output format (default: %(default)s).")
        if max_degree:
            sub.add_argument(
                "--max-degree", type=int, metavar="N",
                help="Compute and report degrees up to this bound "
                     "(default: largest clique size); a negative bound "
                     "reports none.")
        return sub

    command("homology", cmd_homology, "PROBLEM", coeff=True, max_degree=True)
    command("schema", cmd_schema, "SOURCE").add_argument(
        "--flagify", action="store_true",
        help="Treat SOURCE as a face list (one maximal face per line) and "
             "build the alphabet of its faces first.")
    command("verify", cmd_verify, "PROBLEM", max_degree=True).add_argument(
        "--which", choices=verify.ALL_CHECKS + ("all",), default="all",
        help="Which identity (default: %(default)s).")
    command("iso", cmd_iso, "LEFT", "RIGHT")
    command("counterexample", cmd_counterexample, "PROBLEM", max_degree=True)
    return parser


_PARSER = _build_parser()


def main(argv=None, standalone_mode=True):
    """Run the command line on argv (default: sys.argv[1:]).

    Returns on success and otherwise raises SystemExit with exit code 1
    or 2 (see the module docstring).  A ``ValidationError`` that a
    command raises, such as an input too large to list, is printed as
    ``error:`` lines and exits 2.  standalone_mode is accepted and
    ignored: the benchmark (``perfbench/worker.py``) passes
    ``standalone_mode=False``.

    The command runs with the cyclic garbage collector paused, since a
    pass would only rescan the matrices it holds, and the collector's
    state is restored however the command ends.  Reference counting
    frees what a command allocates, apart from a few reference cycles,
    the largest an alphabet and the two-point action kept on it.  Those
    live until the command ends anyway, and the collector reclaims them
    once it is back on.
    """
    args = vars(_PARSER.parse_args(argv))
    enabled = gc.isenabled()
    gc.disable()
    try:
        args.pop("run")(**args)
    except ValidationError as exc:
        _die(exc.problems)
    finally:
        if enabled:
            gc.enable()
