"""Hand-derived answers for every benchmark invocation.

Nothing here calls the program.  Each schema (the flag complex of an
alphabet's independence relation) is given by its clique counts
p = [p_0, ..., p_w] and its known reduced homology, and each action in
the benchmark is a full action whose reduced transition graph is a tree
rooted at the basepoint, with |X| elements.  The paper's identities then
give every group:

  delta     H_s = |X| * H~_{s-1}(schema) + Z^{p_s}      (main)
  punctured H_s = |X| * H~_{s-1}(schema)                (power and aug)
  basepoint H_s = Z^{p_s}  (the basepoint is fixed, so every boundary
                            of the basepoint-only complex is zero)

with H~_{-1} = 0 for a nonempty schema.  A group is (free rank, torsion
invariant factors); every torsion factor here is 2, so the sorted list
of factors is already in invariant factor form.
"""

import json
from dataclasses import dataclass

ZERO = (0, ())
Z2 = (0, (2,))


def free(rank):
    return (rank, ())


def add(*groups):
    rank = sum(g[0] for g in groups)
    torsion = tuple(sorted(t for g in groups for t in g[1]))
    return (rank, torsion)


def times(k, group):
    return add(*([group] * k)) if k else ZERO


@dataclass(frozen=True)
class Schema:
    counts: list     # clique counts p_0 .. p_w
    reduced: list    # reduced homology in degrees 0 .. w - 1

    @property
    def top(self):
        return len(self.counts) - 1

    def p(self, s):
        return self.counts[s] if 0 <= s < len(self.counts) else 0

    def h(self, n):
        return self.reduced[n] if 0 <= n < len(self.reduced) else ZERO


def _simplex(dim):
    # all pairs independent: the flag complex is a dim-simplex, which is
    # contractible; p_k = binomial(dim + 1, k)
    counts = [1]
    for k in range(1, dim + 2):
        counts.append(counts[-1] * (dim + 2 - k) // k)
    return Schema(counts, [ZERO] * (dim + 1))


SCHEMAS = {
    # the 4-cycle a-b-c-d-a has no triangles: a circle
    "circle": Schema([1, 4, 4], [ZERO, free(1)]),
    "simplex1": _simplex(1),
    "simplex2": _simplex(2),
    "simplex3": _simplex(3),
    # barycentric subdivisions of the 6-vertex RP2 (6/15/10 faces), whose
    # reduced homology is (0, Z/2, 0).  sd: 31 = 6 + 15 + 10 vertices,
    # 90 = 30 + 30 + 30 comparable pairs, 60 = 10 * 3! full flags.
    # sd2: 181 = 31 + 90 + 60, 540 = 3 * 180, 360 = 60 * 3!.
    "sd_rp2": Schema([1, 31, 90, 60], [ZERO, Z2, ZERO]),
    "sd2_rp2": Schema([1, 181, 540, 360], [ZERO, Z2, ZERO]),
}


def homology_groups(schema, copies, coeff):
    """Degrees 0 .. w of a full rooted-tree action with ``copies``
    elements over ``schema``."""
    out = []
    for s in range(schema.top + 1):
        shifted = times(copies, schema.h(s - 1))
        if coeff == "delta":
            out.append(add(shifted, free(schema.p(s))))
        elif coeff == "punctured":
            out.append(shifted)
        else:
            out.append(free(schema.p(s)))
    return out


def _verify(schema, copies):
    """Every check of ``verify`` with both sides derived by hand; None
    as ``copies`` means an alphabet-only file."""
    degrees = range(1, schema.top + 1)
    ref = [schema.h(s - 1) for s in range(schema.top + 1)]
    checks = {"aug": ("PASS", [(s, ref[s], schema.h(s - 1))
                               for s in degrees])}
    if copies is None:
        for name in ("split", "power", "main"):
            checks[name] = ("N-A", [])
        return checks
    delta = homology_groups(schema, copies, "delta")
    punct = homology_groups(schema, copies, "punctured")
    checks["split"] = ("PASS", [(s, delta[s], add(punct[s],
                                                  free(schema.p(s))))
                                for s in degrees])
    checks["power"] = ("PASS", [(s, punct[s], times(copies, ref[s]))
                                for s in degrees])
    checks["main"] = ("PASS", [(s, delta[s],
                                add(times(copies, schema.h(s - 1)),
                                    free(schema.p(s))))
                               for s in degrees])
    return checks


def expect_for(command, schema_name, successor, coeff=None):
    """Expected exit code and payload of one invocation.

    ``successor`` is the file's tree action (element -> image), or None
    for an alphabet-only file."""
    schema = SCHEMAS[schema_name]
    copies = None if successor is None else len(successor)
    if command == "homology":
        if copies is None:
            return {"exit": 2}
        return {"exit": 0, "groups": homology_groups(schema, copies, coeff)}
    if command == "schema":
        return {"exit": 0, "counts": schema.counts,
                "reduced": schema.reduced}
    if command == "verify":
        return {"exit": 0, "checks": _verify(schema, copies)}
    if command == "counterexample":
        # chain x0 -> x1 -> * and fan x0 -> *, x1 -> * are both trees
        # with two elements: never isomorphic, same groups
        tables = {}
        for name in ("delta", "punctured"):
            groups = homology_groups(schema, 2, name)
            tables[name] = [(s, g, g) for s, g in enumerate(groups)]
        return {"exit": 0, "isomorphic": False, "tables": tables}
    if command == "iso":
        # only called on the chain/fan pair
        return {"exit": 1, "isomorphic": False}
    raise ValueError(f"no oracle for {command!r}")


def _group(obj):
    return (obj["rank"], tuple(obj["torsion"]))


def _degrees(entries, *keys):
    return [(e["degree"],) + tuple(_group(e[k]) for k in keys)
            for e in entries]


def _payload(expect, out):
    """The part of the JSON output that the expectation covers."""
    if "groups" in expect:
        return {"groups": [_group(e) for e in out["homology"]]}
    if "counts" in expect:
        return {"counts": out["clique_counts"],
                "reduced": [_group(e) for e in out["reduced_homology"]]}
    if "checks" in expect:
        return {"checks": {c["claim"]: (c["status"],
                                        _degrees(c["degrees"], "lhs", "rhs"))
                           for c in out["checks"]}}
    if "tables" in expect:
        return {"isomorphic": out["isomorphic"],
                "tables": {name: _degrees(rows, "chain", "fan")
                           for name, rows in out["tables"].items()}}
    return {"isomorphic": out["isomorphic"]}


def _canonical(value):
    # tuples and lists compare alike after a JSON round trip
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    return value


def mismatch(expect, exit_code, stdout):
    """None when the invocation matches ``expect``, else a reason."""
    if exit_code != expect["exit"]:
        return f"exit {exit_code}, expected {expect['exit']}"
    want = {k: v for k, v in expect.items() if k != "exit"}
    if not want:
        return None
    try:
        got = _payload(expect, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if _canonical(got) != _canonical(want):
        return f"got {got}, expected {want}"
    return None
