"""Seeded problem files for the benchmark workloads.

Every input is built here, from the benchmark's own definitions, so a
change to the program or to its bundled ``problems/`` cannot change what
the benchmark feeds it.  A seed renames and reorders the generators,
shuffles the independence pairs and renames the elements.  Homology is
invariant under all of that; pivot order and run time are not, which is
why each sample of a run gets its own relabeling.

Each workload function returns a list of invocations.  An invocation is a
dict with the CLI ``argv`` and an ``expect`` entry, the hand-derived
answer from ``oracle``.
"""

import json
import random
from itertools import combinations
from pathlib import Path

from oracle import SCHEMAS, expect_for

#: minimal 6-vertex triangulation of the real projective plane
RP2_TRIANGLES = ("124", "126", "134", "135", "156",
                 "235", "236", "245", "346", "456")


def _closure(maximal_faces):
    faces = set()
    for face in maximal_faces:
        for k in range(1, len(face) + 1):
            faces.update(frozenset(c) for c in combinations(face, k))
    return faces


def subdivide(faces):
    """Simplices of the barycentric subdivision: every chain
    s_0 < s_1 < ... of the face poset, as a frozenset of faces."""
    above = {f: [g for g in faces if f < g] for f in faces}
    out = set()

    def grow(chain, top):
        out.add(frozenset(chain))
        for g in above[top]:
            chain.append(g)
            grow(chain, g)
            chain.pop()

    for f in faces:
        grow([f], f)
    return out


def _key(face):
    # frozenset iteration order follows string hashing, which changes
    # from process to process; sort by a key built from the names alone
    return tuple(sorted(v if isinstance(v, str) else _key(v) for v in face))


def flag_alphabet(faces):
    """Generators = faces, independent when one strictly contains the
    other.  The flag complex of this relation is the barycentric
    subdivision of the complex the faces close."""
    faces = sorted(faces, key=lambda f: (len(f), _key(f)))
    pairs = [(a, b) for a, b in combinations(faces, 2) if a < b or b < a]
    return faces, pairs


def clique_counts(generators, pairs):
    """[p_0, p_1, ...] of the flag complex of a relation, by growing
    every clique from its smallest member."""
    order = {g: k for k, g in enumerate(generators)}
    higher = {g: set() for g in generators}
    for a, b in pairs:
        a, b = sorted((a, b), key=order.__getitem__)
        higher[a].add(b)
    counts = [1]
    level = [({g}, higher[g]) for g in generators]
    while level:
        counts.append(len(level))
        level = [(clique | {g}, common & higher[g])
                 for clique, common in level for g in common]
    return counts


class Relabeling:
    """Seeded renaming and reordering of one alphabet.

    Every file over the same schema in one sample shares it, because
    ``iso`` needs both of its files to spell the alphabet identically.
    """

    def __init__(self, rng, faces, pairs):
        ids = rng.sample(range(10 * len(faces) + 10), len(faces))
        self.name = {f: f"g{i}" for f, i in zip(faces, ids)}
        self.generators = [self.name[f] for f in faces]
        rng.shuffle(self.generators)
        self.pairs = []
        for a, b in pairs:
            pair = [self.name[a], self.name[b]]
            rng.shuffle(pair)
            self.pairs.append(pair)
        rng.shuffle(self.pairs)


def _tree_action(rng, generators, successor):
    """Full action of a rooted tree: every generator sends an element to
    its successor.  Elements are renamed and listed in a seeded order."""
    names = rng.sample(range(1000), len(successor))
    rename = {x: f"e{n}" for x, n in zip(sorted(successor), names)}
    rename["*"] = "*"
    elements = [rename[x] for x in successor]
    rng.shuffle(elements)
    action = {rename[x]: {g: rename[y] for g in generators}
              for x, y in successor.items()}
    return elements, action


def _document(relabel, successor=None, rng=None):
    doc = {"generators": relabel.generators, "independence": relabel.pairs}
    if successor is not None:
        doc["elements"], doc["action"] = _tree_action(
            rng, relabel.generators, successor)
    return doc


def _write(directory, name, doc):
    path = Path(directory) / name
    if isinstance(doc, str):
        path.write_text(doc)
    else:
        path.write_text(json.dumps(doc))
    return str(path)


def _schema_source(schema):
    """Generators and independence pairs whose flag complex is the
    schema, checked against the oracle's clique counts.

    A simplex comes from a complete relation and the circle from the
    4-cycle.  sd(RP2) and sd2(RP2) flagify the faces of RP2 and of sd(RP2)
    as the program's ``--flagify`` does, but with this module's own code.
    """
    if schema.startswith("simplex"):
        faces = [f"v{k}" for k in range(int(schema[7:]) + 1)]
        pairs = list(combinations(faces, 2))
    elif schema == "circle":
        faces = ["a", "b", "c", "d"]
        pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    else:
        faces = _closure(RP2_TRIANGLES)
        if schema == "sd2_rp2":
            faces = subdivide(faces)
        faces, pairs = flag_alphabet(faces)
    counts = clique_counts(faces, pairs)
    if counts != SCHEMAS[schema].counts:
        raise AssertionError(f"{schema}: generated clique counts {counts}, "
                             f"expected {SCHEMAS[schema].counts}")
    return faces, pairs


#: tree actions by name: element -> common image under every generator
X0 = {"x0": "*"}
CHAIN2 = {"x0": "x1", "x1": "*"}
FAN2 = {"x0": "*", "x1": "*"}
FAN4 = {"x0": "x1", "x1": "*", "x2": "x1", "x3": "x1"}
NO_ELEMENTS = {}

#: the bundled corpus: file name -> (schema, action or None)
CORPUS = {
    "cycle4.json": ("circle", None),
    "x0_cycle4.json": ("circle", X0),
    "chain2_cycle4.json": ("circle", CHAIN2),
    "fan2_cycle4.json": ("circle", FAN2),
    "fan4_cycle4.json": ("circle", FAN4),
    "fan4_complete3.json": ("simplex2", FAN4),
    "one_point_free4.json": ("simplex3", NO_ELEMENTS),
    "one_point_pair.json": ("simplex1", NO_ELEMENTS),
    "rp2_x0.json": ("sd_rp2", X0),
}


def _face_list(rng):
    """RP2 as a face-list text with renamed vertices, shuffled lines and
    shuffled vertices within each line."""
    vertex = {v: f"w{n}" for v, n in zip("123456", rng.sample(range(100), 6))}
    lines = []
    for tri in RP2_TRIANGLES:
        names = [vertex[v] for v in tri]
        rng.shuffle(names)
        lines.append(" ".join(names))
    rng.shuffle(lines)
    return "# RP2, relabeled\n" + "\n".join(lines) + "\n"


def _invocation(argv, expect):
    return {"argv": argv, "expect": expect}


def sd2rp2_homology(rng, directory):
    relabel = Relabeling(rng, *_schema_source("sd2_rp2"))
    path = _write(directory, "sd2rp2_fan2.json",
                  _document(relabel, FAN2, rng))
    return [_invocation(["homology", path, "--coeff", "delta",
                         "--format", "json"],
                        expect_for("homology", "sd2_rp2", FAN2, "delta"))]


def sd2rp2_verify(rng, directory):
    relabel = Relabeling(rng, *_schema_source("sd2_rp2"))
    path = _write(directory, "sd2rp2_x0.json", _document(relabel, X0, rng))
    return [_invocation(["verify", path, "--format", "json"],
                        expect_for("verify", "sd2_rp2", X0))]


def corpus_sweep(rng, directory):
    relabels = {}
    out = []
    for name, (schema, successor) in CORPUS.items():
        if schema not in relabels:
            relabels[schema] = Relabeling(rng, *_schema_source(schema))
        path = _write(directory, name,
                      _document(relabels[schema], successor, rng))
        for coeff in ("delta", "punctured", "basepoint"):
            out.append(_invocation(
                ["homology", path, "--coeff", coeff, "--format", "json"],
                expect_for("homology", schema, successor, coeff)))
        for command in ("schema", "verify", "counterexample"):
            out.append(_invocation([command, path, "--format", "json"],
                                   expect_for(command, schema, successor)))
    faces = _write(directory, "rp2_faces.txt", _face_list(rng))
    out.append(_invocation(["schema", faces, "--flagify", "--format", "json"],
                           expect_for("schema", "sd_rp2", None)))
    chain = str(Path(directory) / "chain2_cycle4.json")
    fan = str(Path(directory) / "fan2_cycle4.json")
    out.append(_invocation(["iso", chain, fan, "--format", "json"],
                           expect_for("iso", "circle", CHAIN2)))
    return out


WORKLOADS = {
    "sd2rp2_homology": sd2rp2_homology,
    "sd2rp2_verify": sd2rp2_verify,
    "corpus_sweep": corpus_sweep,
}


def build(workload, seed, sample, directory):
    """Write the inputs of one sample and return its invocations.

    The same (seed, sample) always gives the same files."""
    rng = random.Random(f"{workload}/{seed}/{sample}")
    return WORKLOADS[workload](rng, directory)
