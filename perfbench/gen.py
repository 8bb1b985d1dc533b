"""Seeded input generators for the three workloads.

Generators return plain data (ints, strings, lists, dicts) or JSON text
and never import ``ftop``: the program under test receives only what
they produce.  Each workload draws its cases from one ``random.Random``
seeded by the workload name and the run seed, so one seed always yields
the same case sequence.

The size parameters that drive cost are stratified: every block of
cases walks all combinations of them once, in a seeded order.  That
keeps the per-case distribution the same as independent uniform draws
while removing the run-to-run noise of the draw counts themselves.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import string
from fractions import Fraction
from typing import Iterator

# sweep: universe size n, grid k and subbasis size, drawn from the same
# ranges as the randomized operator-law acceptance test.
SWEEP_COMBOS = list(itertools.product(range(1, 5), range(1, 5), range(0, 5)))
MAX_CAMPAIGN_SUBBASIS = 4

# cli: request kind x universe size x subbasis size x grid k.  The grid
# and target of search requests are stratified on their own.
CLI_KINDS = ("classify-set", "validate", "classify-fn", "search")
CLI_COMBOS = list(itertools.product(CLI_KINDS, range(2, 6), range(1, 5), range(2, 7)))
SEARCH_TARGETS = (
    ("semiopen-not-open", True),
    ("somewhat-open-not-semiopen", True),
    ("somewhat-semiopen-not-semiopen", True),
    # Impossible by theorem: the search must come back empty.
    ("open-not-semiopen", False),
)
SEARCH_COMBOS = list(itertools.product(range(1, 4), SEARCH_TARGETS))

# pl: family (a chain of 2-5 members, or a product of two chains of the
# given lengths) x breakpoint count m.
PL_FAMILIES = (
    ("chain", (2,)), ("chain", (3,)), ("chain", (4,)), ("chain", (5,)),
    ("product", (1, 1)), ("product", (1, 2)), ("product", (2, 1)),
)
PL_SIZES = (8, 16, 32)
PL_COMBOS = [(*family, m) for family in PL_FAMILIES for m in PL_SIZES]
PL_LEVELS = 16  # membership values are drawn from {0, 1/16, ..., 1}


def stratified(rng: random.Random, combos: list) -> Iterator:
    """Endless blocks, each a seeded permutation of every combination."""
    while True:
        block = list(combos)
        rng.shuffle(block)
        yield from block


def block_size(workload: str) -> int:
    return len(_WORKLOADS[workload][0])


def _maker(workload: str, rng: random.Random):
    make = _WORKLOADS[workload][1]
    if workload == "cli":
        return functools.partial(make, searches=stratified(rng, SEARCH_COMBOS))
    return make


def cases(workload: str, seed: int | str) -> Iterator[dict]:
    """The endless, reproducible case sequence of one workload."""
    rng = random.Random(f"perfbench-{workload}-{seed}")
    make = _maker(workload, rng)
    for combo in stratified(rng, _WORKLOADS[workload][0]):
        yield make(rng, *combo)


# Small, fixed warm-up cases that reach every code path a workload uses.
WARMUP_COMBOS = {
    "sweep": [(1, 1, 1), (2, 2, 2)],
    "cli": [(kind, 2, 2, 2) for kind in CLI_KINDS],
    "pl": [("chain", (2,), 8), ("product", (1, 1), 8)],
}


def warmup_cases(workload: str) -> list[dict]:
    """The warm-up cases, the same for every seed."""
    rng = random.Random(f"perfbench-{workload}-warmup")
    make = _maker(workload, rng)
    return [make(rng, *combo) for combo in WARMUP_COMBOS[workload]]


# --- sweep -----------------------------------------------------------------


def _grid_set(rng: random.Random, n: int, k: int) -> list[int]:
    """A fuzzy set on the 1/k grid, as numerators over k."""
    return [rng.randint(0, k) for _ in range(n)]


def sweep_case(rng: random.Random, n: int, k: int, subbasis: int) -> dict:
    """One seed of the verification campaign, as plain numbers."""
    codomain = [_grid_set(rng, n, k) for _ in range(rng.randint(0, MAX_CAMPAIGN_SUBBASIS))]
    return {
        "n": n,
        "k": k,
        "subbasis": subbasis,
        "topology_seed": rng.randint(0, 10**9),
        "query": _grid_set(rng, n, k),
        "codomain": codomain,
        "map": [rng.randrange(n) for _ in range(n)],
    }


# --- cli -------------------------------------------------------------------


def _labels(n: int) -> list[str]:
    return list(string.ascii_lowercase[:n])


def _degree_text(numerator: int, k: int) -> str:
    return str(Fraction(numerator, k))


def _finite_doc(labels: list[str], k: int, sets: dict[str, list[int]], topology: list[str]) -> dict:
    return {
        "kind": "finite",
        "universe": labels,
        "sets": {
            name: {label: _degree_text(v, k) for label, v in zip(labels, values)}
            for name, values in sets.items()
        },
        "topology": topology,
        "topology_is": "subbasis",
    }


def _subbasis(rng: random.Random, n: int, k: int, size: int) -> dict[str, list[int]]:
    return {f"s{i + 1}": _grid_set(rng, n, k) for i in range(size)}


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def cli_case(rng: random.Random, kind: str, n: int, size: int, k: int, searches: Iterator) -> dict:
    """One CLI request on freshly generated finite subbasis documents.

    ``files`` maps file names to document text; ``argv`` is the command
    line after the global ``--format json``; ``expect`` carries what the
    check needs, including the plain-number space for the reference.
    """
    labels = _labels(n)
    subbasis = _subbasis(rng, n, k, size)
    space = {"n": n, "k": k, "subbasis": list(subbasis.values())}
    if kind == "classify-fn":
        # The codomain comes from the domain's stratum.
        codomain_subbasis = _subbasis(rng, n, k, size)
        codomain_labels = [label.upper() for label in labels]
        mapping = [rng.randrange(n) for _ in range(n)]
        doc = {
            "domain": _finite_doc(labels, k, subbasis, list(subbasis)),
            "codomain": _finite_doc(codomain_labels, k, codomain_subbasis, list(codomain_subbasis)),
            "map": {x: codomain_labels[y] for x, y in zip(labels, mapping)},
        }
        return {
            "kind": kind,
            "argv": ["classify", "fn", "--fn", "fn.json"],
            "files": {"fn.json": _dump(doc)},
            "expect": {
                "code": 0,
                "domain": space,
                "codomain": {"n": n, "k": k, "subbasis": list(codomain_subbasis.values())},
                "map": mapping,
            },
        }
    sets = dict(subbasis)
    query = _grid_set(rng, n, k)
    sets["q"] = query
    files = {"space.json": _dump(_finite_doc(labels, k, sets, list(subbasis)))}
    if kind == "validate":
        argv = ["validate", "space.json"]
        expect = {"code": 0, "space": space}
    elif kind == "classify-set":
        argv = ["classify", "set", "q", "--space", "space.json"]
        expect = {"code": 0, "space": space, "query": query}
    else:
        grid, (target, possible) = next(searches)
        argv = ["search", "--target", target, "--space", "space.json", "--grid", str(grid)]
        # The exit code of a possible search depends on whether a witness
        # exists on the grid; the check derives it from the report.
        expect = {"code": None if possible else 1, "space": space, "target": target}
    return {"kind": kind, "argv": argv, "files": files, "expect": expect}


# --- pl --------------------------------------------------------------------


def _xs(rng: random.Random, m: int, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """m strictly increasing x-coordinates from lo to hi inclusive."""
    steps = 8 * m
    inner = sorted(rng.sample(range(1, steps), m - 2))
    return [lo, *(lo + (hi - lo) * Fraction(i, steps) for i in inner), hi]


def _chain_values(rng: random.Random, xs: list[Fraction], length: int) -> list[list[Fraction]]:
    """``length`` nested members on a shared grid, listed bottom to top.

    At every x the members take sorted draws, so each lies below the
    next; at one x the draws are distinct and strictly inside (0, 1), so
    the members differ from each other and from both constants.
    """
    strict = rng.randrange(len(xs))
    columns = []
    for i in range(len(xs)):
        if i == strict:
            draws = rng.sample(range(1, PL_LEVELS), length)
        else:
            draws = [rng.randint(0, PL_LEVELS) for _ in range(length)]
        columns.append(sorted(Fraction(v, PL_LEVELS) for v in draws))
    return [[column[j] for column in columns] for j in range(length)]


def _pl_body(points: list[tuple[Fraction, Fraction]]) -> dict:
    return {"breakpoints": [[str(x), str(y)] for x, y in points]}


def pl_case(rng: random.Random, shape: str, lengths: tuple[int, ...], m: int) -> dict:
    """A ``classify set`` request on a PL complete-listing document.

    ``chain``: 2-5 nested members on one shared grid of m points; with the
    constants, a chain is closed under min and max.  ``product``: chains
    A on [0, 1/2] and B on [1/2, 1], both vanishing at 1/2, of 1-2
    members and at most 3 together; the joins a \\/ b for a in {0} + A
    and b in {0} + B, plus the constant 1, are closed because min and max
    act on the two halves separately.  The factors stay short so that a
    product has no more members (3 or 5) than a long chain: the complete
    listing is validated pairwise, which is quadratic in the member count,
    and each pair costs O(m^2).
    """
    half = Fraction(1, 2)
    sets: dict[str, dict] = {}
    topology = ["0", "1"]
    if shape == "chain":
        (length,) = lengths
        xs = _xs(rng, m, Fraction(0), Fraction(1))
        for j, ys in enumerate(_chain_values(rng, xs, length)):
            sets[f"c{j + 1}"] = _pl_body(list(zip(xs, ys)))
        members = length
    else:
        p, q = lengths
        left_xs = _xs(rng, m // 2, Fraction(0), half)[:-1]
        right_xs = _xs(rng, m // 2, half, Fraction(1))[1:]
        zero_left = [Fraction(0)] * len(left_xs)
        zero_right = [Fraction(0)] * len(right_xs)
        lefts = [zero_left, *_chain_values(rng, left_xs, p)]
        rights = [zero_right, *_chain_values(rng, right_xs, q)]
        for i, left in enumerate(lefts):
            for j, right in enumerate(rights):
                if i == 0 and j == 0:
                    continue
                points = [*zip(left_xs, left), (half, Fraction(0)), *zip(right_xs, right)]
                sets[f"a{i}b{j}"] = _pl_body(points)
        members = (p + 1) * (q + 1) - 1
    topology[1:1] = list(sets)
    query_xs = _xs(rng, m, Fraction(0), Fraction(1))
    sets["q"] = _pl_body([(x, Fraction(rng.randint(0, PL_LEVELS), PL_LEVELS)) for x in query_xs])
    doc = {"kind": "pl", "sets": sets, "topology": topology, "topology_is": "complete"}
    return {
        "kind": f"pl-{shape}",
        "m": m,
        "members": members,
        "argv": ["classify", "set", "q", "--space", "space.json"],
        "files": {"space.json": _dump(doc)},
        "expect": {"code": 0},
    }


_WORKLOADS = {
    "sweep": (SWEEP_COMBOS, sweep_case),
    "cli": (CLI_COMBOS, cli_case),
    "pl": (PL_COMBOS, pl_case),
}
