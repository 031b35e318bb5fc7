"""Seeded input generators for the benchmark workloads.

Each generator yields ``Op`` records: the spec dict handed to the program,
the CLI subcommand, and the facts the output checks need, all fixed at
generation time from the generator's own parameters, never from the
program under test.  The same seed gives byte-identical specs; within one
stream no spec repeats.

The class mix is stratified: every block of ops holds each input class in
its stated proportion, shuffled within the block, so the per-run cost of a
workload does not drift with how a seed happens to draw the classes.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Iterator, List

GRID = (0, 1, -1, 2)


@dataclass
class Op:
    command: str          # "run" or "mass"
    spec: dict
    kind: str             # input class inside the workload
    facts: dict = field(default_factory=dict)

    def spec_text(self) -> str:
        return json.dumps(self.spec, sort_keys=True)


def _mono(names, exps, coeff=1) -> str:
    parts = [f"{v}^{e}" if e > 1 else v for v, e in zip(names, exps) if e]
    if not parts:
        return str(coeff)
    body = "*".join(parts)
    return body if coeff == 1 else f"{coeff}*{body}"


def _points(rng: random.Random, n: int, count: int) -> List[List[str]]:
    grid = list(itertools.product(GRID, repeat=n))
    return [[str(c) for c in pt] for pt in rng.sample(grid, min(count, len(grid)))]


def _names(n: int) -> List[str]:
    return [f"x{i + 1}" for i in range(n)]


def _reg(rng: random.Random) -> dict:
    return {"seed": rng.randrange(1, 2 ** 31)}


# ---------------------------------------------------------------------------
# exact_specs: the exact engine on its diagonal and single-row classes
# ---------------------------------------------------------------------------

EXACT_TASKS = ["Mg", "segre", "distinguished", "singular_metrics"]


def _diag_monomial(rng: random.Random) -> Op:
    """Permuted-diagonal r x r monomial matrix whose reduced entries are
    pairwise coprime, times a shared common factor of positive degree."""
    r = rng.randint(2, 4)
    n = rng.randint(1, 4)
    names = _names(n)
    owners = [rng.randrange(-1, r) for _ in range(n)]   # -1: no slot owns it
    common = [rng.randint(0, 1) for _ in range(n)]
    if not any(common):
        common[rng.randrange(n)] = 1
    entries = []
    for slot in range(r):
        exps = [common[v] + (rng.randint(0, 2) if owners[v] == slot else 0)
                for v in range(n)]
        entries.append((rng.randint(1, 3), exps))
    rows, cols = list(range(r)), list(range(r))
    rng.shuffle(rows)
    rng.shuffle(cols)
    matrix = [["0"] * r for _ in range(r)]
    for (coeff, exps), i, j in zip(entries, rows, cols):
        matrix[i][j] = _mono(names, exps, coeff)
    det_divisor = {names[v]: sum(exps[v] for _c, exps in entries)
                   for v in range(n)}
    spec = {"variables": names, "matrix": matrix, "engine": "exact",
            "points": _points(rng, n, 4), "tasks": EXACT_TASKS,
            "reg": _reg(rng)}
    return Op("run", spec, "diag",
              {"det_divisor": {k: e for k, e in det_divisor.items() if e}})


def _coprime_row(rng: random.Random) -> Op:
    """One row of monomials with pairwise-coprime supports (each variable
    belongs to at most one entry), optionally times a common factor."""
    n = rng.randint(2, 4)
    r = rng.randint(2, min(n, 4))
    names = _names(n)
    owners = list(range(r)) + [rng.randrange(-1, r) for _ in range(n - r)]
    rng.shuffle(owners)
    with_common = rng.random() < 0.5
    common = [rng.randint(0, 1) if with_common else 0 for _ in range(n)]
    row = []
    for slot in range(r):
        exps = [common[v] + (rng.randint(1, 3) if owners[v] == slot else 0)
                for v in range(n)]
        row.append(_mono(names, exps, rng.randint(1, 3)))
    spec = {"variables": names, "matrix": [row], "engine": "exact",
            "points": _points(rng, n, 4), "tasks": EXACT_TASKS,
            "reg": _reg(rng)}
    return Op("run", spec, "row")


# ---------------------------------------------------------------------------
# mass_tables: the numeric oracles through the mass command
# ---------------------------------------------------------------------------

class Deck:
    """Deals every item once, in a seeded order, before any repeats, so each
    exponent pattern appears in a fixed share of every run."""

    def __init__(self, items):
        self.items, self.left = list(items), []

    def draw(self, rng: random.Random):
        if not self.left:
            self.left = list(self.items)
            rng.shuffle(self.left)
        return self.left.pop()


def _diag_one_var(rng: random.Random, deck: Deck) -> Op:
    exps = deck.draw(rng)
    r = len(exps)
    matrix = [["0"] * r for _ in range(r)]
    for i, e in enumerate(exps):
        matrix[i][i] = _mono(["x1"], [e])
    spec = {"variables": ["x1"], "matrix": matrix, "reg": _reg(rng)}
    return Op("mass", spec, f"balance{r}", {"det_count": sum(exps)})


def _moving_entry(a: int, b: int, c: int) -> str:
    return f"{_mono(['x1'], [a])} - {c}/4*{_mono(['x2'], [b + 1])}"


def _mass_row(rng: random.Random, deck: Deck) -> Op:
    """(x1^a - c/4*x2^(b+1), x2^b): isolated zero at the origin of
    intersection number a*b."""
    (a, b), c = deck.draw(rng), rng.randint(1, 7)
    row = [_moving_entry(a, b, c), _mono(["x2"], [b])]
    spec = {"variables": ["x1", "x2"], "matrix": [row], "reg": _reg(rng)}
    return Op("mass", spec, "eps_table", {"top_mass": a * b})


# ---------------------------------------------------------------------------
# crosscheck_both: exact and numeric engines on the same inputs
# ---------------------------------------------------------------------------

# The 2-variable classes draw unit coefficients 1-9 as well: without them a
# run would see the same few dozen matrices over and over, and a cache across
# calls could pay.  Intersection numbers do not depend on them.

def _monomial_row_both(rng: random.Random, deck: Deck) -> Op:
    a, b, *h = deck.draw(rng)                    # common factor x1^h0*x2^h1
    names = _names(2)
    row = [_mono(names, [h[0] + a, h[1]], rng.randint(1, 9)),
           _mono(names, [h[0], h[1] + b], rng.randint(1, 9))]
    spec = {"variables": names, "matrix": [row], "engine": "both",
            "points": _points(rng, 2, 3), "tasks": ["Mg", "segre", "Ma"],
            "reg": _reg(rng)}
    return Op("run", spec, "mono_row", {"ma_point_mass": -a * b})


def _general_row_both(rng: random.Random, deck: Deck) -> Op:
    (a, b), c = deck.draw(rng), rng.randint(1, 7)
    row = [_moving_entry(a, b, c),
           _mono(_names(2), [1, b], rng.randint(1, 9))]
    spec = {"variables": _names(2), "matrix": [row], "engine": "both",
            "tasks": ["Ma"], "reg": _reg(rng)}
    return Op("run", spec, "general_row", {"ma_point_mass": -(a * b + b + 1)})


def _diag_both(rng: random.Random, deck: Deck) -> Op:
    a, b = deck.draw(rng)
    names = _names(2)
    matrix = [[_mono(names, [a, 0], rng.randint(1, 9)), "0"],
              ["0", _mono(names, [0, b], rng.randint(1, 9))]]
    spec = {"variables": names, "matrix": matrix, "engine": "both",
            "points": _points(rng, 2, 3), "tasks": ["Mg", "segre"],
            "reg": _reg(rng)}
    return Op("run", spec, "diag2", {})


EXPONENTS, FACTOR = (1, 2, 3), (0, 1)


def _dealt(make, *choices):
    """``make`` drawing its parameters from a deck of its own holding every
    tuple of the product of ``choices``."""
    deck = Deck(itertools.product(*choices))
    return lambda rng: make(rng, deck)


def _mass_block():
    # 3 rows : 1 : 1, not half and half: the three classes cost about 0.1,
    # 0.17 and 0.5 s, so an even split would put p50 on the gap between the
    # cheapest two and p50 would jump between them from run to run
    row = _dealt(_mass_row, EXPONENTS, EXPONENTS)
    return [_dealt(_diag_one_var, EXPONENTS, EXPONENTS),
            _dealt(_diag_one_var, EXPONENTS, EXPONENTS, EXPONENTS),
            row, row, row]


def _both_block():
    mono = _dealt(_monomial_row_both, EXPONENTS, EXPONENTS, FACTOR, FACTOR)
    general = _dealt(_general_row_both, EXPONENTS, EXPONENTS)
    diag = _dealt(_diag_both, EXPONENTS, EXPONENTS)
    return [mono] * 4 + [general] * 3 + [diag] * 3


# Each block lists its classes in their stated proportions; a fresh block
# is built per stream so the decks' state stays inside one stream.
BLOCKS = {
    "exact_specs": lambda: [_diag_monomial] * 3 + [_coprime_row],
    "mass_tables": _mass_block,
    "crosscheck_both": _both_block,
}

# Operations after which a stream has dealt every deck whole, so that runs
# of a whole number of cycles see the same class and exponent mix whatever
# the seed: 27 blocks of 5 deal the 27 exponent triples once, 9 blocks of 10
# the 36 monomial-row tuples once.
CYCLE = {"exact_specs": 4, "mass_tables": 135, "crosscheck_both": 90}


def generate(workload: str, seed: int, stream: str = "") -> Iterator[Op]:
    """The workload's endless op stream for ``seed``; no spec repeats.
    Other ``stream`` names give independent streams for the same seed."""
    if workload not in BLOCKS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}{stream}")
    makers = BLOCKS[workload]()
    seen = set()
    for blocks_done in itertools.count():
        block = list(makers)
        # the first block keeps its listed order: op 0, the set-up operation,
        # then always has the workload's leading class
        if blocks_done:
            rng.shuffle(block)
        for make in block:
            while True:
                op = make(rng)
                text = op.spec_text()
                if text not in seen:
                    seen.add(text)
                    break
            yield op


def take(workload: str, seed: int, count: int, stream: str = "") -> List[Op]:
    ops = generate(workload, seed, stream)
    return [next(ops) for _ in range(count)]
