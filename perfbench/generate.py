"""Seeded input documents for the generated workloads.

The generators depend only on the standard library, so the same seed gives
byte-identical documents whatever the state of the package under test.
Groups are written directly in invariant-factor normal form and every map
is a well-defined homomorphism, so each document is valid input.
"""

import itertools
import json
import random
from math import gcd

# Documents per (free rank, period) cell.  Light cells get more documents,
# so that every cell takes a similar share of a pass and no single costly
# document decides the throughput.  A pass takes about 3 s, so that a run
# repeats every operation a dozen times or more (the benchmark keeps each
# operation's fastest time).  Cells with rank * period > 24 are left out:
# at r=20, p=3 one document takes 2 to 12 s, a tail that no run of a few
# seconds can average out.  r=20, p=1 keeps one document for the same
# reason: about one system in ten there costs five times the median.
CYCLE_CELLS = {
    (4, 1): 10,
    (4, 2): 5,
    (4, 3): 4,
    (8, 1): 5,
    (8, 2): 3,
    (8, 3): 2,
    (12, 1): 3,
    (12, 2): 2,
    (16, 1): 2,
    (20, 1): 1,
}
# Documents per (layer period, prefix length) cell, weighted the same way.
TOWER_CELLS = {
    (period, k): count
    for period, count in ((1, 40), (4, 25), (8, 15), (16, 8))
    for k in (0, 2, 4, 8)
}
FACTORS = range(2, 13)
ENTRY_BOUND = 3


def _torsion(rng, max_factors, count=None):
    """A divisibility chain of `count` (else 0..max_factors at random)
    invariant factors from 2..12."""
    if count is None:
        count = rng.randrange(max_factors + 1)
    chain = []
    for _ in range(count):
        choices = [d for d in FACTORS if not chain or d % chain[-1] == 0]
        if not choices:
            break
        chain.append(rng.choice(choices))
    return chain


def _group(free_rank, torsion):
    return {"free_rank": free_rank, "torsion": list(torsion)}


def _hom(rng, source, target):
    """Row-major matrix of a random well-defined hom source -> target.

    Entries on free source generators lie in [-3, 3].  A torsion source
    generator of order d may only hit torsion target coordinates, with an
    entry that d kills there (a multiple of dd / gcd(dd, d), below dd).
    """
    rs, ts = source["free_rank"], source["torsion"]
    rt, tt = target["free_rank"], target["torsion"]
    rows = []
    for i in range(rt + len(tt)):
        row = [rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(rs)]
        for d in ts:
            if i < rt:
                row.append(0)
            else:
                dd = tt[i - rt]
                step = dd // gcd(dd, d)
                row.append(step * rng.randrange(dd // step))
        rows.append(row)
    return rows


def _prefix(rng, k, first_tail, make_group):
    """k prefix groups and the k maps f_1..f_k (f_k leaves the first tail level)."""
    groups = [make_group() for _ in range(k)]
    maps = []
    for i in range(k):
        src = groups[i + 1] if i < k - 1 else first_tail
        maps.append(_hom(rng, src, groups[i]))
    return groups, maps


def cycle_system(rng, rank, period, stratum=None):
    """Cycle tail of Z^rank plus random torsion, after a 0..2 level prefix.

    Tail group j gets (stratum + j) % 3 invariant factors when a stratum is
    given: the number of factors moves a document's cost by about 1.5x, so
    a cell whose documents take the strata in turn has the same mix of
    them for every seed.
    """
    groups = [
        _group(rank, _torsion(rng, 2, None if stratum is None else (stratum + j) % 3))
        for j in range(period)
    ]
    maps = [_hom(rng, groups[(j + 1) % period], groups[j]) for j in range(period)]
    k = rng.randrange(3)
    prefix, pmaps = _prefix(
        rng, k, groups[0], lambda: _group(rng.randint(1, 4), _torsion(rng, 1))
    )
    return {
        "prefix": prefix,
        "maps": pmaps,
        "tail": {"kind": "cycle", "groups": groups, "maps": maps},
    }


def tower_system(rng, period, k):
    """Tower tail whose layers mix Z and torsion, over a base of rank <= 2."""
    layers = [
        _group(1, []) if rng.random() < 0.5 else _group(0, [rng.choice(FACTORS)])
        for _ in range(period)
    ]
    base = _group(rng.randint(0, 2), _torsion(rng, 1))
    prefix, pmaps = _prefix(
        rng, k, base, lambda: _group(rng.randint(0, 1), _torsion(rng, 1))
    )
    return {
        "prefix": prefix,
        "maps": pmaps,
        "tail": {"kind": "tower", "base": base, "layers": layers},
    }


def cycle_documents(seed, cells=CYCLE_CELLS):
    """cells[rank, period] documents for every cell, in a seeded order."""
    rng = random.Random(f"cycle-rank/{seed}")
    docs = []
    for (rank, period), count in cells.items():
        for i in range(count):
            name = f"cycle-r{rank}-p{period}-{i}"
            docs.append({"name": name, "system": cycle_system(rng, rank, period, i)})
    rng.shuffle(docs)
    return docs


def tower_documents(seed, cells=TOWER_CELLS):
    """cells[period, k] documents for every cell, in a seeded order."""
    rng = random.Random(f"tower-depth/{seed}")
    docs = []
    for (period, k), count in cells.items():
        for i in range(count):
            name = f"tower-p{period}-k{k}-{i}"
            docs.append({"name": name, "system": tower_system(rng, period, k)})
    rng.shuffle(docs)
    return docs


def _chains(order, least=2):
    """Invariant-factor chains d1 | d2 | ... with product `order`."""
    if order == 1:
        return [[]]
    out = []
    for d in range(least, order + 1):
        if order % d == 0:
            out += [[d] + rest for rest in _chains(order // d, d) if not rest or rest[0] % d == 0]
    return out


def _subgroups(chain):
    """Every subgroup of Z/d1 + ... + Z/dk, as a sorted element list."""
    elements = list(itertools.product(*(range(d) for d in chain)))
    zero = tuple(0 for _ in chain)

    def add(x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, chain))

    def span(sub, g):
        out = set(sub)
        frontier = [g]
        while frontier:
            x = frontier.pop()
            if x not in out:
                out.add(x)
                frontier += [add(x, y) for y in list(out)]
        return frozenset(out)

    found = {frozenset([zero])}
    frontier = list(found)
    while frontier:
        sub = frontier.pop()
        for g in elements:
            if g not in sub:
                bigger = span(sub, g)
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    return sorted((sorted(s) for s in found), key=lambda s: (len(s), s))


def split_lab_inputs(max_order):
    """One coset topology per subgroup of every abelian group of order <= max_order."""
    return [
        {"torsion": chain, "subgroup": [list(e) for e in sub]}
        for order in range(1, max_order + 1)
        for chain in _chains(order)
        for sub in _subgroups(chain)
    ]


def paired(docs):
    """kk-classify documents: each system with the next one of its cell as
    second_system, so the pair costs about what its cell costs."""
    cells = {}
    for d in docs:
        cells.setdefault(cell_of(d["name"]), []).append(d)
    following = {}
    for group in cells.values():
        group.sort(key=lambda d: int(d["name"].rsplit("-", 1)[1]))
        for a, b in zip(group, group[1:] + group[:1]):
            following[a["name"]] = b
    return [
        {
            "name": f"{a['name']}+{following[a['name']]['name']}",
            "system": a["system"],
            "second_system": following[a["name"]]["system"],
        }
        for a in docs
    ]


def cell_of(name):
    """The parameter cell of a document name: cycle-r4-p1-3 -> cycle-r4-p1."""
    return name.rsplit("-", 1)[0]


def dump(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
