import glob
import json
import os
import random
import sys
from math import gcd

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from prolim import fgab as F
from prolim import invsys as I

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
FIXTURES = os.path.join(REPO_ROOT, "fixtures")


@pytest.fixture
def rng():
    return random.Random(20240811)


# -- random system generators ---------------------------------------------
# Group sizes are kept small on purpose: image chains of finite groups are
# then guaranteed to settle within dimension * exponent <= 4 periods, which
# is the horizon several desk-scale checks are pinned to.

FINITE_FACTORS = (2, 3, 4, 6)


def random_group(rng, max_rank=2, factors=(2, 3, 4, 6, 8, 9), max_torsion=2):
    """Random small group in canonical form."""
    rank = rng.randrange(max_rank + 1)
    k = rng.randrange(max_torsion + 1)
    diag = [rng.choice(factors) for _ in range(k)]
    return F.FgAbGroup.from_diagonal([0] * rank + diag)


def hom_is_zero(h):
    return not any(any(c) for c in h.cols)


def random_hom(rng, source, target, bound=3):
    """Random well-defined hom source -> target."""
    cols = []
    for j in range(source.dim):
        if j < source.free_rank:
            col = [rng.randrange(-bound, bound + 1) for _ in range(target.dim)]
        else:
            d = source.torsion[j - source.free_rank]
            col = []
            for i in range(target.dim):
                if i < target.free_rank:
                    col.append(0)  # order-d generator cannot hit a free coordinate
                else:
                    dd = target.torsion[i - target.free_rank]
                    step = dd // gcd(dd, d)
                    col.append(step * rng.randrange(0, max(1, dd // step)))
        cols.append(col)
    mat = [[cols[j][i] for j in range(source.dim)] for i in range(target.dim)]
    return F.GroupHom(source, target, mat)


def random_finite_group(rng, max_torsion=2):
    k = rng.randrange(max_torsion + 1)
    return F.FgAbGroup.from_diagonal([rng.choice(FINITE_FACTORS) for _ in range(k)])


def random_small_group(rng, max_rank=1, max_torsion=2):
    rank = rng.randrange(max_rank + 1)
    k = rng.randrange(max_torsion + 1)
    diag = [0] * rank + [rng.choice(FINITE_FACTORS) for _ in range(k)]
    return F.FgAbGroup.from_diagonal(diag)


def random_cycle_system(rng, group_gen, max_prefix=2, max_period=2, bound=2):
    k = rng.randrange(max_prefix + 1)
    p = rng.randrange(1, max_period + 1)
    prefix = [group_gen(rng) for _ in range(k)]
    cycle = [group_gen(rng) for _ in range(p)]
    cyc_maps = [
        random_hom(rng, cycle[(j + 1) % p], cycle[j], bound=bound) for j in range(p)
    ]
    maps = []
    for i in range(k):
        src = prefix[i + 1] if i < k - 1 else cycle[0]
        maps.append(random_hom(rng, src, prefix[i], bound=bound))
    return I.InverseSystem(prefix, maps, I.CycleTail(tuple(cycle), tuple(cyc_maps)))


def random_finite_cycle_system(rng, **kw):
    return random_cycle_system(rng, random_finite_group, **kw)


def random_mixed_cycle_system(rng, **kw):
    return random_cycle_system(rng, random_small_group, **kw)


def random_tower_system(rng, max_prefix=1, max_period=2, infinite_layers=False):
    p = rng.randrange(1, max_period + 1)
    gen = random_small_group if infinite_layers else random_finite_group
    base = gen(rng)
    layers = [gen(rng) for _ in range(p)]
    k = rng.randrange(max_prefix + 1)
    prefix = [random_finite_group(rng) for _ in range(k)]
    maps = []
    for i in range(k):
        src = prefix[i + 1] if i < k - 1 else base
        maps.append(random_hom(rng, src, prefix[i]))
    return I.tower_system(base, layers, prefix=prefix, maps=maps)


def random_system(rng):
    roll = rng.random()
    if roll < 0.5:
        return random_mixed_cycle_system(rng)
    if roll < 0.8:
        return random_tower_system(rng)
    return random_tower_system(rng, infinite_layers=True)


def seeded_towers(seed, count):
    """`count` towers from the benchmark generator (`perfbench/generate.py`),
    with periods 1..3 and prefixes of length 0..2, then every tower fixture."""
    perfbench = os.path.join(REPO_ROOT, "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import generate

    rng = random.Random(seed)
    docs = [
        generate.tower_system(rng, rng.randint(1, 3), rng.randrange(3)) for _ in range(count)
    ]
    for path in sorted(glob.glob(os.path.join(FIXTURES, "tower-*.json"))):
        with open(path) as fh:
            docs.append(json.load(fh)["system"])
    return [I.InverseSystem.from_json(doc) for doc in docs]


# -- finite abelian groups and their subgroups, for the exhaustive sweeps --


def invariant_factor_chains(order):
    """All invariant-factor chains with the given product."""
    if order == 1:
        return [[]]
    out = []
    for d in range(2, order + 1):
        if order % d:
            continue
        for rest in invariant_factor_chains(order // d):
            if not rest or rest[0] % d == 0:
                out.append([d] + rest)
    return out


def abelian_groups_upto(max_order):
    for order in range(1, max_order + 1):
        for chain in invariant_factor_chains(order):
            yield F.FgAbGroup(0, chain)


def all_subgroups(group):
    """Every subgroup of a finite group, as element sets."""
    elements = list(group.elements())
    zero = group.zero()

    def closure(gens):
        s = {zero}
        frontier = list(gens)
        while frontier:
            x = frontier.pop()
            if x in s:
                continue
            s.add(x)
            for y in list(s):
                for z in (group.add(x, y), group.sub(y, x)):
                    if z not in s:
                        frontier.append(z)
        return frozenset(s)

    subs = {frozenset({zero})}
    frontier = [frozenset({zero})]
    while frontier:
        s = frontier.pop()
        for e in elements:
            if e not in s:
                bigger = closure(s | {e})
                if bigger not in subs:
                    subs.add(bigger)
                    frontier.append(bigger)
    return sorted(subs, key=lambda s: (len(s), sorted(s)))
