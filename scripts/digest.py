"""Hash the basis-dependent outputs of prolim over a seeded corpus.

    python3 scripts/digest.py [--seed 1] [--count 200] [--src DIR]

Several outputs depend on the bases the integer kernel picks, not only on
the groups they describe: Mittag-Leffler certificates, surjectivized
systems, stable-image and eventual-image subgroups, kernels, images,
quotients, minimal solutions (`fgab.preimages`, on the
`solve_hom_minimal` line), direct-sum inclusions and projections, the
surjectivization short exact sequence and the truncated-limit witness.
This script computes all of them over
seeded random systems and prints one `family count sha256` line per
family.  Subgroup families get one line per field instead
(`eventual_image.basis 301 <sha256>`, likewise `generators`,
`normal_form` and `inclusion`), so a change that keeps the lattices but
picks other generators shows exactly which field moved.  The
`restrict_system` family hashes each system's cofinal restrictions at
strides 2 and 3 and offsets 0 and 1, and `restrict_tuple` three seeded
tuples moved to each of them and back.  The `eventual_lattice` family hashes `fgab.eventual_image_lattice` on seeded
square matrices of rank 1..12, block sums of companion matrices of
polynomials with and without a factor of constant term +-1, coupled and
conjugated; most of them reach the unit part over Z.  The `factor_mod`
family hashes the factor lists mod p, in the order `factor_mod` lists
them (t - a for the roots a, ascending, then the root-free rest; the unit
part over Z does not depend on that order), and the unit degrees of
seeded monic polynomials of degree 1..40 at 101, at 103 and at the least
prime above the degree.  The
`image_chain` family hashes the (steps, index) that `invsys._image_chain`
returns on 300 seeded endomorphisms of Z^r + T with r <= 8 and at most two
torsion factors; a third have a singular free block, whose walk first
restricts to a term of stable free rank, and a sixth a unit factor, so
failing walks both at and below the ambient free rank are covered.  The
pairs do not depend on a basis.  tests/test_digest.py pins every line at
seed 1 and the default count.  To compare two checkouts, run it once with
the default `--src` (this checkout's `src/`) and once with `--src`
pointing at the other checkout's `src/`; equal lines mean byte-identical
outputs.

The corpus comes from the benchmark's standard-library generator
(`perfbench/generate.py`), at small ranks, so it does not depend on the
package under test.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
SUBGROUP_FIELDS = ("generators", "basis", "normal_form", "inclusion")


def _fields(family):
    return [f"{family}.{field}" for field in SUBGROUP_FIELDS]


FAMILIES = (
    "ml",
    "surjectivize",
    *_fields("stable_images"),
    *_fields("eventual_image"),
    *_fields("kernel"),
    *_fields("image"),
    "quotient",
    "solve_hom_minimal",
    "direct_sum.inclusions",
    "direct_sum.projections",
    "surjectivization_ses.sub",
    "surjectivization_ses.quotient",
    "surjectivization_ses.inclusions",
    "surjectivization_ses.projections",
    "lim_truncated.witness",
    "tower.drops",
    "restrict_system",
    "restrict_tuple",
    "eventual_lattice",
    "factor_mod",
    "image_chain",
)
MAX_FACTOR_DEGREE = 40
MAX_LATTICE_RANK = 12
MAX_CHAIN_RANK = 8
CHAIN_COUNT = 300
# invariant-factor chains; the empty one twice, so free groups are common
CHAIN_TORSION = ((), (), (2,), (4,), (6,), (9,), (2, 4), (2, 6), (3, 9), (2, 8), (4, 8))
# Ascending monic polynomials: each of the first has an irreducible factor
# with constant term +-1, none of the second has one.  The two of degree 4
# are Swinnerton-Dyer polynomials: irreducible over Z, split mod every prime.
UNIT_POLYS = ([-1, 1], [1, 1], [1, 1, 1], [1, -2, 1], [1, -3, 1], [1, 0, -10, 0, 1])
NON_UNIT_POLYS = ([-2, 1], [3, 1], [2, -1, 1], [9, 0, -14, 0, 1])


def corpus(seed, count):
    """`count` seeded system documents: cycles of rank 1..4, period 1..3,
    and towers of period 1..3 over prefixes of length 0..2."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import generate

    rng = random.Random(f"digest/{seed}")
    docs = []
    for i in range(count):
        if i % 4 == 3:
            docs.append(generate.tower_system(rng, rng.randint(1, 3), rng.randrange(3)))
        else:
            docs.append(generate.cycle_system(rng, rng.randint(1, 4), rng.randint(1, 3)))
    return docs


def subgroup_json(sub):
    return {
        "generators": [list(g) for g in sub.generators],
        "basis": sub.lattice_basis(),
        "normal_form": sub.normal_form.to_json(),
        "inclusion": [list(r) for r in sub.inclusion().matrix],
    }


def subgroup_lines(family, subs):
    """One `family.field` pair per subgroup field; `subs` maps keys to
    subgroups, or is a single subgroup."""
    if isinstance(subs, dict):
        jsons = {key: subgroup_json(sub) for key, sub in subs.items()}
        for field in SUBGROUP_FIELDS:
            yield f"{family}.{field}", {key: j[field] for key, j in jsons.items()}
    else:
        yield from ((f"{family}.{k}", v) for k, v in subgroup_json(subs).items())


def rows(homs):
    return [[list(r) for r in h.matrix] for h in homs]


def outputs(doc, rng):
    """(family, JSON-ready value) pairs for one system document."""
    from prolim import fgab as F
    from prolim import homalg as H
    from prolim import invsys as I

    s = I.InverseSystem.from_json(doc)
    yield "ml", I.is_mittag_leffler(s).to_json()
    yield "surjectivize", I.surjectivize(s).to_json()
    images = I.stable_images(s)
    yield from subgroup_lines("stable_images", {str(n): images[n] for n in sorted(images)})
    k, p = s.prefix_len, s.period
    if isinstance(s.tail, I.CycleTail):
        for level in range(k + 1, k + p + 1):
            endo = s.map_between(level, level + p)
            yield from subgroup_lines("eventual_image", I.eventual_image(endo))
        ses = H.surjectivization_ses(s)
        yield "surjectivization_ses.sub", ses.sub.to_json()
        yield "surjectivization_ses.quotient", ses.quot.to_json()
        yield "surjectivization_ses.inclusions", rows(ses.inclusions)
        yield "surjectivization_ses.projections", rows(ses.projections)
    total, incls, projs = F.direct_sum(*(s.group_at(n) for n in range(1, k + p + 1)))
    yield "direct_sum.inclusions", {"group": total.to_json(), "maps": rows(incls)}
    yield "direct_sum.projections", rows(projs)
    _lim, witness = H.lim_truncated(H.TruncatedChain.of_system(s, min(k + p + 1, 3)))
    yield "lim_truncated.witness", witness.to_json()
    for n in range(1, k + p + 1):
        h = s.map_at(n)
        yield from subgroup_lines("kernel", F.kernel(h))
        img = F.image(h)
        yield from subgroup_lines("image", img)
        q, proj = F.quotient(h.target, img)
        yield "quotient", {"group": q.to_json(), "projection": [list(r) for r in proj.matrix]}
        lift = F.preimages(h)
        for _ in range(3):
            x = tuple(rng.randint(-5, 5) for _ in range(h.source.dim))
            y = tuple(rng.randint(-5, 5) for _ in range(h.target.dim))
            for target in (h.apply(h.source.reduce(x)), h.target.reduce(y)):
                sol = lift(target)
                yield "solve_hom_minimal", None if sol is None else list(sol)
    if isinstance(s.tail, I.TowerTail):
        yield "tower.drops", rows(s.map_at(n) for n in range(k + 1, k + 2 * p + 1))
    yield from restricted_tuples(s, random.Random(json.dumps(doc, sort_keys=True)))


def restricted_tuples(s, rng):
    """Each cofinal restriction at strides 2 and 3 and offsets 0 and 1, as
    a `restrict_system` item, then three tuples from random tops moved to
    it and back, as `restrict_tuple` pairs."""
    from prolim import invsys as I
    from prolim import prospace as P

    level = s.prefix_len + s.period + 4
    tops = [
        tuple(rng.randint(-5, 5) for _ in range(s.group_at(level).dim)) for _ in range(3)
    ]
    tuples = [P.CoherentTuple.from_top(s, level, top) for top in tops]
    for stride in (2, 3):
        for offset in (0, 1):
            r = I.restrict_cofinal(s, stride, offset)
            yield "restrict_system", r.to_json()
            for t in tuples:
                rt = P.restrict_tuple(s, r, stride, offset, t)
                back = P.unrestrict_tuple(s, r, stride, offset, rt, offset + stride * rt.level)
                yield "restrict_tuple", [rt.to_json(), back.to_json()]


def next_prime(n):
    q = n + 1
    while any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
        q += 1
    return q


def monic_mod(rng, n, p):
    """A seeded monic polynomial of degree n over F_p, ascending: random,
    or g**2 * h with deg g >= 1, or divisible by t."""
    kind = rng.randrange(3) if n >= 3 else 0
    if kind != 1:
        f = [rng.randrange(p) for _ in range(n)] + [1]
        if kind == 2:
            f[0] = 0
        return f
    k = rng.randint(1, n // 3)
    g = [rng.randrange(p) for _ in range(k)] + [1]
    f = [1]
    for h in (g, g, [rng.randrange(p) for _ in range(n - 2 * k)] + [1]):
        prod = [0] * (len(f) + len(h) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(h):
                prod[i + j] += a * b
        f = [c % p for c in prod]
    return f


def companion(f):
    n = len(f) - 1
    return [
        [(1 if i == j + 1 else 0) - (f[i] if j == n - 1 else 0) for j in range(n)]
        for i in range(n)
    ]


def lattice_matrix(rng, n):
    """A seeded n x n integer matrix: a block sum of companion matrices,
    the first with a unit factor in three cases of four, coupled above the
    blocks by entries in -1..1 and conjugated by 2n elementary operations."""
    polys = []
    dim = 0
    while dim < n:
        if not polys and rng.random() < 0.75:
            table = UNIT_POLYS
        else:
            table = rng.choice((UNIT_POLYS, NON_UNIT_POLYS))
        f = rng.choice([f for f in table if len(f) - 1 <= n - dim])
        polys.append(f)
        dim += len(f) - 1
    a = [[0] * n for _ in range(n)]
    off = 0
    for f in polys:
        d = len(f) - 1
        for i, row in enumerate(companion(f)):
            a[off + i][off : off + d] = row
            for j in range(off + d, n):
                a[off + i][j] = rng.randint(-1, 1)
        off += d
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # row i += c * row j, then col j -= c * col i
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in a:
            row[j] -= c * row[i]
    return a


def lattice_outputs(seed):
    """`eventual_lattice` pairs: a matrix and its eventual lattice, ten
    matrices at each rank 1..MAX_LATTICE_RANK."""
    from prolim import fgab as F

    rng = random.Random(f"digest-lattice/{seed}")
    for n in range(1, MAX_LATTICE_RANK + 1):
        for _ in range(10):
            a = lattice_matrix(rng, n)
            yield "eventual_lattice", [a, F.eventual_image_lattice(a)]


def factor_outputs(seed):
    """`factor_mod` pairs: a polynomial, its prime, its factor list and its
    unit degrees, for each degree 1..MAX_FACTOR_DEGREE and prime."""
    from prolim import _modpoly as M

    rng = random.Random(f"digest-factor/{seed}")
    for n in range(1, MAX_FACTOR_DEGREE + 1):
        for p in (101, 103, next_prime(n)):
            f = monic_mod(rng, n, p)
            yield "factor_mod", [f, p, M.factor_mod(f, p), sorted(M.unit_degrees(f, p))]


def chain_endo(rng, i):
    """A seeded endomorphism of Z^r + T, r <= MAX_CHAIN_RANK, T with at
    most two invariant factors, as (r, T, columns): every third case
    duplicates a free column (singular free block), and every sixth,
    counting from the second, fixes a basis vector (a unit factor t - 1)."""
    r = rng.randint(0, MAX_CHAIN_RANK)
    torsion = rng.choice(CHAIN_TORSION)
    cols = [[rng.randint(-3, 3) for _ in range(r + len(torsion))] for _ in range(r)]
    for d in torsion:
        # an order-d generator goes to an element of T killed by d
        steps = [e // math.gcd(e, d) for e in torsion]
        cols.append([0] * r + [k * rng.randrange(e // k) for k, e in zip(steps, torsion)])
    if r >= 2 and i % 3 == 0:
        a, b = rng.sample(range(r), 2)
        cols[b] = list(cols[a])
    if r >= 1 and i % 6 == 1:
        j = rng.randrange(r)
        cols[j] = [int(x == j) for x in range(len(cols))]
    return r, torsion, cols


def chain_outputs(seed):
    """`image_chain` pairs: an endomorphism and the (steps, index) of
    `invsys._image_chain` on it, for CHAIN_COUNT seeded endomorphisms."""
    from prolim import fgab as F
    from prolim import invsys as I

    rng = random.Random(f"digest-chain/{seed}")
    for i in range(CHAIN_COUNT):
        r, torsion, cols = chain_endo(rng, i)
        g = F.FgAbGroup(r, torsion)
        endo = F.GroupHom.from_columns(g, g, cols)
        yield "image_chain", [r, torsion, cols, list(I._image_chain(endo))]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import prolim

    print(f"prolim from {os.path.dirname(prolim.__file__)}", file=sys.stderr)
    hashes = {f: hashlib.sha256() for f in FAMILIES}
    counts = dict.fromkeys(FAMILIES, 0)
    rng = random.Random(f"digest-points/{args.seed}")
    per_doc = [outputs(doc, rng) for doc in corpus(args.seed, args.count)]
    extra = (lattice_outputs(args.seed), factor_outputs(args.seed), chain_outputs(args.seed))
    for family, value in itertools.chain(*per_doc, *extra):
        hashes[family].update(json.dumps(value, sort_keys=True).encode() + b"\n")
        counts[family] += 1
    for f in FAMILIES:
        print(f"{f} {counts[f]} {hashes[f].hexdigest()}")


if __name__ == "__main__":
    main()
