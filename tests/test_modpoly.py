"""The mod-p certificate that a charpoly has no unit factor, and the unit
part over Z, with sympy as the oracle."""

import hashlib
import itertools
import json
import math
import random
import struct

import pytest
from sympy import GF, Matrix, Poly, eye, symbols

from prolim import _intkernel as K
from prolim import _modpoly as M
from prolim import fgab as F


def companion(coeffs):
    """Companion matrix of the monic polynomial with ascending `coeffs`."""
    n = len(coeffs) - 1
    return [
        [(1 if i == j + 1 else 0) - (coeffs[i] if j == n - 1 else 0) for j in range(n)]
        for i in range(n)
    ]


# Blocks with ascending charpoly coefficients.  A unit block's charpoly has
# an irreducible factor with constant term +-1; a non-unit block's has none.
UNIT_BLOCKS = {
    "t-1": [[1]],
    "t+1": [[-1]],
    "phi3": companion([1, 1, 1]),
    "phi4": companion([1, 0, 1]),
    "phi5": companion([1, 1, 1, 1, 1]),
    "phi8": companion([1, 0, 0, 0, 1]),
    "phi12": companion([1, 0, -1, 0, 1]),
    "t2-3t+1": companion([1, -3, 1]),
    "jordan(t-1)^2": [[1, 1], [0, 1]],
    # Swinnerton-Dyer sqrt2 + sqrt3: irreducible over Z, split mod every p
    "t4-10t2+1": companion([1, 0, -10, 0, 1]),
}
NON_UNIT_BLOCKS = {
    "2": [[2]],
    "t2-t+2": companion([2, -1, 1]),
    # Swinnerton-Dyer type, sqrt2 + sqrt5: irreducible over Z, constant 9,
    # yet it factors into pieces of degree <= 2 mod every prime
    "t4-14t2+9": companion([9, 0, -14, 0, 1]),
}


def block_diagonal(blocks, rng):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off : off + len(b)] = row
            # random coupling into the later blocks keeps the charpoly
            for j in range(off + len(b), n):
                out[off + i][j] = rng.randint(-1, 1)
        off += len(b)
    return out


def conjugate(a, rng, steps=12, scales=(-2, -1, 1, 2)):
    """u * a * u^-1 for a random product u of elementary matrices."""
    n = len(a)
    a = [row[:] for row in a]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(scales)
        # row i += c * row j, then col j -= c * col i
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in a:
            row[j] -= c * row[i]
    return a


def corpus(seed, count):
    """(matrix, has a unit block) pairs of dimension 1..10."""
    rng = random.Random(seed)
    non_unit = sorted(NON_UNIT_BLOCKS)
    mixed = sorted(UNIT_BLOCKS) + non_unit
    out = []
    while len(out) < count:
        blocks = []
        dim = 0
        names = mixed if rng.random() < 0.5 else non_unit
        for name in rng.choices(names, k=rng.randint(1, 3)):
            block = UNIT_BLOCKS.get(name) or NON_UNIT_BLOCKS[name]
            if dim + len(block) <= 10:
                blocks.append((name, block))
                dim += len(block)
        if not blocks:
            continue
        a = conjugate(block_diagonal([b for _, b in blocks], rng), rng)
        out.append((a, any(name in UNIT_BLOCKS for name, _ in blocks)))
    return out


CORPUS = corpus(20261018, 160)
T = symbols("t")


def sympy_charpoly(a):
    """det(tI - a), ascending, by sympy."""
    return [int(c) for c in reversed(Matrix(a).charpoly(T).all_coeffs())]


def sympy_poly_at(coeffs, a):
    """The polynomial with ascending `coeffs` at the square matrix a, as
    rows, by sympy."""
    x = Matrix(a)
    out = Matrix.zeros(len(a), len(a))
    for c in reversed(coeffs):
        out = out * x + c * eye(len(a))
    return [[int(v) for v in out.row(i)] for i in range(len(a))]


def sympy_unit_factors(coeffs):
    poly = Poly(list(reversed(coeffs)), T)
    return [f for f, _ in poly.factor_list()[1] if abs(int(f.all_coeffs()[-1])) == 1]


def sympy_unit_part(coeffs):
    """The product, with multiplicity, of sympy's factors with constant +-1."""
    out = Poly(1, T)
    for f, mult in Poly(list(reversed(coeffs)), T).factor_list()[1]:
        if abs(int(f.all_coeffs()[-1])) == 1:
            out = out * f**mult
    return [int(c) for c in reversed(out.all_coeffs())]


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_corpus_reaches_both_outcomes():
    proved = [M.no_unit_factor(a) for a, _ in CORPUS]
    assert 20 < sum(proved) < len(CORPUS) - 20
    assert {len(a) for a, _ in CORPUS} == set(range(1, 11))


@pytest.mark.parametrize("p", [2, 3, 101, 103])
def test_charpoly_mod_is_the_reduced_charpoly(p):
    for a, _unit in CORPUS:
        assert M.charpoly_mod(a, p) == [c % p for c in sympy_charpoly(a)]
    assert M.charpoly_mod([], p) == [1]


def _brute_charpoly3(a):
    # det(tI - a) expanded by permutations, n <= 3
    n = len(a)
    coeffs = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j = i
            ln = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            if ln % 2 == 0:
                sign = -sign
        # product over i of (t*delta - a)[i][perm[i]]
        poly = [sign]
        for i in range(n):
            term = [-a[i][perm[i]], 1 if perm[i] == i else 0]
            new = [0] * (len(poly) + 1)
            for p, cp in enumerate(poly):
                new[p] += cp * term[0]
                new[p + 1] += cp * term[1]
            poly = new
        for p, cp in enumerate(poly):
            coeffs[p] += cp
    return coeffs


def test_charpoly_against_permanent_expansion():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(1, 4)
        a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        assert M.charpoly(a) == _brute_charpoly3(a)


def test_charpoly_matches_sympy(monkeypatch):
    primes = []
    inner = M.charpoly_mod
    monkeypatch.setattr(M, "charpoly_mod", lambda a, p: primes.append(p) or inner(a, p))
    rng = random.Random(15)
    most = negative = 0
    for n in range(1, 13):
        for bits in (1, 8, 40):
            a = [[rng.randint(-(2**bits), 2**bits) for _ in range(n)] for _ in range(n)]
            primes.clear()
            f = M.charpoly(a)
            assert f == sympy_charpoly(a), a
            most = max(most, len(primes))
            negative += min(f) < 0
    # entries up to 2**40 need many 61-bit primes, and random signs give
    # negative coefficients
    assert most >= 8
    assert negative >= 18
    assert M.charpoly([]) == [1]
    assert M.charpoly([[0, 0], [0, 0]]) == [0, 0, 1]


def test_is_prime_is_exact():
    for q in range(-2, 10**5):
        assert M._is_prime(q) == (q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))), q
    assert M._is_prime(2**61 - 1)
    # strong pseudoprimes to every prime base up to 7, 23 and 37
    for q in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not M._is_prime(q)


def test_certificate_is_sound():
    for a, has_unit_block in CORPUS:
        if M.no_unit_factor(a):
            assert not has_unit_block
            assert sympy_unit_factors(sympy_charpoly(a)) == []


def test_certificate_is_sound_on_random_polynomials():
    rng = random.Random(7)
    for _ in range(200):
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 8))] + [1]
        if rng.random() < 0.3:
            coeffs[0] = rng.choice((-1, 1))
        if M.no_unit_factor(companion(coeffs)):
            assert sympy_unit_factors(coeffs) == [], coeffs


# Unimodular matrices, whose eventual lattice is everything, and matrices
# with det = +-1 mod 101 that are not unimodular, so the determinant gate
# lets the Hermite check run and it fails: 100 = -1 mod 101 is settled by
# the certificate at 103, and 102 = 1 mod 101 and -1 mod 103 falls through
# to the unit part over Z.
DET_GATE_CASES = [
    [[1, 1], [0, 1]],
    [[0, 1], [1, 0]],
    [[2, 1, 0], [1, 1, 0], [0, 0, -1]],
    [[102]],
    [[100]],
]


def test_eventual_image_lattice_matches_the_factoring_reference():
    for a in [a for a, _unit in CORPUS] + DET_GATE_CASES:
        u = sympy_unit_part(sympy_charpoly(a))
        reference = K.kernel_columns(sympy_poly_at(u, a))
        assert F.eventual_image_lattice(a) == reference
    for a in DET_GATE_CASES[:3]:
        assert F.eventual_image_lattice(a) == K.identity_matrix(len(a))
    assert not M.no_unit_factor([[102]])
    assert M.no_unit_factor([[100]])


def fallback_matrix(n, root, const):
    """The companion of (t - root)(t**(n-1) + t + const), conjugated by 10n
    elementary operations with multipliers +-1."""
    f = poly_mul([-root, 1], [const, 1] + [0] * (n - 3) + [1])
    return conjugate(companion(f), random.Random(f"fallback/{n}/{root}"), 10 * n, (-1, 1))


# sha256 of the four lattices below, as JSON
FALLBACK_LATTICES = "5344826d472255bd2f0006f7240a073758ec9daf975ae9faab60564bd72ca056"


def test_eventual_image_lattice_is_pinned_past_the_certificate():
    # Ranks 24 and 32, past the digest's 12: the certificate cannot settle
    # these (each has a unit factor), so the integer charpoly, Zassenhaus
    # and the kernel of u(N) run.  t**(n-1) + t + 2 vanishes at -1, so
    # u = (t - 1)(t + 1); every factor of t**(n-1) + t + 1 is a unit.
    lattices = []
    for n in (24, 32):
        for root, const in ((1, 2), (2, 1)):
            a = fallback_matrix(n, root, const)
            assert not M.no_unit_factor(a)
            lattices.append(F.eventual_image_lattice(a))
    assert [len(w) for w in lattices] == [2, 23, 2, 31]
    digest = hashlib.sha256(json.dumps(lattices).encode()).hexdigest()
    assert digest == FALLBACK_LATTICES


def test_unit_part_matches_sympy_on_the_corpus():
    for a, has_unit_block in CORPUS:
        u = M.unit_part(M.charpoly(a))
        assert u == sympy_unit_part(sympy_charpoly(a))
        if has_unit_block:
            assert len(u) > 1


def test_unit_part_matches_sympy_on_products():
    # products of the blocks' charpolys, with repeats, so the square-free
    # part, the Hensel lifting and the recombination all get exercised
    blocks = [sympy_charpoly(b) for b in (*UNIT_BLOCKS.values(), *NON_UNIT_BLOCKS.values())]
    blocks += [[-6, 1], [5, 0, 0, 1], [-1, 0, 0, 0, 0, 1], [0, 1]]
    rng = random.Random(11)
    for _ in range(150):
        f = [1]
        for _ in range(rng.randint(1, 5)):
            f = poly_mul(f, rng.choice(blocks))
        assert M.unit_part(f) == sympy_unit_part(f), f
    for _ in range(150):
        f = [rng.randint(-20, 20) for _ in range(rng.randint(1, 10))] + [1]
        if rng.random() < 0.5:
            f[0] = rng.choice((-1, 1))
        assert M.unit_part(f) == sympy_unit_part(f), f
    assert M.unit_part([1]) == [1]
    assert M.unit_part([-1, 1]) == [-1, 1]
    assert M.unit_part([2, 1]) == [1]


def seeded_monic(rng, n, p):
    """A monic polynomial of degree n over F_p: random, or with a repeated
    factor, or divisible by t."""
    kind = rng.randrange(3)
    if kind == 0 or n < 3:
        return [rng.randrange(p) for _ in range(n)] + [1]
    if kind == 1:
        k = rng.randint(1, n // 3)
        g = [rng.randrange(p) for _ in range(k)] + [1]
        rest = [rng.randrange(p) for _ in range(n - 2 * k)] + [1]
        return [c % p for c in poly_mul(poly_mul(g, g), rest)]
    return [0] + [rng.randrange(p) for _ in range(n - 1)] + [1]


def next_prime(n):
    """The least prime above n."""
    q = n + 1
    while any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
        q += 1
    return q


def sympy_factor_mod(f, p):
    theirs = Poly(list(reversed(f)), T, domain=GF(p, symmetric=False)).factor_list()[1]
    return sorted((tuple(int(c) % p for c in reversed(g.all_coeffs())), i) for g, i in theirs)


@pytest.mark.parametrize("p", [101, 103])
def test_factor_mod_matches_sympy(p):
    polys = [M.charpoly_mod(a, p) for a, _unit in CORPUS[:60]]
    rng = random.Random(p)
    polys += [seeded_monic(rng, n, p) for n in range(1, 41) for _ in range(2)]
    for f in polys:
        ours = sorted((tuple(g), i) for g, i in M.factor_mod(f, p))
        assert ours == sympy_factor_mod(f, p), f


def test_factor_mod_matches_sympy_at_degree_100():
    # the largest free rank a JSON group may have, at the prime Zassenhaus picks
    rng = random.Random(100)
    f = [rng.randint(-9, 9) for _ in range(100)] + [1]
    for p in M._primes_above(100):
        fp = [c % p for c in f]
        if M._squarefree(fp, p) == [(fp, 1)]:
            break
    assert sorted((tuple(g), i) for g, i in M.factor_mod(fp, p)) == sympy_factor_mod(fp, p)


# Factoring on coefficient lists throughout.  `list_factor_mod` is the
# square-free, distinct-degree (from degree 1), equal-degree route, which
# lists the factors in another order than `factor_mod`: the independent
# reference for `unit_degrees`.  `list_roots_first_factor_mod` is the route
# of `factor_mod`, the reference for the order of its factors.
def list_powmod(f, e, m, p):
    out = None
    while True:
        if e & 1:
            out = f if out is None else M._divmod(M._mul(out, f), m, p)[1]
        e >>= 1
        if not e:
            return out
        f = M._divmod(M._mul(f, f), m, p)[1]


def list_distinct_degree(f, p):
    out = []
    x = [0, 1]
    if len(f) > 2:
        frob = [[1], list_powmod(x, p, f, p)]
        while len(frob) < len(f) - 1:
            frob.append(M._divmod(M._mul(frob[-1], frob[1]), f, p)[1])
    h = x
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        acc = [0] * len(frob)
        for c, row in zip(h, frob):
            for j, y in enumerate(row):
                acc[j] += c * y
        h = M._trim([c % p for c in acc])
        g = M._monic_gcd(f, M._sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = M._divmod(f, g, p)[0]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def list_equal_degree(g, d, p, rng=None):
    if len(g) - 1 == d:
        return [g]
    rng = rng or random.Random(0)
    e = (p**d - 1) // 2
    while True:
        a = M._trim([rng.randrange(p) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        h = M._monic_gcd(g, M._sub(list_powmod(a, e, g, p), [1], p), p)
        if 1 < len(h) < len(g):
            return list_equal_degree(h, d, p, rng) + list_equal_degree(
                M._divmod(g, h, p)[0], d, p, rng
            )


def list_factor_mod(f, p):
    out = []
    for s, i in M._squarefree(f, p):
        for g, d in list_distinct_degree(s, p):
            out.extend((h, i) for h in list_equal_degree(g, d, p))
    return out


def list_roots_first_factor_mod(f, p):
    """t - a for the roots a, ascending, each as often as it divides, then
    the root-free rest: as it is up to degree 3, else through the
    square-free parts, each split further from degree 4 on."""
    out = []
    for a in range(p):
        m = 0
        while len(f) > 1 and not sum(c * pow(a, i, p) for i, c in enumerate(f)) % p:
            f = M._divmod(f, [-a % p, 1], p)[0]
            m += 1
        if m:
            out.append(([-a % p, 1], m))
    if len(f) > 1:
        for s, i in [(f, 1)] if len(f) <= 4 else M._squarefree(f, p):
            if len(s) <= 4:
                out.append((s, i))
                continue
            # s has no roots, so degree 1 contributes no factor
            for g, d in list_distinct_degree(s, p):
                out.extend((h, i) for h in list_equal_degree(g, d, p))
    return out


def test_factor_mod_lists_the_factors_in_the_list_reference_order():
    rng = random.Random(14)
    for n in range(1, 41):
        for p in (101, 103, next_prime(n)):
            for _ in range(3):
                f = seeded_monic(rng, n, p)
                assert M.factor_mod(f, p) == list_roots_first_factor_mod(f, p), (f, p)


@pytest.mark.parametrize(
    "n, p, bits",
    [
        # the certificate's largest degree and prime
        (M.PRIMES[-1] - 1, M.PRIMES[-1], 32),
        # the largest JSON rank, at the first prime Zassenhaus tries
        (F.MAX_JSON_DIM, next_prime(F.MAX_JSON_DIM), 32),
        # the least prime whose products at degree 40 no longer fit 32 bits
        (40, next_prime(7328), 64),
    ],
)
def test_slot_width_holds_the_largest_products(n, p, bits):
    assert struct.calcsize("<" + M._slot_code(n, p)) * 8 == bits
    assert 2 * n * p * p < 2**bits
    f = [1] * (n + 1)
    ring = M._Residues(f, p)
    # the square of the all-(p - 1) element has the largest product slots,
    # n * (p - 1)**2, and so does a Frobenius step with every h[i] = p - 1
    a = [p - 1] * n
    x = ring.pack(a)
    assert ring.unpack(ring.mul(x, x)) == M._divmod(M._mul(a, a), f, p)[1]
    assert ring.unpack(sum([(p - 1) * x] * n)) == M._trim([n * (p - 1) ** 2 % p] * n)


def test_slot_width_refuses_products_past_64_bits():
    with pytest.raises(ValueError):
        M._slot_code(2, 2**31 + 11)


def test_unit_degrees_by_hand():
    p = 101
    # (t - 1)(t - 2)(t - 51): 2 * 51 = 102 = 1 mod p, so {t-2, t-51} is a unit pair
    f = [c % p for c in [-102, 155, -54, 1]]
    assert M.unit_degrees(f, p) == {1, 2, 3}
    assert M.unit_degrees([p - 2, 1], p) == set()
    assert M.unit_degrees([1], p) == set()


def test_primes_not_above_the_dimension_are_skipped(monkeypatch):
    used = []
    monkeypatch.setattr(M, "charpoly_mod", lambda a, p: used.append(p) or [1])

    def consulted(n):
        used.clear()
        proved = M.no_unit_factor([[0] * n for _ in range(n)])
        return proved, list(used)

    assert consulted(M.PRIMES[0] - 1) == (True, [M.PRIMES[0]])
    assert consulted(M.PRIMES[0]) == (True, [M.PRIMES[1]])
    assert consulted(M.PRIMES[-1]) == (False, [])


# The unit-degree DP over `list_factor_mod`'s list: the reference for
# `unit_degrees`, which reads `factor_mod`'s list.
def factor_mod_unit_degrees(f, p):
    reach = {(0, 1)}
    for g, i in list_factor_mod(f, p):
        step = len(g) - 1
        for _ in range(i):
            reach |= {(d + step, c * g[0] % p) for d, c in reach}
    return {d for d, c in reach if d and c in (1, p - 1)}


def root_free(rng, n, p):
    """A random monic polynomial of degree n over F_p without roots in F_p;
    irreducible for n = 2 or 3."""
    while True:
        f = [rng.randrange(p) for _ in range(n)] + [1]
        if all(sum(c * pow(a, i, p) for i, c in enumerate(f)) % p for a in range(p)):
            return f


def irreducible(rng, n, p):
    while True:
        f = [rng.randrange(p) for _ in range(n)] + [1]
        if M.factor_mod(f, p) == [(f, 1)]:
            return f


def linear_factors(rng, p):
    """(t - a)**m for one to three roots a, t itself (a = 0) among them
    one time in four, each of multiplicity 1 to 3."""
    f = [1]
    roots = rng.sample(range(1, p), rng.randint(1, 3))
    if rng.randrange(4) == 0:
        roots[0] = 0
    for a in roots:
        for _ in range(rng.randint(1, 3)):
            f = poly_mul(f, [-a, 1])
    return f


def unit_degree_polys(rng, p):
    """Monic polynomials over F_p built from prescribed factors: linear
    factors alone and with a root-free rest of degree 2 or 3, root-free
    quartics (irreducible, or two quadratics, equal one time in five) with
    and without roots, and mixes of factors of degree 1 to 6 up to degree
    100."""
    for _ in range(300):
        yield linear_factors(rng, p)
    for _ in range(400):
        f = root_free(rng, rng.choice((2, 3)), p)
        if rng.randrange(4):
            f = poly_mul(f, linear_factors(rng, p))
        yield f
    for i in range(500):
        if i % 2:
            f = irreducible(rng, 4, p)
        else:
            g = root_free(rng, 2, p)
            f = poly_mul(g, g if rng.randrange(5) == 0 else root_free(rng, 2, p))
        if rng.randrange(3) == 0:
            f = poly_mul(f, linear_factors(rng, p))
        yield f
    for i in range(300):
        top = 100 if i % 10 == 0 else 24
        f = [1]
        while len(f) - 1 < top - 6:
            d = rng.randint(1, 6)
            g = [rng.randrange(p) for _ in range(d)] + [1]
            for _ in range(rng.choice((1, 1, 1, 2, 3))):
                if len(f) - 1 + d <= top:
                    f = poly_mul(f, g)
            if rng.randrange(top // 6) == 0:
                break
        yield f


@pytest.mark.parametrize("p", [101, 103])
def test_unit_degrees_matches_the_factor_mod_reference(p):
    rng = random.Random(3 * p)
    seen = 0
    for f in unit_degree_polys(rng, p):
        f = [c % p for c in f]
        assert M.unit_degrees(f, p) == factor_mod_unit_degrees(f, p), f
        seen += 1
    assert seen == 1500


def test_power_table_slots_hold_the_largest_sums():
    # the certificate's largest prime at degree 100: every slot of the
    # evaluation sum with all coefficients p - 1 is the exact integer sum,
    # and the table rows are the powers a**i mod p
    n, p = 100, M.PRIMES[-1]
    assert (n + 1) * (p - 1) ** 2 < 2**32
    slots, rows = M._power_table(p, n)
    assert len(rows) >= n + 1
    assert slots.unpack(rows[n].to_bytes(slots.size, "little")) == tuple(
        pow(a, n, p) for a in range(p)
    )
    f = [p - 1] * (n + 1)
    total = sum(map(int.__mul__, f, rows[: n + 1]))
    exact = tuple(sum((p - 1) * pow(a, i, p) for i in range(n + 1)) for a in range(p))
    assert slots.unpack(total.to_bytes(slots.size, "little")) == exact
    assert max(exact) <= (n + 1) * (p - 1) ** 2
    roots = [a for a in range(p) if not sum(c * pow(a, i, p) for i, c in enumerate(f)) % p]
    assert M._roots(f, p) == roots
    with pytest.raises(ValueError):
        M._power_table(2**16 + 1, 1)


def test_a_short_root_free_rest_builds_no_ring(monkeypatch):
    built = []
    residues = M._Residues
    monkeypatch.setattr(M, "_Residues", lambda f, p: built.append(f) or residues(f, p))
    rng = random.Random(7)
    p = 101
    for n in (0, 2, 3):
        for _ in range(20):
            f = linear_factors(rng, p)
            if n:
                f = poly_mul(f, root_free(rng, n, p))
            M.unit_degrees([c % p for c in f], p)
    assert built == []
    # a root-free quartic, here two quadratics, builds one
    g, h = root_free(rng, 2, p), root_free(rng, 2, p)
    M.unit_degrees([c % p for c in poly_mul(g, h)], p)
    assert len(built) >= 1
