"""Polynomials over F_p and Z: a mod-p proof that a charpoly has no unit
factor, and its unit part when there is one.

The unit part of a square integer matrix N is the product of the
irreducible factors of charpoly(N) over Z whose constant term is +-1.  If
u is such a factor, of degree d, then u mod p is a sub-multiset of the
irreducible factors of charpoly(N) mod p with total degree d and constant
product +-1 mod p.  `no_unit_factor` collects, for a few fixed primes, the
degrees such sub-multisets can have; when no degree d >= 1 is possible at
every prime, N has no unit factor.  The proof needs no integer charpoly:
charpoly(N) mod p comes from a Hessenberg reduction mod p, and
`unit_degrees` needs only the degree, constant term and multiplicity of
each irreducible factor mod p.  It finds the linear ones from the roots,
read off one evaluation at every point of F_p at once: row i of a power
table packs a**i mod p for a = 0..p-1 into 32-bit slots, so
sum(f[i] * row i) holds f(a) in slot a.  The rows grow as far as a degree
needs, and depend only on p.  Each slot of the sum is at most
(n + 1) * (p - 1)**2 < 2**32 for n = deg f, so none carries.  A rest
without roots is split further only from degree 4 on, by the same
square-free, distinct- and equal-degree steps that `factor_mod` runs.
`factor_mod` keeps its own route through them: Hensel lifting and the
digest read its factors in the order it lists them.  When the proof
fails, `unit_part` factors the integer charpoly over Z (Zassenhaus: factor
mod p, Hensel lifting, recombination) and keeps the unit factors.  The
integer charpoly is itself read off charpoly(N) mod large primes, joined
by the Chinese remainder theorem (`charpoly`).

Each prime used exceeds the degree, so a polynomial of degree n < p with
zero derivative is constant and the square-free decomposition of
characteristic zero holds.  Polynomials are lists of coefficients,
ascending, with a nonzero last entry; [] is zero.  Over F_p the entries
lie in [0, p).  Every function takes and returns such lists, and gcds,
exact divisions, the square-free split and the Hensel and Zassenhaus
steps work on them.  In the distinct- and equal-degree steps, the
residues modulo the polynomial being split are packed instead
(`_Residues`, Kronecker substitution): coefficient i of a residue sits in
the W-bit slot i of one int, so a product of residues is one int
multiplication.  This serves
x**p mod f, the table of x**(i*p) mod f and its use in the distinct-degree
step, and the power a**((p**d - 1) / 2) of the equal-degree step.  A slot
of a product is a sum of at most n products of coefficients in [0, p),
and folding the top slots back adds at most n - 1 more, so it stays below
2 * n * p**2; W is chosen with 2 * n * p**2 < 2**W, so no slot carries into
the next.  This module imports nothing from the rest of the package.
"""

import itertools
import math
import operator
import random
import struct

PRIMES = (101, 103)


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _sub(f, g, p):
    if len(f) < len(g):
        f = f + [0] * (len(g) - len(f))
    out = list(f)
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _mul(f, g):
    """f * g with entries left unreduced, for `_divmod` to reduce."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return out


def _divmod(f, g, p):
    """(quotient, remainder) of f by a nonzero g; f's entries may lie
    outside [0, p)."""
    dg = len(g) - 1
    if len(f) <= dg:
        return [], _trim([c % p for c in f])
    r = list(f)
    inv = 1 if g[-1] == 1 else pow(g[-1], -1, p)
    low = g[:-1]
    q = [0] * (len(r) - dg)
    for base in range(len(r) - 1 - dg, -1, -1):
        c = r[base + dg] * inv % p
        if c:
            q[base] = c
            for j, y in enumerate(low, base):
                r[j] -= c * y
    return q, _trim([c % p for c in r[:dg]])


def _monic_gcd(f, g, p):
    while g:
        f, g = g, _divmod(f, g, p)[1]
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _slot_code(n, p):
    """The struct code of the W-bit slots of `_Residues` mod a degree-n
    polynomial over F_p: W = 32 or 64, the narrower with 2 * n * p**2 < 2**W."""
    for code in "IQ":
        if 2 * n * p * p < 1 << 8 * struct.calcsize("<" + code):
            return code
    raise ValueError(f"residues of degree {n} over F_{p} do not fit 64-bit slots")


class _Residues:
    """F_p[t]/(f) for a monic f of degree n >= 1, each element packed into
    one int: its coefficient i, in [0, p), sits in the W-bit slot i.

    A product of two elements is one int multiplication.  Its slots n..2n-2
    are reduced mod p and folded back through fold[k] = t**(n + k) mod f,
    and the n slots of the sum are reduced mod p (the module docstring
    says why no slot carries).
    """

    __slots__ = ("p", "n", "slots", "top_slots", "shift", "low", "fold")

    def __init__(self, f, p):
        n = len(f) - 1
        code = _slot_code(n, p)
        self.p = p
        self.n = n
        # little-endian, so slot i holds the bits from i * W up
        self.slots = struct.Struct(f"<{n}{code}")
        self.top_slots = struct.Struct(f"<{n - 1}{code}")
        self.shift = 8 * self.slots.size
        self.low = (1 << self.shift) - 1
        self.fold = []
        r = [-c % p for c in f[:-1]]
        for _ in range(n - 1):
            self.fold.append(self.pack(r))
            top = r[-1]
            r = [(c - top * y) % p for c, y in zip([0] + r[:-1], f)]

    def pack(self, f):
        """The element with the coefficient list f, of length at most n."""
        return int.from_bytes(self.slots.pack(*f, *[0] * (self.n - len(f))), "little")

    def _reduced(self, x, slots):
        """The slots of x, read by the struct `slots`, reduced mod p."""
        p = self.p
        return [c % p for c in slots.unpack(x.to_bytes(slots.size, "little"))]

    def unpack(self, x):
        """The coefficient list of x, an element or a sum of at most n
        elements times coefficients in [0, p), whose slots stay below
        n * p**2."""
        return _trim(self._reduced(x, self.slots))

    def mul(self, a, b):
        x = a * b
        top = x >> self.shift
        if top:
            x = sum(map(operator.mul, self._reduced(top, self.top_slots), self.fold), x & self.low)
        return int.from_bytes(self.slots.pack(*self._reduced(x, self.slots)), "little")

    def pow(self, a, e):
        """a**e, for e >= 1."""
        out = None
        while True:
            if e & 1:
                out = a if out is None else self.mul(out, a)
            e >>= 1
            if not e:
                return out
            a = self.mul(a, a)


def _squarefree(f, p):
    """[(s, i)]: f is the product of the s**i, each s square-free and coprime."""
    deriv = _trim([i * c % p for i, c in enumerate(f)][1:])
    g = _monic_gcd(f, deriv, p)
    if len(g) == 1 and len(f) > 1:
        return [(f, 1)]
    w = _divmod(f, g, p)[0]
    out = []
    i = 1
    while len(w) > 1:
        y = _monic_gcd(w, g, p)
        z = _divmod(w, y, p)[0]
        if len(z) > 1:
            out.append((z, i))
        g = _divmod(g, y, p)[0]
        w = y
        i += 1
    return out


def _distinct_degree(f, p, low=1):
    """[(g, d)]: g is the product of the degree-d irreducible factors of a
    monic square-free f, which has none of degree < low."""
    out = []
    x = [0, 1]
    if len(f) > 2:
        ring = _Residues(f, p)
        # frob[i] = x**(i*p) mod f, so h**p mod f is sum(h[i] * frob[i])
        frob = [1, ring.pow(ring.pack(x), p)]
        while len(frob) < ring.n:
            frob.append(ring.mul(frob[-1], frob[1]))
    h = x
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        # h = x**(p**d) mod the original f, which the current f divides
        h = ring.unpack(sum(map(operator.mul, h, frob)))
        if d < low:
            continue
        g = _monic_gcd(f, _sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g, d, p, rng=None):
    """The irreducible factors of g, a product of distinct monic irreducibles
    of degree d (Cantor-Zassenhaus with a fixed seed; p is odd)."""
    if len(g) - 1 == d:
        return [g]
    rng = rng or random.Random(0)
    ring = _Residues(g, p)
    e = (p**d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        h = _monic_gcd(g, _sub(ring.unpack(ring.pow(ring.pack(a), e)), [1], p), p)
        if 1 < len(h) < len(g):
            return _equal_degree(h, d, p, rng) + _equal_degree(
                _divmod(g, h, p)[0], d, p, rng
            )


def factor_mod(f, p):
    """[(g, i)]: the monic irreducible factors of a monic f over F_p with
    their multiplicities, for deg f < p."""
    out = []
    for s, i in _squarefree(f, p):
        for g, d in _distinct_degree(s, p):
            out.extend((h, i) for h in _equal_degree(g, d, p))
    return out


def charpoly_mod(a, p):
    """det(tI - a) mod p, ascending, for a square integer matrix a (rows).

    a is reduced to upper Hessenberg form by similarities over F_p, whose
    charpoly then follows from the recurrence over its leading blocks.
    """
    n = len(a)
    h = [[x % p for x in row] for row in a]
    for j in range(n - 2):
        i = j + 1
        while i < n and not h[i][j]:
            i += 1
        if i == n:
            continue
        if i != j + 1:
            h[i], h[j + 1] = h[j + 1], h[i]
            for row in h:
                row[i], row[j + 1] = row[j + 1], row[i]
        inv = pow(h[j + 1][j], -1, p)
        piv = h[j + 1]
        for k in range(j + 2, n):
            c = h[k][j] * inv % p
            if c:
                hk = h[k]
                for m in range(j, n):
                    hk[m] = (hk[m] - c * piv[m]) % p
                for row in h:
                    row[j + 1] = (row[j + 1] + c * row[k]) % p
    # polys[m] is the charpoly of the leading m x m block
    polys = [[1]]
    for m in range(n):
        nxt = [0] + polys[m]
        c = h[m][m]
        for i, x in enumerate(polys[m]):
            nxt[i] -= c * x
        prod = 1
        for i in range(m - 1, -1, -1):
            prod = prod * h[i + 1][i] % p
            if not prod:
                break
            c = prod * h[i][m] % p
            for k, x in enumerate(polys[i]):
                nxt[k] -= c * x
        polys.append([x % p for x in nxt])
    return polys[n]


def charpoly(a):
    """det(tI - a), ascending, exact over Z, for a square integer matrix a
    (rows).

    `charpoly_mod` at the primes counting down from 2**61 - 1, joined by the
    Chinese remainder theorem.  The coefficient of t**(n - k) is, up to
    sign, the sum of the k x k principal minors of a; by Hadamard's
    inequality each is at most the product of the norms |r_i| of the k rows
    of a that it takes entries from, so the coefficient is at most the k-th
    elementary symmetric function of |r_1|, ..., |r_n|, and every
    coefficient is at most prod(1 + |r_i|) in absolute value.  Once the
    modulus exceeds twice that, the symmetric residues are the coefficients.
    """
    n = len(a)
    # 2 + isqrt(|r|**2) exceeds 1 + |r|
    bound = 2 * math.prod(2 + math.isqrt(sum(x * x for x in row)) for row in a)
    coeffs = [0] * (n + 1)
    m = 1
    q = 2**61 - 1
    while m <= bound:
        while not _is_prime(q):
            q -= 2
        # x + m * ((y - x) / m mod q) is x mod m and y mod q
        inv = pow(m, -1, q)
        coeffs = [x + m * ((y - x) * inv % q) for x, y in zip(coeffs, charpoly_mod(a, q))]
        m *= q
        q -= 2
    return [x - m if 2 * x > m else x for x in coeffs]


# p -> (slots, rows) of `_power_table`
_POWERS = {}


def _power_table(p, n):
    """(slots, rows): rows 0..n (at least) of the power table of F_p, whose
    row i packs a**i mod p into the 32-bit slot a, for a = 0..p-1, and the
    struct that reads those slots.  The rows depend only on p; they are
    built once, as far as a caller needs them."""
    if (n + 1) * (p - 1) ** 2 >= 1 << 32:
        raise ValueError(f"evaluations of degree {n} over F_{p} do not fit 32-bit slots")
    table = _POWERS.get(p)
    if table is None:
        slots = struct.Struct(f"<{p}I")
        table = _POWERS[p] = (slots, [int.from_bytes(slots.pack(*[1] * p), "little")])
    slots, rows = table
    if len(rows) <= n:
        vals = slots.unpack(rows[-1].to_bytes(slots.size, "little"))
        while len(rows) <= n:
            vals = [v * a % p for a, v in enumerate(vals)]
            rows.append(int.from_bytes(slots.pack(*vals), "little"))
    return table


def _roots(f, p):
    """The roots of f in F_p, ascending, from one evaluation at every point
    of F_p at once: sum(f[i] * row i) of the power table holds f(a) in
    slot a, before its reduction mod p."""
    slots, rows = _power_table(p, len(f) - 1)
    values = slots.unpack(sum(map(operator.mul, f, rows)).to_bytes(slots.size, "little"))
    return [a for a, v in enumerate(values) if not v % p]


def _divide_root(f, a, p):
    """(quotient, remainder) of f by t - a over F_p (synthetic division);
    the remainder is f(a)."""
    q = [0] * (len(f) - 1)
    c = 0
    for i in range(len(f) - 1, 0, -1):
        c = (f[i] + a * c) % p
        q[i - 1] = c
    return q, (f[0] + a * c) % p


def unit_degrees(f, p):
    """Degrees d >= 1 of the sub-multisets of the irreducible factors of a
    monic f over F_p whose constant terms multiply to +-1, for deg f < p.

    Only each factor's degree, constant term and multiplicity matter, so
    the factors are not listed as `factor_mod` lists them.  The factor
    t**k is dropped: a constant 0 never joins a product +-1.  The linear
    factors t - a come from the roots a (`_roots`), each divided out as
    often as it divides.  A reducible polynomial of degree <= 3 has a
    root, so a rest without roots of degree <= 3 is irreducible, and so
    is each square-free part of degree <= 3 of a longer rest.  Only a
    part of degree >= 4 builds a `_Residues` ring, for the distinct-degree
    step (from degree 2, as no factor is linear) and the equal-degree step.
    """
    k = 0
    while not f[k]:
        k += 1
    f = f[k:]
    factors = []  # (degree, constant term, multiplicity)
    for a in _roots(f, p) if len(f) > 1 else ():
        m = 0
        while len(f) > 1:
            q, rem = _divide_root(f, a, p)
            if rem:
                break
            f = q
            m += 1
        factors.append((1, -a % p, m))
    if len(f) > 1:
        for s, i in [(f, 1)] if len(f) <= 4 else _squarefree(f, p):
            if len(s) <= 4:
                factors.append((len(s) - 1, s[0], i))
                continue
            for g, d in _distinct_degree(s, p, 2):
                factors.extend((d, h[0], i) for h in _equal_degree(g, d, p))
    reach = {(0, 1)}
    for step, c, i in factors:
        for _ in range(i):
            reach |= {(d + step, x * c % p) for d, x in reach}
    return {d for d, c in reach if d and c in (1, p - 1)}


def no_unit_factor(a, first=None):
    """True only if charpoly(a) provably has no irreducible factor over Z
    with constant term +-1; False means undecided.

    `first` is charpoly_mod(a, PRIMES[0]) when the caller has already
    computed it, so that it is not computed twice.
    """
    possible = None
    for p in PRIMES:
        if p <= len(a):
            continue
        f = first if p == PRIMES[0] and first is not None else charpoly_mod(a, p)
        degrees = unit_degrees(f, p)
        possible = degrees if possible is None else possible & degrees
        if not possible:
            return True
    return False


def _sum(m, *polys):
    out = [0] * max(map(len, polys))
    for f in polys:
        for i, c in enumerate(f):
            out[i] += c
    return _trim([c % m for c in out])


def _neg(f):
    return [-c for c in f]


def _xgcd(f, g, p):
    """(s, t) with s*f + t*g = 1 mod p, for coprime f and g;
    deg s < deg g and deg t < deg f."""
    r0, r1 = f, g
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g*h and s*g + t*h = 1 from mod m to mod m**2, for monic
    f, g and h (von zur Gathen-Gerhard, Algorithm 15.10)."""
    m2 = m * m
    e = _sub(f, _mul(g, h), m2)
    q, r = _divmod(_mul(s, e), h, m2)
    g = _sum(m2, g, _mul(t, e), _mul(q, g))
    h = _sum(m2, h, r)
    b = _sum(m2, _mul(s, g), _mul(t, h), [-1])
    c, d = _divmod(_mul(s, b), h, m2)
    return g, h, _sum(m2, s, _neg(d)), _sum(m2, t, _neg(_mul(t, b)), _neg(_mul(c, g)))


def _lift(f, gs, p, m):
    """Monic lifts mod m of the coprime monic factors gs of f mod p, whose
    product is f mod p; m is p**(2**j)."""
    if len(gs) == 1:
        return [_trim([c % m for c in f])]
    k = len(gs) // 2
    halves = []
    for part in (gs[:k], gs[k:]):
        prod = [1]
        for g in part:
            prod = [c % p for c in _mul(prod, g)]
        halves.append(prod)
    g, h = halves
    s, t = _xgcd(g, h, p)
    mod = p
    while mod < m:
        g, h, s, t = _hensel_step(f, g, h, s, t, mod)
        mod *= mod
    return _lift(g, gs[:k], p, m) + _lift(h, gs[k:], p, m)


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below 3.3 * 10**24 (Sorenson-Webster, Math. Comp. 86, 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(q):
    """Whether q is prime, exactly for q < 3.3 * 10**24: every q tested
    here is below 2**61."""
    if q < 2:
        return False
    for b in _WITNESSES:
        if q % b == 0:
            return q == b
    # q - 1 = d * 2**s with d odd
    s = ((q - 1) & (1 - q)).bit_length() - 1
    d = (q - 1) >> s
    for b in _WITNESSES:
        x = pow(b, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _primes_above(n):
    """The primes from max(n + 1, PRIMES[0]) upwards."""
    q = max(n + 1, PRIMES[0])
    while True:
        if _is_prime(q):
            yield q
        q += 1


def _is_squarefree_mod(f, p):
    fp = _trim([c % p for c in f])
    return len(_monic_gcd(fp, _trim([i * c % p for i, c in enumerate(fp)][1:]), p)) == 1


def _zdivmod(f, g):
    """(quotient, remainder) over Z of f by a monic g."""
    dg = len(g) - 1
    r = list(f)
    if len(r) <= dg:
        return [], _trim(r)
    q = [0] * (len(r) - dg)
    for k in range(len(r) - 1, dg - 1, -1):
        c = r[k]
        if c:
            q[k - dg] = c
            base = k - dg
            for j in range(dg):
                r[base + j] -= c * g[j]
    return q, _trim(r[:dg])


def _qgcd(f, g):
    """Monic gcd over Q of a monic integer f and a nonzero integer g; it
    divides f, so its entries are integers."""
    # imported here, so a certificate that never falls back to unit_part
    # skips loading fractions (and decimal and numbers)
    from fractions import Fraction

    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    while g:
        r = list(f)
        while len(r) >= len(g):
            c = r[-1] / g[-1]
            base = len(r) - len(g)
            for j, x in enumerate(g):
                r[base + j] -= c * x
            r.pop()
            _trim(r)
        f, g = g, r
    return [int(c / f[-1]) for c in f]


def _factor_squarefree(f):
    """The monic irreducible factors over Z of a monic square-free f of
    degree >= 1 (Zassenhaus)."""
    n = len(f) - 1
    if n == 1:
        return [f]
    p = next(q for q in _primes_above(n) if _is_squarefree_mod(f, q))
    gs = [g for g, _i in factor_mod([c % p for c in f], p)]
    # Mignotte: every factor of f has coefficients below 2**n * |f|_2, so
    # above twice that the symmetric residues mod m are the coefficients
    bound = 2 ** (n + 1) * (math.isqrt(sum(c * c for c in f)) + 1)
    m = p
    while m <= bound:
        m *= m
    lifted = _lift(f, gs, p, m)
    factors = []
    size = 1
    while 2 * size <= len(lifted):
        for combo in itertools.combinations(range(len(lifted)), size):
            g = [1]
            for i in combo:
                g = [c % m for c in _mul(g, lifted[i])]
            g = [c - m if c > m // 2 else c for c in g]
            if f[0] and (not g[0] or f[0] % g[0]):
                continue
            q, r = _zdivmod(f, g)
            if not r:
                factors.append(g)
                f = q
                lifted = [x for i, x in enumerate(lifted) if i not in combo]
                break
        else:
            size += 1
    factors.append(f)
    return factors


def unit_part(f):
    """Product, with multiplicity, of the irreducible factors over Z of a
    monic integer f whose constant term is +-1; [1] if there are none."""
    if len(f) < 2:
        return [1]
    if len(f) == 2:  # t - a
        return list(f) if abs(f[0]) == 1 else [1]
    sqf = f
    if not _is_squarefree_mod(f, next(_primes_above(len(f) - 1))):
        sqf = _zdivmod(f, _qgcd(f, [i * c for i, c in enumerate(f)][1:]))[0]
    u = [1]
    for h in _factor_squarefree(sqf):
        if abs(h[0]) != 1:
            continue
        rest, r = _zdivmod(f, h)
        while not r:
            u = _mul(u, h)
            rest, r = _zdivmod(rest, h)
    return u
