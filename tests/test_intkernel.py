import hashlib
import inspect
import itertools
import json
import os
import random
import re
from functools import reduce
from math import gcd, prod

import pytest

from prolim import _intkernel as pure
from prolim._backend import kernel as K


def snf(a):
    # (u rows, d rows, u^-1 columns) for a matrix given by its rows
    return K.smith_with_transforms(transpose(a, len(a[0])))


def transpose(mat, k):
    # rows to columns, or columns to rows; k is the length of each entry
    return [[v[i] for v in mat] for i in range(k)]


def smith_diagonal(d):
    return [row[i] for i, row in enumerate(d) if i < len(row)]


def det(a):
    # Laplace expansion along the first row; brute force for n <= 4
    if not a:
        return 1
    return sum(
        (-1) ** j * a[0][j] * det([row[:j] + row[j + 1 :] for row in a[1:]])
        for j in range(len(a))
    )


def determinantal_divisors(a, m, n):
    # D_k = gcd of all k x k minors of the m x n matrix a
    return [
        reduce(
            gcd,
            (
                det([[a[i][j] for j in cs] for i in rs])
                for rs in itertools.combinations(range(m), k)
                for cs in itertools.combinations(range(n), k)
            ),
            0,
        )
        for k in range(1, min(m, n) + 1)
    ]


def same_column_lattice(a, b, m):
    return K.hermite_column_basis(transpose(a, len(a[0]) if a else 0), m) == (
        K.hermite_column_basis(transpose(b, len(b[0]) if b else 0), m)
    )


def test_snf_one_by_one():
    assert snf([[2]]) == ([[1]], [[2]], [[1]])


def test_snf_zero():
    _u, d, _ui = snf([[0]])
    assert d == [[0]]


def test_snf_hand_example():
    # hand row/column reduction gives invariant factors 2 and 4
    m = [[2, 4], [6, 8]]
    u, d, ui = snf(m)
    assert [d[0][0], d[1][1]] == [2, 4]
    assert K.mat_mul(u, transpose(ui, 2)) == K.identity_matrix(2)
    assert same_column_lattice(K.mat_mul(u, m), d, 2)


@pytest.mark.parametrize("seed", range(40))
def test_snf_random_transform_identity(seed):
    # references: the determinantal divisors D_k = d1 * ... * dk, and the
    # column lattice of u*a, which the dropped column transform preserves
    rng = random.Random(seed)
    m = rng.randrange(1, 5)
    n = rng.randrange(1, 5)
    a = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)]
    u, d, ui = snf(a)
    diag = smith_diagonal(d)
    assert [prod(diag[:k]) for k in range(1, len(diag) + 1)] == determinantal_divisors(a, m, n)
    assert K.mat_mul(u, transpose(ui, m)) == K.identity_matrix(m)
    assert same_column_lattice(K.mat_mul(u, a), d, m)
    nz = [x for x in diag if x]
    assert all(x > 0 for x in nz)
    for x, y in zip(nz, nz[1:]):
        assert y % x == 0
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0


SMITH_PIN_SHA256 = "d8d14e81b66a1951d427e6ad80ebe58367e98d21eec75443d6af00af0869e75f"


def test_smith_transforms_are_pinned_on_coefficient_heavy_input():
    # every basis a cokernel presentation picks comes from (u, uinv), so a
    # change to the elimination's operation order moves this hash; the
    # dense 24x26 matrix drives entries to about 8000 bits
    rng = random.Random("smith-pin")
    shapes = [(rng.randint(1, 8), rng.randint(1, 8), 9) for _ in range(60)]
    shapes += [(12, 12, 20), (16, 18, 20), (24, 26, 20)]
    h = hashlib.sha256()
    for m, n, b in shapes:
        cols = [[rng.randint(-b, b) for _ in range(m)] for _ in range(n)]
        u, d, uinv_columns = K.smith_with_transforms(cols)
        h.update(json.dumps([u, d, uinv_columns]).encode() + b"\n")
    assert h.hexdigest() == SMITH_PIN_SHA256


def _solve(cols, b):
    # one solution of A*x = b off the image part of the cofactor Hermite basis
    m = len(b)
    image, _ker = K.cofactor_hermite(cols, m)
    coeffs = K.lattice_coordinates([c[:m] for c in image], b)
    return None if coeffs is None else K.combine([c[m:] for c in image], coeffs, len(cols))


def test_solve_and_kernel():
    a = [[2, 0], [0, 3]]
    assert _solve(a, [4, 9]) == [2, 3]
    assert _solve(a, [1, 0]) is None
    ker = K.kernel_columns([[1], [1]])
    assert len(ker) == 1 and ker[0][0] == -ker[0][1]
    # an empty target: every vector is in the kernel and solves A*x = 0
    assert K.kernel_columns([[], []]) == [[1, 0], [0, 1]]
    assert _solve([[], []], []) == [0, 0]
    assert K.kernel_columns([]) == []


def smith_rank_and_volume(cols, m):
    # rank and product of the nonzero invariant factors of the column matrix
    nz = [x for x in smith_diagonal(snf(transpose(cols, m))[1]) if x] if cols and m else []
    return len(nz), prod(nz)


def test_kernel_columns_is_the_saturated_kernel():
    rng = random.Random(7)
    for _ in range(150):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 6)
        cols = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(n)]
        if rng.randrange(3) == 0:
            cols.append([2 * x - y for x, y in zip(cols[0], cols[-1])])
            n += 1
        ker = K.kernel_columns(cols)
        rank, _vol = smith_rank_and_volume(cols, m)
        assert len(ker) == n - rank
        for k in ker:
            assert K.combine(cols, k, m) == [0] * m
        # all-ones Smith diagonal: saturated, x is in it whenever c*x is
        assert smith_rank_and_volume(ker, n) == (len(ker), 1)


def test_kernel_entries_stay_small():
    # a kernel read off the Smith column transform had 7924-bit entries here
    rng = random.Random(1)
    a = [[rng.randrange(-20, 21) for _ in range(26)] for _ in range(24)]
    ker = K.kernel_columns(transpose(a, 26))
    assert len(ker) == 2
    for k in ker:
        assert K.combine(transpose(a, 26), k, 24) == [0] * 24
    assert max(abs(x).bit_length() for k in ker for x in k) < 1000


def test_hermite_basis_is_canonical():
    rng = random.Random(11)
    for _ in range(50):
        dim = rng.randrange(1, 4)
        cols = [
            [rng.randrange(-5, 6) for _ in range(dim)]
            for _ in range(rng.randrange(1, 4))
        ]
        b1 = K.hermite_column_basis(cols, dim)
        shuffled = cols[:]
        rng.shuffle(shuffled)
        scaled = [[2 * x for x in shuffled[0]]] + shuffled if shuffled else shuffled
        b2 = K.hermite_column_basis(scaled, dim)
        assert b1 == b2


def test_reduce_mod_lattice_symmetric_range():
    basis = K.hermite_column_basis([[4, 0], [0, 6]], 2)
    assert K.reduce_mod_lattice([2, 3], basis) == [2, 3]
    assert K.reduce_mod_lattice([-2, -3], basis) == [2, 3]  # positive ties
    assert K.reduce_mod_lattice([7, 13], basis) == [-1, 1]


def test_backend_is_the_interpreted_kernel():
    import prolim

    assert prolim.BACKEND == "pure"
    assert prolim._backend.kernel is pure


def test_lattice_coordinates_match_smith_membership():
    # Reference: b lies in L(B) iff [B|b] has the rank of B and the same
    # product of nonzero invariant factors (else L(B) has index > 1 in it).
    rng = random.Random(5)
    outside = 0
    for _ in range(200):
        dim = rng.randrange(1, 5)
        cols = [[rng.randrange(-6, 7) for _ in range(dim)] for _ in range(rng.randrange(5))]
        basis = K.hermite_column_basis(cols, dim)
        coeffs = [rng.randrange(-6, 7) for _ in basis]
        member = [sum(c * col[i] for c, col in zip(coeffs, basis)) for i in range(dim)]
        assert K.lattice_coordinates(basis, member) == coeffs
        other = [rng.randrange(-6, 7) for _ in range(dim)]
        inside = smith_rank_and_volume(cols + [other], dim) == smith_rank_and_volume(cols, dim)
        got = K.lattice_coordinates(basis, other)
        sol = _solve(cols, other)
        assert (got is not None) == (sol is not None) == inside
        if inside:
            assert K.combine(basis, got, dim) == other
            assert K.combine(cols, sol, dim) == other
        outside += not inside
    assert outside > 20


def test_lattice_coordinates_reject_vectors_outside():
    basis = K.hermite_column_basis([[2, 0], [0, 3]], 2)
    assert K.lattice_coordinates(basis, [4, 9]) == [2, 3]
    assert K.lattice_coordinates(basis, [1, 0]) is None
    assert K.lattice_coordinates(K.hermite_column_basis([[1, 1]], 2), [0, 1]) is None
    assert K.lattice_coordinates([], [0, 0]) == []
    assert K.lattice_coordinates([], [0, 1]) is None


def test_every_kernel_primitive_has_a_caller():
    src = os.path.dirname(pure.__file__)
    texts = [
        open(os.path.join(src, name)).read()
        for name in sorted(os.listdir(src))
        if name.endswith(".py") and name != "_intkernel.py"
    ]
    public = [
        name
        for name, fn in inspect.getmembers(pure, inspect.isfunction)
        if fn.__module__ == pure.__name__ and not name.startswith("_")
    ]
    assert public
    uncalled = [
        name
        for name in public
        if not any(re.search(rf"\b{name}\(", text) for text in texts)
    ]
    assert uncalled == []


def test_smith_and_hermite_determinants_agree():
    # on a full-rank lattice the index in Z^n is both the product of the
    # Smith invariant factors and the product of the Hermite pivots
    rng = random.Random(2)
    seen = 0
    for _ in range(200):
        n = rng.randrange(1, 9)
        cols = [
            [rng.randrange(-9, 10) for _ in range(n)]
            for _ in range(n + rng.randrange(3))
        ]
        rank, volume = smith_rank_and_volume(cols, n)
        if rank < n:
            continue
        seen += 1
        basis = K.hermite_column_basis(cols, n)
        assert len(basis) == n
        assert volume == prod(basis[i][i] for i in range(n))
    assert seen >= 150


def reference_hermite_column_basis(cols, dim):
    # the straightforward all-live Euclid, kept as the reference for the
    # tuned kernel routine: smallest pivot by min(), both partitions per row
    work = [list(c) for c in cols if any(c)]
    basis = []
    for r in range(dim):
        live = [c for c in work if c[r]]
        rest = [c for c in work if not c[r]]
        if not live:
            work = rest
            continue
        while len(live) > 1:
            piv = min(live, key=lambda c: abs(c[r]))
            nxt = [piv]
            for c in live:
                if c is not piv:
                    q = c[r] // piv[r]
                    for k in range(r, dim):
                        c[k] -= q * piv[k]
                    if c[r]:
                        nxt.append(c)
                    elif any(c):
                        rest.append(c)
            live = nxt
        piv = live[0]
        if piv[r] < 0:
            piv = [-x for x in piv]
        for b in basis:
            q = b[r] // piv[r]
            if q:
                for k in range(r, dim):
                    b[k] -= q * piv[k]
        basis.append(piv)
        work = rest
    return basis


def hermite_corpus():
    rng = random.Random(12)
    yield [], 0
    yield [[], []], 0
    yield [[0, 0, 0]], 3
    yield [[-3, 0], [0, -5]], 2
    for _ in range(400):
        dim = rng.randrange(0, 9)
        n = rng.randrange(0, 12)
        spread = rng.choice((1, 3, 20, 10**6))
        cols = [[rng.randint(-spread, spread) for _ in range(dim)] for _ in range(n)]
        shape = rng.randrange(5)
        if shape == 0 and cols:
            # rank-deficient: repeat combinations of the first columns
            cols += [[2 * a - b for a, b in zip(cols[0], cols[-1])] for _ in range(2)]
        elif shape == 1:
            # zero columns mixed in
            cols[rng.randrange(len(cols) + 1) : 0] = [[0] * dim]
        elif shape == 2 and dim:
            # torsion relation columns d_i * e_i appended, as for a group
            for i in rng.sample(range(dim), rng.randrange(1, dim + 1)):
                cols.append([rng.randint(2, 12) if k == i else 0 for k in range(dim)])
        elif shape == 3:
            # negative leading entries
            cols = [[-abs(x) for x in c] for c in cols]
        yield cols, dim


def test_hermite_basis_matches_the_reference_routine():
    seen = 0
    for cols, dim in hermite_corpus():
        before = [list(c) for c in cols]
        assert K.hermite_column_basis(cols, dim) == reference_hermite_column_basis(cols, dim)
        assert cols == before  # the input columns are left alone
        seen += 1
    assert seen == 404


def det_corpus():
    # seeded square matrices of n = 0..12 with entries in [-20, 20]: plain,
    # with zero leading entries that force row swaps, and with a duplicated
    # column (singular); then one 8x8 matrix of 300-bit entries
    rng = random.Random(31)
    for n in range(13):
        for shape in range(6):
            a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
            if shape in (1, 2) and n >= 2:
                # a zero first pivot: the elimination must swap in a later row
                for i in range(rng.randrange(1, n)):
                    a[i][0] = 0
            if shape in (3, 4) and n >= 2:
                i, j = rng.sample(range(n), 2)
                for row in a:
                    row[j] = row[i]
            yield a
    yield [[rng.randint(-(2**300), 2**300) for _ in range(8)] for _ in range(8)]


def test_det_matches_sympy():
    from sympy import Matrix

    seen = singular = swapped = 0
    for a in det_corpus():
        expected = int(Matrix(a).det()) if a else 1
        assert K.det(a) == expected
        assert K.det(transpose(a, len(a))) == expected
        seen += 1
        singular += expected == 0
        swapped += len(a) >= 2 and a[0][0] == 0 and expected != 0
    assert K.det([]) == 1
    assert seen == 79 and singular >= 20 and swapped >= 10


def test_echelon_basis_is_the_hermite_basis_before_back_reduction():
    # the same pivot rows and pivots, each column zero above its pivot
    # row, and the same lattice; the input columns are left alone
    for cols, dim in hermite_corpus():
        before = [list(c) for c in cols]
        echelon = K.echelon_column_basis(cols, dim)
        assert cols == before
        hermite = K.hermite_column_basis(cols, dim)
        assert len(echelon) == len(hermite)
        for e, h in zip(echelon, hermite):
            r = next(i for i, x in enumerate(h) if x)
            assert not any(e[:r]) and e[r] == h[r] > 0
        assert K.hermite_column_basis(echelon, dim) == hermite
