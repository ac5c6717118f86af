import inspect
import os
import random
import re

import pytest

from prolim import _intkernel as pure
from prolim._backend import kernel as K


def snf(a):
    return K.smith_with_transforms([list(r) for r in a])


def test_snf_one_by_one():
    u, d, v, ui = snf([[2]])
    assert (u, d, v) == ([[1]], [[2]], [[1]])


def test_snf_zero():
    _u, d, _v, _ui = snf([[0]])
    assert d == [[0]]


def test_snf_hand_example():
    # hand row/column reduction gives invariant factors 2 and 4
    m = [[2, 4], [6, 8]]
    u, d, v, ui = snf(m)
    assert [d[0][0], d[1][1]] == [2, 4]
    assert K.mat_mul(K.mat_mul(u, m), v) == d
    assert abs(K.charpoly(u)[0]) == 1
    assert abs(K.charpoly(v)[0]) == 1


@pytest.mark.parametrize("seed", range(40))
def test_snf_random_transform_identity(seed):
    rng = random.Random(seed)
    m = rng.randrange(1, 5)
    n = rng.randrange(1, 5)
    a = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)]
    u, d, v, ui = snf(a)
    assert K.mat_mul(K.mat_mul(u, a), v) == d
    assert K.mat_mul(u, ui) == K.identity_matrix(m)
    assert abs(K.charpoly(v)[0]) == 1
    nz = [x for x in K.smith_diagonal(d) if x]
    assert all(x > 0 for x in nz)
    for x, y in zip(nz, nz[1:]):
        assert y % x == 0
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0


def test_solve_and_kernel():
    a = [[2, 0], [0, 3]]
    assert K.solve(a, [4, 9]) == [2, 3]
    assert K.solve(a, [1, 0]) is None
    ker = K.kernel_columns([[1, 1]])
    assert len(ker) == 1 and ker[0][0] == -ker[0][1]


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


def _brute_charpoly3(a):
    # det(tI - a) expanded by permutations, n <= 3
    n = len(a)
    import itertools

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
        assert K.charpoly(a) == _brute_charpoly3(a)


def test_backend_is_the_interpreted_kernel():
    import prolim

    assert prolim.BACKEND == "pure"
    assert prolim._backend.kernel is pure


def test_lattice_coordinates_match_smith_solve():
    # Smith `solve` on the transposed basis is the reference; the solution is
    # unique because Hermite basis columns are independent.
    rng = random.Random(5)
    outside = 0
    for _ in range(200):
        dim = rng.randrange(1, 5)
        cols = [[rng.randrange(-6, 7) for _ in range(dim)] for _ in range(rng.randrange(5))]
        basis = K.hermite_column_basis(cols, dim)
        rows = [[col[i] for col in basis] for i in range(dim)]
        coeffs = [rng.randrange(-6, 7) for _ in basis]
        member = [sum(c * col[i] for c, col in zip(coeffs, basis)) for i in range(dim)]
        assert K.lattice_coordinates(basis, member) == coeffs == K.solve(rows, member)
        other = [rng.randrange(-6, 7) for _ in range(dim)]
        got = K.lattice_coordinates(basis, other)
        assert got == K.solve(rows, other)
        outside += got is None
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
