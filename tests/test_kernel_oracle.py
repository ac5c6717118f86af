"""sympy as an external oracle for the integer kernel.

The kernel's own tests compare its routes with each other (u * u^-1 = I,
equal Hermite lattices, brute force up to 4x4); a fault shared by both
sides passes them.  Here every basis-free output is checked against sympy
on seeded inputs up to 24 x 24: dense, coefficient-heavy, rank-deficient
and derogatory (conjugates of block-diagonal matrices with repeated
blocks, whose minimal polynomial is a proper factor of the charpoly).
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from prolim import _intkernel as K  # noqa: E402
from prolim import _modpoly as M  # noqa: E402

SEED = 20261022


def _random(rng, m, n, bound):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _derogatory(rng, n, blocks):
    """P diag(B, ..., B) P^-1 with `blocks` copies of a random B and a
    unimodular P, built from elementary operations on both sides."""
    k = n // blocks
    b = _random(rng, k, k, 3)
    a = [[b[i % k][j % k] if i // k == j // k else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in a:  # a <- a (I - c e_ij): column j -= c * column i
            row[j] -= c * row[i]
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]  # (I + c e_ij) a: row i += c * row j
    return a


def _inputs():
    rng = random.Random(SEED)
    out = []
    for m, n in ((4, 4), (8, 8), (16, 16), (24, 24), (8, 5), (5, 8), (24, 20)):
        out.append((f"dense-{m}x{n}", _random(rng, m, n, 20)))
    for m, n in ((6, 6), (12, 12), (10, 7)):
        out.append((f"heavy-{m}x{n}", _random(rng, m, n, 10**12)))
    for m, n, r in ((6, 6, 1), (12, 12, 7), (24, 24, 13), (20, 24, 9)):
        out.append((f"rank{r}-{m}x{n}", _mul(_random(rng, m, r, 5), _random(rng, r, n, 5))))
    for n, blocks in ((8, 2), (12, 3), (24, 2), (24, 24)):
        out.append((f"derogatory-{n}x{n}-{blocks}blocks", _derogatory(rng, n, blocks)))
    return out


INPUTS = _inputs()
SQUARE = [(name, a) for name, a in INPUTS if len(a) == len(a[0])]


def _columns(a):
    return [list(col) for col in zip(*a)]


@pytest.mark.parametrize("a", [a for _, a in INPUTS], ids=[name for name, _ in INPUTS])
def test_smith_diagonal_is_sympys_invariant_factors(a):
    _u, d, _uinv = K.smith_with_transforms(_columns(a))
    diagonal = [d[i][i] for i in range(min(len(a), len(a[0])))]
    assert diagonal == [int(x) for x in invariant_factors(sympy.Matrix(a), domain=sympy.ZZ)]


@pytest.mark.parametrize("a", [a for _, a in INPUTS], ids=[name for name, _ in INPUTS])
def test_hermite_basis_is_sympys_hnf(a):
    # sympy's column HNF takes each pivot as its column's last nonzero entry
    # and reduces the later columns at it; hermite_column_basis takes the
    # first and reduces the earlier ones.  Reversing the coordinates maps
    # one convention onto the other, and reversing the basis restores the
    # order of the pivot rows.
    m = len(a)
    basis = K.hermite_column_basis([col[::-1] for col in _columns(a)], m)
    hnf = hermite_normal_form(sympy.Matrix(a))
    assert [col[::-1] for col in reversed(basis)] == [
        [int(x) for x in hnf.col(j)] for j in range(hnf.cols)
    ]


@pytest.mark.parametrize("a", [a for _, a in INPUTS], ids=[name for name, _ in INPUTS])
def test_rank_and_det_match_sympy(a):
    cols = _columns(a)
    dm = DomainMatrix.from_list(a, sympy.ZZ)
    rank = dm.rank()
    assert len(K.hermite_column_basis(cols, len(a))) == rank
    assert len(K.kernel_columns(cols)) == len(cols) - rank
    if len(a) == len(a[0]):
        _u, d, _uinv = K.smith_with_transforms(cols)
        det = abs(int(dm.det()))
        assert abs(K.det(cols)) == det
        assert abs(K.det(a)) == det
        diagonal = 1
        for i in range(len(a)):
            diagonal *= d[i][i]
        assert diagonal == det


@pytest.mark.parametrize("a", [a for _, a in SQUARE], ids=[name for name, _ in SQUARE])
def test_charpoly_matches_sympy(a):
    expected = [int(c) for c in reversed(sympy.Matrix(a).charpoly().all_coeffs())]
    assert M.charpoly(a) == expected
