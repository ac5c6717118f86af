"""Exact integer matrix kernel: Hermite bases, Smith forms and friends.

Lattices, kernels and solutions are all read off one Hermite (echelon)
column basis: `cofactor_hermite` reduces the columns of A stacked over
unit cofactor vectors, for `kernel_columns` and `fgab.preimages`.  The
Hermite reduction is an echelon pass (`echelon_column_basis`) followed
by a back-reduction of each pivot row; a lattice index in Z^dim needs
only the pivots, so it can stop after the echelon pass.  The Smith form
serves only cokernel presentations, which need invariant factors; it
eliminates on the rows of [A | I], so u moves with d, and keeps u^-1 by
its columns.  Every entry point takes a matrix as the plain list of its
columns, of Python ints, so arbitrary precision is preserved throughout.
Only `smith_with_transforms` hands back lists of rows (u and d), and
`mat_mul` reads either orientation: the transpose of a product is the
reverse product of the transposes.  `det` (fraction-free Bareiss
elimination) reads either orientation too, since a matrix and its
transpose share their determinant.  This module is the hot inner loop of
the whole package and imports nothing from the rest of it; the other
modules reach it through prolim._backend.
"""


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(m, n):
    return [[0] * n for _ in range(m)]


def mat_mul(a, b):
    """a*b for matrices given by their rows.  Given by their columns, the
    same lists give b*a: a product transposes to the reverse product."""
    m = len(a)
    n = len(b[0]) if b else 0
    k = len(b)
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(n):
                    oi[j] += c * bt[j]
    return out


def combine(cols, coeffs, dim):
    """The linear combination sum(c * col) of columns in Z^dim."""
    out = [0] * dim
    for c, col in zip(coeffs, cols):
        if c:
            for i in range(dim):
                out[i] += c * col[i]
    return out


def smith_with_transforms(cols):
    """Return (u, d, uinv) with u*A*v = d in Smith normal form for some v,
    A given by its columns: u and d as lists of rows, uinv as the list of
    its columns.

    d is diagonal with nonnegative entries d1 | d2 | ... followed by zeros;
    u is unimodular and uinv is its exact inverse.  The column transform v
    is not built: only cokernel presentations read a Smith form, and they
    need the row side alone.  The elimination runs on the rows of [A | I],
    so one row operation moves d and u together, and uinv, which undoes
    the row operations in reverse order, is kept by its columns: row
    i -= q*row j becomes column j += q*column i of uinv, and a swap or a
    negation of rows is the same swap or negation of uinv's columns.
    """
    n = len(cols)
    m = len(cols[0]) if cols else 0
    uinv = identity_matrix(m)
    rows = [[c[i] for c in cols] + e for i, e in enumerate(identity_matrix(m))]

    def row_sub(i, j, q):
        if q:
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
            uinv[j] = [a + q * b for a, b in zip(uinv[j], uinv[i])]

    def row_swap(i, j):
        if i != j:
            rows[i], rows[j] = rows[j], rows[i]
            uinv[i], uinv[j] = uinv[j], uinv[i]

    def col_swap(i, j):
        if i != j:
            for r in rows:
                r[i], r[j] = r[j], r[i]

    t = 0
    size = m if m < n else n
    while t < size:
        pi = pj = -1
        best = 0
        for i in range(t, m):
            di = rows[i]
            for j in range(t, n):
                x = di[j]
                if x:
                    ax = -x if x < 0 else x
                    if pi < 0 or ax < best:
                        best = ax
                        pi, pj = i, j
        if pi < 0:
            break
        row_swap(t, pi)
        col_swap(t, pj)
        while True:
            # Reduce the pivot column and row by the pivot.  A nonzero
            # remainder is strictly smaller than the pivot and gets swapped
            # in, so |pivot| strictly decreases; with no swaps, every
            # subtraction was exact and row/col t are clean.
            if rows[t][t] < 0:
                rows[t] = [-x for x in rows[t]]
                uinv[t] = [-x for x in uinv[t]]
            swapped = False
            for i in range(t + 1, m):
                if rows[i][t]:
                    row_sub(i, t, rows[i][t] // rows[t][t])
                    if rows[i][t]:
                        row_swap(t, i)
                        swapped = True
                        break
            if swapped:
                continue
            # Column t is now zero below row t, and rows above t are zero
            # from column t on, so subtracting multiples of column t changes
            # row t alone: it reduces each entry there mod the pivot.
            dt = rows[t]
            pv = dt[t]
            for j in range(t + 1, n):
                if dt[j]:
                    dt[j] %= pv
                    if dt[j]:
                        col_swap(t, j)
                        swapped = True
                        break
            if swapped:
                continue
            # pivot must divide every remaining entry (invariant-factor chain)
            offender = -1
            for i in range(t + 1, m):
                di = rows[i]
                for j in range(t + 1, n):
                    if di[j] % pv:
                        offender = i
                        break
                if offender >= 0:
                    break
            if offender < 0:
                break
            row_sub(t, offender, -1)  # pull the offending row into row t
        t += 1
    return [r[n:] for r in rows], [r[:n] for r in rows], uinv


def det(cols):
    """Determinant of a square matrix, given by its columns or by its rows
    (a matrix and its transpose share it); 1 for the 0x0 matrix.

    Fraction-free Gaussian elimination (Bareiss): after step k every entry
    below and right of the pivot is a (k+1)x(k+1) minor of the input, so the
    division by the previous pivot is exact (Sylvester's identity) and no
    entry outgrows a minor.  The last pivot is the determinant up to the
    sign of the row swaps.
    """
    m = [list(c) for c in cols]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k]
        akk = pk[k]
        for i in range(k + 1, n):
            mi = m[i]
            aik = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * akk - aik * pk[j]) // prev
        prev = akk
    return sign * m[-1][-1] if n else 1


def echelon_column_basis(cols, dim):
    """Echelon basis of the lattice spanned by `cols` in Z^dim: the first
    pass of `hermite_column_basis`, without its back-reduction.

    Columns with positive pivots and pivot rows increasing, each zero
    above its pivot row.  The pivots are the Hermite basis's pivots, so
    when the lattice has full rank dim, their product is its index in Z^dim.
    """
    work = [list(c) for c in cols if any(c)]
    basis = []
    for r in range(dim):
        live = [c for c in work if c[r]]
        if not live:
            continue
        rest = [c for c in work if not c[r]]
        # Work columns are zero above row r, so row operations start there.
        rows = range(r, dim)
        # Euclid over all live columns at once, always dividing by the
        # smallest entry.  Running it pair by pair instead lets the entries
        # in the other rows grow to hundreds of thousands of bits on a
        # 24x26 kernel before the pivot-row reduction shrinks them again.
        while len(live) > 1:
            # the first live column of least |entry| in row r
            piv = live[0]
            best = abs(piv[r])
            for c in live:
                x = c[r]
                if -best < x < best:
                    piv = c
                    best = abs(x)
            p = piv[r]
            nxt = [piv]
            for c in live:
                if c is not piv:
                    q = c[r] // p
                    for k in rows:
                        c[k] -= q * piv[k]
                    if c[r]:
                        nxt.append(c)
                    elif any(c):
                        rest.append(c)
            live = nxt
        piv = live[0]
        basis.append([-x for x in piv] if piv[r] < 0 else piv)
        work = rest
    return basis


def hermite_column_basis(cols, dim):
    """Column-style Hermite basis of the lattice spanned by `cols` in Z^dim.

    Echelon columns with positive pivots, pivot rows increasing, and other
    columns' entries at each pivot row reduced into [0, pivot): canonical
    for the lattice, so directly comparable.  The echelon columns come
    from `echelon_column_basis`; each one, in pivot order, then reduces the
    earlier columns at its pivot row.  A column reduces others only before
    later pivots reduce it, so this is the reduction each echelon step
    would make as its pivot is found.
    """
    basis = echelon_column_basis(cols, dim)
    for j, piv in enumerate(basis):
        r = 0
        while not piv[r]:
            r += 1
        p = piv[r]
        for b in basis[:j]:
            q = b[r] // p
            if q:
                for k in range(r, dim):
                    b[k] -= q * piv[k]
    return basis


def lattice_coordinates(basis, vec):
    """Coefficients of vec in a Hermite basis, or None if vec is outside.

    Each basis column is zero above its pivot row, so walking the columns
    in pivot order fixes one coefficient per pivot by exact division; the
    coefficients are unique because the columns are independent.
    """
    x = list(vec)
    coeffs = []
    for col in basis:
        r = 0
        while not col[r]:
            r += 1
        q, rem = divmod(x[r], col[r])
        if rem:
            return None
        if q:
            for k in range(r, len(x)):
                x[k] -= q * col[k]
        coeffs.append(q)
    return None if any(x) else coeffs


def cofactor_hermite(cols, m):
    """Hermite basis of the columns (a_j; e_j) of A stacked over the identity.

    A is given by its n columns in Z^m.  The stacked lattice is the graph
    {(A*x; x)}, so in echelon order the basis splits at the first column
    whose top m entries vanish: the columns before it have echelon top parts
    spanning the image of A, and the bottom parts of the columns from it on
    span the kernel of A.  Returns (image columns, kernel columns), both
    still stacked.  b's coordinates c in the image tops (`lattice_coordinates`)
    solve A*x = b by x = sum c_j * bottom_j, so one reduction serves every b.
    """
    n = len(cols)
    stacked = [list(c) + [1 if i == j else 0 for i in range(n)] for j, c in enumerate(cols)]
    basis = hermite_column_basis(stacked, m + n)
    rank = sum(1 for c in basis if any(c[:m]))
    return basis[:rank], basis[rank:]


def kernel_columns(cols):
    """Basis (list of columns) of the integer kernel {x : A*x = 0}, A given
    by its columns; with an empty target (columns of length 0) it is Z^n."""
    m = len(cols[0]) if cols else 0
    _image, ker = cofactor_hermite(cols, m)
    return [c[m:] for c in ker]


def reduce_mod_lattice(vec, basis):
    """Canonical representative of vec modulo the lattice (Hermite basis).

    Symmetric reduction at each pivot row: the entry there ends up in
    (-pivot/2, pivot/2], deterministically, preferring the positive tie.
    """
    x = list(vec)
    for col in basis:
        r = 0
        while r < len(col) and col[r] == 0:
            r += 1
        if r == len(col):
            continue
        h = col[r]
        q = (2 * x[r] + h - 1) // (2 * h)
        if q:
            for k in range(len(x)):
                x[k] -= q * col[k]
    return x

