"""Finitely generated abelian groups via exact integer linear algebra.

A group is kept in invariant-factor normal form: free generators first,
then torsion generators with orders d1 | d2 | ... (each >= 2).  Elements
are plain tuples of ints with torsion coordinates reduced into [0, di).
A matrix is a list of its columns throughout: a homomorphism stores
column j = the image of source generator j in target coordinates, and
presentations and lattice bases are column lists too.  Rows appear only at
the JSON boundary, in the `GroupHom` rows constructor and its `matrix`
view.  Subgroups are generator lists with a lazily computed normal form;
under the hood every subgroup is the lattice spanned by its generators
together with the ambient relation lattice.
"""

import itertools
import reprlib
from collections import namedtuple
from math import prod
from operator import mod

from prolim._backend import kernel as _k
from prolim.errors import EnumerationCapExceeded, InputError


def json_list(obj, path):
    """obj if it is a JSON array; otherwise an InputError naming `path`."""
    if type(obj) is not list:
        raise InputError(f"{path}: expected a JSON array, got {reprlib.repr(obj)}")
    return obj


def json_int(obj, path):
    """obj if it is a JSON integer (not a float, string or boolean)."""
    if type(obj) is not int:
        raise InputError(f"{path}: expected an integer, got {reprlib.repr(obj)}")
    return obj


def _max_norm_ring(r, radius):
    """The vectors of Z^r (r >= 1) with max-norm `radius`, lexicographic in
    the coordinate order 0, 1, -1, 2, -2, ...

    Built coordinate by coordinate, so the work is proportional to the
    vectors taken: a first coordinate below `radius` leaves a ring in the
    other coordinates, and one at +-radius leaves the whole cube.
    """
    top = (radius, -radius) if radius else (0,)
    if r == 1:
        for v in top:
            yield (v,)
        return
    inner = ([0] + [s * k for k in range(1, radius) for s in (1, -1)]) if radius else []
    for v in inner:
        for rest in _max_norm_ring(r - 1, radius):
            yield (v,) + rest
    for v in top:
        for rest in itertools.product(inner + list(top), repeat=r - 1):
            yield (v,) + rest


MAX_JSON_DIM = 100
"""Most generators (free_rank plus invariant factors) a JSON group may have."""


class FgAbGroup:
    """Z^free_rank + Z/d1 + ... + Z/dk with d1 | d2 | ... | dk, all di >= 2."""

    __slots__ = ("free_rank", "torsion", "dim")

    def __init__(self, free_rank=0, torsion=()):
        json_int(free_rank, "free_rank")
        torsion = tuple(json_int(d, "invariant factor") for d in torsion)
        if free_rank < 0:
            raise InputError("free_rank must be nonnegative")
        for d in torsion:
            if d < 2:
                raise InputError("invariant factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise InputError(f"invariant factors must form a divisibility chain, got {torsion}")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "dim", self.free_rank + len(torsion))

    def __setattr__(self, name, value):
        raise AttributeError("FgAbGroup is immutable")

    @classmethod
    def from_diagonal(cls, diag):
        """Normalize an arbitrary list of cyclic orders (0 = Z) to canonical form.

        >>> FgAbGroup.from_diagonal([2, 3])
        FgAbGroup(0, (6,))
        """
        n = len(diag)
        cols = [[x if i == j else 0 for i in range(n)] for j, x in enumerate(diag)]
        return cokernel_presentation(n, cols).group

    def is_finite(self):
        return self.free_rank == 0

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """|G| for finite groups, None otherwise."""
        if not self.is_finite():
            return None
        p = 1
        for d in self.torsion:
            p *= d
        return p

    def zero(self):
        return (0,) * self.dim

    def reduce(self, vec):
        """Canonical coordinates: torsion entries into [0, di)."""
        vec = tuple(vec)
        if len(vec) != self.dim:
            raise InputError(f"coordinate length {len(vec)} != dim {self.dim}")
        if not self.torsion:
            return vec
        r = self.free_rank
        return vec[:r] + tuple(map(mod, vec[r:], self.torsion))

    def add(self, x, y):
        return self.reduce(tuple(a + b for a, b in zip(x, y)))

    def neg(self, x):
        return self.reduce(tuple(-a for a in x))

    def sub(self, x, y):
        return self.reduce(tuple(a - b for a, b in zip(x, y)))

    def relation_columns(self):
        """Columns spanning the relation lattice (di * torsion unit vectors)."""
        n = self.dim
        r = self.free_rank
        cols = []
        for i, d in enumerate(self.torsion):
            col = [0] * n
            col[r + i] = d
            cols.append(col)
        return cols

    def elements(self):
        """Iterate all elements; only valid for finite groups."""
        if not self.is_finite():
            raise EnumerationCapExceeded("cannot enumerate an infinite group")
        for combo in itertools.product(*(range(d) for d in self.torsion)):
            yield combo

    def elements_capped(self, cap):
        """Deterministic enumeration of at most `cap` elements.

        Free coordinates are swept in rings of increasing max-norm with the
        order 0, 1, -1, 2, -2, ...; the torsion block is exhausted first.  A
        finite group with more than `cap` elements raises before anything
        is enumerated.
        """
        if self.is_finite():
            if self.order() > cap:
                raise EnumerationCapExceeded(f"enumeration cap {cap} exceeded")
            yield from self.elements()
            return
        r = self.free_rank
        # the first `cap` torsion tuples have every coordinate below `cap`
        tors_ranges = [range(min(d, cap)) for d in self.torsion]
        count = 0
        radius = 0
        while True:
            for free in _max_norm_ring(r, radius):
                for tors in itertools.product(*tors_ranges):
                    if count >= cap:
                        return
                    count += 1
                    yield free + tors
            radius += 1

    def to_json(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, obj, path):
        """Read {"free_rank": n, "torsion": [d1, ...]}; errors name `path`."""
        if not isinstance(obj, dict):
            raise InputError(f"{path}: expected a group object, got {reprlib.repr(obj)}")
        for key in ("free_rank", "torsion"):
            if key not in obj:
                raise InputError(f"{path}.{key}: missing field")
        free_rank = json_int(obj["free_rank"], f"{path}.free_rank")
        if free_rank > MAX_JSON_DIM:
            raise InputError(
                f"{path}.free_rank: {free_rank} exceeds the dimension bound {MAX_JSON_DIM}"
            )
        torsion = json_list(obj["torsion"], f"{path}.torsion")
        if free_rank + len(torsion) > MAX_JSON_DIM:
            raise InputError(
                f"{path}.torsion: free_rank {free_rank} plus {len(torsion)} invariant"
                f" factors exceeds the dimension bound {MAX_JSON_DIM}"
            )
        torsion = [json_int(d, f"{path}.torsion[{i}]") for i, d in enumerate(torsion)]
        try:
            return cls(free_rank, torsion)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc

    def __eq__(self, other):
        return (
            isinstance(other, FgAbGroup)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self):
        return f"FgAbGroup({self.free_rank}, {self.torsion})"

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = FgAbGroup(0, ())


def Z(rank=1):
    return FgAbGroup(rank, ())


def Zmod(*ds):
    return FgAbGroup.from_diagonal(list(ds))


def check_matrix_shape(rows, source, target, path=None):
    """An InputError unless `rows` form a target.dim x source.dim matrix.

    A ragged matrix is reported by its first row whose length is not
    source.dim, as `path[i]` (or `row i` with no path); any other wrong
    shape by the matrix's own shape, after `path: ` when a path is given.
    """
    n = source.dim
    if len(rows) == target.dim and all(len(r) == n for r in rows):
        return
    width = len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        i = next(i for i, r in enumerate(rows) if len(r) != n)
        k = len(rows[i])
        where = f"{path}[{i}]: row" if path else f"row {i}"
        raise InputError(
            f"{where} has {k} entr{'y' if k == 1 else 'ies'}, expected source dim {n}"
        )
    raise InputError(
        f"{path + ': ' if path else ''}matrix shape {len(rows)}x{width} "
        f"does not match target dim {target.dim} x source dim {n}"
    )


class GroupHom:
    """Homomorphism between FgAbGroups, stored as its list of columns.

    Column j is the image of source generator j in target coordinates, with
    the torsion entries reduced.  Construction validates well-definedness:
    an order-d source generator must map to an element killed by d.
    `GroupHom(source, target, rows)` reads a matrix given by its rows (the
    JSON orientation) and `from_columns` one given by its columns; the
    `matrix` property is the read-only row view.
    """

    __slots__ = ("source", "target", "_cols")

    def __init__(self, source, target, matrix, check=True):
        matrix = tuple(tuple(json_int(x, "matrix entry") for x in row) for row in matrix)
        check_matrix_shape(matrix, source, target)
        cols = zip(*matrix) if matrix else [()] * source.dim
        self._init(source, target, cols, check)

    @classmethod
    def from_columns(cls, source, target, cols, check=True):
        """The hom whose column j is the image of source generator j."""
        h = object.__new__(cls)
        h._init(source, target, cols, check)
        return h

    def _init(self, source, target, cols, check):
        cols = tuple(target.reduce(c) for c in cols)
        if len(cols) != source.dim:
            raise InputError(f"{len(cols)} columns do not match source dim {source.dim}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_cols", cols)
        if check:
            self._check_well_defined()

    def __setattr__(self, name, value):
        raise AttributeError("GroupHom is immutable")

    def _check_well_defined(self):
        r = self.source.free_rank
        for j, d in enumerate(self.source.torsion):
            if any(self.target.reduce(tuple(d * x for x in self._cols[r + j]))):
                raise InputError(
                    f"column {r + j} of order-{d} generator does not vanish under {d}"
                )

    @property
    def matrix(self):
        """The matrix as a tuple of rows."""
        return tuple(zip(*self._cols)) if self._cols else ((),) * self.target.dim

    def columns(self):
        """The images of the source generators, in target coordinates."""
        return self._cols

    def apply(self, x):
        if len(x) != self.source.dim:
            raise InputError("element does not belong to the source group")
        return self.target.reduce(_k.combine(self._cols, x, self.target.dim))

    def compose(self, other):
        """self o other (apply `other` first)."""
        if other.target != self.source:
            raise InputError("composition mismatch")
        if self.source.dim == 0:
            return GroupHom.zero(other.source, self.target)
        # the row product of the column lists, in reverse order
        cols = _k.mat_mul(other._cols, self._cols)
        return GroupHom.from_columns(other.source, self.target, cols, check=False)

    @classmethod
    def identity(cls, g):
        return cls.from_columns(g, g, _k.identity_matrix(g.dim), check=False)

    @classmethod
    def zero(cls, source, target):
        cols = _k.zero_matrix(source.dim, target.dim)
        return cls.from_columns(source, target, cols, check=False)

    def to_json(self):
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "matrix": [list(r) for r in self.matrix],
        }

    def __eq__(self, other):
        return (
            isinstance(other, GroupHom)
            and self.source == other.source
            and self.target == other.target
            and self._cols == other._cols
        )

    def __hash__(self):
        return hash((self.source, self.target, self._cols))

    def __repr__(self):
        return f"GroupHom({self.source} -> {self.target}, {self.matrix})"


class Presentation(namedtuple("Presentation", "group project lift")):
    """Cokernel presentation Z^n / columns, canonicalized.

    group: the invariant-factor normal form of the quotient
    project: the quotient map's n columns, the images of the unit vectors
    lift: dim(group) columns in Z^n, one preimage per generator of group
    """

    __slots__ = ()


def cokernel_presentation(n, rel_cols):
    """Present Z^n modulo the lattice spanned by rel_cols (list of columns)."""
    if n == 0:
        return Presentation(ZERO_GROUP, (), ())
    if not rel_cols:
        eye = tuple(map(tuple, _k.identity_matrix(n)))
        return Presentation(FgAbGroup(n, ()), eye, eye)
    u, d, uinv = _k.smith_with_transforms(rel_cols)
    diag = [d[i][i] for i in range(min(n, len(rel_cols)))]
    rank = sum(1 for x in diag if x)
    free_rows = list(range(rank, n))
    torsion_rows = [i for i in range(rank) if diag[i] >= 2]
    group = FgAbGroup(len(free_rows), [diag[i] for i in torsion_rows])
    order = free_rows + torsion_rows
    # the projection is u's rows in `order`, the lift uinv's columns in `order`
    project = tuple(group.reduce([u[i][c] for i in order]) for c in range(n))
    return Presentation(group, project, tuple(tuple(uinv[i]) for i in order))


def _spans_all(basis, dim):
    """Whether an echelon basis with positive pivots spans Z^dim: the
    Hermite basis of Z^dim is the identity, so it has dim pivots, all 1."""
    return len(basis) == dim and all(c[i] == 1 for i, c in enumerate(basis))


class Subgroup:
    """Subgroup of an FgAbGroup, carried as a generator list.

    The underlying object is the lattice in Z^dim spanned by the generators
    together with the ambient relations; normal form, membership, indices
    and the inclusion hom are all derived from it lazily.
    """

    __slots__ = ("ambient", "generators", "_basis", "_pres", "_incl")

    def __init__(self, ambient, generators):
        self._set(ambient, tuple(ambient.reduce(g) for g in generators), None)

    def _set(self, ambient, generators, basis):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_pres", None)
        object.__setattr__(self, "_incl", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subgroup is immutable")

    @classmethod
    def full(cls, ambient):
        # the unit vectors are already reduced (a torsion entry 1 lies in
        # [0, d) for every d >= 2), and the relations lie in Z^dim, whose
        # Hermite basis is the identity
        ident = _k.identity_matrix(ambient.dim)
        sub = cls.__new__(cls)
        sub._set(ambient, tuple(map(tuple, ident)), ident)
        return sub

    @classmethod
    def trivial(cls, ambient):
        return cls(ambient, [])

    @classmethod
    def torsion_block(cls, ambient):
        """The torsion subgroup of the ambient: its torsion unit vectors."""
        gens = []
        for i in range(ambient.free_rank, ambient.dim):
            v = [0] * ambient.dim
            v[i] = 1
            gens.append(tuple(v))
        return cls(ambient, gens)

    def _lattice_columns(self):
        return [list(g) for g in self.generators] + self.ambient.relation_columns()

    def lattice_basis(self):
        """Hermite basis (list of columns) of span(generators) + relations."""
        b = self._basis
        if b is None:
            b = _k.hermite_column_basis(self._lattice_columns(), self.ambient.dim)
            object.__setattr__(self, "_basis", b)
        return b

    def echelon_basis(self):
        """An echelon basis of span(generators) + relations, with the
        Hermite basis's pivots: that basis when it is cached, and otherwise
        the echelon pass alone (`echelon_column_basis`), which is not cached."""
        b = self._basis
        if b is None:
            return _k.echelon_column_basis(self._lattice_columns(), self.ambient.dim)
        return b

    def _presentation(self):
        pres = self._pres
        if pres is not None:
            return pres
        basis = self.lattice_basis()
        rels = self.ambient.relation_columns()
        coeffs = [_k.lattice_coordinates(basis, rel) for rel in rels]
        if None in coeffs:
            raise AssertionError("ambient relations must lie in the subgroup lattice")
        pres = cokernel_presentation(len(basis), coeffs)
        object.__setattr__(self, "_pres", pres)
        return pres

    @property
    def normal_form(self):
        return self._presentation().group

    def inclusion(self):
        """Hom from normal_form into the ambient group."""
        cached = self._incl
        if cached is not None:
            return cached
        pres = self._presentation()
        basis = self.lattice_basis()
        amb = self.ambient
        cols = [_k.combine(basis, coeffs, amb.dim) for coeffs in pres.lift]
        incl = GroupHom.from_columns(pres.group, amb, cols, check=False)
        object.__setattr__(self, "_incl", incl)
        return incl

    def coordinates_of(self, x):
        """Express ambient element x in normal-form coordinates (None if absent)."""
        sol = _k.lattice_coordinates(self.lattice_basis(), self.ambient.reduce(x))
        if sol is None:
            return None
        pres = self._presentation()
        return pres.group.reduce(_k.combine(pres.project, sol, pres.group.dim))

    def contains(self, x):
        return self.coordinates_of(x) is not None

    def equals(self, other):
        if self.ambient != other.ambient:
            raise InputError("subgroups of different ambient groups")
        return self.lattice_basis() == other.lattice_basis()

    def is_full(self):
        return _spans_all(self.echelon_basis(), self.ambient.dim)

    def index_in(self, other):
        """[other : self] for self <= other; None when the index is infinite.

        Against a full subgroup every vector lies in Z^dim, whose Hermite
        basis is the identity, so the index is the product of self's
        pivots.  They are read off `echelon_basis`, so an uncached Hermite
        basis costs only the echelon pass and no back-reduction.
        """
        b_big = other.lattice_basis()
        if _spans_all(b_big, other.ambient.dim):
            basis = self.echelon_basis()
            if len(basis) != self.ambient.dim:
                return None
            return prod(c[i] for i, c in enumerate(basis))
        coords = [_k.lattice_coordinates(b_big, col) for col in self.lattice_basis()]
        if None in coords:
            raise InputError("index_in requires containment")
        if len(coords) != len(b_big):
            return None
        # Nested lattices of equal rank share their Hermite pivot rows, so
        # the coordinate matrix is triangular: the index is its diagonal.
        index = 1
        for i, c in enumerate(coords):
            index *= c[i]
        return index

    def intersection(self, other):
        """Lattice intersection of two subgroups of the same ambient."""
        if self.ambient != other.ambient:
            raise InputError("subgroups of different ambient groups")
        a = self.lattice_basis()
        n = self.ambient.dim
        ker = _k.kernel_columns(a + [[-x for x in col] for col in other.lattice_basis()])
        return Subgroup(self.ambient, [_k.combine(a, kcol[: len(a)], n) for kcol in ker])

    def elements(self):
        """All elements (ambient coordinates); finite subgroups only."""
        pres = self._presentation()
        incl = self.inclusion()
        if not pres.group.is_finite():
            raise EnumerationCapExceeded("cannot enumerate an infinite subgroup")
        seen = set()
        for x in pres.group.elements():
            y = incl.apply(x)
            if y not in seen:
                seen.add(y)
                yield y

    def __repr__(self):
        return f"Subgroup({self.ambient}, gens={list(self.generators)})"


def image(h):
    """Subgroup of the target generated by the columns of h."""
    return Subgroup(h.target, h.columns())


def kernel(h):
    """Subgroup of the source that h maps to zero."""
    ker = _k.kernel_columns([*h.columns(), *h.target.relation_columns()])
    return Subgroup(h.source, [col[: h.source.dim] for col in ker])


def quotient(ambient, sub):
    """(cokernel in normal form, surjective projection with kernel = sub)."""
    if sub.ambient != ambient:
        raise InputError("quotient: subgroup of a different ambient group")
    pres = cokernel_presentation(ambient.dim, sub.lattice_basis())
    return pres.group, GroupHom.from_columns(ambient, pres.group, pres.project, check=False)


def is_injective(h):
    return kernel(h).normal_form.is_trivial()


def is_surjective(h):
    return image(h).is_full()


def hom_into_subgroup(h, target_sub):
    """Re-express h as a hom into normal_form(target_sub).

    Requires image(h) <= target_sub.  The source group is untouched.
    """
    cols = [target_sub.coordinates_of(col) for col in h.columns()]
    if None in cols:
        raise InputError("hom does not map into the target subgroup")
    return GroupHom.from_columns(h.source, target_sub.normal_form, cols, check=False)


def hom_restrict(h, source_sub, target_sub):
    """Restrict h to a hom normal_form(source_sub) -> normal_form(target_sub).

    Requires h(source_sub) <= target_sub.
    """
    cols = [target_sub.coordinates_of(h.apply(col)) for col in source_sub.inclusion().columns()]
    if None in cols:
        raise InputError("hom does not map the source subgroup into the target subgroup")
    return GroupHom.from_columns(source_sub.normal_form, target_sub.normal_form, cols, check=False)


def solve_hom(h, y):
    """One x with h(x) = y, or None; torsion handled exactly."""
    src, tgt = h.source, h.target
    sol = _k.solve([*h.columns(), *tgt.relation_columns()], tgt.reduce(y))
    if sol is None:
        return None
    return src.reduce(sol[: src.dim])


def solve_hom_minimal(h, y):
    """The canonical minimal solution of h(x) = y (None if unsolvable).

    Particular solution reduced by the kernel lattice: free coordinates get
    the symmetric representative (positive on ties), torsion coordinates
    land in [0, d) as always.
    """
    x0 = solve_hom(h, y)
    if x0 is None:
        return None
    basis = kernel(h).lattice_basis()
    red = _k.reduce_mod_lattice(list(x0), basis)
    return h.source.reduce(tuple(red))


def direct_sum(*groups):
    """(P, inclusions, projections) with P = canonical form of the sum."""
    total = sum(g.dim for g in groups)
    rels = []
    off = 0
    for g in groups:
        for col in g.relation_columns():
            vec = [0] * total
            vec[off : off + g.dim] = col
            rels.append(vec)
        off += g.dim
    pres = cokernel_presentation(total, rels)
    incls = []
    projs = []
    off = 0
    for g in groups:
        block = slice(off, off + g.dim)
        incls.append(GroupHom.from_columns(g, pres.group, pres.project[block], check=False))
        proj_cols = [col[block] for col in pres.lift]
        projs.append(GroupHom.from_columns(pres.group, g, proj_cols, check=False))
        off += g.dim
    return pres.group, incls, projs


def hom_sum(source, target, homs, coeffs):
    """The hom sum(c * h) over homs h : source -> target."""
    cols = [
        _k.combine([h.columns()[j] for h in homs], coeffs, target.dim)
        for j in range(source.dim)
    ]
    return GroupHom.from_columns(source, target, cols, check=False)


def eventual_image_lattice(n_cols):
    """Basis of the largest sublattice W of Z^r with N(W) = W, for a square
    integer N given by its columns.

    W is the intersection of the images N^j(Z^r) over all j; by Fitting's
    decomposition it is the integer kernel of u(N), where u is the unit
    part of charpoly(N): N is an automorphism of that saturated lattice,
    and the intersection meets the part belonging to the other factors
    (t^a and the factors whose constant term is not +-1) only in 0.  Read
    as rows, the columns are the transpose of N, which has the same
    charpoly, and u of the transpose is the transpose of u(N): its rows
    are the columns of u(N).

    A unimodular N (Hermite basis of its columns the identity: r pivots,
    all 1) gives W = Z^r at once.  That Hermite check runs only when
    det N = +-1 mod p, for p = `_modpoly.PRIMES[0]`, read off the constant
    term (-1)^r det N of charpoly(N) mod p.  The gate is exact: a unimodular
    N has det N = +-1, so any other residue proves N is not unimodular, and
    the check is skipped only then (it always runs when r >= p).  The same
    charpoly mod p is handed to `_modpoly.no_unit_factor`; when that proves
    u = 1, W is 0 and neither the integer charpoly nor its factorization is
    computed.  Otherwise the integer charpoly comes from charpoly mod large
    primes by the Chinese remainder theorem (`_modpoly.charpoly`), u from
    factoring it over Z, and u(N) by Horner's rule.
    """
    from prolim import _modpoly

    r = len(n_cols)
    p = _modpoly.PRIMES[0]
    first = _modpoly.charpoly_mod(n_cols, p) if r < p else None
    if first is None or first[0] in (1, p - 1):
        basis = _k.hermite_column_basis(n_cols, r)
        if _spans_all(basis, r):
            return basis
    if _modpoly.no_unit_factor(n_cols, first):
        return []
    u = _modpoly.unit_part(_modpoly.charpoly(n_cols))
    u_of_n = _k.identity_matrix(r)
    for c in reversed(u[:-1]):
        u_of_n = _k.mat_mul(u_of_n, n_cols)
        for i in range(r):
            u_of_n[i][i] += c
    return _k.kernel_columns(u_of_n)
