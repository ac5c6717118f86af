import itertools
import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prolim import fgab as F
from prolim._backend import kernel as K
from prolim.errors import EnumerationCapExceeded, InputError

from conftest import hom_is_zero, random_group, random_hom


def index_in_ambient(sub):
    return sub.index_in(F.Subgroup.full(sub.ambient))


def test_canonical_form_merges_coprime_factors():
    assert F.Zmod(2, 3) == F.Zmod(6)
    assert F.Zmod(2, 4) != F.Zmod(8)
    assert F.FgAbGroup.from_diagonal([0, 30, 4]).torsion == (2, 60)


def test_canonical_form_is_idempotent():
    rng = random.Random(1)
    for _ in range(50):
        g = random_group(rng)
        again = F.FgAbGroup.from_diagonal([0] * g.free_rank + list(g.torsion))
        assert again == g


def test_invalid_chain_rejected():
    with pytest.raises(InputError):
        F.FgAbGroup(0, (2, 3))  # not a divisibility chain
    with pytest.raises(InputError):
        F.FgAbGroup(0, (1,))


@pytest.mark.parametrize(
    "free_rank, torsion, bad",
    [
        pytest.param(1.9, [2], "1.9", id="float-rank"),
        pytest.param("1", [2], "'1'", id="str-rank"),
        pytest.param(True, [2], "True", id="bool-rank"),
        pytest.param(1, [2.0], "2.0", id="float-factor"),
        pytest.param(1, ["2"], "'2'", id="str-factor"),
        pytest.param(1, [True], "True", id="bool-factor"),
    ],
)
def test_group_constructor_rejects_non_integers(free_rank, torsion, bad):
    with pytest.raises(InputError, match=f"expected an integer, got {bad}$"):
        F.FgAbGroup(free_rank, torsion)


@pytest.mark.parametrize(
    "entry, bad",
    [
        pytest.param(1.5, "1.5", id="float"),
        pytest.param("3", "'3'", id="str"),
        pytest.param(True, "True", id="bool"),
        pytest.param(None, "None", id="none"),
    ],
)
def test_hom_constructor_rejects_non_integer_entries(entry, bad):
    with pytest.raises(InputError, match=f"matrix entry: expected an integer, got {bad}$"):
        F.GroupHom(F.Z(2), F.Z(1), [[1, entry]])


def test_element_arithmetic():
    g = F.FgAbGroup(1, (4,))
    assert g.add((2, 3), (5, 2)) == (7, 1)
    assert g.neg((1, 1)) == (-1, 3)
    assert g.zero() == (0, 0)


def test_hom_well_definedness():
    # an order-2 generator cannot map to an odd element of Z/4
    with pytest.raises(InputError):
        F.GroupHom(F.Zmod(2), F.Zmod(4), [[1]])
    h = F.GroupHom(F.Zmod(2), F.Zmod(4), [[2]])
    assert h.apply((1,)) == (2,)
    # nor can it hit a free coordinate
    with pytest.raises(InputError):
        F.GroupHom(F.Zmod(2), F.Z(), [[1]])


def _both_ways(source, target, cols):
    """The hom with these columns, built from its rows and from its columns."""
    rows = [[c[i] for c in cols] for i in range(target.dim)]
    return F.GroupHom(source, target, rows), F.GroupHom.from_columns(source, target, cols)


def test_rows_and_columns_constructors_agree():
    rng = random.Random(41)
    # source and target dimension 0 first, then random shapes
    cases = [
        (F.ZERO_GROUP, F.ZERO_GROUP),
        (F.ZERO_GROUP, F.FgAbGroup(1, (4,))),
        (F.FgAbGroup(1, (6,)), F.ZERO_GROUP),
    ]
    cases += [(random_group(rng), random_group(rng)) for _ in range(150)]
    for src, tgt in cases:
        cols = [list(c) for c in random_hom(rng, src, tgt).columns()]
        for col in cols:
            for i, d in enumerate(tgt.torsion):  # unreduced torsion entries
                col[tgt.free_rank + i] += d * rng.randrange(-3, 4)
        by_rows, by_cols = _both_ways(src, tgt, cols)
        assert by_rows.matrix == by_cols.matrix
        assert len(by_rows.matrix) == tgt.dim
        assert all(len(r) == src.dim for r in by_rows.matrix)
        assert by_rows == by_cols and hash(by_rows) == hash(by_cols)
        assert by_rows.to_json() == by_cols.to_json()
        x = tuple(rng.randrange(-5, 6) for _ in range(src.dim))
        assert by_rows.apply(x) == by_cols.apply(x)
        pre = random_group(rng) if rng.randrange(3) else F.ZERO_GROUP
        first = [list(c) for c in random_hom(rng, pre, src).columns()]
        pre_rows, pre_cols = _both_ways(pre, src, first)
        composite = by_rows.compose(pre_rows)
        assert composite == by_cols.compose(pre_cols)
        assert composite.matrix == by_cols.compose(pre_cols).matrix
        assert composite.to_json() == by_cols.compose(pre_cols).to_json()


def test_columns_constructor_checks_well_definedness():
    with pytest.raises(InputError, match="does not vanish under 2"):
        F.GroupHom.from_columns(F.Zmod(2), F.Zmod(4), [[1]])
    assert F.GroupHom.from_columns(F.Zmod(2), F.Zmod(4), [[6]]).matrix == ((2,),)


def test_shape_errors_name_the_ragged_row():
    z3 = F.Z(3)
    with pytest.raises(InputError, match=r"^row 1 has 2 entries, expected source dim 3$"):
        F.GroupHom(z3, z3, [[1, 0, 0], [0, 1], [0, 0, 1]])
    with pytest.raises(InputError, match=r"^row 0 has 1 entry, expected source dim 3$"):
        F.GroupHom(z3, z3, [[1], [0, 1, 0]])
    with pytest.raises(InputError, match=r"^matrix shape 2x3 does not match target dim 3"):
        F.GroupHom(z3, z3, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(InputError, match=r"^tail\.maps\[1\]\[1\]: row has 2 entries"):
        F.check_matrix_shape([[1, 0, 0], [0, 1], [0, 0, 1]], z3, z3, "tail.maps[1]")


def test_kernel_examples():
    # x2 on Z is injective
    ker = F.kernel(F.GroupHom(F.Z(), F.Z(), [[2]]))
    assert ker.normal_form.is_trivial()
    # reduction Z/4 -> Z/2: kernel {0, 2}, by enumeration
    h = F.GroupHom(F.Zmod(4), F.Zmod(2), [[1]])
    ker = F.kernel(h)
    assert ker.normal_form == F.Zmod(2)
    assert sorted(ker.elements()) == [(0,), (2,)]
    assert sorted(x for x in F.Zmod(4).elements() if h.apply(x) == (0,)) == [(0,), (2,)]
    # sum Z^2 -> Z: kernel is the antidiagonal line
    h2 = F.GroupHom(F.Z(2), F.Z(), [[1, 1]])
    ker2 = F.kernel(h2)
    assert ker2.normal_form == F.Z()
    brute = [
        (a, b)
        for a in range(-5, 6)
        for b in range(-5, 6)
        if a + b == 0
    ]
    assert all(ker2.contains(x) for x in brute)
    # inclusion composed with h is zero
    comp = h2.compose(ker2.inclusion())
    assert hom_is_zero(comp)


def test_image_examples():
    im = F.image(F.GroupHom(F.Z(), F.Z(), [[2]]))
    assert im.normal_form == F.Z()
    assert index_in_ambient(im) == 2
    im2 = F.image(F.GroupHom(F.Z(), F.Zmod(6), [[2]]))
    assert im2.normal_form == F.Zmod(3)
    assert sorted(im2.elements()) == [(0,), (2,), (4,)]
    assert F.image(F.GroupHom.zero(F.Z(), F.Zmod(4))).normal_form.is_trivial()


def test_image_membership_matches_solvability():
    rng = random.Random(7)
    for _ in range(40):
        src = random_group(rng, max_rank=1, factors=(2, 3, 4), max_torsion=2)
        tgt = random_group(rng, max_rank=1, factors=(2, 4, 6), max_torsion=2)
        h = random_hom(rng, src, tgt)
        im = F.image(h)
        for _ in range(6):
            x = tuple(rng.randrange(-3, 4) for _ in range(tgt.dim))
            x = tgt.reduce(x)
            assert im.contains(x) == (F.solve_hom(h, x) is not None)


def test_quotient_examples():
    q, proj = F.quotient(F.Z(), F.Subgroup(F.Z(), [(2,)]))
    assert q == F.Zmod(2)
    q2, proj2 = F.quotient(F.Z(2), F.Subgroup(F.Z(2), [(2, 0), (0, 3)]))
    assert q2 == F.Zmod(6)
    # element-level verification of the projection
    seen = {proj2.apply((a, b)) for a in range(6) for b in range(6)}
    assert len(seen) == 6
    g = F.Zmod(4)
    q3, _ = F.quotient(g, F.Subgroup.full(g))
    assert q3.is_trivial()


def test_quotient_projection_kernel_is_the_subgroup():
    rng = random.Random(3)
    for _ in range(30):
        g = random_group(rng, max_rank=1, factors=(2, 3, 4), max_torsion=2)
        gens = [
            g.reduce(tuple(rng.randrange(-2, 3) for _ in range(g.dim)))
            for _ in range(rng.randrange(3))
        ]
        sub = F.Subgroup(g, gens)
        q, proj = F.quotient(g, sub)
        assert F.is_surjective(proj)
        assert F.kernel(proj).equals(sub)


def test_subgroup_equal_examples():
    z = F.Z()
    assert F.Subgroup(z, [(2,)]).equals(F.Subgroup(z, [(2,), (4,)]))
    assert not F.Subgroup(z, [(2,)]).equals(F.Subgroup(z, [(4,)]))
    z2 = F.Z(2)
    assert F.Subgroup(z2, [(1, 1)]).equals(F.Subgroup(z2, [(1, 1), (2, 2)]))
    with pytest.raises(InputError):
        F.Subgroup(z, [(1,)]).equals(F.Subgroup(z2, [(1, 0)]))


def test_order_identity_kernel_times_image():
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        src = random_group(rng, max_rank=0, factors=(2, 3, 4, 8), max_torsion=3)
        if not src.order() or src.order() > 64:
            continue
        tgt = random_group(rng, max_rank=0, factors=(2, 4, 6), max_torsion=2)
        h = random_hom(rng, src, tgt)
        ker = F.kernel(h)
        assert ker.normal_form.order() * F.image(h).normal_form.order() == src.order()
        # brute-force cross-check on small groups
        if src.order() <= 16:
            kcount = sum(1 for x in src.elements() if h.apply(x) == tgt.zero())
            assert kcount == ker.normal_form.order()
        checked += 1


def test_quotient_by_image_matches_stacked_cokernel():
    # independent route: Smith form of (matrix | target relations)
    rng = random.Random(23)
    for _ in range(40):
        src = random_group(rng, max_rank=1, factors=(2, 3, 4), max_torsion=2)
        tgt = random_group(rng, max_rank=1, factors=(2, 4), max_torsion=2)
        h = random_hom(rng, src, tgt)
        q, _ = F.quotient(tgt, F.image(h))
        cols = [
            [h.matrix[i][j] for i in range(tgt.dim)] for j in range(src.dim)
        ] + tgt.relation_columns()
        pres = F.cokernel_presentation(tgt.dim, cols)
        assert q == pres.group


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_property_random_matrices(rows):
    from prolim import _modpoly
    from prolim._backend import kernel as K

    m, n = len(rows), len(rows[0])
    u, d, ui = K.smith_with_transforms([[r[j] for r in rows] for j in range(n)])
    # uinv comes as its columns
    assert K.mat_mul(u, [[c[i] for c in ui] for i in range(m)]) == K.identity_matrix(m)
    assert abs(_modpoly.charpoly(u)[0]) == 1
    # u*a*v = d for a unimodular v: u*a and d span the same column lattice
    ua = K.mat_mul(u, rows)
    assert K.hermite_column_basis([[r[j] for r in ua] for j in range(n)], m) == (
        K.hermite_column_basis([[r[j] for r in d] for j in range(n)], m)
    )


def test_direct_sum_round_trip():
    g, incs, projs = F.direct_sum(F.Zmod(4), F.Z(), F.Zmod(6))
    assert g == F.FgAbGroup(1, (2, 12))
    for i, part in enumerate((F.Zmod(4), F.Z(), F.Zmod(6))):
        assert projs[i].compose(incs[i]).matrix == F.GroupHom.identity(part).matrix
        for j in range(len(incs)):
            if j != i:
                assert hom_is_zero(projs[i].compose(incs[j]))


def test_solve_hom_minimal_deterministic():
    h = F.GroupHom(F.Z(2), F.Z(), [[1, 1]])
    x = F.solve_hom_minimal(h, (3,))
    assert x is not None and x[0] + x[1] == 3
    assert x == F.solve_hom_minimal(h, (3,))
    # tower lift picks the representative in [0, d)
    h2 = F.GroupHom(F.Zmod(8), F.Zmod(4), [[1]])
    assert F.solve_hom_minimal(h2, (1,)) == (1,)


def test_eventual_image_lattice_cases():
    assert F.eventual_image_lattice([[2]]) == []
    assert len(F.eventual_image_lattice([[0, 1], [1, 0]])) == 2
    w = F.eventual_image_lattice([[1, 0], [0, 2]])
    assert len(w) == 1 and w[0][1] == 0
    # shear onto an invariant line: intersection of images is a + b = 0
    # (N has rows (2, 1) and (0, 1); the argument is its columns)
    w2 = F.eventual_image_lattice([[2, 0], [1, 1]])
    assert len(w2) == 1 and sum(w2[0]) == 0
    # singular N: nilpotent, a projection, and a unimodular shear
    assert F.eventual_image_lattice([[0, 1], [0, 0]]) == []
    assert F.eventual_image_lattice([[1, 0], [0, 0]]) == [[1, 0]]
    assert F.eventual_image_lattice([[1, 1], [0, 1]]) == [[1, 0], [0, 1]]


def test_eventual_image_lattice_skips_hermite_when_det_is_not_a_unit_mod_p(monkeypatch):
    # det N != +-1 mod 101 proves N is not unimodular, so no Hermite basis
    # is taken; the certificate then settles u = 1 without one either
    def refuse(cols, dim):
        raise AssertionError("Hermite basis taken")

    monkeypatch.setattr(F._k, "hermite_column_basis", refuse)
    cases = [
        [[2]],
        [[0, 1], [0, 0]],
        [[3, 1], [1, 2]],
        [[2, 1, 0], [0, 2, 1], [1, 0, 2]],
        [[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 1], [3, 0, 0, 2]],
    ]
    for n_cols in cases:
        assert F.eventual_image_lattice(n_cols) == []


def test_full_subgroup_basis_is_the_hermite_basis_of_identity_plus_relations(rng):
    groups = [F.FgAbGroup(0, (2,)), F.FgAbGroup(2, (3, 6)), F.ZERO_GROUP]
    groups += [random_group(rng, max_rank=3, max_torsion=3) for _ in range(40)]
    for g in groups:
        cols = F._k.identity_matrix(g.dim) + g.relation_columns()
        assert F.Subgroup.full(g).lattice_basis() == F._k.hermite_column_basis(cols, g.dim)


def test_full_subgroup_equals_the_subgroup_of_the_unit_vectors():
    # Subgroup.full sets its unit-vector generators and identity basis
    # directly; Subgroup reduces the same generators and computes the basis
    rng = random.Random(4242)
    groups = [F.ZERO_GROUP, F.FgAbGroup(0, (2,)), F.FgAbGroup(2, (3, 6))]
    groups += [random_group(rng, max_rank=3, max_torsion=3) for _ in range(60)]
    assert sum(1 for g in groups if g.torsion) >= 30
    for g in groups:
        full = F.Subgroup.full(g)
        ref = F.Subgroup(g, F._k.identity_matrix(g.dim))
        assert full.generators == ref.generators
        assert full.lattice_basis() == ref.lattice_basis()
        assert full.normal_form == ref.normal_form == g


def test_is_full_agrees_with_comparing_to_the_identity(rng):
    z2 = F.Z(2)
    cases = [
        F.Subgroup.trivial(F.ZERO_GROUP),  # dim 0
        F.Subgroup(z2, [(1, 1), (0, 1)]),  # full
        F.Subgroup(z2, [(2, 0), (0, 1)]),  # index 2
        F.Subgroup(z2, [(1, 2)]),  # rank-deficient
        F.Subgroup(F.FgAbGroup(1, (2, 4)), [(1, 1, 0), (0, 1, 0), (0, 0, 3)]),  # full via relations
        F.Subgroup(F.FgAbGroup(1, (2, 4)), [(1, 0, 0), (0, 0, 2)]),  # torsion, index 4
    ]
    for _ in range(60):
        g = random_group(rng, max_rank=3, max_torsion=3)
        gens = [[rng.randrange(-3, 4) for _ in range(g.dim)] for _ in range(rng.randrange(4))]
        cases.append(F.Subgroup(g, gens))
    verdicts = set()
    for sub in cases:
        full = sub.lattice_basis() == F._k.identity_matrix(sub.ambient.dim)
        assert sub.is_full() == full, sub
        verdicts.add(full)
    assert [sub.is_full() for sub in cases[:6]] == [True, True, False, False, True, False]
    assert verdicts == {True, False}


def test_subgroup_index_and_intersection():
    z2 = F.Z(2)
    a = F.Subgroup(z2, [(2, 0), (0, 2)])
    assert index_in_ambient(a) == 4
    b = F.Subgroup(z2, [(1, 0), (0, 2)])
    assert a.index_in(b) == 2
    c = a.intersection(b)
    assert c.equals(a)
    line = F.Subgroup(z2, [(1, 1)])
    meet = line.intersection(F.Subgroup(z2, [(1, -1)]))
    assert meet.normal_form.is_trivial() or meet.normal_form == F.Z()
    # (1,1) and (1,-1) span index-2; their intersection is 2Z(1,... ) rank 1? no:
    # the lines meet only at multiples of (0,0) unless parallel
    assert meet.normal_form.is_trivial()


def _span(g, gens):
    # every element of the subgroup of a finite group, by closure under +
    seen = {g.zero()}
    frontier = [g.zero()]
    while frontier:
        x = frontier.pop()
        for gen in gens:
            y = g.add(x, gen)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _random_nested_pair(rng, g):
    """(a, b) with a <= b: b from random generators, a from combinations."""
    gens = [
        tuple(rng.randrange(-4, 5) for _ in range(g.dim)) for _ in range(rng.randrange(1, 4))
    ]
    small = []
    for _ in range(rng.randrange(4)):
        cs = [rng.randrange(-3, 4) for _ in gens]
        small.append(tuple(sum(c * x[i] for c, x in zip(cs, gens)) for i in range(g.dim)))
    return F.Subgroup(g, small), F.Subgroup(g, gens)


def test_index_in_matches_brute_force_on_finite_groups():
    rng = random.Random(17)
    for _ in range(60):
        g = random_group(rng, max_rank=0)
        a, b = _random_nested_pair(rng, g)
        size_a = len(_span(g, a.generators))
        size_b = len(_span(g, b.generators))
        assert size_b % size_a == 0
        assert a.index_in(b) == size_b // size_a


def test_index_in_matches_smith_reference_on_free_and_mixed_groups():
    from prolim._backend import kernel as K

    rng = random.Random(23)
    finite = 0
    for _ in range(80):
        g = random_group(rng)
        if g.free_rank == 0:
            g = F.FgAbGroup(1, g.torsion)
        a, b = _random_nested_pair(rng, g)
        small, big = a.lattice_basis(), b.lattice_basis()
        if len(small) != len(big):
            assert a.index_in(b) is None
            continue
        coords = [K.solve(big, col) for col in small]
        _u, d, _ui = K.smith_with_transforms(coords)
        assert a.index_in(b) == abs(prod(row[i] for i, row in enumerate(d)))
        finite += 1
    assert finite > 20


def _coordinate_index(a, b):
    # [b : a] from a's Hermite basis in b's lattice coordinates: nested
    # lattices of equal rank give a triangular matrix, whose diagonal
    # multiplies to the index
    big = b.lattice_basis()
    coords = [K.lattice_coordinates(big, col) for col in a.lattice_basis()]
    assert None not in coords
    if len(coords) != len(big):
        return None
    return prod(c[i] for i, c in enumerate(coords))


def _echelon_index(a):
    # [Z^dim : a] through the echelon pass alone, on a copy of a with no
    # cached Hermite basis; the echelon pivots are the Hermite pivots
    fresh = F.Subgroup(a.ambient, a.generators)
    index = fresh.index_in(F.Subgroup.full(a.ambient))
    assert fresh._basis is None
    echelon = fresh.echelon_basis()
    hermite = a.lattice_basis()
    assert len(echelon) == len(hermite)
    for e, h in zip(echelon, hermite):
        r = next(i for i, x in enumerate(h) if x)
        assert not any(e[:r]) and e[r] == h[r] > 0
    if len(hermite) < a.ambient.dim:
        assert index is None
    else:
        assert index == prod(c[i] for i, c in enumerate(hermite))
    return index


def test_index_in_a_full_subgroup_matches_the_coordinate_route():
    # the brute-force pairs of the finite-group test, then subgroups of
    # mixed groups against the full subgroup, where index_in multiplies
    # the echelon pivots instead of solving for coordinates
    rng = random.Random(17)
    for _ in range(60):
        g = random_group(rng, max_rank=0)
        a, b = _random_nested_pair(rng, g)
        assert a.index_in(b) == _coordinate_index(a, b)
        full = F.Subgroup.full(g)
        assert a.index_in(full) == _coordinate_index(a, full)
        assert a.index_in(full) == g.order() // len(_span(g, a.generators))
        for sub in (a, b):
            assert _echelon_index(sub) == _coordinate_index(sub, full)
    rng = random.Random(41)
    finite = infinite = 0
    for _ in range(60):
        g = random_group(rng, max_rank=3, max_torsion=2)
        a, b = _random_nested_pair(rng, g)
        full = F.Subgroup.full(g)
        index = a.index_in(full)
        assert index == _coordinate_index(a, full)
        finite += index is not None
        infinite += index is None
        for sub in (a, b):
            assert _echelon_index(sub) == _coordinate_index(sub, full)
    assert finite >= 10 and infinite >= 10, (finite, infinite)


def test_index_in_rejects_a_pair_that_is_not_nested():
    with pytest.raises(InputError, match="containment"):
        F.Subgroup(F.Z(), [(1,)]).index_in(F.Subgroup(F.Z(), [(2,)]))
    z2 = F.Z(2)
    with pytest.raises(InputError, match="containment"):
        F.Subgroup(z2, [(1, 1)]).index_in(F.Subgroup(z2, [(1, 0)]))


def test_json_group_dimension_bound():
    bound = F.MAX_JSON_DIM
    g = F.FgAbGroup.from_json({"free_rank": bound - 1, "torsion": [2]}, "g")
    assert g.dim == bound
    with pytest.raises(InputError, match=r"^g\.free_rank: .*dimension bound"):
        F.FgAbGroup.from_json({"free_rank": bound + 1, "torsion": []}, "g")
    with pytest.raises(InputError, match=r"^g\.torsion: .*dimension bound"):
        F.FgAbGroup.from_json({"free_rank": bound - 1, "torsion": [2, 2]}, "g")


def _reference_elements_capped(g, cap):
    # every ring built in full over the whole cube of its radius
    if g.is_finite():
        out = list(itertools.islice(g.elements(), cap + 1))
        if len(out) > cap:
            raise EnumerationCapExceeded(f"enumeration cap {cap} exceeded")
        return out
    out = []
    radius = 0
    while True:
        vals = [0] + [s * k for k in range(1, radius + 1) for s in (1, -1)]
        for free in itertools.product(vals, repeat=g.free_rank):
            if max(abs(a) for a in free) == radius:
                for tors in itertools.product(*(range(d) for d in g.torsion)):
                    if len(out) == cap:
                        return out
                    out.append(free + tors)
        radius += 1


@pytest.mark.parametrize(
    "free_rank, torsion",
    [(0, ()), (0, (2, 6)), (1, ()), (2, ()), (3, ()), (1, (3,)), (2, (2, 4))],
)
def test_elements_capped_matches_the_full_ring_reference(free_rank, torsion):
    g = F.FgAbGroup(free_rank, torsion)
    for cap in (1, 2, 5, 12, 100, 400):
        try:
            expected = _reference_elements_capped(g, cap)
        except EnumerationCapExceeded:
            with pytest.raises(EnumerationCapExceeded):
                list(g.elements_capped(cap))
            continue
        assert list(g.elements_capped(cap)) == expected
    ring = list(F._max_norm_ring(free_rank or 1, 3))
    assert len(ring) == len(set(ring)) == 7 ** (free_rank or 1) - 5 ** (free_rank or 1)


def test_elements_capped_takes_only_what_the_cap_allows():
    huge = 10**40
    with pytest.raises(EnumerationCapExceeded):
        next(F.Zmod(huge).elements_capped(10_000))
    assert list(F.FgAbGroup(1, (huge,)).elements_capped(3)) == [(0, 0), (0, 1), (0, 2)]
    assert list(F.Z(30).elements_capped(2)) == [(0,) * 30, (0,) * 29 + (1,)]
