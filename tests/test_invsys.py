import functools
import hashlib
import random

import pytest

from prolim import fgab as F
from prolim import _modpoly as M
from prolim import invsys as I
from prolim._backend import kernel as K
from prolim.errors import InputError, PreconditionError

from conftest import (
    random_cycle_system,
    random_finite_cycle_system,
    random_group,
    random_hom,
    random_mixed_cycle_system,
    random_small_group,
    random_system,
    seeded_towers,
)


def system_equal(a, b, upto):
    """Levelwise equality of groups and bonding-map matrices up to a level."""
    for n in range(1, upto + 1):
        if a.group_at(n) != b.group_at(n):
            return False
        if n < upto and a.map_at(n).columns() != b.map_at(n).columns():
            return False
    return True


def z_times(n):
    return I.constant_system(F.Z(), [[n]])


def test_group_at_constant_and_periodic():
    s = I.constant_system(F.Z())
    assert s.group_at(7) == F.Z()
    c1, c2 = F.Zmod(4), F.Zmod(8)
    sys2 = I.InverseSystem(
        (F.Zmod(2),),
        (F.GroupHom(c1, F.Zmod(2), [[1]]),),
        I.CycleTail((c1, c2), (F.GroupHom(c2, c1, [[1]]), F.GroupHom(c1, c2, [[2]]))),
    )
    assert sys2.group_at(4) == c1
    assert sys2.group_at(3) == c2


def test_group_at_out_of_range_on_chain():
    chain = I.chain_system(
        [F.Zmod(2), F.Zmod(4), F.Zmod(8)],
        [
            F.GroupHom(F.Zmod(4), F.Zmod(2), [[1]]),
            F.GroupHom(F.Zmod(8), F.Zmod(4), [[1]]),
        ],
    )
    assert chain.group_at(3) == F.Zmod(8)
    with pytest.raises(PreconditionError):
        chain.group_at(5)


def test_map_between_identity_and_composite():
    s = z_times(2)
    assert s.map_between(3, 3).matrix == ((1,),)
    assert s.map_between(1, 4).matrix == ((8,),)
    with pytest.raises(PreconditionError):
        s.map_between(4, 1)


def test_map_between_elementwise_oracle(rng):
    for _ in range(12):
        s = random_mixed_cycle_system(rng)
        n = rng.randrange(1, 4)
        m = n + rng.randrange(0, 4)
        comp = s.map_between(n, m)
        for _ in range(20):
            g = s.group_at(m)
            x = g.reduce(tuple(rng.randrange(-3, 4) for _ in range(g.dim)))
            step = x
            for j in range(m - 1, n - 1, -1):
                step = s.map_at(j).apply(step)
            assert comp.apply(x) == step


def test_map_between_composition_law(rng):
    for _ in range(100):
        s = random_system(rng)
        n = rng.randrange(1, 3)
        m = n + rng.randrange(0, 3)
        q = m + rng.randrange(0, 3)
        left = s.map_between(n, m).compose(s.map_between(m, q))
        right = s.map_between(n, q)
        g = s.group_at(q)
        for _ in range(20):
            x = g.reduce(tuple(rng.randrange(-2, 3) for _ in range(g.dim)))
            assert left.apply(x) == right.apply(x)


def test_surjectivize_z_times_2_is_zero_system():
    so = I.surjectivize(z_times(2))
    for n in range(1, 5):
        assert so.group_at(n).is_trivial()


def test_surjectivize_identity_unchanged():
    s = I.constant_system(F.Z())
    so = I.surjectivize(s)
    assert system_equal(s, so, 5)


def test_surjectivize_finite_cycle():
    so = I.surjectivize(I.constant_system(F.Zmod(4), [[2]]))
    # images: 2Z/4, then 0, settle at 0
    assert so.group_at(1).is_trivial()


def test_surjectivize_idempotent(rng):
    for _ in range(25):
        s = random_system(rng)
        s1 = I.surjectivize(s)
        s2 = I.surjectivize(s1)
        assert system_equal(s1, s2, s1.prefix_len + s1.period + 2)


def test_surjectivize_output_is_surjective_and_ml(rng):
    for _ in range(40):
        s = random_system(rng)
        so = I.surjectivize(s)
        for n in range(1, so.prefix_len + so.period + 1):
            assert F.is_surjective(so.map_at(n))
        assert I.is_mittag_leffler(so).verdict is True


def test_ml_examples():
    assert I.is_mittag_leffler(I.constant_system(F.Z())).verdict is True
    cert = I.is_mittag_leffler(z_times(2))
    assert cert.verdict is False
    fail = cert.failure_levels()
    assert fail[0].level == 1 and fail[0].index == 2


def test_ml_failure_index_is_reproduced_across_periods():
    cert = I.is_mittag_leffler(z_times(3))
    assert cert.failure_levels()[0].index == 3
    # mixed prime escape: the tail loses a factor of 6 every period
    z2g = F.Z(2)
    s = I.InverseSystem(
        (), (), I.CycleTail((z2g,), (F.GroupHom(z2g, z2g, [[2, 0], [0, 3]]),))
    )
    assert I.is_mittag_leffler(s).failure_levels()[0].index == 6


def test_ml_true_for_all_finite_systems(rng):
    for _ in range(60):
        s = random_finite_cycle_system(rng)
        assert I.is_mittag_leffler(s).verdict is True


def test_ml_certificate_horizon_verified(rng):
    for _ in range(20):
        s = random_finite_cycle_system(rng)
        cert = I.is_mittag_leffler(s)
        p = s.period
        for entry in cert.per_level:
            assert entry.stable
            m = entry.stable_from
            a = F.image(s.map_between(entry.level, m))
            b = F.image(s.map_between(entry.level, m + p))
            assert a.equals(b)


def _reference_tower_certificate(s):
    """The tower certificate by comparing composite images at every level:
    Im f_{n,m} = Im f_{n,m+p} with m = max(n, k+1)."""
    k, p = s.prefix_len, s.period
    entries = []
    for n in range(1, k + p + 1):
        m = max(n, k + 1)
        lo, hi = F.image(s.map_between(n, m)), F.image(s.map_between(n, m + p))
        assert lo.equals(hi), (n, m)
        entries.append(I.MLLevel(n, True, stable_from=m))
    return I.MLCertificate(True, tuple(entries))


def test_tower_certificate_matches_the_image_reference():
    towers = seeded_towers(11, 30)
    assert {s.period for s in towers} == {1, 2, 3}
    assert {s.prefix_len for s in towers} == {0, 1, 2}
    for s in towers:
        assert I.is_mittag_leffler(s) == _reference_tower_certificate(s)


def test_tower_certificate_composes_no_maps(monkeypatch):
    towers = seeded_towers(12, 10)
    expected = [_reference_tower_certificate(s).to_json() for s in towers]

    def refuse(self, n, m):
        raise AssertionError("the tower certificate composed bonding maps")

    monkeypatch.setattr(I.InverseSystem, "map_between", refuse)
    fresh = [I.InverseSystem.from_json(s.to_json()) for s in towers]
    assert [I.is_mittag_leffler(s).to_json() for s in fresh] == expected


def test_tower_kernel_sequence_matches_the_drop_map_kernels(monkeypatch):
    # the kernel of a tower drop is its layer; the reference reduces every
    # bonding map, through two periods, while the engine reduces only the
    # prefix and junction maps
    towers = [I.surjectivize(s) for s in seeded_towers(13, 10)]
    expected = []
    for s in towers:
        upto = s.prefix_len + 2 * s.period + 1
        seq = [(1, s.group_at(1))]
        seq += [(n, F.kernel(s.map_at(n - 1)).normal_form) for n in range(2, upto + 1)]
        expected.append([(n, x, x.is_finite()) for n, x in seq])
    reduced = []
    kernel = I.kernel
    monkeypatch.setattr(I, "kernel", lambda h: reduced.append(h) or kernel(h))
    for s, want in zip(towers, expected):
        reduced.clear()
        upto = s.prefix_len + 2 * s.period + 1
        assert I.kernel_sequence(s, upto) == want
        assert len(reduced) == s.prefix_len


def test_restrict_cofinal_examples():
    s = z_times(2)
    assert I.restrict_cofinal(s, 1, 0) is s
    r = I.restrict_cofinal(s, 2)
    assert r.map_at(1).matrix == ((4,),)
    chain = I.chain_system(
        [F.Zmod(2), F.Zmod(4), F.Zmod(8)],
        [
            F.GroupHom(F.Zmod(4), F.Zmod(2), [[1]]),
            F.GroupHom(F.Zmod(8), F.Zmod(4), [[1]]),
        ],
    )
    r3 = I.restrict_cofinal(chain, 3)
    assert r3.chain_length == 1 and r3.group_at(1) == F.Zmod(8)


def _assert_selects(s, r, old):
    """Level i of r is level old(i) of s, and its bonding map is the
    composite between the selected levels, coordinate for coordinate,
    through r's prefix and two of its periods."""
    for i in range(1, r.prefix_len + 2 * r.period + 1):
        assert r.group_at(i) == s.group_at(old(i)), i
        assert r.map_at(i).columns() == s.map_between(old(i), old(i + 1)).columns(), i


def test_restrict_cofinal_composite_oracle(rng):
    systems = [random_mixed_cycle_system(rng) for _ in range(15)] + seeded_towers(15, 8)
    assert {s.prefix_len for s in systems if isinstance(s.tail, I.TowerTail)} == {0, 1, 2}
    for s in systems:
        for stride in (2, 3):
            for offset in range(3):
                r = I.restrict_cofinal(s, stride, offset)
                _assert_selects(s, r, lambda i: offset + stride * i)
    # a restriction of a restricted tower selects the composite levels
    for s in seeded_towers(16, 4):
        r = I.restrict_cofinal(I.restrict_cofinal(s, 2, 1), 3, 2)
        _assert_selects(s, r, lambda i: 1 + 2 * (2 + 3 * i))


def test_kernel_sequence_examples():
    tower = I.tower_system(F.Zmod(2), [F.Zmod(2)])
    seq = I.kernel_sequence(tower)
    assert seq[0] == (1, F.Zmod(2), True)
    assert all(x == F.Zmod(2) and fin for _l, x, fin in seq[1:])
    const = I.constant_system(F.Z())
    seq2 = I.kernel_sequence(const)
    assert seq2[0] == (1, F.Z(), False)
    assert all(x.is_trivial() for _l, x, _f in seq2[1:])
    ztower = I.tower_system(F.Z(), [F.Z()])
    assert all(x == F.Z() for _l, x, _f in I.kernel_sequence(ztower))


def test_kernel_sequence_requires_surjectivity():
    with pytest.raises(PreconditionError):
        I.kernel_sequence(z_times(2))


def test_stabilizes_examples():
    assert I.stabilizes(I.constant_system(F.Z())) == (True, 1)
    assert I.stabilizes(I.tower_system(F.Zmod(2), [F.Zmod(2)])) == (False, None)
    z2, z4 = F.Zmod(2), F.Zmod(4)
    s = I.InverseSystem(
        (z2, z4),
        (F.GroupHom(z4, z2, [[1]]), F.GroupHom.identity(z4)),
        I.CycleTail((z4,), (F.GroupHom.identity(z4),)),
    )
    assert I.stabilizes(s) == (True, 2)


def test_push_rejects_a_subgroup_of_another_group():
    z2, z_z2 = F.Z(2), F.FgAbGroup(1, (2,))
    h = F.GroupHom.identity(z2)
    assert I._push(h, F.Subgroup(z2, [(1, 1)])).equals(F.Subgroup(z2, [(1, 1)]))
    # same dimension, other group
    with pytest.raises(InputError, match="source"):
        I._push(h, F.Subgroup.full(z_z2))
    with pytest.raises(InputError, match="source"):
        I._push(h, F.Subgroup.full(F.Z(3)))


def test_validation_errors_name_the_map():
    z = F.Z()
    with pytest.raises(InputError):
        I.InverseSystem((z,), (), I.CycleTail((z,), (F.GroupHom.identity(z),)))
    bad = {
        "prefix": [],
        "maps": [],
        "tail": {"kind": "cycle", "groups": [{"free_rank": 1, "torsion": []}], "maps": []},
    }
    with pytest.raises(InputError, match="tail.maps"):
        I.InverseSystem.from_json(bad)


def test_unknown_tail_kind_is_an_input_error():
    z = F.Z()
    for prefix, maps in (((), ()), ((z,), (F.GroupHom.identity(z),))):
        with pytest.raises(InputError, match="unknown tail kind"):
            I.InverseSystem(prefix, maps, "cycle")


Z_JSON = {"free_rank": 1, "torsion": []}
Z_CYCLE = {"kind": "cycle", "groups": [Z_JSON], "maps": [[[1]]]}


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"prefix": 5, "maps": [], "tail": Z_CYCLE}, "prefix"),
        ({"prefix": [Z_JSON], "maps": 5, "tail": Z_CYCLE}, "maps"),
        ({"prefix": [Z_JSON], "maps": [[1]], "tail": Z_CYCLE}, r"maps\[0\]\[0\]"),
        (
            {"prefix": [{"free_rank": "1", "torsion": []}], "maps": [], "tail": None},
            r"prefix\[0\]\.free_rank",
        ),
        (
            {"prefix": [{"free_rank": 0, "torsion": "24"}], "maps": [], "tail": None},
            r"prefix\[0\]\.torsion:",
        ),
        ({"prefix": [], "maps": [], "tail": {**Z_CYCLE, "groups": 5}}, "tail.groups"),
    ],
)
def test_from_json_rejects_non_arrays_and_non_integers(doc, path):
    with pytest.raises(InputError, match=path):
        I.InverseSystem.from_json(doc)


def test_json_round_trip(rng):
    chain = I.chain_system(
        [F.Zmod(2), F.Zmod(4), F.Zmod(8)],
        [
            F.GroupHom(F.Zmod(4), F.Zmod(2), [[1]]),
            F.GroupHom(F.Zmod(8), F.Zmod(4), [[1]]),
        ],
    )
    for s in [random_system(rng) for _ in range(20)] + [chain]:
        again = I.InverseSystem.from_json(s.to_json())
        # a finite chain has no levels past its prefix
        upto = s.prefix_len if s.is_chain() else s.prefix_len + s.period + 2
        assert system_equal(s, again, upto)
        assert again.to_json() == s.to_json()
        assert again.period == s.period
    assert chain.to_json()["tail"] is None and chain.period == 0


def test_eventual_image_matches_long_iteration(rng):
    # push the image chain far and compare against the exact eventual image
    for _ in range(25):
        g = random_group(rng, max_rank=2, factors=(2, 3, 4), max_torsion=1)
        e = random_hom(rng, g, g, bound=2)
        w = I.eventual_image(e)
        cur = F.Subgroup.full(g)
        for _ in range(14):
            cur = I._push(e, cur)
        # after many steps the chain is inside W̄ plus it contains W̄
        assert all(cur.contains(x) for x in w.generators)
        wnext = I._push(e, w)
        assert wnext.equals(w)


def _power(endo, j):
    h = F.GroupHom.identity(endo.source)
    for _ in range(j):
        h = endo.compose(h)
    return h


def test_stable_images_and_ml_horizon_match_brute_force(rng):
    # finite tails: every image chain settles, so the stable image is the
    # intersection of the element sets Im(f^j) for j <= |G|
    for _ in range(30):
        s = random_finite_cycle_system(rng)
        k, p = s.prefix_len, s.period
        subs = I.stable_images(s)
        cert = I.is_mittag_leffler(s)
        horizons = {e.level: e.stable_from for e in cert.per_level}
        assert cert.verdict
        for j in range(p):
            level = k + 1 + j
            endo = s.map_between(level, level + p)
            g = endo.source
            n = g.order()
            chain = [{_power(endo, i).apply(x) for x in g.elements()} for i in range(n + 2)]
            assert set(subs[level].elements()) == set.intersection(*chain[: n + 1])
            first_constant = next(i for i in range(n + 1) if chain[i] == chain[i + 1])
            assert horizons[level] == level + first_constant * p


def test_failing_chain_invariants(rng):
    # tails that never stabilize: the eventual image is invariant and lies
    # in the chain past the certified horizon, where the torsion part is
    # settled and the index is the constant free-part index
    seen = 0
    for _ in range(80):
        s = random_mixed_cycle_system(rng)
        p = s.period
        for e in I.is_mittag_leffler(s).per_level:
            if e.stable:
                continue
            seen += 1
            endo = s.map_between(e.level, e.level + p)
            g = endo.source
            steps = (e.stable_from - e.level) // p
            chain = [F.image(_power(endo, i)) for i in range(steps + 3)]
            w = I.eventual_image(endo)
            assert I._push(endo, w).equals(w)
            assert all(chain[steps + 2].contains(x) for x in w.generators)
            tblock = F.Subgroup.torsion_block(g)
            tors = [c.intersection(tblock) for c in chain[steps:]]
            assert all(t.equals(tors[0]) for t in tors)
            assert e.index == chain[steps + 1].index_in(chain[steps])
    assert seen >= 10


def test_tail_stable_images_are_per_level_eventual_images(rng):
    # stable_images computes one eventual image per cycle and pushes it
    # around; every tail level must still get its own eventual image
    levels = failing = 0
    while levels < 60 or failing < 10:
        s = random_mixed_cycle_system(rng, max_period=3)
        k, p = s.prefix_len, s.period
        if p < 2:
            continue
        subs = I.stable_images(s)
        for level in range(k + 1, k + p + 1):
            endo = s.map_between(level, level + p)
            assert subs[level].lattice_basis() == I.eventual_image(endo).lattice_basis()
            levels += 1
            failing += I._image_chain(endo)[1] is not None


def _reference_image_chain(endo):
    # the walk on torsion intersections and Smith-form free ranks
    tblock = F.Subgroup.torsion_block(endo.source)
    cur = F.Subgroup.full(endo.source)
    cur_tors = cur.intersection(tblock)
    steps = 0
    while True:
        nxt = I._push(endo, cur)
        if nxt.equals(cur):
            return True, steps, cur
        nxt_tors = nxt.intersection(tblock)
        settled = nxt.normal_form.free_rank == cur.normal_form.free_rank and (
            nxt_tors.equals(cur_tors)
        )
        cur, cur_tors = nxt, nxt_tors
        steps += 1
        if settled:
            return False, steps, cur


def test_free_rank_reads_the_free_pivots(rng):
    unstable = 0
    for _ in range(120):
        g = random_group(rng, max_rank=3, max_torsion=2)
        endo = random_hom(rng, g, g, bound=3)
        cur = F.Subgroup.full(g)
        for _ in range(5):
            assert I._free_rank(cur) == cur.normal_form.free_rank
            cur = I._push(endo, cur)
        ref_stable, ref_steps, ref_anchor = _reference_image_chain(endo)
        ref_index = None if ref_stable else I._push(endo, ref_anchor).index_in(ref_anchor)
        assert I._image_chain(endo) == (ref_steps, ref_index)
        unstable += not ref_stable
    assert unstable >= 10


def _reference_eventual_image(endo):
    # the walk-and-lift construction: the full image chain, then the free
    # core of the endomorphism induced on the settled image lattice, lifted
    # back into the chain's anchor term by solving for a torsion correction
    stable, _steps, anchor = _reference_image_chain(endo)
    if stable:
        return anchor
    g = endo.source
    r = g.free_rank
    lam = [c[:r] for c in anchor.lattice_basis() if any(c[:r])]
    w_free = []
    if lam:
        e_free = [c[:r] for c in endo.columns()[:r]]
        n_cols = [K.lattice_coordinates(lam, K.combine(e_free, col, r)) for col in lam]
        assert None not in n_cols
        for col in F.eventual_image_lattice(n_cols):
            w_free.append([sum(c * b[i] for c, b in zip(col, lam)) for i in range(r)])
    tblock = F.Subgroup.torsion_block(g)
    gens = list(anchor.intersection(tblock).generators)
    carrier = anchor.lattice_basis()
    tors_cols = [list(t) for t in tblock.generators]
    for w in w_free:
        target = list(w) + [0] * len(g.torsion)
        sol = K.solve(carrier + tors_cols, target)
        assert sol is not None
        lifted = list(target)
        for c, tcol in zip(sol[len(carrier):], tors_cols):
            for i in range(g.dim):
                lifted[i] -= c * tcol[i]
        gens.append(g.reduce(lifted))
    return F.Subgroup(g, gens)


def _oracle_endo(rng, i):
    # rank <= 5 and at most 2 torsion factors; every third case duplicates
    # a free column (singular free block), every other fixes a basis
    # vector (a unit factor t - 1, so W has a free part)
    g = random_group(rng, max_rank=5, factors=(2, 3, 4, 6, 8, 9), max_torsion=2)
    endo = random_hom(rng, g, g, bound=2)
    r = g.free_rank
    cols = [list(c) for c in zip(*endo.matrix)] if g.dim else []
    if r >= 2 and i % 3 == 0:
        a, b = rng.sample(range(r), 2)
        cols[b] = list(cols[a])
    if r >= 1 and i % 2 == 0:
        j = rng.randrange(r)
        cols[j] = [int(x == j) for x in range(g.dim)]
    return F.GroupHom(g, g, [list(row) for row in zip(*cols)] if g.dim else [])


def test_eventual_image_matches_the_walk_and_lift_reference():
    rng = random.Random(8108)
    free_part = singular = unstable = 0
    for i in range(2000):
        endo = _oracle_endo(rng, i)
        w = I.eventual_image(endo)
        assert w.lattice_basis() == _reference_eventual_image(endo).lattice_basis()
        free_part += I._free_rank(w) > 0
        r = endo.source.free_rank
        a_cols = [[endo.matrix[x][y] for x in range(r)] for y in range(r)]
        singular += K.kernel_columns(a_cols) != []
        unstable += I._image_chain(endo)[1] is not None
    assert min(free_part, singular, unstable) >= 300


def _counting(monkeypatch, module, name, calls):
    # wrap module.name so that each call is tallied in calls[name]
    fn = getattr(module, name)

    def counted(*args):
        calls[name] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)


def test_image_chain_index_comes_from_det_at_full_rank(monkeypatch):
    # det runs once on every walk of positive free rank, stable, full or
    # singular, and once more on a singular walk's restriction to its
    # rank-stable term C_nu when that term has positive free rank; at full
    # rank it is the index; the charpoly never runs, and the lattice push
    # stays the oracle
    calls = {"det": 0, "charpoly": 0}
    _counting(monkeypatch, K, "det", calls)
    _counting(monkeypatch, M, "charpoly", calls)
    rng = random.Random(1717)
    seen = {"stable": 0, "full": 0, "singular": 0}
    for i in range(600):
        endo = _oracle_endo(rng, i)
        stable, steps, anchor = _reference_image_chain(endo)
        index = None if stable else I._push(endo, anchor).index_in(anchor)
        calls.update(det=0, charpoly=0)
        assert I._image_chain(endo) == (steps, index)
        r = endo.source.free_rank
        a_cols = [col[:r] for col in endo.columns()[:r]]
        singular = r > 0 and K.kernel_columns(a_cols) != []
        # the anchor C_steps lies past C_nu, so it has C_nu's free rank
        dets = int(r > 0) + int(singular and I._free_rank(anchor) > 0)
        full = not stable and I._free_rank(anchor) == r
        kind = "stable" if stable else "full" if full else "singular"
        assert calls == {"det": dets, "charpoly": 0}
        seen[kind] += 1
    assert min(seen.values()) >= 80, seen


def _wide_endo(rng):
    # rank <= 8 and up to three torsion factors with long torsion chains
    factors = (2, 3, 4, 6, 8, 9, 12, 16, 27)
    g = random_group(rng, max_rank=8, factors=factors, max_torsion=3)
    return g, random_hom(rng, g, g, bound=2)


def test_image_chain_matches_the_lattice_reference_on_long_torsion_chains():
    rng = random.Random(1818)
    long_failing = singular = 0
    for _ in range(1500):
        g, endo = _wide_endo(rng)
        stable, steps, anchor = _reference_image_chain(endo)
        index = None if stable else I._push(endo, anchor).index_in(anchor)
        assert I._image_chain(endo) == (steps, index)
        long_failing += not stable and steps >= 3
        singular += I._free_rank(anchor) < g.free_rank
    assert long_failing >= 100 and singular >= 100, (long_failing, singular)


def _period_composite(rng, singular):
    # the period-p composite of random [-3, 3] maps on Z^r + T at rank
    # 32..40, p in 3..6 and 0..2 torsion factors; a singular one's first map
    # repeats a free column, so the composite's free block is singular
    r = rng.randint(32, 40)
    torsion = [rng.choice((2, 3, 4, 8, 9)) for _ in range(rng.randrange(3))]
    g = F.FgAbGroup.from_diagonal([0] * r + torsion)
    maps = [random_hom(rng, g, g, bound=3) for _ in range(rng.randint(3, 6))]
    if singular:
        cols = [list(c) for c in maps[0].columns()]
        a, b = rng.sample(range(r), 2)
        cols[b] = cols[a]
        maps[0] = F.GroupHom.from_columns(g, g, cols)
    return functools.reduce(F.GroupHom.compose, maps)


# sha256 of the (steps, index) pairs of `_image_chain` on the composites below
WALK_REFERENCE = "5258ed29a44fdc20680e12caab48303ce66dca75a20ca444234cf9f4822dbfba"


def test_image_chain_is_pinned_at_the_ranks_of_the_ml_walk():
    rng = random.Random(3240)
    endos = [_period_composite(rng, i % 4 == 0) for i in range(12)]
    walks = [I._image_chain(endo) for endo in endos]
    assert sum(I._free_det(endo) == 0 for endo in endos) == 3
    assert sum(steps >= 3 for steps, _index in walks) >= 2
    assert hashlib.sha256(repr(walks).encode()).hexdigest() == WALK_REFERENCE


def test_nonsingular_walk_reduces_one_lattice_of_positive_free_rank(monkeypatch):
    # a walk whose free block is nonsingular runs on the torsion part: a
    # failing one reduces Im(endo) and no other lattice of positive free
    # rank, whatever its number of steps, and a stable one none; a
    # reduction is a fresh Hermite basis or a fresh echelon pass
    reduced = []

    def counting(method):
        def counted(self):
            if self._basis is None and self.ambient.free_rank:
                reduced.append(self)
            return method(self)

        return counted

    monkeypatch.setattr(F.Subgroup, "lattice_basis", counting(F.Subgroup.lattice_basis))
    monkeypatch.setattr(F.Subgroup, "echelon_basis", counting(F.Subgroup.echelon_basis))
    rng = random.Random(2929)
    steps_seen = set()
    for _ in range(400):
        g, endo = _wide_endo(rng)
        r = g.free_rank
        if not r or not K.det([col[:r] for col in endo.columns()[:r]]):
            continue
        reduced.clear()
        steps, index = I._image_chain(endo)
        assert len(reduced) == (index is not None)
        if index is not None:
            assert reduced[0].lattice_basis() == F.image(endo).lattice_basis()
            steps_seen.add(steps)
    assert {1, 2, 3, 4} <= steps_seen, steps_seen


def test_ml_computes_one_determinant_per_tail_free_rank(monkeypatch):
    # tail levels of equal free rank share det A: is_mittag_leffler runs
    # det once per positive free rank of the tail, plus once per singular
    # level whose rank-stable chain term has positive free rank (its
    # restriction's det), and the value it hands each level's walk is that
    # level's own |det A|
    det = K.det
    calls = []
    monkeypatch.setattr(K, "det", lambda cols: calls.append(len(cols)) or det(cols))
    image_chain = I._image_chain
    handed = []
    monkeypatch.setattr(
        I, "_image_chain", lambda endo, d=None: handed.append((endo, d)) or image_chain(endo, d)
    )
    rng = random.Random(3131)
    shared = mixed = failing = 0
    for _ in range(600):
        s = random_cycle_system(
            rng,
            lambda r: random_group(r, max_rank=2, max_torsion=1),
            max_prefix=1,
            max_period=3,
        )
        calls.clear()
        handed.clear()
        cert = I.is_mittag_leffler(s)
        ranks = [s.group_at(s.prefix_len + 1 + j).free_rank for j in range(s.period)]
        positive = sorted({r for r in ranks if r})
        assert len(handed) == s.period
        restricted = []
        for endo, d in handed:
            r = endo.source.free_rank
            assert d == (abs(det([col[:r] for col in endo.columns()[:r]])) if r else 1)
            _stable, _steps, anchor = _reference_image_chain(endo)
            if not d and I._free_rank(anchor):
                restricted.append(I._free_rank(anchor))
        assert sorted(calls) == sorted(positive + restricted)
        # a shared |det A| >= 2 is cross-checked at every level it reaches
        shared += any(ranks.count(r) >= 2 and d >= 2 for r, (_e, d) in zip(ranks, handed))
        mixed += len(positive) >= 2
        failing += not cert.verdict
    assert min(shared, mixed, failing) >= 40, (shared, mixed, failing)


def _failing_cycles():
    # z_times(6), a mixed-prime Z^2 and Z + Z/4 with a torsion carry, then
    # two singular free blocks: Z^2 and Z^2 + Z/4 with a torsion carry
    yield z_times(6)
    yield I.constant_system(F.Z(2), [[2, 1], [0, 3]])
    yield I.constant_system(F.FgAbGroup.from_diagonal([0, 4]), [[5, 0], [1, 2]])
    yield I.constant_system(F.Z(2), [[2, 0], [0, 0]])
    yield I.constant_system(F.FgAbGroup.from_diagonal([0, 0, 4]), [[3, 0, 0], [0, 0, 0], [1, 1, 2]])


def test_ml_cross_check_catches_a_wrong_determinant(monkeypatch):
    det = K.det
    cycles = list(_failing_cycles())
    assert [I.is_mittag_leffler(s).failure_levels()[0].index for s in cycles] == [6, 6, 5, 2, 3]
    monkeypatch.setattr(K, "det", lambda cols: 2 * det(cols))
    for s in cycles:
        with pytest.raises(AssertionError, match="not a constant >= 2"):
            I.is_mittag_leffler(s)


def test_ml_cross_check_catches_a_wrong_lattice_index(monkeypatch):
    index_in = F.Subgroup.index_in

    def shifted(self, other):
        # off by one on the walk's lattices of positive rank only, so the
        # torsion index on the determinant side stays right
        index = index_in(self, other)
        return index + 1 if I._free_rank(self) else index

    monkeypatch.setattr(F.Subgroup, "index_in", shifted)
    for s in _failing_cycles():
        with pytest.raises(AssertionError, match="not a constant >= 2"):
            I.is_mittag_leffler(s)


def test_singular_walk_rejects_a_singular_restriction(monkeypatch):
    # the restriction to the rank-stable term has a nonsingular free block;
    # a det that reads 0 there too raises instead of restricting again
    monkeypatch.setattr(I, "_free_det", lambda endo: 0)
    endo = I.constant_system(F.Z(2), [[2, 0], [0, 0]]).map_between(1, 2)
    with pytest.raises(AssertionError, match="restriction is singular"):
        I._image_chain(endo)


def test_eventual_image_of_an_automorphism_skips_the_charpoly(monkeypatch):
    def refuse(*args):
        raise AssertionError("unimodular free block reached the unit part")

    monkeypatch.setattr(M, "charpoly", refuse)
    monkeypatch.setattr(M, "unit_part", refuse)
    rng = random.Random(12)
    n = 12
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for _ in range(48):
        a, b = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        cols[b] = [x + q * y for x, y in zip(cols[b], cols[a])]
    g = F.Z(n)
    endo = F.GroupHom(g, g, [list(row) for row in zip(*cols)])
    assert I.eventual_image(endo).is_full()
    z6 = I.constant_system(F.Z(6))
    assert I.eventual_image(z6.map_between(1, 2)).is_full()


def _change_of_basis(rng, g):
    # an automorphism of G = Z^r + T: a unimodular U on the free part and
    # a random hom Z^r -> T in the torsion rows; returns (phi, phi^-1)
    r = g.free_rank
    u = K.identity_matrix(r)
    for j in range(r):
        u[j][j] = rng.choice((-1, 1))
    for _ in range(3 * r if r >= 2 else 0):
        a, b = rng.sample(range(r), 2)
        q = rng.choice((-1, 1))
        for row in u:
            row[b] += q * row[a]
    cols = []
    for j in range(g.dim):
        col = [0] * g.dim
        if j < r:
            col[:r] = [u[i][j] for i in range(r)]
            col[r:] = [rng.randrange(d) for d in g.torsion]
        else:
            col[j] = 1
        cols.append(col)
    phi = F.GroupHom(g, g, [list(row) for row in zip(*cols)] if g.dim else [])
    inv = [F.solve_hom(phi, tuple(int(i == j) for i in range(g.dim))) for j in range(g.dim)]
    phi_inv = F.GroupHom(g, g, [list(row) for row in zip(*inv)] if g.dim else [])
    assert phi.compose(phi_inv) == F.GroupHom.identity(g)
    return phi, phi_inv


def _unit_factor_cycle(rng):
    # a period-1 cycle on Z^3 + Z/4 whose free block is diag(1, 2, 3) in a
    # seeded basis: its charpoly (t - 1)(t - 2)(t - 3) has the unit factor
    # t - 1 and |det| 6, so the eventual image needs the integer charpoly
    # and its unit part
    g = F.FgAbGroup(3, (4,))
    phi, phi_inv = _change_of_basis(rng, g)
    rows = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, rng.choice((1, 2, 3))]]
    endo = phi.compose(F.GroupHom(g, g, rows)).compose(phi_inv)
    junction = random_hom(rng, g, F.Z(2), bound=2)
    return I.InverseSystem([F.Z(2)], [junction], I.CycleTail((g,), (endo,)))


def test_verdicts_and_stable_images_survive_a_change_of_basis(monkeypatch):
    # every tail group of a cycle of period 1..3 is conjugated by its own
    # change of basis phi_j: map j becomes phi_j f_j phi_{j+1}^-1, and the
    # junction into the prefix absorbs phi_0^-1
    from prolim import classify as C

    calls = {"unit_part": 0}
    _counting(monkeypatch, M, "unit_part", calls)
    rng = random.Random(4096)
    moved = failing = 0
    for i in range(121):
        if i == 120:
            # the last cycle takes the fallback of the eventual image
            s = _unit_factor_cycle(rng)
            calls["unit_part"] = 0
        elif i % 2:
            s = random_mixed_cycle_system(rng, max_period=3)
        else:
            gen = functools.partial(random_small_group, max_rank=3)
            s = random_cycle_system(rng, gen, max_period=3)
        k, p = s.prefix_len, s.period
        groups = s.tail.groups
        bases = [_change_of_basis(rng, g) for g in groups]
        tail_maps = tuple(
            bases[j][0].compose(f).compose(bases[(j + 1) % p][1])
            for j, f in enumerate(s.tail.maps)
        )
        maps = list(s.maps)
        if k:
            maps[-1] = maps[-1].compose(bases[0][1])
        t = I.InverseSystem(s.prefix, maps, I.CycleTail(groups, tail_maps))
        assert C.classify_limit(t)[0] == C.classify_limit(s)[0]
        assert C.classify_kk(t, t) == C.classify_kk(s, s)
        cert = I.is_mittag_leffler(s)
        assert I.is_mittag_leffler(t).to_json() == cert.to_json()
        old, new = I.stable_images(s), I.stable_images(t)
        for j, (phi, _phi_inv) in enumerate(bases):
            pushed = I._push(phi, old[k + 1 + j])
            assert pushed.lattice_basis() == new[k + 1 + j].lattice_basis()
        for n in range(1, k + 1):
            assert new[n].lattice_basis() == old[n].lattice_basis()
        moved += any(phi != F.GroupHom.identity(g) for (phi, _), g in zip(bases, groups))
        if p >= 2:
            failing += len(cert.failure_levels())
    assert moved >= 60
    assert failing >= 20
    assert calls["unit_part"] >= 2
