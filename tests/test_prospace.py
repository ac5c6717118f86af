import gc
import itertools
import random

import pytest

from prolim import fgab as F
from prolim import invsys as I
from prolim import prospace as P
from prolim._backend import kernel as K
from prolim.errors import EnumerationCapExceeded, InputError, PreconditionError

from conftest import random_finite_cycle_system, random_tower_system


def z2_chain(levels=3):
    groups = [F.Zmod(2 ** n) for n in range(1, levels + 1)]
    maps = [
        F.GroupHom(groups[i + 1], groups[i], [[1]]) for i in range(levels - 1)
    ]
    return I.chain_system(groups, maps)


def test_coherence_checked_on_construction():
    ch = z2_chain()
    with pytest.raises(InputError):
        P.CoherentTuple(ch, [(0,), (1,)])
    t = P.CoherentTuple(ch, [(1,), (1,), (5,)])
    assert t.level == 3


def test_make_and_replace_check_coherence():
    ch = z2_chain()
    t = P.CoherentTuple(ch, [(1,), (1,), (5,)])
    assert t._replace(entries=[(1,), (3,)]) == P.CoherentTuple(ch, [(1,), (3,)])
    with pytest.raises(InputError, match="coherence fails"):
        t._replace(entries=[(0,), (1,)])
    with pytest.raises(InputError, match="coherence fails"):
        P.CoherentTuple._make((ch, [(1,), (2,)]))


def test_extend_examples():
    ch = z2_chain()
    t = P.extend(P.CoherentTuple(ch, [(1,)]), 3)
    assert t.entries == ((1,), (1,), (1,))  # minimal lift picks 1 each time
    assert P.extend(t, 3) is t
    sz = I.constant_system(F.Z(), [[2]])
    with pytest.raises(PreconditionError, match="level 2"):
        P.extend(P.CoherentTuple(sz, [(1,)]), 2)


def test_metric_examples():
    ch = z2_chain()
    x = P.CoherentTuple(ch, [(1,), (1,), (1,)])
    y = P.CoherentTuple(ch, [(1,), (1,), (5,)])
    d = P.metric(x, y)
    assert d.kind == "exact" and d.exponent == 3
    a = P.CoherentTuple(ch, [(1,), (1,)])
    b = P.CoherentTuple(ch, [(1,), (1,)])
    d2 = P.metric(a, b)
    assert d2.kind == "at_most" and d2.exponent == 2
    stab = I.constant_system(F.Zmod(2))
    u = P.CoherentTuple(stab, [(1,), (1,)])
    v = P.CoherentTuple(stab, [(1,), (1,)])
    assert P.metric(u, v).kind == "zero"
    with pytest.raises(InputError):
        P.metric(x, u)


def _live_systems():
    gc.collect()
    return sum(isinstance(o, I.InverseSystem) for o in gc.get_objects())


def test_metric_does_not_keep_systems_alive():
    before = _live_systems()
    for _ in range(3):
        stab = I.constant_system(F.Zmod(2))
        u = P.CoherentTuple(stab, [(1,), (1,)])
        assert P.metric(u, u).kind == "zero"
    del stab, u
    assert _live_systems() == before


def test_metric_surjectivizes_once_per_system(monkeypatch):
    calls = []
    real = I.surjectivize

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(I, "surjectivize", counting)
    stab = I.constant_system(F.Zmod(2))
    u = P.CoherentTuple(stab, [(1,), (1,)])
    assert P.metric(u, u).kind == "zero"
    assert P.metric(u, u).kind == "zero"
    assert calls == [stab]


def _exact_triples(system, level, rng, count):
    tuples = P.enumerate_tuples(system, level)
    for _ in range(count):
        yield rng.choice(tuples), rng.choice(tuples), rng.choice(tuples)


def test_metric_axioms_on_random_triples(rng):
    ch = z2_chain(4)
    for x, y, z in _exact_triples(ch, 4, rng, 300):
        dxy = P.metric(x, y)
        dyx = P.metric(y, x)
        assert dxy == dyx  # symmetry
        dxz = P.metric(x, z)
        dyz = P.metric(y, z)
        # triangle and ultrametric inequalities on upper bounds
        assert dxz.upper() <= dxy.upper() + dyz.upper() + 1e-12
        assert dxz.upper() <= max(dxy.upper(), dyz.upper()) + 1e-12


def test_ball_cylinder_identity_exhaustive():
    ch = z2_chain(3)
    all3 = P.enumerate_tuples(ch, 3)
    assert len(all3) == 8
    for n in (2, 3):
        for x in all3:
            ball = {
                y
                for y in all3
                if P.metric(x, y).kind != "exact" or P.metric(x, y).exponent >= n
            }
            cyl = P.cylinder_of(x, n - 1)
            assert ball == {y for y in all3 if cyl.contains(y)}
            assert ball == {y for y in all3 if P.ball(x, n).contains(y)}
    # radius 1/2 is the whole space; larger radii are not in the basis
    for x in all3:
        assert all(P.ball(x, 1).contains(y) for y in all3)
    with pytest.raises(PreconditionError):
        P.ball(all3[0], 0)


def test_cylinder_examples():
    ch = z2_chain(3)
    x = P.CoherentTuple(ch, [(1,), (1,), (1,)])
    c = P.cylinder_of(x, 2)
    members = [t for t in P.enumerate_tuples(ch, 3) if c.contains(t)]
    assert len(members) == 2  # two of the eight level-3 tuples pass through
    assert c.contains(x)
    with pytest.raises(PreconditionError):
        P.cylinder_of(x, 4)


def test_dense_family_examples():
    tower = I.tower_system(F.Zmod(2), [F.Zmod(2)])
    fam = P.dense_family(tower, 2)
    assert {t.entries[1] for t in fam} == {
        e for e in tower.group_at(2).elements()
    }
    trivial = I.constant_system(F.ZERO_GROUP)
    fam0 = P.dense_family(trivial, 2)
    assert len(fam0) == 1
    capped = P.dense_family(I.constant_system(F.Z()), 1, cap=5)
    assert [t.entries[0] for t in capped] == [(0,), (1,), (-1,), (2,), (-2,)]
    with pytest.raises(EnumerationCapExceeded):
        P.dense_family(I.constant_system(F.Z()), 2, cap=3)


def test_deep_levels_meet_the_cap_before_anything_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("a tower level was built or a tuple lifted")

    tower = I.tower_system(F.Zmod(2), [F.Zmod(2)])
    with monkeypatch.context() as m:
        m.setattr(I, "direct_sum", refuse)
        m.setattr(P, "extend", refuse)
        needs = {1000: 2**1000, 100_000: r"at least 10\^4300"}
        for level, count in needs.items():
            with pytest.raises(
                EnumerationCapExceeded,
                match=f"^level-{level} tuple enumeration needs {count} items, cap is 10000$",
            ):
                P.enumerate_tuples(tower, level)
        # level j has 2^j elements: 8190 through level 12, 16382 through 13
        for budget in (13, 10**6):
            with pytest.raises(
                EnumerationCapExceeded,
                match="^dense family would exceed the enumeration cap 10000$",
            ):
                P.dense_family(tower, budget)
        # one level over the cap is refused as `elements_capped` refuses it
        with pytest.raises(EnumerationCapExceeded, match="^enumeration cap 10 exceeded$"):
            P.dense_family(I.tower_system(F.Zmod(2), [F.Zmod(16)]), 5, cap=10)
    assert len(P.dense_family(tower, 4)) == 2**4


def test_dense_family_counts_the_cap_before_a_missing_preimage():
    # doubling on Z/4 leaves 1 without a preimage; the cap is checked first
    doubling = I.constant_system(F.Zmod(4), [[2]])
    with pytest.raises(PreconditionError, match="no preimage at level 2"):
        P.dense_family(doubling, 2)
    with pytest.raises(EnumerationCapExceeded, match="exceed the enumeration cap 7$"):
        P.dense_family(doubling, 2, cap=7)


def test_each_bonding_map_is_reduced_once_per_system(monkeypatch):
    # one cofactor Hermite reduction per bonding map lifted through, shared
    # by every later `extend` on the same system
    calls = []
    real = K.cofactor_hermite

    def counting(cols, m):
        calls.append(m)
        return real(cols, m)

    monkeypatch.setattr(K, "cofactor_hermite", counting)
    tower = I.tower_system(F.Zmod(2), [F.Zmod(2)])
    assert len(P.dense_family(tower, 6)) == 2**6
    assert calls == [1, 2, 3, 4, 5]
    top = P.CoherentTuple.from_top(tower, 2, (1, 1))
    assert P.extend(top, 6).entries == P.extend(top, 6).entries
    assert calls == [1, 2, 3, 4, 5]
    assert P.extend(top, 8).level == 8
    assert calls == [1, 2, 3, 4, 5, 6, 7]


def test_dense_family_hits_every_level_element(rng):
    for _ in range(10):
        s = random_tower_system(rng, max_prefix=0)
        try:
            fam = P.dense_family(s, 3, cap=2000)
        except EnumerationCapExceeded:
            continue
        for j in (1, 2, 3):
            hit = {t.entries[j - 1] for t in fam}
            assert hit == set(s.group_at(j).elements())


def test_separating_clopen():
    ch = z2_chain(3)
    x = P.CoherentTuple(ch, [(1,), (1,), (1,)])
    y = P.CoherentTuple(ch, [(1,), (1,), (5,)])
    c = P.separating_clopen(x, y)
    assert c.level == 3 and c.contains(y) and not c.contains(x)
    with pytest.raises(PreconditionError):
        P.separating_clopen(x, x)
    # difference at level 1 separates immediately
    z = P.CoherentTuple(ch, [(0,), (0,), (0,)])
    c1 = P.separating_clopen(z, x)
    assert c1.level == 1


def test_cauchy_limit_examples():
    tower = I.tower_system(F.Zmod(2), [F.Zmod(2)])
    base = P.extend(P.CoherentTuple(tower, [(1,)]), 5)
    seq = [base] * 4
    lim = P.cauchy_limit(seq, 4)
    assert lim.entries == base.entries[:4]
    # diagonal-style: agree on ever more levels
    tuples = P.enumerate_tuples(tower, 5)
    stair = [t for t in tuples if t.entries[:2] == base.entries[:2]][:3] + [base, base]
    lim2 = P.cauchy_limit(stair, 2)
    assert lim2.entries == base.entries[:2]
    other = next(t for t in tuples if t.entries[0] != base.entries[0])
    with pytest.raises(PreconditionError):
        P.cauchy_limit([base, other, base, other], 1)


def test_sum_of_coherent_tuples_is_coherent(rng):
    for _ in range(10):
        s = random_finite_cycle_system(rng)
        try:
            tuples = P.enumerate_tuples(s, 3, cap=300)
        except EnumerationCapExceeded:
            continue
        for _ in range(10):
            a, b = rng.choice(tuples), rng.choice(tuples)
            c = P.add_tuples(a, b)  # constructor re-checks coherence
            assert c.level == 3


def test_cofinal_bijection_on_cycles(rng):
    for _ in range(10):
        s = random_finite_cycle_system(rng)
        stride = rng.choice((2, 3))
        r = I.restrict_cofinal(s, stride)
        level = 2 * stride
        try:
            originals = P.enumerate_tuples(s, level, cap=500)
        except EnumerationCapExceeded:
            continue
        mapped = {P.restrict_tuple(s, r, stride, 0, t).entries for t in originals}
        target = {t.entries for t in P.enumerate_tuples(r, 2, cap=500)}
        assert mapped == target
        assert len(mapped) == len({t.entries for t in originals})
        for t in originals[:10]:
            rt = P.restrict_tuple(s, r, stride, 0, t)
            back = P.unrestrict_tuple(s, r, stride, 0, rt, level)
            assert back.entries == t.entries


def test_cofinal_bijection_on_towers():
    tower = I.tower_system(F.Zmod(2), [F.Zmod(2), F.Zmod(3)])
    r = I.restrict_cofinal(tower, 2)
    originals = P.enumerate_tuples(tower, 4)
    mapped = {P.restrict_tuple(tower, r, 2, 0, t).entries for t in originals}
    assert len(mapped) == len(originals)
    assert mapped == {t.entries for t in P.enumerate_tuples(r, 2)}
    for t in originals[:8]:
        rt = P.restrict_tuple(tower, r, 2, 0, t)
        back = P.unrestrict_tuple(tower, r, 2, 0, rt, 4)
        assert back.entries == t.entries


def test_surjectivization_preserves_extendable_counts(rng):
    # extendable level-N tuples of s match all level-N tuples of the
    # surjectivized system, exactly
    for _ in range(15):
        s = random_finite_cycle_system(rng)
        so = I.surjectivize(s)
        n = s.prefix_len + s.period + 1
        horizon = n + 4 * s.period
        im = F.image(s.map_between(n, horizon))
        assert im.normal_form.order() == so.group_at(n).order()
