import random

import pytest

from prolim import fgab as F
from prolim import topgrp as T
from prolim.errors import InputError

from conftest import abelian_groups_upto, all_subgroups, invariant_factor_chains


def mask_of(top, elems):
    m = 0
    for e in elems:
        m |= 1 << top.index[tuple(e)]
    return m


def all_opens(top):
    """Every open of `top`: the unions of its minimal neighborhoods."""
    opens = {0}
    for b in top.basis_masks():
        opens |= {m | b for m in opens}
    return opens


def min_nbhds_of(opens, n):
    """The minimal neighborhoods of an open family on n points: for each
    point, the intersection of the opens that contain it."""
    mn = []
    for i in range(n):
        m = (1 << n) - 1
        for u in opens:
            if u >> i & 1:
                m &= u
        mn.append(m)
    return mn


def mixed_space():
    a = T.FiniteTopAbGroup.discrete(F.Zmod(2))
    b = T.FiniteTopAbGroup.indiscrete(F.Zmod(3))
    return T.FiniteTopAbGroup.product(a, b)


def test_product_of_discrete_spaces_is_discrete():
    # the minimal neighborhoods of a product are the rectangles of its
    # coordinates' ones: singletons here, so all 64 subsets of Z/2 + Z/3 are
    # open, not only the 22 rectangles U x V of opens
    a = T.FiniteTopAbGroup.discrete(F.Zmod(2))
    b = T.FiniteTopAbGroup.discrete(F.Zmod(3))
    prod = T.FiniteTopAbGroup.product(a, b)
    assert prod.min_nbhds == T.FiniteTopAbGroup.discrete(prod.group).min_nbhds
    assert all_opens(prod) == set(range(64))
    checked = T.FiniteTopAbGroup.from_opens(prod.group, all_opens(prod))
    assert checked.min_nbhds == prod.min_nbhds


def test_validator_accepts_coset_topology():
    # re-validate every constructed coset family explicitly
    for g in abelian_groups_upto(8):
        for sub in all_subgroups(g):
            top = T.FiniteTopAbGroup.from_subgroup(g, sub)
            assert T.FiniteTopAbGroup.from_opens(g, all_opens(top)).min_nbhds == top.min_nbhds
    prod = mixed_space()
    assert T.FiniteTopAbGroup.from_opens(prod.group, all_opens(prod)).min_nbhds == prod.min_nbhds


def test_validator_rejects_non_topologies():
    g = F.Zmod(4)
    full = (1 << 4) - 1
    with pytest.raises(InputError, match="empty set"):
        T.FiniteTopAbGroup.from_opens(g, [0b0001, full])
    with pytest.raises(InputError, match="not closed under union"):
        T.FiniteTopAbGroup.from_opens(g, [0, 0b0011, 0b0110, full])
    # unions of {0,1} and its translates: not translation invariant
    with pytest.raises(InputError, match="translation does not preserve"):
        T.FiniteTopAbGroup.from_opens(g, [0, 0b0011, full])
    with pytest.raises(InputError, match="finite groups only"):
        T.FiniteTopAbGroup.from_opens(F.Z(), [0])
    # every singleton open, but not every subset
    with pytest.raises(InputError, match="forces the discrete topology"):
        T.FiniteTopAbGroup.from_opens(g, [0, 0b0001, 0b0010, 0b0100, 0b1000, full])
    # the 2^13 unions of the cosets of {0, 13} in Z/26: a group topology, but
    # past the cap on explicit non-discrete families
    z26 = F.Zmod(26)
    cosets = T.FiniteTopAbGroup.from_subgroup(z26, [(0,), (13,)])
    big = all_opens(cosets)
    assert len(big) == 1 << 13
    with pytest.raises(InputError, match="too large"):
        T.FiniteTopAbGroup.from_opens(z26, big)
    with pytest.raises(InputError, match="must contain zero"):
        T.FiniteTopAbGroup.from_subgroup(g, [(2,)])


@pytest.mark.parametrize(
    "build",
    [
        T.FiniteTopAbGroup.discrete,
        T.FiniteTopAbGroup.indiscrete,
        lambda g: T.FiniteTopAbGroup.from_subgroup(g, [(0,)]),
    ],
    ids=["discrete", "indiscrete", "from_subgroup"],
)
def test_named_constructors_reject_an_infinite_group(build):
    with pytest.raises(InputError, match="finite groups only"):
        build(F.Z())


def test_closure_of_zero_examples():
    disc = T.FiniteTopAbGroup.discrete(F.Zmod(4))
    sub, elems = T.closure_of_zero(disc)
    assert elems == [(0,)]
    ind = T.FiniteTopAbGroup.indiscrete(F.Zmod(4))
    _sub, elems = T.closure_of_zero(ind)
    assert len(elems) == 4
    prod = mixed_space()
    _sub, elems = T.closure_of_zero(prod)
    assert len(elems) == 3  # {0} x Z/3


def test_quotient_topology_discrete():
    ind = T.FiniteTopAbGroup.indiscrete(F.Zmod(2))
    q, _proj, _pm = T.quotient_topology(ind)
    assert q.group.is_trivial()
    disc = T.FiniteTopAbGroup.discrete(F.Zmod(4))
    q2, _p, _m = T.quotient_topology(disc)
    assert q2.group == F.Zmod(4)
    prod = mixed_space()
    q3, _p3, _m3 = T.quotient_topology(prod)
    assert q3.group == F.Zmod(2)


def test_splitting_check_trivial_cases():
    ind = T.FiniteTopAbGroup.indiscrete(F.Zmod(2))
    for s in T.SplittingContext(ind).sections():
        assert T.splitting_check(ind, s).ok
    disc = T.FiniteTopAbGroup.discrete(F.Zmod(4))
    secs = list(T.SplittingContext(disc).sections())
    assert len(secs) == 1  # the identity section
    assert T.splitting_check(disc, secs[0]).ok


def test_splitting_check_mixed_all_sections():
    prod = mixed_space()
    ctx = T.SplittingContext(prod)
    results = [T.splitting_check(prod, s, ctx) for s in ctx.sections()]
    assert len(results) == 9
    assert all(r.ok for r in results)


def test_sandwich_identity_is_checked_once_per_context(monkeypatch):
    prod = mixed_space()
    ctx = T.SplittingContext(prod)
    masks = []
    map_bits = T._map_bits

    def counted(table, mask):
        masks.append(mask)
        return map_bits(table, mask)

    monkeypatch.setattr(T, "_map_bits", counted)
    per_section = []
    for sec in ctx.sections():
        masks.clear()
        rep = T.splitting_check(prod, sec, ctx)
        assert rep.ok
        assert rep.opens_checked == len(ctx.basis) + len(ctx.inverse_masks) + len(ctx.sandwich)
        per_section.append(len(masks))
    fixed = len(ctx.basis) + len(ctx.inverse_masks)
    assert per_section == [fixed + len(ctx.sandwich)] + [fixed] * 8


def test_splitting_check_rejects_non_section():
    prod = mixed_space()
    ctx = T.SplittingContext(prod)
    sec = next(ctx.sections())
    table = dict(sec.table)
    qs = sorted(table)
    # swap two representatives so projections no longer match
    table[qs[0]], table[qs[1]] = table[qs[1]], table[qs[0]]
    with pytest.raises(InputError):
        T.splitting_check(prod, T.SectionMap(table), ctx)


def test_translated_basis_examples():
    disc = T.FiniteTopAbGroup.discrete(F.Zmod(3))
    zero_only = [1 << disc.index[(0,)]]
    assert T.translated_basis_check(disc, zero_only)
    ind = T.FiniteTopAbGroup.indiscrete(F.Zmod(3))
    assert T.translated_basis_check(ind, [ind.full_mask])
    prod = mixed_space()
    _s, elems = T.closure_of_zero(prod)
    basis = [mask_of(prod, elems)]
    assert T.translated_basis_check(prod, basis)
    with pytest.raises(InputError):
        T.translated_basis_check(disc, [mask_of(disc, [(1,)])])


def test_opens_are_unions_of_cosets_for_every_coset_topology():
    for g in abelian_groups_upto(8):
        for sub in all_subgroups(g):
            top = T.FiniteTopAbGroup.from_subgroup(g, sub)
            _cl, elems = T.closure_of_zero(top)
            assert sorted(elems) == sorted(sub)
            sub_set = set(sub)
            for u in all_opens(top):
                members = {tuple(e) for e in top.elems_of(u)}
                for e in list(members):
                    coset = {g.add(e, x) for x in sub_set}
                    assert coset <= members


def test_subgroup_enumeration_counts():
    # Z/2 x Z/2 has 5 subgroups; Z/8 has 4; (Z/2)^3 has 16
    assert len(all_subgroups(F.Zmod(2, 2))) == 5
    assert len(all_subgroups(F.Zmod(8))) == 4
    assert len(all_subgroups(F.FgAbGroup(0, (2, 2, 2)))) == 16


def test_invariant_factor_chains():
    assert invariant_factor_chains(16) == [
        [2, 2, 2, 2],
        [2, 2, 4],
        [2, 8],
        [4, 4],
        [16],
    ]
    assert sum(1 for _ in abelian_groups_upto(16)) == 25


# -- references: the verifier before it checked at minimal neighborhoods ---


def _reference_translated_basis_check(g, basis_masks):
    # walks every open around every point
    zero_i = g.index[g.group.zero()]
    for v in basis_masks:
        if not (v >> zero_i & 1):
            raise InputError("basis member does not contain zero")
        if not g.is_open(v):
            raise InputError("basis member is not open")
    opens = all_opens(g)
    for u in opens:
        if u >> zero_i & 1 and not any(v & ~u == 0 for v in basis_masks):
            raise InputError("not a neighborhood basis at zero")
    for gi, gv in enumerate(g.elements):
        for u in opens:
            if not (u >> gi & 1):
                continue
            if not any(g.translate_mask(gv, v) & ~u == 0 for v in basis_masks):
                return False
    return True


def _naive_bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _reference_splitting_check(g, section):
    # the per-section loop: the subspace topology of cl{0}, the pair
    # neighborhoods and both sides of the preimage identity are rebuilt for
    # every section, and every open of G is scanned
    cl_sub, cl_elems = T.closure_of_zero(g)
    _qg, proj = F.quotient(g.group, cl_sub)
    cl_set = [tuple(e) for e in cl_elems]
    cl_index = {h: i for i, h in enumerate(cl_set)}
    elem_q = {e: proj.apply(e) for e in g.elements}
    q_elems = sorted(set(elem_q.values()))
    q_index = {q: i for i, q in enumerate(q_elems)}
    nc = len(cl_set)
    cl_opens = set()
    for u in all_opens(g):
        m = 0
        for h in cl_set:
            if u >> g.index[h] & 1:
                m |= 1 << cl_index[h]
        cl_opens.add(m)
    cl_min = []
    for h in cl_set:
        m = (1 << nc) - 1
        for u in cl_opens:
            if u >> cl_index[h] & 1:
                m &= u
        cl_min.append(m)
    pairs = [(q, h) for q in q_elems for h in cl_set]
    pair_min = []
    for q, h in pairs:
        m = 0
        for j in _naive_bits(cl_min[cl_index[h]]):
            m |= 1 << (q_index[q] * nc + j)
        pair_min.append(m)
    pair_col = [((1 << nc) - 1) << (qi * nc) for qi in range(len(q_elems))]
    zero_i = g.index[g.group.zero()]
    basic_at_zero = sorted({u for u in g.basis_masks() if u >> zero_i & 1} | {g.full_mask})

    for qe in q_elems:
        if elem_q[section(qe)] != qe:
            raise InputError("not a section of the quotient map")
    f_elem = []
    elem_pair = [-1] * len(g.elements)
    for i, (q, h) in enumerate(pairs):
        ei = g.index[g.group.add(section(q), h)]
        f_elem.append(ei)
        elem_pair[ei] = i
    bijective = len(set(f_elem)) == len(g.elements) == len(pairs)

    def pre_mask(elem_mask):
        m = 0
        for i in _naive_bits(elem_mask):
            m |= 1 << elem_pair[i]
        return m

    opens_checked = 0
    forward = True
    for u in g.basis_masks():
        opens_checked += 1
        pm = pre_mask(u)
        if any(pair_min[i] & ~pm for i in _naive_bits(pm)):
            forward = False
            break
    inverse = True
    for qi in range(len(q_elems)):
        for cm in sorted(set(cl_min)):
            img = 0
            for j in _naive_bits(cm):
                img |= 1 << f_elem[qi * nc + j]
            opens_checked += 1
            if not g.is_open(img):
                inverse = False
                break
        if not inverse:
            break
    sandwich = True
    for gv in g.elements:
        for u in basic_at_zero:
            shifted = g.translate_mask(gv, u)
            rhs = 0
            for i in _naive_bits(shifted):
                rhs |= pair_col[q_index[elem_q[g.elements[i]]]]
            opens_checked += 1
            if pre_mask(shifted) != rhs:
                sandwich = False
                break
        if not sandwich:
            break
    return T.SplittingReport(bijective, forward, inverse, sandwich, opens_checked)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InputError, AssertionError) as exc:
        return type(exc), str(exc)


def _random_family(rng, group):
    # the union/intersection closure of a few random sets: a topology, but
    # in general not a group topology
    full = (1 << group.order()) - 1
    return _closed({0, full} | {rng.randrange(full + 1) for _ in range(rng.randrange(1, 4))})


def _closed(opens):
    """The union/intersection closure of a family of masks."""
    while True:
        new = {a | b for a in opens for b in opens} | {a & b for a in opens for b in opens}
        if new <= opens:
            return opens
        opens |= new


def _random_topology(rng, group):
    # stored unchecked, so the splitting checks can fail
    return T.FiniteTopAbGroup(group, min_nbhds_of(_random_family(rng, group), group.order()))


def _spaces():
    for g in abelian_groups_upto(8):
        for sub in all_subgroups(g):
            yield T.FiniteTopAbGroup.from_subgroup(g, sub)
    yield mixed_space()
    rng = random.Random(907)
    for _ in range(150):
        group = rng.choice([F.Zmod(2), F.Zmod(3), F.Zmod(4), F.Zmod(2, 2), F.Zmod(6), F.Zmod(2, 4)])
        yield _random_topology(rng, group)


def test_bits_matches_the_naive_loop():
    rng = random.Random(31)
    masks = [0, 1, 2, 3, 1 << 70] + [rng.getrandbits(rng.randrange(1, 200)) for _ in range(500)]
    for m in masks:
        assert list(T._bits(m)) == _naive_bits(m)


def test_splitting_check_matches_the_per_section_reference():
    reports = failing = 0
    for top in _spaces():
        try:
            ctx = T.SplittingContext(top)
        except AssertionError:
            continue
        for sec in ctx.sections():
            rep = T.splitting_check(top, sec, ctx)
            assert rep.to_json() == _reference_splitting_check(top, sec).to_json()
            reports += 1
            failing += not rep.ok
        sec = next(ctx.sections())
        table = dict(sec.table)
        if len(table) > 1:
            a, b = sorted(table)[:2]
            table[a], table[b] = table[b], table[a]
            bad = T.SectionMap(table)
            assert _outcome(T.splitting_check, top, bad, ctx) == _outcome(
                _reference_splitting_check, top, bad
            )
    assert reports >= 500 and failing >= 100


def test_translated_basis_check_matches_the_all_opens_reference():
    rng = random.Random(4417)
    outcomes = set()
    for top in _spaces():
        n = len(top.elements)
        candidates = [[m] for m in range(1 << n)] + [[]]
        opens = sorted(all_opens(top))
        for _ in range(20):
            candidates.append(rng.sample(opens, min(len(opens), rng.randrange(1, 4))))
            candidates.append([rng.randrange(1 << n) for _ in range(rng.randrange(1, 4))])
        for cand in candidates:
            got = _outcome(T.translated_basis_check, top, cand)
            assert got == _outcome(_reference_translated_basis_check, top, cand)
            outcomes.add(got if isinstance(got, bool) else got[1])
    assert outcomes == {
        True,
        False,
        "basis member does not contain zero",
        "basis member is not open",
        "not a neighborhood basis at zero",
    }


# -- references: the open families the class stored before it kept only ----
# -- minimal neighborhoods -------------------------------------------------


def _reference_coset_opens(group, sub):
    # every union of N-cosets
    elements = list(group.elements())
    index = {e: i for i, e in enumerate(elements)}
    seen = set()
    coset_masks = []
    for e in elements:
        if e in seen:
            continue
        coset = {group.add(e, s) for s in sub}
        seen |= coset
        coset_masks.append(sum(1 << index[c] for c in coset))
    opens = [0]
    for cm in coset_masks:
        opens += [m | cm for m in opens]
    return set(opens)


def _reference_product_opens(a, a_opens, b, b_opens):
    # the rectangles U x V of opens, closed under unions (a rectangle already
    # in the union-closed family adds nothing)
    g, _incs, (pa, pb) = F.direct_sum(a.group, b.group)
    elements = list(g.elements())
    index = {e: i for i, e in enumerate(elements)}

    def rect(ua, ub):
        ua_set = set(a.elems_of(ua))
        ub_set = set(b.elems_of(ub))
        return sum(
            1 << index[e] for e in elements if pa.apply(e) in ua_set and pb.apply(e) in ub_set
        )

    opens = {0}
    for r in sorted({rect(ua, ub) for ua in a_opens for ub in b_opens}):
        if r not in opens:
            opens |= {m | r for m in opens}
    return g, opens


def _reference_closure_of_zero(top, opens):
    # the intersection of the closed sets around zero
    zero_bit = 1 << top.index[top.group.zero()]
    cl = top.full_mask
    for u in opens:
        c = top.full_mask & ~u
        if c & zero_bit:
            cl &= c
    elems = top.elems_of(cl)
    if any(top.group.sub(a, b) not in elems for a in elems for b in elems):
        raise AssertionError("closure of zero is not a subgroup")
    return elems


def _closure_elems(top):
    return T.closure_of_zero(top)[1]


def _assert_matches_opens(top, opens):
    assert top.min_nbhds == min_nbhds_of(opens, len(top.elements))
    assert _outcome(_closure_elems, top) == _outcome(_reference_closure_of_zero, top, opens)


def test_minimal_neighborhoods_match_the_open_family_references():
    small = []
    for g in abelian_groups_upto(8):
        for sub in all_subgroups(g):
            top = T.FiniteTopAbGroup.from_subgroup(g, sub)
            opens = _reference_coset_opens(g, sub)
            _assert_matches_opens(top, opens)
            if g.order() <= 4:
                small.append((top, opens))
    assert len(small) == 13
    for a, a_opens in small:
        for b, b_opens in small:
            prod = T.FiniteTopAbGroup.product(a, b)
            g, opens = _reference_product_opens(a, a_opens, b, b_opens)
            assert prod.group == g
            _assert_matches_opens(prod, opens)
    for top in _spaces():
        _assert_matches_opens(top, all_opens(top))


def _reference_subtraction_is_continuous(g):
    # the differences of mn[a] and mn[b] must lie in every open around
    # a - b, that is, in their intersection mn[a - b]
    mn = g.min_nbhds
    neg = [g.index[g.group.neg(e)] for e in g.elements]
    neg_mn = [T._map_bits(neg, m) for m in mn]
    n = len(g.elements)
    for ai in range(n):
        for bi in range(n):
            diffs = 0
            for xi in T._bits(mn[ai]):
                diffs |= T._map_bits(g.add[xi], neg_mn[bi])
            if diffs & ~mn[g.add[ai][neg[bi]]]:
                return False
    return True


def test_from_opens_accepts_only_families_with_continuous_subtraction():
    # translation invariance makes mn[0] a subgroup and the topology its
    # coset topology, so a continuity check after it could never fail.
    # Half of the families are random; the others are coset families, half
    # of them with one random set added, so both outcomes are frequent.
    rng = random.Random(2203)
    groups = [(g, all_subgroups(g)) for g in abelian_groups_upto(8)]
    accepted = rejected = proper = 0
    for _ in range(1000):
        group, subs = rng.choice(groups)
        if rng.random() < 0.5:
            family = _random_family(rng, group)
        else:
            family = _reference_coset_opens(group, rng.choice(subs))
            if rng.random() < 0.5:
                family = _closed(family | {rng.randrange(1 << group.order())})
        try:
            top = T.FiniteTopAbGroup.from_opens(group, family)
        except InputError as exc:
            assert str(exc) == "translation does not preserve opens"
            rejected += 1
            continue
        assert top.min_nbhds == min_nbhds_of(family, group.order())
        assert _reference_subtraction_is_continuous(top)
        accepted += 1
        # neither discrete nor indiscrete
        proper += 2 < len(family) < 1 << group.order()
    assert accepted >= 300 and rejected >= 300 and proper >= 50
