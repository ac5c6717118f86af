"""Finite topological abelian groups and the product-splitting verifier.

Topologies are explicit open-set families over the element set of a finite
group, stored as integer bitmasks.  The checks are exhaustive over
elements and sections, and exact over opens: a finite topology is
determined by its minimal neighborhoods.  The minimal neighborhood of a
point is the smallest open containing it, so a condition on every open
around a point is checked at that one set (basis checks run at minimal
neighborhoods), and the splitting checks run over the minimal-open basis,
which generates every open under unions.
"""

import itertools
from collections import namedtuple

from prolim import fgab
from prolim.errors import InputError
from prolim.fgab import FgAbGroup, Subgroup


def _bits(mask):
    """Indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _map_bits(table, mask):
    """The mask with bit table[i] set for every bit i set in `mask`."""
    out = 0
    for i in _bits(mask):
        out |= 1 << table[i]
    return out


class FiniteTopAbGroup:
    """A finite abelian group with a validated group topology."""

    __slots__ = (
        "group",
        "elements",
        "index",
        "opens",
        "full_mask",
        "add",
        "neg",
        "_min_nbhd",
    )

    def __init__(self, group, opens_masks, validate=True, min_nbhds_hint=None):
        if not group.is_finite():
            raise InputError("topologies are stored for finite groups only")
        elements = list(group.elements())
        index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        full = (1 << n) - 1
        opens = frozenset(opens_masks)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "opens", opens)
        object.__setattr__(self, "full_mask", full)
        add = [
            [index[group.add(a, b)] for b in elements] for a in elements
        ]
        neg = [index[group.neg(a)] for a in elements]
        object.__setattr__(self, "add", add)
        object.__setattr__(self, "neg", neg)
        object.__setattr__(self, "_min_nbhd", min_nbhds_hint)
        if validate:
            self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("FiniteTopAbGroup is immutable")

    # -- masks ---------------------------------------------------------

    def elems_of(self, mask):
        return [self.elements[i] for i in _bits(mask)]

    def translate_mask(self, g, mask):
        return _map_bits(self.add[self.index[tuple(g)]], mask)

    # -- axioms ---------------------------------------------------------

    def _validate(self):
        n = len(self.elements)
        opens = self.opens
        if 0 not in opens or self.full_mask not in opens:
            raise InputError("opens must contain the empty set and the whole set")
        singletons = all((1 << i) in opens for i in range(n))
        if singletons:
            if len(opens) != 1 << n:
                raise InputError("all singletons open forces the discrete topology")
        else:
            if len(opens) > 4096:
                raise InputError("open family too large to validate explicitly")
            for a in opens:
                for b in opens:
                    if (a | b) not in opens or (a & b) not in opens:
                        raise InputError("opens not closed under union/intersection")
        for g in self.elements:
            for u in opens:
                if self.translate_mask(g, u) not in opens:
                    raise InputError("translation does not preserve opens")
        # continuity of (x, y) -> x - y via minimal product neighborhoods:
        # the differences of mn[a] and mn[b] must lie in every open around
        # a - b, that is, in their intersection mn[a - b]
        mn = self.min_nbhds()
        neg_mn = [_map_bits(self.neg, m) for m in mn]
        for ai in range(n):
            for bi in range(n):
                diffs = 0
                for xi in _bits(mn[ai]):
                    diffs |= _map_bits(self.add[xi], neg_mn[bi])
                if diffs & ~mn[self.add[ai][self.neg[bi]]]:
                    raise InputError("subtraction is not continuous")

    def min_nbhds(self):
        """mask of the minimal open neighborhood of each element."""
        cached = self._min_nbhd
        if cached is not None:
            return cached
        n = len(self.elements)
        mn = []
        for i in range(n):
            m = self.full_mask
            for u in self.opens:
                if u >> i & 1:
                    m &= u
            mn.append(m)
        object.__setattr__(self, "_min_nbhd", mn)
        return mn

    def basis_masks(self):
        """The minimal-open basis (every open is a union of these)."""
        return sorted(set(self.min_nbhds()))

    def is_open(self, mask):
        if mask in self.opens:
            return True
        # unions of minimal neighborhoods of members
        mn = self.min_nbhds()
        return not any(mn[i] & ~mask for i in _bits(mask))

    # -- constructors ----------------------------------------------------

    @classmethod
    def discrete(cls, group):
        n = group.order()
        return cls(
            group,
            _all_masks(n),
            validate=False,
            min_nbhds_hint=[1 << i for i in range(n)],
        )

    @classmethod
    def indiscrete(cls, group):
        n = group.order()
        return cls(group, [0, (1 << n) - 1], validate=False)

    @classmethod
    def from_subgroup(cls, group, sub_elements):
        """The coset topology: opens are exactly the unions of N-cosets."""
        elements = list(group.elements())
        index = {e: i for i, e in enumerate(elements)}
        sub = {tuple(e) for e in sub_elements}
        if group.zero() not in sub:
            raise InputError("subgroup must contain zero")
        seen = set()
        coset_masks = []
        for e in elements:
            if e in seen:
                continue
            coset = {group.add(e, s) for s in sub}
            seen |= coset
            m = 0
            for c in coset:
                m |= 1 << index[c]
            coset_masks.append(m)
        opens = [0]
        for cm in coset_masks:
            opens += [m | cm for m in opens]
        elem_coset = [0] * len(elements)
        for cm in coset_masks:
            for i in _bits(cm):
                elem_coset[i] = cm
        return cls(group, opens, validate=False, min_nbhds_hint=elem_coset)

    @classmethod
    def product(cls, a, b):
        """Product group with the product topology."""
        g, _incs, projs = fgab.direct_sum(a.group, b.group)
        elements = list(g.elements())
        index = {e: i for i, e in enumerate(elements)}
        pa, pb = projs

        def rect(ua, ub):
            m = 0
            ua_set = set(map(tuple, a.elems_of(ua)))
            ub_set = set(map(tuple, b.elems_of(ub)))
            for e in elements:
                if pa.apply(e) in ua_set and pb.apply(e) in ub_set:
                    m |= 1 << index[e]
            return m

        rects = {rect(ua, ub) for ua in a.opens for ub in b.opens}
        opens = set(rects)
        # close under unions (finite, small families)
        frontier = set(opens)
        while frontier:
            new = set()
            for u in frontier:
                for v in rects:
                    w = u | v
                    if w not in opens:
                        new.add(w)
            opens |= new
            frontier = new
        return cls(g, opens, validate=False)


def _all_masks(n):
    return range(1 << n)


def closure_of_zero(g):
    """Smallest closed set containing zero; always a subgroup."""
    full = g.full_mask
    zero_bit = 1 << g.index[g.group.zero()]
    cl = full
    for u in g.opens:
        c = full & ~u
        if c & zero_bit:
            cl &= c
    elems = g.elems_of(cl)
    elem_set = {tuple(e) for e in elems}
    for a in elems:
        for b in elems:
            if g.group.sub(a, b) not in elem_set:
                raise AssertionError("closure of zero is not a subgroup")
    return Subgroup(g.group, elems), elems


def _closure_quotient(g):
    """(quotient group, projection, coset preimage masks, cl{0} elements);
    checks that the quotient topology is discrete (every coset of cl{0} is
    open)."""
    cl_sub, cl_elems = closure_of_zero(g)
    q_group, proj = fgab.quotient(g.group, cl_sub)
    q_elements = list(q_group.elements())
    preimage_masks = {qe: 0 for qe in q_elements}
    for e in g.elements:
        preimage_masks[proj.apply(e)] |= 1 << g.index[e]
    for qe in q_elements:
        if not g.is_open(preimage_masks[qe]):
            raise AssertionError("quotient by the closure of zero is not discrete")
    return q_group, proj, preimage_masks, cl_elems


def quotient_topology(g):
    """The coset group of cl{0} with the quotient topology (discrete here)."""
    q_group, proj, preimage_masks, _cl_elems = _closure_quotient(g)
    return FiniteTopAbGroup.discrete(q_group), proj, preimage_masks


class SectionMap(namedtuple("SectionMap", "table")):
    """A set-theoretic section of the quotient map: one representative per
    coset, keyed by the coset's coordinates in the quotient group."""

    __slots__ = ()

    def __call__(self, q):
        return self.table[tuple(q)]


class SplittingContext:
    """Per-topology data shared by all section checks.

    The pairs (q, h) of G/cl{0} x cl{0} are numbered q-major: pair
    qi * |cl{0}| + j is (q_elems[qi], the j-th element of cl{0}).  Pair
    masks use these numbers as bit positions.
    """

    __slots__ = (
        "g",
        "q_elems",
        "elem_q",
        "cl_pos",
        "basis",
        "pair_min",
        "inverse_masks",
        "sandwich",
        "sandwich_ok",
    )

    def __init__(self, g):
        self.g = g
        _qg, _proj, preimage_masks, cl_elems = _closure_quotient(g)
        self.q_elems = sorted(preimage_masks)
        self.elem_q = {
            g.elements[i]: q for q in self.q_elems for i in _bits(preimage_masks[q])
        }
        self.cl_pos = [g.index[tuple(h)] for h in cl_elems]
        nc = len(self.cl_pos)
        # minimal neighborhoods in the subspace topology on cl{0}: those of
        # G restricted to cl{0}
        mn = g.min_nbhds()
        cl_min = [
            sum(1 << j for j, i in enumerate(self.cl_pos) if mn[h] >> i & 1)
            for h in self.cl_pos
        ]
        shifts = [qi * nc for qi in range(len(self.q_elems))]
        self.pair_min = [m << s for s in shifts for m in cl_min]
        # the sets {q} x V for basic opens V of cl{0}, whose images under f
        # must be open
        cl_basis = sorted(set(cl_min))
        self.inverse_masks = [m << s for s in shifts for m in cl_basis]
        self.basis = g.basis_masks()
        # (g + V, the pairs over every coset g + V meets) for each g and
        # each basic open V at zero, the two sides of the preimage identity
        q_index = {q: i for i, q in enumerate(self.q_elems)}
        column = (1 << nc) - 1
        elem_column = [column << shifts[q_index[self.elem_q[e]]] for e in g.elements]
        zero_i = g.index[g.group.zero()]
        at_zero = sorted({u for u in self.basis if u >> zero_i & 1} | {g.full_mask})
        self.sandwich = []
        for gv in g.elements:
            for u in at_zero:
                shifted = g.translate_mask(gv, u)
                columns = 0
                for i in _bits(shifted):
                    columns |= elem_column[i]
                self.sandwich.append((shifted, columns))
        # set once the identity has passed for a section
        self.sandwich_ok = False

    def sections(self):
        cosets = {}
        for e in self.g.elements:
            cosets.setdefault(self.elem_q[e], []).append(e)
        keys = sorted(cosets)
        for combo in itertools.product(*(cosets[k] for k in keys)):
            yield SectionMap(dict(zip(keys, combo)))


class SplittingReport(
    namedtuple(
        "SplittingReport",
        "bijective forward_continuous inverse_continuous sandwich_ok opens_checked",
    )
):
    __slots__ = ()

    @property
    def ok(self):
        return (
            self.bijective
            and self.forward_continuous
            and self.inverse_continuous
            and self.sandwich_ok
        )

    def to_json(self):
        return {
            "bijective": self.bijective,
            "forward_continuous": self.forward_continuous,
            "inverse_continuous": self.inverse_continuous,
            "sandwich_ok": self.sandwich_ok,
            "opens_checked": self.opens_checked,
        }


def splitting_check(g, section, ctx=None):
    """Verify (x, h) -> s(x) + h is a homeomorphism
    G/cl{0} x cl{0} -> G, and the preimage identity
    f^{-1}(g + V) = pi(g + V) x cl{0} for basic opens V at zero.

    All element- and section-level checks are exhaustive; open-set checks
    run over the minimal-open basis, which generates every open by unions.
    The preimage identity is checked until it passes for a section of
    `ctx`; later sections report that pass and its count.  f is bijective
    for every section: it maps each {q} x cl{0} onto the coset q, and the
    cosets are disjoint, so the report's `bijective` is always True.
    """
    if ctx is None:
        ctx = SplittingContext(g)
    for qe in ctx.q_elems:
        if ctx.elem_q[section(qe)] != qe:
            raise InputError("not a section of the quotient map")

    # f as a map pair-index -> element-index, and its preimage per element
    f_elem = []
    for q in ctx.q_elems:
        row = g.add[g.index[section(q)]]
        f_elem += [row[i] for i in ctx.cl_pos]
    elem_pair = [-1] * len(g.elements)
    for i, ei in enumerate(f_elem):
        elem_pair[ei] = i

    def product_open(pm):
        return not any(ctx.pair_min[i] & ~pm for i in _bits(pm))

    forward, n_forward = _until_failure(
        product_open(_map_bits(elem_pair, u)) for u in ctx.basis
    )
    inverse, n_inverse = _until_failure(
        g.is_open(_map_bits(f_elem, pm)) for pm in ctx.inverse_masks
    )
    # f maps {q} x cl{0} onto the coset q for every section, and an open
    # g + V is a union of cosets, so the identity depends on the topology
    # alone: one pass per context holds for all sections
    if ctx.sandwich_ok:
        sandwich, n_sandwich = True, len(ctx.sandwich)
    else:
        sandwich, n_sandwich = _until_failure(
            _map_bits(elem_pair, shifted) == columns for shifted, columns in ctx.sandwich
        )
        if sandwich:
            ctx.sandwich_ok = True
    return SplittingReport(
        True, forward, inverse, sandwich, n_forward + n_inverse + n_sandwich
    )


def _until_failure(checks):
    """(every check passed, number of checks run); stops at the first failure."""
    count = 0
    for ok in checks:
        count += 1
        if not ok:
            return False, count
    return True, count


def translated_basis_check(g, basis_masks):
    """True iff {g + V} is a neighborhood basis at g for every g, given a
    neighborhood basis {V} at zero."""
    zero_i = g.index[g.group.zero()]
    for v in basis_masks:
        if not (v >> zero_i & 1):
            raise InputError("basis member does not contain zero")
        if not g.is_open(v):
            raise InputError("basis member is not open")
    # Every open around a point contains its minimal neighborhood, which is
    # itself open (opens are closed under intersection), so a member inside
    # it lies inside every open around the point.
    mn = g.min_nbhds()
    if not any(v & ~mn[zero_i] == 0 for v in basis_masks):
        raise InputError("not a neighborhood basis at zero")
    return all(
        any(g.translate_mask(gv, v) & ~mn[gi] == 0 for v in basis_masks)
        for gi, gv in enumerate(g.elements)
    )


# -- enumeration helpers (for the exhaustive acceptance sweep) -------------


def invariant_factor_chains(order):
    """All invariant-factor chains with the given product."""
    if order == 1:
        return [[]]
    out = []
    for d in range(2, order + 1):
        if order % d:
            continue
        for rest in invariant_factor_chains(order // d):
            if not rest or rest[0] % d == 0:
                out.append([d] + rest)
    return out


def abelian_groups_upto(max_order):
    for order in range(1, max_order + 1):
        for chain in invariant_factor_chains(order):
            yield FgAbGroup(0, chain)


def all_subgroups(group):
    """Every subgroup of a finite group, as element sets."""
    elements = list(group.elements())
    zero = group.zero()

    def closure(gens):
        s = {zero}
        frontier = list(gens)
        while frontier:
            x = frontier.pop()
            if x in s:
                continue
            s.add(x)
            for y in list(s):
                for z in (group.add(x, y), group.sub(y, x)):
                    if z not in s:
                        frontier.append(z)
        return frozenset(s)

    subs = {frozenset({zero})}
    frontier = [frozenset({zero})]
    while frontier:
        s = frontier.pop()
        for e in elements:
            if e not in s:
                bigger = closure(s | {e})
                if bigger not in subs:
                    subs.add(bigger)
                    frontier.append(bigger)
    return sorted(subs, key=lambda s: (len(s), sorted(s)))
