"""Finite topological abelian groups and the product-splitting verifier.

A finite topology is determined by its minimal neighborhoods (Alexandrov,
"Diskrete Räume", 1937): the minimal neighborhood of a point is the
smallest open containing it, and the opens are exactly the unions of
minimal neighborhoods.  So a topology is stored as one bitmask per
element of a finite group, the mask of that element's minimal
neighborhood, and no open family is ever built.  A condition on every
open around a point is checked at that one set, and the splitting checks
run over the minimal-open basis, which generates every open under unions.
An explicit open family enters through `FiniteTopAbGroup.from_opens`,
which checks it and keeps only its minimal neighborhoods.  The checks are
exhaustive over elements and sections.
"""

import itertools
from collections import namedtuple

from prolim import fgab
from prolim.errors import InputError
from prolim.fgab import Subgroup


def _bits(mask):
    """Indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _map_bits(table, mask):
    """The mask with bit table[i] set for every bit i set in `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << table[low.bit_length() - 1]
        mask ^= low
    return out


def _is_open(min_nbhds, mask):
    """Whether `mask` contains min_nbhds[i] for every bit i set in it."""
    rest = mask
    while rest:
        low = rest & -rest
        if min_nbhds[low.bit_length() - 1] & ~mask:
            return False
        rest ^= low
    return True


def _require_finite(group):
    """The order of a finite group; an infinite one is an InputError."""
    if not group.is_finite():
        raise InputError("topologies are stored for finite groups only")
    return group.order()


class FiniteTopAbGroup:
    """A finite abelian group with a group topology, stored as the minimal
    neighborhoods of its elements.

    Element i is the i-th of `group.elements()`, and `min_nbhds[i]` is the
    bitmask of its minimal open neighborhood.  The constructor trusts its
    masks: it checks only that the group is finite.  The named constructors
    build masks that are a group topology by construction; an explicit open
    family goes through `from_opens`, which checks it.
    """

    __slots__ = ("group", "elements", "index", "min_nbhds", "full_mask", "add")

    def __init__(self, group, min_nbhds):
        _require_finite(group)
        elements = list(group.elements())
        index = {e: i for i, e in enumerate(elements)}
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "min_nbhds", min_nbhds)
        object.__setattr__(self, "full_mask", (1 << len(elements)) - 1)
        add = [[index[group.add(a, b)] for b in elements] for a in elements]
        object.__setattr__(self, "add", add)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteTopAbGroup is immutable")

    def __reduce__(self):
        return type(self), (self.group, self.min_nbhds)

    # -- masks ---------------------------------------------------------

    def elems_of(self, mask):
        return [self.elements[i] for i in _bits(mask)]

    def translate_mask(self, g, mask):
        return _map_bits(self.add[self.index[tuple(g)]], mask)

    def basis_masks(self):
        """The minimal-open basis (every open is a union of these)."""
        return sorted(set(self.min_nbhds))

    def is_open(self, mask):
        """Whether `mask` contains the minimal neighborhood of each member."""
        return _is_open(self.min_nbhds, mask)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_opens(cls, group, opens):
        """The topology whose opens are the bitmasks `opens`, checked.

        The family must contain the empty set and the whole set, and be
        closed under unions and intersections; a family with every
        singleton open must be the discrete one, and any other is capped at
        4096 opens.  Translations must be homeomorphisms, which for a
        finite topology means mn[g + x] = g + mn[x] for the minimal
        neighborhoods mn.

        Subtraction is then continuous, so no further check is needed.  Let
        U = mn[0].  For u in U, mn[u] = u + U, and mn[u] lies inside U, an
        open containing u; so U + U lies in U, which in a finite group makes
        U a subgroup.  Every mn[x] = x + U is then a coset of U: the
        topology is the coset topology of U, which is a group topology.
        """
        opens = frozenset(opens)
        top = cls(group, None)
        n = len(top.elements)
        full = top.full_mask
        if 0 not in opens or full not in opens:
            raise InputError("opens must contain the empty set and the whole set")
        if all((1 << i) in opens for i in range(n)):
            if len(opens) != 1 << n:
                raise InputError("all singletons open forces the discrete topology")
        else:
            if len(opens) > 4096:
                raise InputError("open family too large to validate explicitly")
            for a in opens:
                for b in opens:
                    if (a | b) not in opens or (a & b) not in opens:
                        raise InputError("opens not closed under union/intersection")
        mn = []
        for i in range(n):
            m = full
            for u in opens:
                if u >> i & 1:
                    m &= u
            mn.append(m)
        object.__setattr__(top, "min_nbhds", mn)
        for row in top.add:
            for i in range(n):
                if mn[row[i]] != _map_bits(row, mn[i]):
                    raise InputError("translation does not preserve opens")
        return top

    @classmethod
    def discrete(cls, group):
        return cls(group, [1 << i for i in range(_require_finite(group))])

    @classmethod
    def indiscrete(cls, group):
        n = _require_finite(group)
        return cls(group, [(1 << n) - 1] * n)

    @classmethod
    def from_subgroup(cls, group, sub_elements):
        """The coset topology: the minimal neighborhood of x is x + N."""
        _require_finite(group)
        elements = list(group.elements())
        index = {e: i for i, e in enumerate(elements)}
        sub = {tuple(e) for e in sub_elements}
        if group.zero() not in sub:
            raise InputError("subgroup must contain zero")
        elem_coset = [0] * len(elements)
        for i, e in enumerate(elements):
            if elem_coset[i]:
                continue
            m = 0
            for s in sub:
                m |= 1 << index[group.add(e, s)]
            for j in _bits(m):
                elem_coset[j] = m
        return cls(group, elem_coset)

    @classmethod
    def product(cls, a, b):
        """Product group with the product topology: the minimal
        neighborhood of (x, y) is mn(x) x mn(y)."""
        g, _incs, projs = fgab.direct_sum(a.group, b.group)
        elements = list(g.elements())
        pa, pb = projs
        # fiber[i]: the mask of the elements whose coordinate is element i
        fiber_a = [0] * len(a.elements)
        fiber_b = [0] * len(b.elements)
        coords = []
        for k, e in enumerate(elements):
            ia, ib = a.index[pa.apply(e)], b.index[pb.apply(e)]
            fiber_a[ia] |= 1 << k
            fiber_b[ib] |= 1 << k
            coords.append((ia, ib))

        def lift(fiber, mask):
            out = 0
            for i in _bits(mask):
                out |= fiber[i]
            return out

        mn = [
            lift(fiber_a, a.min_nbhds[ia]) & lift(fiber_b, b.min_nbhds[ib])
            for ia, ib in coords
        ]
        return cls(g, mn)


def closure_of_zero(g):
    """Smallest closed set containing zero; always a subgroup.

    x lies in it iff every open around x meets {0}, that is, iff zero lies
    in the minimal neighborhood of x.
    """
    zero_i = g.index[g.group.zero()]
    elems = [e for e, m in zip(g.elements, g.min_nbhds) if m >> zero_i & 1]
    elem_set = set(elems)
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
        mn = g.min_nbhds
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

    forward, n_forward = _until_failure(
        _is_open(ctx.pair_min, _map_bits(elem_pair, u)) for u in ctx.basis
    )
    inverse, n_inverse = _until_failure(
        _is_open(g.min_nbhds, _map_bits(f_elem, pm)) for pm in ctx.inverse_masks
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
    mn = g.min_nbhds
    if not any(v & ~mn[zero_i] == 0 for v in basis_masks):
        raise InputError("not a neighborhood basis at zero")
    return all(
        any(g.translate_mask(gv, v) & ~mn[gi] == 0 for v in basis_masks)
        for gi, gv in enumerate(g.elements)
    )
