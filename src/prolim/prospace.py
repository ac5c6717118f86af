"""Desk-scale realization of the limit space: truncated coherent tuples,
the 2^-m metric, cylinder sets, dense families, clopen separation, Cauchy
limits, and transport along cofinal restriction.

A coherent tuple stores levels 1..N with x_n = f_n(x_{n+1}); it stands for
the set of its infinite extensions.  The metric is exact up to the stored
window: a genuine first difference at level m gives the value 2^-m, full
agreement only bounds the distance by 2^-N unless the system is stabilized
inside the window (then the tuple determines its extension and the
distance is zero).

A cofinal restriction keeps the selected levels and their coordinates
(`invsys.restrict_cofinal`, cycles and towers alike), so a tuple moves to
it by selecting coordinates and back by mapping the selected ones down.
"""

import reprlib
from collections import namedtuple

from prolim.errors import EnumerationCapExceeded, InputError, PreconditionError
from prolim.fgab import json_int, json_list
from prolim.invsys import stabilization_index


DEFAULT_CAP = 10_000


class CoherentTuple(namedtuple("CoherentTuple", "system entries")):
    """(x_1, ..., x_N) with x_n = f_n(x_{n+1}), checked by every constructor.

    Two tuples are equal when their systems are the same object (systems
    compare by identity) and their entries are equal.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    def __new__(cls, system, entries):
        entries = tuple(tuple(e) for e in entries)
        if not entries:
            raise InputError("a coherent tuple needs at least one level")
        for n, e in enumerate(entries, start=1):
            g = system.group_at(n)
            if len(e) != g.dim:
                raise InputError(f"entry at level {n} does not live in {g}")
            if g.reduce(e) != e:
                raise InputError(f"entry at level {n} is not in canonical coordinates")
        for n in range(1, len(entries)):
            if system.map_at(n).apply(entries[n]) != entries[n - 1]:
                raise InputError(f"coherence fails between levels {n + 1} and {n}")
        return super().__new__(cls, system, entries)

    @property
    def level(self):
        return len(self.entries)

    @classmethod
    def from_top(cls, system, level, top):
        """The tuple determined by its top coordinate."""
        top = system.group_at(level).reduce(top)
        entries = [top]
        for n in range(level - 1, 0, -1):
            entries.append(system.map_at(n).apply(entries[-1]))
        return cls(system, tuple(reversed(entries)))

    def __repr__(self):
        return f"CoherentTuple(level={self.level}, entries={list(self.entries)})"

    def to_json(self):
        return {"level": self.level, "entries": [list(e) for e in self.entries]}

    @classmethod
    def from_json(cls, system, obj, path):
        """Read {"level": n, "entries": [[...], ...]}; errors name `path`."""
        if not isinstance(obj, dict) or "entries" not in obj:
            raise InputError(
                f"{path}: expected a tuple object with 'entries', got {reprlib.repr(obj)}"
            )
        entries = json_list(obj["entries"], f"{path}.entries")
        for n, entry in enumerate(entries):
            for i, x in enumerate(json_list(entry, f"{path}.entries[{n}]")):
                json_int(x, f"{path}.entries[{n}][{i}]")
        if "level" in obj and json_int(obj["level"], f"{path}.level") != len(entries):
            raise InputError(f"{path}.level: does not match its {len(entries)} entries")
        try:
            return cls(system, entries)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc


def add_tuples(x, y):
    """Coordinatewise sum; coherent because the bonding maps are homs."""
    if x.system is not y.system or x.level != y.level:
        raise InputError("tuples must share a system and a level")
    s = x.system
    entries = [
        s.group_at(n).add(a, b)
        for n, (a, b) in enumerate(zip(x.entries, y.entries), start=1)
    ]
    return CoherentTuple(s, entries)


def extend(x, to_level):
    """Extension of x by deterministic minimal preimages.

    At each step the preimage is the canonical minimal solution: the
    solution lattice's symmetric representative on free coordinates,
    torsion coordinates in [0, d), from `InverseSystem.lift_at`, which
    reduces each bonding map once per system.  Fails with the offending
    level when no preimage exists (un-surjectivized data).
    """
    if to_level < x.level:
        raise PreconditionError("cannot extend downward")
    if to_level == x.level:
        return x
    s = x.system
    entries = list(x.entries)
    for lvl in range(x.level, to_level):
        z = s.lift_at(lvl, entries[-1])
        if z is None:
            raise PreconditionError(
                f"no preimage at level {lvl + 1}: the bonding map into level "
                f"{lvl} is not surjective on this element"
            )
        entries.append(z)
    return CoherentTuple(s, entries)


class MetricValue(namedtuple("MetricValue", "kind exponent", defaults=(None,))):
    """Exact(2^-m), Zero, or AtMost(2^-N) when truncation hides the answer."""

    # kind: "exact" | "zero" | "at_most"
    __slots__ = ()

    @classmethod
    def exact(cls, m):
        return cls("exact", m)

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def at_most(cls, n):
        return cls("at_most", n)

    def upper(self):
        """Upper bound on the distance as a fraction of 1 (float)."""
        return 0.0 if self.kind == "zero" else 2.0 ** (-self.exponent)

    def __str__(self):
        if self.kind == "zero":
            return "0"
        if self.kind == "exact":
            return f"2^-{self.exponent}"
        return f"<=2^-{self.exponent}"

    def to_json(self):
        return {"kind": self.kind, "exponent": self.exponent}


def metric(x, y):
    """d(x, y) = 2^-m with m the first differing level.

    Tuples that agree on the whole stored window only certify an upper
    bound, unless the system is stabilized within the window.
    """
    if x.system is not y.system:
        raise InputError("tuples from different systems are incomparable")
    n = min(x.level, y.level)
    for m in range(1, n + 1):
        if x.entries[m - 1] != y.entries[m - 1]:
            return MetricValue.exact(m)
    idx = stabilization_index(x.system)
    if idx is not None and idx <= n and x.level == y.level:
        return MetricValue.zero()
    return MetricValue.at_most(n)


class Cylinder(namedtuple("Cylinder", "system level base_point")):
    """pi_n^{-1}({base_point}): the tuples passing through one coordinate.

    Level 0 is the whole space (the convention that the zeroth group is
    trivial makes the coarsest ball the full limit).
    """

    __slots__ = ()

    def contains(self, t):
        if t.system is not self.system:
            raise InputError("tuple from a different system")
        if self.level == 0:
            return True
        if t.level < self.level:
            raise PreconditionError(
                f"tuple truncated below level {self.level}; extend it first"
            )
        return t.entries[self.level - 1] == self.base_point

    def to_json(self):
        return {"level": self.level, "base_point": list(self.base_point)}


def cylinder_of(x, n):
    """The level-n cylinder through x.

    The ball of radius 2^-n around x equals the cylinder at level n-1
    (with the convention that level 0 is the trivial group, so radius
    2^-1 is the whole space).
    """
    if n < 1 or n > x.level:
        raise PreconditionError(f"cylinder level must be in 1..{x.level}")
    return Cylinder(x.system, n, x.entries[n - 1])


def ball(x, exponent):
    """B(x, 2^-exponent) as a cylinder (whole space for exponent 1)."""
    if exponent < 1:
        raise PreconditionError("radii larger than 1/2 are not in the basis")
    if exponent == 1:
        return Cylinder(x.system, 0, ())
    return cylinder_of(x, exponent - 1)


def dense_family(s, budget, cap=DEFAULT_CAP):
    """One tuple through every element of every level up to the budget.

    Tuples are produced at the budget level via minimal lifts, so the
    bonding maps must be surjective up to it.  Enumeration of infinite
    groups is capped (deterministic small-coordinate order).  The levels'
    element counts are summed from their orders before anything is lifted:
    `elements_capped` yields `cap` elements of an infinite group and
    refuses a finite one of more.
    """
    total = 0
    for j in range(1, budget + 1):
        order = s.order_at(j)
        if order is not None and order > cap:
            raise EnumerationCapExceeded(f"enumeration cap {cap} exceeded")
        total += cap if order is None else order
        if total > cap:
            raise EnumerationCapExceeded(f"dense family would exceed the enumeration cap {cap}")
    out = []
    seen = set()
    for j in range(1, budget + 1):
        for elem in s.group_at(j).elements_capped(cap):
            t = extend(CoherentTuple.from_top(s, j, elem), budget)
            if t.entries not in seen:
                seen.add(t.entries)
                out.append(t)
    return out


def separating_clopen(x, y):
    """A cylinder containing y but not x, from their first difference."""
    d = metric(x, y)
    if d.kind != "exact":
        raise PreconditionError(
            "tuples are indistinguishable within the stored window; extend them"
        )
    c = Cylinder(y.system, d.exponent, y.entries[d.exponent - 1])
    if not c.contains(y) or c.contains(x):
        raise AssertionError("cylinder at the first difference does not separate")
    return c


def cauchy_limit(seq, level):
    """Coordinatewise eventual value of a sequence of tuples.

    Each coordinate must be constant on a tail of at least two sequence
    members; otherwise the sequence is not Cauchy at this scale.
    """
    if not seq:
        raise InputError("empty sequence")
    s = seq[0].system
    for t in seq:
        if t.system is not s:
            raise InputError("tuples from different systems")
        if t.level < level:
            raise PreconditionError("all sequence members must reach the level")
    entries = []
    for n in range(1, level + 1):
        coords = [t.entries[n - 1] for t in seq]
        v = coords[-1]
        tail = 0
        for c in reversed(coords):
            if c != v:
                break
            tail += 1
        if tail < 2:
            raise PreconditionError(f"sequence is not Cauchy at coordinate {n}")
        entries.append(v)
    return CoherentTuple(s, entries)


# -- transport along cofinal restriction ----------------------------------


def restrict_tuple(s, restricted, stride, offset, t):
    """The cofinal-restriction homeomorphism on truncated tuples.

    `restricted` is restrict_cofinal(s, stride, offset), whose level i is
    level offset + stride*i of s in the same coordinates, so a tuple over s
    whose window covers a selected level goes to its selected coordinates.
    """
    entries = t.entries[offset + stride - 1 :: stride]
    if not entries:
        raise PreconditionError("tuple too short to restrict")
    return CoherentTuple(restricted, entries)


def unrestrict_tuple(s, restricted, stride, offset, t, level):
    """Inverse transport: rebuild the unselected coordinates by mapping the
    nearest selected level down."""
    entries = []
    for n in range(1, level + 1):
        i = 1
        while offset + stride * i < n:
            i += 1
        if i > t.level:
            raise PreconditionError("restricted tuple too short to unrestrict")
        entries.append(s.map_between(n, offset + stride * i).apply(t.entries[i - 1]))
    return CoherentTuple(s, entries)


def enumerate_tuples(s, level, cap=DEFAULT_CAP):
    """All coherent tuples at a level of a finite-group system (capped).

    A coherent tuple is determined by its top coordinate, so this is the
    top group's element enumeration pushed down.  The level's order is
    checked against the cap before the level is built.
    """
    order = s.order_at(level)
    if order is None or order > cap:
        # an int prints in quadratic time, so an order of 4300 digits or
        # more (Python's default printing limit) is named by its size
        if order is not None and order >= 10**4300:
            order = "at least 10^4300"
        raise EnumerationCapExceeded(
            f"level-{level} tuple enumeration needs {order or 'infinitely many'} "
            f"items, cap is {cap}"
        )
    return [CoherentTuple.from_top(s, level, e) for e in s.group_at(level).elements()]
