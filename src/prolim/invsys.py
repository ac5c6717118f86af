"""Finitely presented inverse systems of f.g. abelian groups.

A system is a finite prefix of groups and bonding maps followed by an
optional infinite tail.  Two tail kinds are supported:

* cycle: the groups and maps beyond the prefix literally repeat with
  period p.  Such tails can shrink (non-surjective maps) but, once
  surjectivized, always stabilize: a surjective endomorphism of a f.g.
  abelian group is an automorphism.
* tower: beyond the prefix each level appends one layer from a repeating
  cycle of layer groups, and the bonding maps drop the newest layer.
  Towers are the finite presentations of the genuinely non-stabilizing
  systems (Cantor-like, Baire-like limits).

A system with no tail is a truncated chain; operations that need the
infinite part reject it.

Bonding maps go downward: map_at(s, n) is f_n : G_{n+1} -> G_n.
"""

import reprlib
from collections import namedtuple
from math import gcd, prod

from prolim._backend import kernel as _k
from prolim import fgab
from prolim.errors import InputError, PreconditionError
from prolim.fgab import (
    FgAbGroup,
    GroupHom,
    Subgroup,
    check_matrix_shape,
    direct_sum,
    eventual_image_lattice,
    hom_into_subgroup,
    hom_restrict,
    image,
    json_int,
    json_list,
    kernel,
    subgroup_equal,
)


class CycleTail(namedtuple("CycleTail", "groups maps")):
    """Literal periodic tail: groups[j] sits at levels k+1+j mod p."""

    # maps[j]: groups[(j+1) % p] -> groups[j]
    __slots__ = ()

    @property
    def period(self):
        return len(self.groups)


class TowerTail(namedtuple("TowerTail", "base layers")):
    """Layered tail: level k+1 is `base`, each next level appends a layer."""

    # layers are cycled: level k+1+t appends layers[(t-1) % p] for t >= 1
    __slots__ = ()

    @property
    def period(self):
        return len(self.layers)


class InverseSystem:
    """prefix levels 1..k, then the tail (or nothing, for a finite chain).

    maps holds f_1..f_{k-1} between prefix levels plus, when a tail is
    present and k >= 1, the junction f_k from the first tail group into
    the last prefix group.
    """

    __slots__ = ("prefix", "maps", "tail", "_tower_cache", "_stab_cache")

    def __init__(self, prefix, maps, tail=None):
        prefix = tuple(prefix)
        maps = tuple(maps)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "_tower_cache", {})
        object.__setattr__(self, "_stab_cache", {})  # filled by prospace
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("InverseSystem is immutable")

    def _validate(self):
        tail = self.tail
        if tail is not None and not isinstance(tail, (CycleTail, TowerTail)):
            raise InputError(f"unknown tail kind {tail!r}")
        expected = _map_count(self.prefix, tail)
        if len(self.maps) != expected:
            raise InputError(
                f"expected {expected} prefix/junction maps, got {len(self.maps)}"
            )
        sources = _map_sources(self.prefix, tail)
        for i, (h, src, tgt) in enumerate(zip(self.maps, sources, self.prefix)):
            if h.source != src or h.target != tgt:
                raise InputError(
                    f"map {i + 1}: expected {src} -> {tgt}, got {h.source} -> {h.target}"
                )
        if isinstance(tail, CycleTail):
            p = tail.period
            if p == 0:
                raise InputError("cycle tail needs at least one group")
            if len(tail.maps) != p:
                raise InputError(f"cycle tail: expected {p} maps, got {len(tail.maps)}")
            for j, h in enumerate(tail.maps):
                src = tail.groups[(j + 1) % p]
                tgt = tail.groups[j]
                if h.source != src or h.target != tgt:
                    raise InputError(
                        f"cycle map {j + 1}: expected {src} -> {tgt}, "
                        f"got {h.source} -> {h.target}"
                    )
        elif isinstance(tail, TowerTail):
            if tail.period == 0:
                raise InputError("tower tail needs at least one layer")

    # -- level bookkeeping -------------------------------------------------

    @property
    def prefix_len(self):
        return len(self.prefix)

    @property
    def period(self):
        tail = self.tail
        if tail is None:
            return 0
        return tail.period

    def is_chain(self):
        return self.tail is None

    @property
    def chain_length(self):
        if not self.is_chain():
            raise PreconditionError("not a finite chain")
        return len(self.prefix)

    def _tower_level(self, t):
        """Tower level t (0 = base) as (group, inclusions, projections).

        Level t >= 1 is `direct_sum(level t-1, layer)` as returned, so its
        drop map to level t-1 is projections[0]; the base is the sum of one
        group, with identity maps.
        """
        cache = self._tower_cache
        if t not in cache:
            tail = self.tail
            if t == 0:
                ident = GroupHom.identity(tail.base)
                cache[t] = (tail.base, [ident], [ident])
            else:
                layer = tail.layers[(t - 1) % tail.period]
                cache[t] = direct_sum(self._tower_level(t - 1)[0], layer)
        return cache[t]

    def group_at(self, n):
        if n < 1:
            raise PreconditionError("levels are 1-based")
        k = len(self.prefix)
        if n <= k:
            return self.prefix[n - 1]
        tail = self.tail
        if tail is None:
            raise PreconditionError(f"level {n} is out of range for a chain of length {k}")
        if isinstance(tail, CycleTail):
            return tail.groups[(n - k - 1) % tail.period]
        return self._tower_level(n - k - 1)[0]

    def map_at(self, n):
        """The bonding map f_n : G_{n+1} -> G_n."""
        if n < 1:
            raise PreconditionError("levels are 1-based")
        k = len(self.prefix)
        tail = self.tail
        if tail is None:
            if n > k - 1:
                raise PreconditionError(
                    f"map {n} is out of range for a chain of length {k}"
                )
            return self.maps[n - 1]
        if n <= k:
            return self.maps[n - 1]
        if isinstance(tail, CycleTail):
            return tail.maps[(n - k - 1) % tail.period]
        return self._tower_level(n - k)[2][0]

    def map_between(self, n, m):
        """Composite f_{n,m} : G_m -> G_n (identity when n = m)."""
        if n > m:
            raise PreconditionError(f"map_between needs n <= m, got {n} > {m}")
        if n == m:
            return GroupHom.identity(self.group_at(n))
        h = self.map_at(n)
        for j in range(n + 1, m):
            h = h.compose(self.map_at(j))
        return h

    # -- serialization -----------------------------------------------------

    def to_json(self):
        tail = self.tail
        if tail is None:
            tj = None
        elif isinstance(tail, CycleTail):
            tj = {
                "kind": "cycle",
                "groups": [g.to_json() for g in tail.groups],
                "maps": [[list(r) for r in h.matrix] for h in tail.maps],
            }
        else:
            tj = {
                "kind": "tower",
                "base": tail.base.to_json(),
                "layers": [g.to_json() for g in tail.layers],
            }
        return {
            "prefix": [g.to_json() for g in self.prefix],
            "maps": [[list(r) for r in h.matrix] for h in self.maps],
            "tail": tj,
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise InputError("system must be a JSON object")
        prefix = _groups_from_json(obj.get("prefix", []), "prefix")
        tobj = obj.get("tail")
        tail = None
        if tobj is not None:
            if not isinstance(tobj, dict):
                raise InputError(
                    f"tail must be a JSON object or null, got {reprlib.repr(tobj)}"
                )
            kind = tobj.get("kind")
            if kind == "cycle":
                groups = _groups_from_json(tobj.get("groups", []), "tail.groups")
                p = len(groups)
                if p == 0:
                    raise InputError("tail.groups must be nonempty")
                raw = json_list(tobj.get("maps", []), "tail.maps")
                if len(raw) != p:
                    raise InputError(f"tail.maps: expected {p} matrices, got {len(raw)}")
                maps = tuple(
                    _hom_from_json(groups[(j + 1) % p], groups[j], mat, f"tail.maps[{j}]")
                    for j, mat in enumerate(raw)
                )
                tail = CycleTail(groups, maps)
            elif kind == "tower":
                if "base" not in tobj:
                    raise InputError("tail.base: a tower tail needs a base group")
                base = FgAbGroup.from_json(tobj["base"], "tail.base")
                layers = _groups_from_json(tobj.get("layers", []), "tail.layers")
                if not layers:
                    raise InputError("tail.layers must be nonempty")
                tail = TowerTail(base, layers)
            else:
                raise InputError(
                    f"tail.kind must be 'cycle' or 'tower', got {reprlib.repr(kind)}"
                )
        raw_maps = json_list(obj.get("maps", []), "maps")
        needed = _map_count(prefix, tail)
        if len(raw_maps) != needed:
            raise InputError(f"maps: expected {needed} matrices, got {len(raw_maps)}")
        sources = _map_sources(prefix, tail)
        maps = [
            _hom_from_json(src, tgt, mat, f"maps[{i}]")
            for i, (src, tgt, mat) in enumerate(zip(sources, prefix, raw_maps))
        ]
        return cls(prefix, maps, tail)

    def __repr__(self):
        return (
            f"InverseSystem(prefix={list(self.prefix)}, tail={self.tail!r})"
        )


def _map_count(prefix, tail):
    """How many maps a system holds: k - 1 join its k prefix levels, and
    one more joins the tail."""
    k = len(prefix)
    return k - (tail is None) if k else 0


def _map_sources(prefix, tail):
    """The sources of the maps in order: prefix levels 2..k, then the first
    tail group; the map targets are the prefix levels."""
    if tail is None:
        return prefix[1:]
    return prefix[1:] + (tail.groups[0] if isinstance(tail, CycleTail) else tail.base,)


def _groups_from_json(obj, path):
    groups = json_list(obj, path)
    return tuple(FgAbGroup.from_json(g, f"{path}[{i}]") for i, g in enumerate(groups))


_INT = frozenset((int,))


def _hom_from_json(source, target, obj, path):
    """The hom whose matrix `obj` is a JSON array of rows of JSON integers."""
    rows = json_list(obj, path)
    for i, row in enumerate(rows):
        # one type scan per row (bool, float, str, None and lists all fail
        # it); a bad row is walked entry by entry for the error's JSON path
        if type(row) is not list or not set(map(type, row)) <= _INT:
            for j, x in enumerate(json_list(row, f"{path}[{i}]")):
                json_int(x, f"{path}[{i}][{j}]")
    check_matrix_shape(rows, source, target, path)
    try:
        cols = zip(*rows) if rows else [()] * source.dim
        return GroupHom.from_columns(source, target, cols)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def constant_system(group, endo_matrix=None):
    """The system with one repeating group; default bonding map is identity."""
    h = (
        GroupHom.identity(group)
        if endo_matrix is None
        else GroupHom(group, group, endo_matrix)
    )
    return InverseSystem((), (), CycleTail((group,), (h,)))


def tower_system(base, layers, prefix=(), maps=()):
    return InverseSystem(tuple(prefix), tuple(maps), TowerTail(base, tuple(layers)))


def chain_system(groups, maps):
    return InverseSystem(tuple(groups), tuple(maps), None)


def _require_tail(s):
    if s.is_chain():
        raise PreconditionError(
            "operation needs the infinite part of the system; "
            "this is a truncated finite chain"
        )


# -- stable images -------------------------------------------------------


def _push(h, sub):
    """Image of a subgroup under a hom (as a subgroup of the target)."""
    if sub.ambient != h.source:
        raise InputError("subgroup does not lie in the source of the hom")
    cols, dim = h.columns(), h.target.dim
    return Subgroup(h.target, [_k.combine(cols, g, dim) for g in sub.generators])


def _free_rank(sub):
    """The subgroup's free rank, read off its cached Hermite basis.

    Pivot rows increase, so the columns with a pivot row below the ambient
    free rank r come first; their count is the rank of the subgroup's
    projection to Z^r, which is its free rank.
    """
    r = sub.ambient.free_rank
    basis = sub.lattice_basis()
    n_free = 0
    while n_free < len(basis) and any(basis[n_free][:r]):
        n_free += 1
    return n_free


def _free_det(endo):
    """|det A| for the free block A of an endomorphism of Z^r + T (its first
    r rows and columns); 1 when r = 0."""
    r = endo.source.free_rank
    return abs(_k.det([col[:r] for col in endo.columns()[:r]])) if r else 1


def _image_chain(endo, d=None):
    """Walk the image chain C_j = Im(endo^j) of an endomorphism until it settles.

    Returns (steps, index).  If the chain becomes constant, C_steps is its
    value and index is None.  Otherwise it settles at s = steps: the chain
    never stabilizes, but its torsion part C_j & T is final from s - 1 on,
    and index is the constant [C_j : C_{j+1}] >= 2 of every j >= s - 1.

    Write G = Z^r + T and split endo into its free block A (the first r
    rows and columns; torsion columns are zero there), and its torsion
    block phi (the last rows and columns), an endomorphism of T.  Let pi
    be the projection to Z^r and d = |det A| (1 when r = 0), computed by
    `_free_det` unless the caller passes it (`is_mittag_leffler` computes it
    once per free rank of the tail).

    When d != 0, two facts reduce the walk to T.  First, C_j & T =
    endo^j(T) = phi^j(T) =: tau_j: if endo^j(x) lies in T, then
    A^j pi(x) = 0, so pi(x) = 0 and x lies in T.  Second, pi(C_j) =
    A^j Z^r.  The index multiplies along 0 -> C & T -> C -> pi(C) -> 0,
    so [C_j : C_{j+1}] = d * [tau_j : tau_{j+1}], and the stop rule
    depends only on the torsion chain, which is walked in the coordinates
    of T alone (not at all when T = 0).  Let s be the first j >= 1 with
    tau_j = tau_{j-1}.  When d = 1, C_s = C_{s-1} and the result is
    (s - 1, None).  Otherwise the index is c1 = d * [tau_s : phi(tau_s)]
    = d, as phi(tau_s) = phi(tau_{s-1}) = tau_s, and its determinant
    comes from an elimination (`det`) that no Hermite reduction touches.

    c1 is checked against c0 = [C_{s-1} : C_s], measured through the one
    lattice of positive free rank the walk reduces, Im endo.  For nested
    N <= M of finite index and a hom h, [h(M) : h(N)] = [M : N] divided by
    [ker h & M : ker h & N]; with h = endo^(s-1), M = G and N = C_1,
    c0 = [G : C_1] / [K : K & C_1] for K = ker endo^(s-1).  K lies in T,
    by the argument of the first fact (endo^(s-1)(x) = 0 lies in T), so
    K = ker phi^(s-1) and K & C_1 = K & tau_1.  [G : C_1] is the product
    of the pivots of Im endo (`index_in` against the full group, which
    runs the echelon pass of the Hermite reduction and not its
    back-reduction), and [K : K & tau_1] = [K + tau_1 : tau_1] is an index
    of torsion lattices.  A fault in det, in that echelon pass, or in the
    torsion walk or its stop rule makes c0 and c1 differ.

    When d = 0 the walk first pushes the full lattice while its free rank
    (`_free_rank`, off the cached Hermite bases) falls, which takes
    nu <= r pushes, and then replaces endo by its restriction to C_nu
    (`hom_restrict`).  endo maps C_nu onto C_{nu+1} of the same free rank,
    so the restriction's free block is nonsingular; its j-th image is
    C_{nu+j}, with the same torsion part, so the walk above runs on it and
    nu is added to its steps.  Before nu no term repeats and no rank is
    unchanged, so this is the walk of the whole chain.  A singular
    restriction raises AssertionError.
    """
    if d is None:
        d = _free_det(endo)
    nu = 0
    if not d:
        cur = Subgroup.full(endo.source)
        nxt = _push(endo, cur)
        while _free_rank(nxt) < _free_rank(cur):
            cur, nxt, nu = nxt, _push(endo, nxt), nu + 1
        endo = hom_restrict(endo, cur, cur)
        d = _free_det(endo)
        if not d:
            raise AssertionError("the image chain's rank-stable restriction is singular")
    g = endo.source
    s = 1
    if g.torsion:
        phi = _torsion_block(endo)
        t = phi.source
        taus = [Subgroup.full(t)]
        while True:
            nxt = _push(phi, taus[-1])
            if nxt.equals(taus[-1]):
                break
            taus.append(nxt)
        s = len(taus)
    if d == 1:
        return nu + s - 1, None
    g_index = image(endo).index_in(Subgroup.full(g))
    k_index = 1
    if s >= 2:
        power = phi
        for _ in range(s - 2):
            power = phi.compose(power)
        ker = _k.kernel_columns([*power.columns(), *t.relation_columns()])
        tau1 = taus[1]
        k_sum = Subgroup(t, [col[: t.dim] for col in ker] + list(tau1.generators))
        k_index = tau1.index_in(k_sum)
    c0 = g_index // k_index if g_index and not g_index % k_index else None
    _check_chain_index(c0, d)
    return nu + s, d


def _torsion_block(endo):
    """The torsion block of an endomorphism of Z^r + T, as an endomorphism
    of T (endo itself when r = 0)."""
    g = endo.source
    r = g.free_rank
    if not r:
        return endo
    t = FgAbGroup(0, g.torsion)
    return GroupHom.from_columns(t, t, [col[r:] for col in endo.columns()[r:]], check=False)


def _check_chain_index(c0, c1):
    if c0 is None or c0 < 2 or c0 != c1:
        raise AssertionError(f"failing chain index is not a constant >= 2: {c0}, {c1}")


def eventual_image(endo):
    """The largest subgroup W of G with endo(W) = W, for an endomorphism.

    Equals the intersection of the images of all powers of endo.  Write
    G = Z^r + T and let A be the free block of endo (its first r rows and
    columns; torsion columns are zero there).  The projection to Z^r maps
    endo^j(G) onto A^j(Z^r), so W projects into the eventual lattice W_A of
    A, which is the integer kernel of u(A) for the unit part u of
    charpoly(A) (`eventual_image_lattice`), and A is an automorphism of it.
    The walk starts at H = W_A + T, the preimage of W_A: endo(H) lies in H,
    every term endo^j(H) contains W and still projects onto W_A, so the
    chain loses index only inside T and settles within log2|T| + 1 pushes,
    at a term V with endo(V) = V, which lies in W.  So V = W.
    """
    if endo.source != endo.target:
        raise InputError("eventual_image needs an endomorphism")
    g = endo.source
    r = g.free_rank
    a_cols = [col[:r] for col in endo.columns()[:r]]
    w_free = eventual_image_lattice(a_cols) if r else []
    pad = [0] * len(g.torsion)
    gens = [list(c) + pad for c in w_free] + list(Subgroup.torsion_block(g).generators)
    cur = Subgroup(g, gens)
    nxt = _push(endo, cur)
    basis = cur.lattice_basis()
    if any(_k.lattice_coordinates(basis, c) is None for c in nxt.lattice_basis()):
        raise AssertionError("eventual lattice of the free block is not endo-invariant")
    for _ in range(prod(g.torsion).bit_length() + 1):
        if nxt.equals(cur):
            return cur
        cur, nxt = nxt, _push(endo, nxt)
    raise AssertionError("eventual image walk did not settle within log2|T| + 1 pushes")


# -- Mittag-Leffler ------------------------------------------------------


class MLLevel(
    namedtuple("MLLevel", "level stable stable_from index", defaults=(None, None))
):
    """Per-level certificate entry.

    stable_from: horizon m with Im(f_{n,m}) = Im(f_{n,m'}) for all m' >= m
    (verified one further period); index: for failures, the constant index
    of Im(f_{n,m+p}) inside Im(f_{n,m}), checked at two consecutive
    periods, m-p -> m and m -> m+p (s-1 -> s and s -> s+1 in the steps of
    `_image_chain`).  With a nonsingular free block A the second is
    |det A|, computed once per free rank of the tail and shared by its
    levels, and the first is measured through the one lattice of positive
    free rank the walk reduces: the index of Im(endo) in the level's group,
    the product of its echelon pivots, divided by the index of torsion
    lattices [K : K & Im(endo)] for the kernel K of endo^(s-1), which lies
    in the torsion part.  With a singular A the walk restricts endo to the
    first term of its chain whose free rank the next term keeps; that
    restriction's free block is nonsingular, and both indices are taken on
    it, at the cost of one more det.  The two must agree, so the recorded
    index is also a lattice index.

    On a tower tail every entry is stable: the certificate verifies that each
    drop map of the first period (levels k+1..k+p) is surjective, so every
    composite of drops is, and records stable_from = max(n, k+1).
    """

    __slots__ = ()


class MLCertificate(namedtuple("MLCertificate", "verdict per_level")):
    __slots__ = ()

    def failure_levels(self):
        return [e for e in self.per_level if not e.stable]

    def to_json(self):
        return {
            "verdict": self.verdict,
            "per_level": [
                {
                    "level": e.level,
                    "stable": e.stable,
                    "stable_from": e.stable_from,
                    "index": e.index,
                }
                for e in self.per_level
            ],
        }


def _stable_level(s, n, m):
    """The certificate entry for level n, whose image chain is verified
    stable from m: Im(f_{n,m}) = Im(f_{n,m+p})."""
    if not subgroup_equal(image(s.map_between(n, m)), image(s.map_between(n, m + s.period))):
        raise AssertionError(f"image chain at level {n} is not stable from {m}")
    return MLLevel(n, True, stable_from=m)


def is_mittag_leffler(s):
    """Eventual-constancy certificate for every image chain Im(f_{n,m}).

    The verdict is decided at the tail levels (prefix chains are images of
    tail chains, and images of eventually constant chains are eventually
    constant); the certificate still records a verified horizon per level.

    Tail levels of equal free rank share det A for the free blocks A of
    their period composites: for levels n < m of rank r, the free blocks
    are XY and YX with X the r x r free block of f_{n,m} and Y that of
    f_{m,n+p}, and det XY = det X det Y = det YX.  So det A is computed
    once per free rank and handed to `_image_chain`, which still compares
    it with each level's own lattice index.  A level with det A = 0 takes
    one more det, on the restriction of its period composite to a
    rank-stable term of its image chain (unless that term is finite).
    """
    _require_tail(s)
    k = s.prefix_len
    p = s.period
    if isinstance(s.tail, TowerTail):
        # Every drop is a direct-sum projection; checking one period's drops
        # makes every composite f_{n,m} with n >= k+1 surjective, so
        # Im f_{n,m} = Im f_{n,max(n,k+1)} for all m >= max(n, k+1).
        for n in range(k + 1, k + p + 1):
            if not fgab.is_surjective(s.map_at(n)):
                raise AssertionError(f"tower drop map at level {n} is not surjective")
        entries = [MLLevel(n, True, stable_from=max(n, k + 1)) for n in range(1, k + p + 1)]
        return MLCertificate(True, tuple(entries))

    entries = {}
    worst = 0
    verdict = True
    dets = {}  # tail free rank -> |det| of the free block of its composites
    for j in range(p):
        level = k + 1 + j
        endo = s.map_between(level, level + p)
        r = endo.source.free_rank
        if r not in dets:
            dets[r] = _free_det(endo)
        steps, idx = _image_chain(endo, dets[r])
        if idx is None:
            entries[level] = MLLevel(level, True, stable_from=level + steps * p)
            worst = max(worst, steps)
        else:
            verdict = False
            entries[level] = MLLevel(
                level, False, stable_from=level + steps * p, index=idx
            )
    if verdict:
        for n in range(1, k + 1):
            entries[n] = _stable_level(s, n, k + 1 + worst * p)
    # With a failing tail the prefix chains are not analyzed: the verdict is
    # already decided and the certificate carries the tail failure witnesses.
    per_level = tuple(entries[n] for n in sorted(entries))
    return MLCertificate(verdict, per_level)


# -- surjectivization ----------------------------------------------------


def stable_images(s):
    """Exact stable image subgroup at each represented level (1..k+p).

    The first tail level k+1 gets the eventual image W_{k+1} of its period
    endomorphism; every other level n gets f_n(W_{n+1}), pushed down from
    level k+1 around the cycle (from W_{k+p+1} = W_{k+1}) and then through
    the prefix.  On the tail this is still each level's own eventual image:
    with endo_n = f_{n,n+p} and g = f_{n+1,n+p}, f_n o endo_{n+1} =
    endo_n o f_n makes f_n(W_{n+1}) endo_n-invariant, so it lies in W_n, and
    g(W_n) lies in W_{n+1} likewise, so W_n = f_n(g(W_n)) lies in
    f_n(W_{n+1}).  On the prefix, the pushforward (rather than the raw
    intersection of images) is what makes the restricted system surjective
    while preserving the limit.  A tower tail's levels are full.
    """
    _require_tail(s)
    k = s.prefix_len
    p = s.period
    out = {}
    if isinstance(s.tail, TowerTail):
        for j in range(p):
            level = k + 1 + j
            out[level] = Subgroup.full(s.group_at(level))
        w1 = out[k + 1]
    else:
        w1 = eventual_image(s.map_between(k + 1, k + 1 + p))
        out[k + 1] = w = w1
        for level in range(k + p, k + 1, -1):
            out[level] = w = _push(s.map_at(level), w)
    w = w1
    for n in range(k, 0, -1):
        out[n] = w = _push(s.map_at(n), w)
    return out


def surjectivize_with_inclusions(s):
    """(surjectivized system, dict level -> Subgroup of the original group)."""
    _require_tail(s)
    k = s.prefix_len
    p = s.period
    subs = stable_images(s)
    new_prefix = [subs[n].normal_form for n in range(1, k + 1)]
    new_maps = [hom_restrict(s.map_at(n), subs[n + 1], subs[n]) for n in range(1, k)]
    if isinstance(s.tail, TowerTail):
        if k:
            # the junction keeps the tower base's own generators: the full
            # subgroup's inclusion permutes free coordinates when free_rank >= 2
            new_maps.append(hom_into_subgroup(s.map_at(k), subs[k]))
        return InverseSystem(new_prefix, new_maps, s.tail), subs
    if k:
        new_maps.append(hom_restrict(s.map_at(k), subs[k + 1], subs[k]))
    cyc_groups = tuple(subs[n].normal_form for n in range(k + 1, k + p + 1))
    cyc_maps = tuple(
        hom_restrict(s.map_at(n), subs[n + 1 if n < k + p else k + 1], subs[n])
        for n in range(k + 1, k + p + 1)
    )
    return InverseSystem(new_prefix, new_maps, CycleTail(cyc_groups, cyc_maps)), subs


def surjectivize(s):
    """Restriction to stable images; all bonding maps become surjective."""
    out, _subs = surjectivize_with_inclusions(s)
    for n in range(1, out.prefix_len + out.period + 1):
        if not fgab.is_surjective(out.map_at(n)):
            raise AssertionError(f"surjectivization left a non-surjective map at {n}")
    return out


# -- cofinal restriction -------------------------------------------------


def restrict_cofinal(s, stride, offset=0):
    """System indexed by the levels offset + stride*i, with composite maps."""
    if stride < 1:
        raise InputError("stride must be >= 1")
    if offset < 0:
        raise InputError("offset must be >= 0")
    if stride == 1 and offset == 0:
        return s

    def old(i):
        return offset + stride * i

    if s.is_chain():
        length = s.chain_length
        levels = [old(i) for i in range(1, length + 1) if old(i) <= length]
        if not levels:
            raise PreconditionError("restriction selects no levels of the chain")
        groups = [s.group_at(l) for l in levels]
        maps = [s.map_between(levels[i], levels[i + 1]) for i in range(len(levels) - 1)]
        return chain_system(groups, maps)

    k = s.prefix_len
    p = s.period
    t0 = 1
    while old(t0) < k + 1:
        t0 += 1
    new_p = p // gcd(p, stride)
    new_prefix = [s.group_at(old(i)) for i in range(1, t0)]
    new_maps = [s.map_between(old(i), old(i + 1)) for i in range(1, t0)]
    if isinstance(s.tail, CycleTail):
        cyc_groups = tuple(s.group_at(old(t0 + j)) for j in range(new_p))
        cyc_maps = tuple(
            s.map_between(old(t0 + j), old(t0 + j + 1)) for j in range(new_p)
        )
        return InverseSystem(new_prefix, new_maps, CycleTail(cyc_groups, cyc_maps))
    # tower: regroup stride-many consecutive layers into one block layer
    base_level = old(t0)
    base = s.group_at(base_level)
    layers = s.tail.layers
    blocks = []
    for j in range(new_p):
        lo = base_level + j * stride  # old levels (lo, lo+stride]
        atoms = [
            layers[(t - k - 2) % p] for t in range(lo + 1, lo + stride + 1)
        ]
        blocks.append(direct_sum(*atoms)[0])
    return InverseSystem(new_prefix, new_maps, TowerTail(base, tuple(blocks)))


# -- kernels and stabilization -------------------------------------------


def _check_surjective_window(s, upto):
    for n in range(1, upto):
        if not fgab.is_surjective(s.map_at(n)):
            raise PreconditionError(
                f"bonding map at level {n} is not surjective; surjectivize first"
            )


def kernel_sequence(s, upto=None):
    """[(level, X_n, finite?)] with X_1 = G_1 and X_n = ker f_{n-1} for n >= 2.

    Reported through one full tail period (levels 1..k+p+1 by default);
    deeper kernels repeat with period p.  On a tower, the bonding map into
    a tail level is the drop `G_t + L -> G_t` of a direct sum, whose kernel
    is the layer L itself (already in normal form), so those kernels are
    read off the layers instead of reducing the drop maps.
    """
    _require_tail(s)
    k = s.prefix_len
    p = s.period
    if upto is None:
        upto = k + p + 1
    _check_surjective_window(s, upto)
    layers = s.tail.layers if isinstance(s.tail, TowerTail) else None
    out = []
    g1 = s.group_at(1)
    out.append((1, g1, g1.is_finite()))
    for n in range(2, upto + 1):
        if layers is not None and n >= k + 2:
            x = layers[(n - k - 2) % p]
        else:
            x = kernel(s.map_at(n - 1))[0].normal_form
        out.append((n, x, x.is_finite()))
    return out


def stabilizes(s):
    """(True, least index from which all bonding maps are isomorphisms) or
    (False, None)."""
    return stabilization(kernel_sequence(s), s.prefix_len)


def stabilization(seq, prefix_len):
    """stabilizes() read off a kernel sequence of a system with that prefix."""
    tail_start = prefix_len + 2  # kernels of tail maps sit at levels k+2..k+p+1
    for level, x, _fin in seq[1:]:
        if level >= tail_start and not x.is_trivial():
            return False, None
    last = 1
    for level, x, _fin in seq[1:]:
        if not x.is_trivial():
            last = max(last, level)
    return True, last
