"""The coherence-difference map on truncated chains, its kernel and
cokernel, derived-limit verdicts, and exactness checks for short exact
sequences of systems.

On a finite window the difference map sends an N-tuple to the (N-1)-tuple
of defects x_n - f_n(x_{n+1}); its kernel is the group of coherent tuples
(isomorphic to G_N via the coherence graph) and its cokernel vanishes by
backward substitution.  For full systems only the zero/uncountable
dichotomy of the derived limit is reported, driven by the image-chain
certificate.
"""

from collections import namedtuple

from prolim import fgab
from prolim.errors import InputError, PreconditionError
from prolim.fgab import (
    GroupHom,
    direct_sum,
    hom_into_subgroup,
    hom_sum,
    image,
    kernel,
    quotient,
    subgroup_equal,
)
from prolim.invsys import (
    CycleTail,
    InverseSystem,
    _push,
    is_mittag_leffler,
    stable_images,
    surjectivize_with_inclusions,
)


class TruncatedChain(namedtuple("TruncatedChain", "groups maps")):
    """Groups at levels 1..N and bonding maps f_n : G_{n+1} -> G_n."""

    __slots__ = ()

    def __new__(cls, groups, maps):
        if not groups:
            raise InputError("a truncated chain needs at least one level")
        if len(maps) != len(groups) - 1:
            raise InputError(f"{len(groups)} levels take {len(groups) - 1} maps")
        for i, h in enumerate(maps):
            if h.source != groups[i + 1] or h.target != groups[i]:
                raise InputError(f"map {i + 1} does not match its levels")
        return super().__new__(cls, groups, maps)

    @property
    def length(self):
        return len(self.groups)

    @classmethod
    def of_system(cls, s, n):
        groups = tuple(s.group_at(i) for i in range(1, n + 1))
        maps = tuple(s.map_at(i) for i in range(1, n))
        return cls(groups, maps)


def delta(chain, x):
    """(x_1 - f_1(x_2), ..., x_{N-1} - f_{N-1}(x_N))."""
    if len(x) != chain.length:
        raise InputError("tuple length does not match the chain")
    for g, xi in zip(chain.groups, x):
        if len(xi) != g.dim:
            raise InputError("tuple entry does not live in its level group")
    out = []
    for n in range(chain.length - 1):
        g = chain.groups[n]
        out.append(g.sub(g.reduce(x[n]), chain.maps[n].apply(x[n + 1])))
    return tuple(out)


def _delta_hom(chain):
    """The difference map as a hom between the product groups."""
    groups = chain.groups
    n = len(groups)
    dom, dom_incl, dom_proj = direct_sum(*groups)
    if n == 1:
        cod = fgab.ZERO_GROUP
        return GroupHom.zero(dom, cod), (dom, dom_incl, dom_proj), (cod, [], [])
    cod, cod_incl, cod_proj = direct_sum(*groups[:-1])
    terms = []
    for lvl in range(n - 1):
        # incl_cod[lvl] o (proj_dom[lvl] - f_lvl o proj_dom[lvl+1])
        terms.append(cod_incl[lvl].compose(dom_proj[lvl]))
        terms.append(cod_incl[lvl].compose(chain.maps[lvl].compose(dom_proj[lvl + 1])))
    return (
        hom_sum(dom, cod, terms, [1, -1] * (n - 1)),
        (dom, dom_incl, dom_proj),
        (cod, cod_incl, cod_proj),
    )


def lim_truncated(chain):
    """(normal form of ker delta, witness iso from G_N into it).

    The witness realizes the coherence graph x_N -> (f_{1,N}(x_N), ..., x_N).
    """
    dh, (dom, dom_incl, _dp), _cod = _delta_hom(chain)
    ker_sub, _incl = kernel(dh)
    n = chain.length
    g_top = chain.groups[-1]
    # graph map G_N -> product
    comp = GroupHom.identity(g_top)
    parts = []
    for lvl in range(n - 1, -1, -1):
        parts.append(dom_incl[lvl].compose(comp))
        if lvl:
            comp = chain.maps[lvl - 1].compose(comp)
    witness = hom_into_subgroup(hom_sum(g_top, dom, parts, [1] * n), ker_sub)
    return ker_sub.normal_form, witness


def lim1_truncated(chain):
    """Cokernel of the truncated difference map; zero on any finite window."""
    dh, _dom, (cod, _ci, _cp) = _delta_hom(chain)
    q, _proj = quotient(cod, image(dh))
    return q


class Lim1Verdict(namedtuple("Lim1Verdict", "value certificate")):
    # value: "Zero" | "Uncountable"; certificate: the MLCertificate
    __slots__ = ()

    def to_json(self):
        return {"value": self.value, "certificate": self.certificate.to_json()}


def lim1_verdict(s):
    """Zero iff the image chains are eventually constant, else Uncountable."""
    cert = is_mittag_leffler(s)
    return Lim1Verdict("Zero" if cert.verdict else "Uncountable", cert)


class SystemSES(namedtuple("SystemSES", "sub mid quot inclusions projections")):
    """Levelwise short exact sequence of systems sharing one cycle shape.

    inclusions[n-1]: sub-level-n group -> mid-level-n group
    projections[n-1]: mid-level-n group -> quot-level-n group
    for n = 1..k+p; deeper levels repeat with the period.
    """

    __slots__ = ()

    def __new__(cls, sub, mid, quot, inclusions, projections):
        for s in (sub, mid, quot):
            if not isinstance(s.tail, CycleTail):
                raise PreconditionError(
                    "system short exact sequences need literal cycle tails"
                )
        k = sub.prefix_len
        p = sub.period
        for s in (mid, quot):
            if s.prefix_len != k or s.period != p:
                raise InputError("the three systems must share prefix length and period")
        if len(inclusions) != k + p or len(projections) != k + p:
            raise InputError(f"need levelwise maps for levels 1..{k + p}")
        return super().__new__(cls, sub, mid, quot, inclusions, projections)

    @property
    def window(self):
        return self.sub.prefix_len + self.sub.period

    def incl_at(self, n):
        k, p = self.sub.prefix_len, self.sub.period
        return self.inclusions[n - 1 if n <= k + p else k + ((n - k - 1) % p)]

    def proj_at(self, n):
        k, p = self.sub.prefix_len, self.sub.period
        return self.projections[n - 1 if n <= k + p else k + ((n - k - 1) % p)]


def check_ses(ses):
    """Levelwise exactness plus commuting squares with the bonding maps."""
    w = ses.window
    for n in range(1, w + 1):
        inc = ses.incl_at(n)
        prj = ses.proj_at(n)
        if inc.source != ses.sub.group_at(n) or inc.target != ses.mid.group_at(n):
            return False
        if prj.source != ses.mid.group_at(n) or prj.target != ses.quot.group_at(n):
            return False
        if not fgab.is_injective(inc):
            return False
        if not fgab.is_surjective(prj):
            return False
        ker_sub, _ = kernel(prj)
        if not subgroup_equal(image(inc), ker_sub):
            return False
    for n in range(1, w + 1):
        inc_hi = ses.incl_at(n + 1)
        prj_hi = ses.proj_at(n + 1)
        if ses.incl_at(n).compose(ses.sub.map_at(n)) != ses.mid.map_at(n).compose(inc_hi):
            return False
        if ses.proj_at(n).compose(ses.mid.map_at(n)) != ses.quot.map_at(n).compose(prj_hi):
            return False
    return True


def surjectivization_ses(s):
    """The SES (stable images) -> (system) -> (levelwise quotients)."""
    if not isinstance(s.tail, CycleTail):
        raise PreconditionError("surjectivization SES needs a literal cycle tail")
    sub_sys, subs = surjectivize_with_inclusions(s)
    k, p = s.prefix_len, s.period
    w = k + p
    incls = [subs[n].inclusion() for n in range(1, w + 1)]
    # each level's quotient presentation serves both its projection and,
    # as the source of an induced map, its lift
    pres = {
        n: fgab.cokernel_presentation(s.group_at(n).dim, subs[n].lattice_basis())
        for n in range(1, w + 1)
    }
    projs = {
        n: GroupHom.from_columns(s.group_at(n), pr.group, pr.project, check=False)
        for n, pr in pres.items()
    }

    def induced(n):
        # quot-level map: project o f_n o (any lift); well-definedness holds
        # because the bonding maps preserve the stable images
        src = pres[n + 1 if n + 1 <= w else k + 1]
        down = projs[n].compose(s.map_at(n))
        return GroupHom.from_columns(src.group, pres[n].group, [down.apply(c) for c in src.lift])

    quot_prefix = [pres[n].group for n in range(1, k + 1)]
    quot_maps = [induced(n) for n in range(1, k + 1)]
    quot_cycle = CycleTail(
        tuple(pres[k + 1 + j].group for j in range(p)),
        tuple(induced(k + 1 + j) for j in range(p)),
    )
    quot_sys = InverseSystem(quot_prefix, quot_maps, quot_cycle)
    return SystemSES(sub_sys, s, quot_sys, tuple(incls), tuple(projs[n] for n in range(1, w + 1)))


def six_term_report(ses):
    """Derived-limit verdicts, limit classifications, and the consistency
    checks available at desk scale for a levelwise SES of systems."""
    if not check_ses(ses):
        raise PreconditionError("not a levelwise short exact sequence of systems")
    from prolim.classify import classify_limit

    verdicts = {
        "sub": lim1_verdict(ses.sub),
        "mid": lim1_verdict(ses.mid),
        "quot": lim1_verdict(ses.quot),
    }
    classes = {
        name: classify_limit(sys_)[0]
        for name, sys_ in (("sub", ses.sub), ("mid", ses.mid), ("quot", ses.quot))
    }
    # lim(mid) -> lim(quot) surjectivity at the stable level: the projection
    # must carry the mid stable images onto the quot stable images
    mid_stable = stable_images(ses.mid)
    quot_stable = stable_images(ses.quot)
    sub_stable = stable_images(ses.sub)
    w = ses.window
    lifting_surjective = True
    for n in range(1, w + 1):
        pushed = _push(ses.proj_at(n), mid_stable[n])
        if not subgroup_equal(pushed, quot_stable[n]):
            lifting_surjective = False
            break
    implication_holds = lifting_surjective or verdicts["sub"].value == "Uncountable"

    all_ml = all(v.value == "Zero" for v in verdicts.values())
    lim_row_exact = None
    if all_ml:
        lim_row_exact = True
        for n in range(1, w + 1):
            inc = ses.incl_at(n)
            prj = ses.proj_at(n)
            im_sub = _push(inc, sub_stable[n])
            ker_sub, _ = kernel(prj)
            ker_in_stable = ker_sub.intersection(mid_stable[n])
            if not subgroup_equal(im_sub, ker_in_stable):
                lim_row_exact = False
            if not subgroup_equal(_push(prj, mid_stable[n]), quot_stable[n]):
                lim_row_exact = False
    return {
        "lim1": {name: v.value for name, v in verdicts.items()},
        "lim_class": {name: c.to_json() for name, c in classes.items()},
        "checks": {
            "mid_to_quot_stable_surjective": lifting_surjective,
            "failure_forces_uncountable_sub": implication_holds,
            "lim_row_exact": lim_row_exact,
        },
        "certificates": {name: v.to_json() for name, v in verdicts.items()},
    }
