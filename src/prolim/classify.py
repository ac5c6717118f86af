"""Topological classification of inverse limits from kernel data.

After surjectivization the limit's homeomorphism type is read off the
kernel sequence: whether the system stabilizes, and how many kernels are
infinite.  Five classes arise (finite set, countable discrete, Cantor set,
N x Cantor, Baire space); paired with the zero/uncountable dichotomy of
the derived limit of a second system they give the ten composite classes.
"""

from collections import namedtuple

from prolim.errors import PreconditionError
from prolim.homalg import lim1_verdict
from prolim.invsys import kernel_sequence, stabilization, surjectivize


FINITE = "Finite"
COUNTABLE_DISCRETE = "CountableDiscrete"
CANTOR = "Cantor"
N_CROSS_CANTOR = "NCrossCantor"
BAIRE = "Baire"

_SYMBOL = {
    FINITE: "F",
    COUNTABLE_DISCRETE: "N",
    CANTOR: "Cantor",
    N_CROSS_CANTOR: "NxCantor",
    BAIRE: "Baire",
}


class TopologyClass(namedtuple("TopologyClass", "tag cardinality", defaults=(None,))):
    # cardinality: exact |lim| for the finite class
    __slots__ = ()

    @property
    def symbol(self):
        return _SYMBOL[self.tag]

    def to_json(self):
        out = {"tag": self.tag}
        if self.cardinality is not None:
            out["cardinality"] = self.cardinality
        return out


class ClassCertificate(
    namedtuple(
        "ClassCertificate",
        "surjectivized kernels stabilizes_at"
        " infinite_kernel_count_class case_label trace",
    )
):
    """Everything the verdict was derived from.

    case_label follows the two-way split (I = stabilizes, II = not) with
    the finite/infinite kernel subcases; infinite_kernel_count_class is the
    disambiguating predicate (Zero / FinitelyMany / InfinitelyMany infinite
    kernels).
    """

    __slots__ = ()

    def to_json(self):
        return {
            "kernels": [
                {"level": lvl, "group": g.to_json(), "finite": fin}
                for lvl, g, fin in self.kernels
            ],
            "stabilizes_at": self.stabilizes_at,
            "infinite_kernel_count_class": self.infinite_kernel_count_class,
            "case_label": self.case_label,
            "trace": [
                {"predicate": p, "value": v, "rule": r} for p, v, r in self.trace
            ],
        }


def classify_limit(s):
    """(TopologyClass, ClassCertificate) for the limit of the system.

    Pipeline: surjectivize, read the kernel sequence, decide stabilization,
    then walk the five-way case split.  For periodic tails "infinitely many
    infinite kernels" means some tail-period kernel is infinite (it then
    recurs every period); "finitely many" means the infinite kernels all
    sit in the prefix window.
    """
    so = surjectivize(s)
    seq = tuple(kernel_sequence(so))
    k = so.prefix_len
    tail_start = k + 2  # kernels of the repeating tail maps
    prefix_kernels = [e for e in seq if e[0] < tail_start]
    tail_kernels = [e for e in seq if e[0] >= tail_start]
    tail_infinite = any(not fin for _l, _x, fin in tail_kernels)
    prefix_infinite = any(not fin for _l, _x, fin in prefix_kernels)

    if tail_infinite:
        count_class = "InfinitelyMany"
    elif prefix_infinite:
        count_class = "FinitelyMany"
    else:
        count_class = "Zero"

    stab, idx = stabilization(seq, k)
    trace = [
        ("tail kernels all trivial (stabilizes)", stab, "stabilization split"),
        ("some tail-period kernel infinite", tail_infinite, "recurs every period"),
        ("some prefix-window kernel infinite", prefix_infinite, "occurs finitely often"),
    ]

    if stab and not prefix_infinite:
        card = 1
        for _l, x, _f in seq:
            card *= x.order()
        model = so.group_at(idx)
        if card != model.order():
            raise AssertionError(f"kernel orders multiply to {card}, not the model order")
        trace.append(("stabilized model cardinality", card, "case I.1: finite set"))
        cls = TopologyClass(FINITE, card)
        case = "I.1"
    elif stab:
        trace.append(
            (
                "stabilized model is countably infinite discrete",
                True,
                "case I.2: countable discrete",
            )
        )
        cls = TopologyClass(COUNTABLE_DISCRETE)
        case = "I.2"
    elif tail_infinite:
        cls = TopologyClass(BAIRE)
        case = "II.3"
        trace.append(
            ("infinitely many infinite kernels", True, "case II.3: Baire space")
        )
    elif prefix_infinite:
        cls = TopologyClass(N_CROSS_CANTOR)
        case = "II.2"
        trace.append(
            (
                "finitely many infinite kernels, nontrivial periodic tail",
                True,
                "case II.2: N x Cantor",
            )
        )
    else:
        cls = TopologyClass(CANTOR)
        case = "II.1"
        trace.append(
            ("all kernels finite, not stabilizing", True, "case II.1: Cantor set")
        )
    cert = ClassCertificate(so, seq, idx, count_class, case, tuple(trace))
    return cls, cert


def stable_model(s):
    """The group whose underlying discrete set is the limit of a
    stabilizing system."""
    cls, cert = classify_limit(s)
    if cert.stabilizes_at is None:
        raise PreconditionError("system does not stabilize; the limit is not discrete")
    return cert.surjectivized.group_at(cert.stabilizes_at)


class KKTopologyClass(namedtuple("KKTopologyClass", "lim_part closure_of_zero")):
    """One of the ten composite classes: a five-class limit part times the
    zero/uncountable-indiscrete closure-of-zero part."""

    # closure_of_zero: "Zero" | "UncountableIndiscrete"
    __slots__ = ()

    @property
    def symbol(self):
        base = self.lim_part.symbol
        return base + ("xU" if self.closure_of_zero == "UncountableIndiscrete" else "")

    def to_json(self):
        return {
            "lim_part": self.lim_part.to_json(),
            "closure_of_zero": self.closure_of_zero,
            "symbol": self.symbol,
        }


def classify_kk(system_b, system_sb):
    """Composite topology class from the pairing of two systems.

    The limit part classifies the first system; the closure of zero is
    trivial exactly when the second system's derived limit vanishes, and
    otherwise uncountable with the indiscrete topology.
    """
    lim_part, _cert = classify_limit(system_b)
    v = lim1_verdict(system_sb)
    closure = "Zero" if v.value == "Zero" else "UncountableIndiscrete"
    return KKTopologyClass(lim_part, closure)
