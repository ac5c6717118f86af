"""The result records of every layer: immutable, compared and hashed by
value, with the Name(field=value, ...) repr, their defaults, and the
checks that TruncatedChain and SystemSES run on construction."""

import pytest

from prolim import classify as C
from prolim import fgab as F
from prolim import homalg as H
from prolim import invsys as I
from prolim import prospace as P
from prolim import topgrp as T
from prolim.errors import InputError, PreconditionError

Z2 = F.Zmod(2)
Z4 = F.Zmod(4)
SUB, MID, QUO = I.constant_system(Z2), I.constant_system(Z4), I.constant_system(Z2)


def _identity(n):
    return F.GroupHom.identity(F.Zmod(n))


# (type, field names in positional order, make, hashable): make(v) builds
# an instance from fresh component objects; make(0) twice gives equal
# records that are not the same object, make(1) a different one.
RECORDS = [
    (C.TopologyClass, ("tag", "cardinality"), lambda v: C.TopologyClass(C.FINITE, 2 + v), True),
    (
        C.ClassCertificate,
        (
            "surjectivized",
            "kernels",
            "stabilizes_at",
            "infinite_kernel_count_class",
            "case_label",
            "trace",
        ),
        lambda v: C.ClassCertificate(
            SUB, ((2, F.Zmod(2), True),), 1 + v, "Zero", "I.1", (("p", True, "r"),)
        ),
        True,
    ),
    (
        C.KKTopologyClass,
        ("lim_part", "closure_of_zero"),
        lambda v: C.KKTopologyClass(
            C.TopologyClass(C.CANTOR), ("Zero", "UncountableIndiscrete")[v]
        ),
        True,
    ),
    (
        F.Presentation,
        ("group", "project", "lift"),
        lambda v: F.cokernel_presentation(2, [[2 + v, 0]]),
        True,
    ),
    (
        H.TruncatedChain,
        ("groups", "maps"),
        lambda v: H.TruncatedChain((F.Zmod(2 + v), F.Zmod(2 + v)), (_identity(2 + v),)),
        True,
    ),
    (
        H.Lim1Verdict,
        ("value", "certificate"),
        lambda v: H.lim1_verdict(I.constant_system(F.Z(), [[1 + v]])),
        True,
    ),
    (
        H.SystemSES,
        ("sub", "mid", "quot", "inclusions", "projections"),
        lambda v: H.SystemSES(
            SUB, MID, QUO, (F.GroupHom(Z2, Z4, [[2]]),), (F.GroupHom(Z4, Z2, [[1 - v]]),)
        ),
        True,
    ),
    (
        I.CycleTail,
        ("groups", "maps"),
        lambda v: I.CycleTail((F.Zmod(2 + v),), (_identity(2 + v),)),
        True,
    ),
    (
        I.TowerTail,
        ("base", "layers"),
        lambda v: I.TowerTail(F.Zmod(2), ((F.Zmod(2 + v),),)),
        True,
    ),
    (
        I.MLLevel,
        ("level", "stable", "stable_from", "index"),
        lambda v: I.MLLevel(3, False, 4, 2 + v),
        True,
    ),
    (
        I.MLCertificate,
        ("verdict", "per_level"),
        lambda v: I.MLCertificate(False, (I.MLLevel(1, True, 1), I.MLLevel(2, False, 2, 2 + v))),
        True,
    ),
    (P.MetricValue, ("kind", "exponent"), lambda v: P.MetricValue.exact(3 + v), True),
    (
        P.Cylinder,
        ("system", "level", "base_point"),
        lambda v: P.Cylinder(SUB, 1, (v,)),
        True,
    ),
    # its table is a dict, so a section map is not hashable
    (T.SectionMap, ("table",), lambda v: T.SectionMap({(0,): (v,)}), False),
    (
        T.SplittingReport,
        (
            "bijective",
            "forward_continuous",
            "inverse_continuous",
            "sandwich_ok",
            "opens_checked",
        ),
        lambda v: T.SplittingReport(True, True, True, True, 7 + v),
        True,
    ),
]


@pytest.mark.parametrize(
    "cls, fields, make, hashable", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_is_an_immutable_value(cls, fields, make, hashable):
    a, b, c = make(0), make(0), make(1)
    assert type(a) is cls
    assert a == b and not a != b and a is not b
    assert a != c and not a == c
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(c, name))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{cls.__name__}({shown})"


def test_record_defaults():
    assert C.TopologyClass(C.CANTOR) == C.TopologyClass(C.CANTOR, None)
    assert C.TopologyClass(C.CANTOR).to_json() == {"tag": "Cantor"}
    assert I.MLLevel(2, True) == I.MLLevel(2, True, None, None)
    assert I.MLLevel(2, True, stable_from=5) == I.MLLevel(2, True, 5, None)
    assert P.MetricValue.zero() == P.MetricValue("zero", None)
    assert str(P.MetricValue.at_most(3)) == "<=2^-3"


def test_ml_level_index_reads_the_field():
    # the field shadows tuple.index
    assert I.MLLevel(3, False, stable_from=5, index=2).index == 2
    assert I.MLLevel(1, True, 1).index is None
    cert = I.is_mittag_leffler(I.constant_system(F.Z(), [[2]]))
    assert cert.to_json()["per_level"][0]["index"] == cert.per_level[0].index == 2


def test_truncated_chain_checks_its_levels():
    with pytest.raises(InputError, match="at least one level"):
        H.TruncatedChain((), ())
    with pytest.raises(InputError, match="2 levels take 1 maps"):
        H.TruncatedChain((Z2, Z2), ())
    with pytest.raises(InputError, match="map 1 does not match its levels"):
        H.TruncatedChain((Z2, Z4), (F.GroupHom.identity(Z2),))


def test_system_ses_checks_its_systems_and_maps():
    inc, prj = F.GroupHom(Z2, Z4, [[2]]), F.GroupHom(Z4, Z2, [[1]])
    tower = I.tower_system(Z2, [Z2])
    with pytest.raises(PreconditionError, match="literal cycle tails"):
        H.SystemSES(SUB, tower, QUO, (inc,), (prj,))
    period2 = I.InverseSystem((), (), I.CycleTail((Z4, Z4), (F.GroupHom.identity(Z4),) * 2))
    with pytest.raises(InputError, match="share prefix length and period"):
        H.SystemSES(SUB, period2, QUO, (inc,), (prj,))
    with pytest.raises(InputError, match=r"levelwise maps for levels 1\.\.1"):
        H.SystemSES(SUB, MID, QUO, (), (prj,))
