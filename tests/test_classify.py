import pytest

from prolim import classify as C
from prolim import fgab as F
from prolim import invsys as I
from prolim.errors import PreconditionError

from conftest import random_finite_cycle_system, random_system


def test_constant_finite_group_is_finite_class():
    cls, cert = C.classify_limit(I.constant_system(F.Zmod(2)))
    assert cls == C.TopologyClass(C.FINITE, 2)
    assert cert.case_label == "I.1"
    assert cert.stabilizes_at == 1


def test_constant_z_is_countable_discrete():
    cls, cert = C.classify_limit(I.constant_system(F.Z()))
    assert cls.tag == C.COUNTABLE_DISCRETE
    assert cert.case_label == "I.2"


def test_tower_of_finite_layers_is_cantor():
    cls, cert = C.classify_limit(I.tower_system(F.Zmod(2), [F.Zmod(2)]))
    assert cls.tag == C.CANTOR and cert.case_label == "II.1"
    # cross-check: every reported tail kernel is Z/2
    assert all(
        x == F.Zmod(2) for lvl, x, _f in cert.kernels if lvl >= 2
    )


def test_infinite_base_with_finite_layers_is_n_cross_cantor():
    cls, cert = C.classify_limit(I.tower_system(F.Z(), [F.Zmod(2)]))
    assert cls.tag == C.N_CROSS_CANTOR and cert.case_label == "II.2"
    assert cert.infinite_kernel_count_class == "FinitelyMany"


def test_infinite_layers_are_baire():
    cls, cert = C.classify_limit(I.tower_system(F.ZERO_GROUP, [F.Z()]))
    assert cls.tag == C.BAIRE and cert.case_label == "II.3"
    assert cert.infinite_kernel_count_class == "InfinitelyMany"
    # tail kernel is Z at every period
    assert all(x == F.Z() for lvl, x, _f in cert.kernels if lvl >= 2)


def test_doubling_system_collapses_to_a_point():
    cls, _cert = C.classify_limit(I.constant_system(F.Z(), [[2]]))
    assert cls == C.TopologyClass(C.FINITE, 1)


def test_multiple_infinite_prefix_kernels_still_countable_discrete():
    # rank-2 stable part: still one countable discrete space
    cls, _ = C.classify_limit(I.constant_system(F.Z(2)))
    assert cls.tag == C.COUNTABLE_DISCRETE


def test_classifier_is_total(rng):
    for _ in range(60):
        s = random_system(rng)
        cls, cert = C.classify_limit(s)
        assert cls.tag in (
            C.FINITE,
            C.COUNTABLE_DISCRETE,
            C.CANTOR,
            C.N_CROSS_CANTOR,
            C.BAIRE,
        )
        assert cert.case_label in ("I.1", "I.2", "II.1", "II.2", "II.3")


def test_classify_idempotent_under_surjectivization(rng):
    for _ in range(25):
        s = random_system(rng)
        a, _ = C.classify_limit(s)
        b, _ = C.classify_limit(I.surjectivize(s))
        assert a == b


def test_classify_invariant_under_cofinal_restriction(rng):
    for _ in range(20):
        s = random_system(rng)
        base, _ = C.classify_limit(s)
        for stride in (2, 3):
            r = I.restrict_cofinal(s, stride)
            got, _ = C.classify_limit(r)
            assert got == base, (s, stride)


def test_finite_cardinality_matches_tuple_count(rng):
    for _ in range(30):
        s = random_finite_cycle_system(rng)
        cls, cert = C.classify_limit(s)
        assert cls.tag == C.FINITE
        so = cert.surjectivized
        level = max(cert.stabilizes_at, so.prefix_len + so.period) + 1
        # a coherent tuple is fixed by its top coordinate
        assert cls.cardinality == so.group_at(level).order()
        # and the certificate's kernel product agrees
        prod = 1
        for _l, x, _f in cert.kernels:
            prod *= x.order()
        assert prod == cls.cardinality


def test_stable_model_examples():
    assert C.stable_model(I.constant_system(F.Zmod(2))) == F.Zmod(2)
    z2, z4 = F.Zmod(2), F.Zmod(4)
    s = I.InverseSystem(
        (z2, z4),
        (F.GroupHom(z4, z2, [[1]]), F.GroupHom.identity(z4)),
        I.CycleTail((z4,), (F.GroupHom.identity(z4),)),
    )
    assert C.stable_model(s) == F.Zmod(4)
    with pytest.raises(PreconditionError):
        C.stable_model(I.tower_system(F.Zmod(2), [F.Zmod(2)]))


TEN_ROWS = {
    "F": (I.constant_system(F.Zmod(2)), "Zero"),
    "N": (I.constant_system(F.Z()), "Zero"),
    "Cantor": (I.tower_system(F.Zmod(2), [F.Zmod(2)]), "Zero"),
    "NxCantor": (I.tower_system(F.Z(), [F.Zmod(2)]), "Zero"),
    "Baire": (I.tower_system(F.ZERO_GROUP, [F.Z()]), "Zero"),
}


@pytest.mark.parametrize("ml_holds", [True, False])
@pytest.mark.parametrize("base", sorted(TEN_ROWS))
def test_all_ten_rows(base, ml_holds):
    b_sys, _ = TEN_ROWS[base]
    sb = I.constant_system(F.Z()) if ml_holds else I.constant_system(F.Z(), [[2]])
    kk = C.classify_kk(b_sys, sb)
    expected = base + ("" if ml_holds else "xU")
    assert kk.symbol == expected
    assert kk.closure_of_zero == ("Zero" if ml_holds else "UncountableIndiscrete")


def test_classify_limit_walks_the_kernel_sequence_once(monkeypatch):
    calls = []
    real = I.kernel_sequence

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(I, "kernel_sequence", counting)
    monkeypatch.setattr(C, "kernel_sequence", counting)
    _cls, cert = C.classify_limit(I.constant_system(F.Zmod(2)))
    assert cert.stabilizes_at == 1
    assert len(calls) == 1
