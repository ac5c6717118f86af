"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is either a hand-derived fixture verdict, an
independent oracle (enumeration, element-wise application, subgroup
arithmetic), or an exact byte comparison; nothing is tuned to the code
under test.
"""

import ast
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from prolim import classify as C
from prolim import fgab as F
from prolim import homalg as H
from prolim import invsys as I
from prolim import prospace as P
from prolim import topgrp as T
from prolim.errors import EnumerationCapExceeded

from conftest import (
    FIXTURES,
    REPO_ROOT,
    abelian_groups_upto,
    all_subgroups,
    random_finite_cycle_system,
    random_system,
)


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def fixture_path(name):
    return os.path.join(FIXTURES, f"{name}.json")


def load_system(name):
    with open(fixture_path(name)) as fh:
        return I.InverseSystem.from_json(json.load(fh)["system"])


FIVE_CLASS_EXPECTED = {
    # hand-derived: stabilization and kernel data are immediate for each
    "const-z2": ("Finite", 2),
    "const-z": ("CountableDiscrete", None),
    "tower-z2": ("Cantor", None),
    "tower-z-base": ("NCrossCantor", None),
    "tower-baire": ("Baire", None),
    "z-times-2": ("Finite", 1),
    "cycle-z6-times-2": ("Finite", 3),
    "prefix-then-const": ("Finite", 4),
    "tower-mixed-layers": ("Cantor", None),
    "tower-z4-layers": ("NCrossCantor", None),
    "tower-z-layers-z": ("Baire", None),
    "tower-with-prefix": ("Cantor", None),
    "const-z2z": ("CountableDiscrete", None),
}


def test_criterion_1_five_class_table():
    slow = []
    for name, (tag, card) in FIVE_CLASS_EXPECTED.items():
        s = load_system(name)
        t0 = time.perf_counter()
        cls, cert = C.classify_limit(s)
        dt = time.perf_counter() - t0
        assert cls.tag == tag, (name, cls)
        if card is not None:
            assert cls.cardinality == card, (name, cls)
        if dt >= 1.0:
            slow.append((name, dt))
    assert not slow, f"classification exceeded 1 s: {slow}"
    assert len(FIVE_CLASS_EXPECTED) >= 10
    report(1, f"{len(FIVE_CLASS_EXPECTED)} fixtures matched, all under 1 s each")


def test_criterion_2_ten_class_table():
    rows = [
        "F", "N", "Cantor", "NxCantor", "Baire",
        "FxU", "NxU", "CantorxU", "NxCantorxU", "BairexU",
    ]
    hits = 0
    for row in rows:
        with open(fixture_path(f"kk-{row}")) as fh:
            doc = json.load(fh)
        b = I.InverseSystem.from_json(doc["system"])
        sb = I.InverseSystem.from_json(doc["second_system"])
        kk = C.classify_kk(b, sb)
        assert kk.symbol == row, (row, kk.symbol)
        hits += 1
    assert hits == 10
    report(2, "10/10 composite rows reproduced from fixture pairs")


def test_criterion_3_ml_and_derived_limit():
    doubling = I.constant_system(F.Z(), [[2]])
    cert = I.is_mittag_leffler(doubling)
    assert cert.verdict is False
    assert cert.failure_levels()[0].index == 2
    assert H.lim1_verdict(doubling).value == "Uncountable"

    ident = I.constant_system(F.Z())
    assert I.is_mittag_leffler(ident).verdict is True
    assert H.lim1_verdict(ident).value == "Zero"

    rng = random.Random(31)
    for _ in range(200):
        s = random_finite_cycle_system(rng)
        v = H.lim1_verdict(s)
        assert v.certificate.verdict is True and v.value == "Zero"
    rng2 = random.Random(32)
    for _ in range(200):
        s = random_system(rng2)
        assert I.is_mittag_leffler(I.surjectivize(s)).verdict is True
    report(3, "doubling/identity verdicts, 200 finite ML, 200 surjectivized ML")


def test_criterion_4_surjectivization_preserves_counts():
    rng = random.Random(41)
    level = 8
    for _ in range(100):
        s = random_finite_cycle_system(rng)
        so = I.surjectivize(s)
        horizon = level + 4 * s.period
        extendable = F.image(s.map_between(level, horizon)).normal_form.order()
        assert extendable == so.group_at(level).order(), s.to_json()
    report(4, "100 random finite systems: extendable tuple counts match exactly")


def _metric_fraction(d):
    if d.kind == "zero":
        return Fraction(0), Fraction(0)
    v = Fraction(1, 2 ** d.exponent)
    return (v, v) if d.kind == "exact" else (Fraction(0), v)


def test_criterion_5_metric_suite():
    z_orders = [2, 4, 8, 16]
    groups = [F.Zmod(n) for n in z_orders]
    maps = [F.GroupHom(groups[i + 1], groups[i], [[1]]) for i in range(3)]
    chain = I.chain_system(groups, maps)
    tuples = P.enumerate_tuples(chain, 4)
    rng = random.Random(51)
    for _ in range(1000):
        x, y, z = (rng.choice(tuples) for _ in range(3))
        dxy, dyx = P.metric(x, y), P.metric(y, x)
        assert dxy == dyx
        lo_xz, hi_xz = _metric_fraction(P.metric(x, z))
        _lo1, hi_xy = _metric_fraction(dxy)
        _lo2, hi_yz = _metric_fraction(P.metric(y, z))
        assert hi_xz <= hi_xy + hi_yz
        assert hi_xz <= max(hi_xy, hi_yz)  # ultrametric
    # exhaustive ball-cylinder identity on a tower with 512 level-3 tuples
    big = I.tower_system(F.Zmod(8), [F.Zmod(8)])
    all3 = P.enumerate_tuples(big, 3)
    assert len(all3) == 512
    for n in (2, 3):
        for x in all3[:64]:
            cyl = P.cylinder_of(x, n - 1)
            for y in all3:
                d = P.metric(x, y)
                in_ball = d.kind != "exact" or d.exponent >= n
                assert in_ball == cyl.contains(y)
    # and fully exhaustively on the 8-tuple chain
    small = P.enumerate_tuples(I.chain_system(groups[:3], maps[:2]), 3)
    for n in (2, 3):
        for x in small:
            cyl = P.cylinder_of(x, n - 1)
            for y in small:
                d = P.metric(x, y)
                assert (d.kind != "exact" or d.exponent >= n) == cyl.contains(y)
    report(5, "1000 triples exact metric axioms; ball-cylinder identity exhaustive")


def test_criterion_6_cofinal_invariance():
    rng = random.Random(61)
    bijections = 0
    for _ in range(50):
        s = random_system(rng)
        base, _ = C.classify_limit(s)
        for stride in (2, 3):
            r = I.restrict_cofinal(s, stride)
            got, _ = C.classify_limit(r)
            assert got == base
            level = 2 * stride
            try:
                originals = P.enumerate_tuples(s, level, cap=700)
            except EnumerationCapExceeded:
                continue
            mapped = {
                P.restrict_tuple(s, r, stride, 0, t).entries for t in originals
            }
            target = {t.entries for t in P.enumerate_tuples(r, 2, cap=700)}
            assert len(mapped) == len(originals)  # injective
            assert mapped == target  # onto
            bijections += 1
    assert bijections >= 30
    report(6, f"50 systems invariant under strides 2,3; {bijections} exact bijections")


def test_criterion_7_splitting_exhaustion():
    t0 = time.perf_counter()
    groups = topologies = sections = 0
    for g in abelian_groups_upto(16):
        groups += 1
        for sub in all_subgroups(g):
            topologies += 1
            top = T.FiniteTopAbGroup.from_subgroup(g, sub)
            zero_i = top.index[g.zero()]
            basis = [m for m in top.basis_masks() if m >> zero_i & 1]
            assert T.translated_basis_check(top, basis)
            ctx = T.SplittingContext(top)
            for sec in ctx.sections():
                rep = T.splitting_check(top, sec, ctx)
                assert rep.ok, (g, len(sub))
                sections += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    report(
        7,
        f"{groups} groups, {topologies} topologies, {sections} sections, "
        f"zero failures in {elapsed:.1f} s",
    )


def test_criterion_8_separating_clopens():
    rng = random.Random(81)
    pools = [
        P.enumerate_tuples(I.tower_system(F.Zmod(2), [F.Zmod(2)]), 5),
        P.enumerate_tuples(I.tower_system(F.Zmod(2), [F.Zmod(3)]), 4),
        P.enumerate_tuples(
            I.chain_system(
                [F.Zmod(2), F.Zmod(4), F.Zmod(8), F.Zmod(16)],
                [
                    F.GroupHom(F.Zmod(4), F.Zmod(2), [[1]]),
                    F.GroupHom(F.Zmod(8), F.Zmod(4), [[1]]),
                    F.GroupHom(F.Zmod(16), F.Zmod(8), [[1]]),
                ],
            ),
            4,
        ),
    ]
    produced = 0
    while produced < 1000:
        pool = rng.choice(pools)
        x, y = rng.sample(pool, 2)
        if x.entries == y.entries:
            continue
        c = P.separating_clopen(x, y)
        assert c.contains(y) is True
        assert c.contains(x) is False
        produced += 1
    report(8, "1000/1000 distinct pairs separated by verified clopen cylinders")


def test_criterion_9_truncated_homology():
    rng = random.Random(91)
    for _ in range(100):
        s = random_finite_cycle_system(rng)
        n = rng.randrange(1, 6)
        ch = H.TruncatedChain.of_system(s, n)
        lim, wit = H.lim_truncated(ch)
        assert lim == ch.groups[-1]  # invariant-factor equality
        assert F.is_injective(wit) and F.is_surjective(wit)
        assert H.lim1_truncated(ch).is_trivial()
    report(9, "100 chains: ker of the defect map is G_N via the witness; coker 0")


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "prolim.cli", *args],
        capture_output=True,
        cwd=REPO_ROOT,
        env=dict(os.environ),
    )


def test_criterion_10_golden_files():
    golden_dir = os.path.join(FIXTURES, "golden")
    goldens = sorted(os.listdir(golden_dir))
    assert len(goldens) >= 30
    checked = 0
    for fname in goldens:
        stem = fname[: -len(".json")]
        for command in ("kk-classify", "classify", "ml"):
            if stem.startswith(command + "-"):
                doc_name = stem[len(command) + 1 :]
                break
        else:
            raise AssertionError(f"unrecognized golden file {fname}")
        path = fixture_path(doc_name)
        first = _run_cli(command, path)
        second = _run_cli(command, path)
        assert first.returncode == 0 and second.returncode == 0, fname
        assert first.stdout == second.stdout, fname
        with open(os.path.join(golden_dir, fname), "rb") as fh:
            assert fh.read() == first.stdout, fname
        checked += 1
    report(10, f"{checked} golden reports byte-stable across two runs")


def test_self_checks_survive_python_O():
    # `python -O` strips assert statements; internal invariants must raise
    src = os.path.join(REPO_ROOT, "src", "prolim")
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
