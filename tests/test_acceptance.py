"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every check is exact (integer/Laurent identities);
the asserted time limits are the stated budgets.
"""

import time

import pytest

from khecke.cartan import LaurentPoly, RootDatum, demazure, phi0, weyl_reflect_poly
from khecke import goldens, weyl
from khecke.grothendieck import GrothendieckEngine
from khecke.hecke import HeckeElt, group_elt_to_T, phi0_hecke, t_mul, y_elt
from khecke.localization import (PsiEngine, sl2_psi_closed, sl2_sigma,
                                 small_gkm_check, small_gkm_grassmannian_check)
from khecke.peterson import (conjecture_scan, cross_k_scan, equivariant_k_sl2,
                             expand_in_fs_basis, fomin_stanley_elt, pieri,
                             structure_d)


class _Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(num, timer, text):
    print(f"PASS criterion {num} ({timer.elapsed:.1f}s < {timer.limit}s): {text}")
    assert timer.elapsed < timer.limit, f"criterion {num} exceeded its budget"


def test_criterion_01_golden_fomin_stanley_tables():
    # the n=4 table has 11 logical rows (its 2310 row wraps over two display
    # lines in the source); every row is reproduced exactly
    rows = {
        3: {"", "0", "10", "20", "210", "120", "0210", "1210", "0120"},
        4: {"", "0", "10", "30", "210", "310", "230", "3210", "0310", "2310",
            "1230"},
    }
    with _Timer(30) as t:
        for n, labels in rows.items():
            golden = goldens.load_golden("k")[str(n)]
            assert set(golden) == labels
            assert goldens.diff_table("k", n) == []
    report(1, t, "phi_0(k_w) tables reproduce exactly (n=3: 9 rows, n=4: all "
                 "11 logical rows)")


def test_criterion_02_golden_g_tables():
    with _Timer(60) as t:
        for n in (2, 3, 4):
            assert goldens.diff_table("g", n) == []
    report(2, t, "g tables reproduce exactly in both s and k-Schur columns (n=2,3,4)")


def test_criterion_03_golden_coproduct_tables():
    with _Timer(60) as t:
        for n in (2, 3, 4):
            assert goldens.diff_table("coproduct", n) == []
        # the headline negative coefficient
        e2 = GrothendieckEngine.get(2)
        assert e2.g_coproduct((1, 1, 1)).terms[((1,), (1,))] == -2
    report(3, t, "coproduct tables coefficient-exact incl. -2 g1(x)g1 in Delta(g_111)")


def test_criterion_04_golden_G_tables():
    with _Timer(120) as t:
        for n in (2, 3):
            assert goldens.diff_table("G", n) == []
    report(4, t, "G tables reproduce the F-basis columns to degree 8 (n=2,3)")


def test_criterion_05_localization_cross_validation():
    with _Timer(60) as t:
        mismatches = 0
        A2 = RootDatum.of_type("A2")
        eng = PsiEngine(A2, "big")
        els = weyl.all_elements(A2, 6)
        for w in els:
            for v in els:
                r = eng.psi_right(v, w)
                if r != eng.psi_left(v, w) or r != eng.psi_graham_willems(v, w):
                    mismatches += 1
        # worked SL_3 value
        want = LaurentPoly(A2, {A2.zero(): 1,
                                A2.simple_root(1) + A2.simple_root(2): -1})
        assert eng.psi_right(weyl.simple(A2, 1), weyl.from_word(A2, (1, 2, 1))) == want
        af2 = RootDatum.affine_sl(2)
        for flavor in ("big", "level-zero"):
            eng2 = PsiEngine(af2, flavor)
            els2 = weyl.all_elements(af2, 8)
            for w in els2:
                for v in els2:
                    r = eng2.psi_right(v, w)
                    if r != eng2.psi_left(v, w) or \
                            r != eng2.psi_graham_willems(v, w):
                        mismatches += 1
        assert mismatches == 0
    report(5, t, "psi_right = psi_left = psi_graham_willems on all pairs "
                 "(A2 l<=6; A1~ l<=8, both flavors), zero mismatches")


def test_criterion_06_sl2_closed_forms_and_small_gkm():
    with _Timer(30) as t:
        af2 = RootDatum.affine_sl(2)
        fin = af2.finite
        lz = PsiEngine(af2, "level-zero")
        for m in range(-10, 11):
            for j in range(-10, 11):
                assert sl2_psi_closed(m, j) == \
                    lz.psi_right(sl2_sigma(af2, m), sl2_sigma(af2, j))
        alpha = fin.simple_root(1)
        for m in range(-10, 11):
            psi_of = lambda x, m=m: lz.psi_right(sl2_sigma(af2, m), x)
            for d in (1, 2, 3):
                for j in range(-10, 11):
                    w = sl2_sigma(af2, j)
                    assert small_gkm_grassmannian_check(psi_of, af2, (1, -1),
                                                        alpha, d, w)
                    assert small_gkm_check(psi_of, af2, (1, -1), alpha, d, w)
    report(6, t, "sl2 closed forms match the recurrence (|m|,|j| <= 10); "
                 "small-torus GKM divisibility exact for d <= 3")


def test_criterion_07_equivariant_sl2():
    with _Timer(10) as t:
        af2 = RootDatum.affine_sl(2)
        fin = af2.finite
        one = LaurentPoly.one(fin)
        em = LaurentPoly.monomial(-fin.simple_root(1))
        ep = LaurentPoly.monomial(fin.simple_root(1))
        # k_empty, k_{sigma_1}, k_{sigma_2}
        assert equivariant_k_sl2(0).int_terms() == {weyl.identity(af2): 1}
        k1 = equivariant_k_sl2(1)
        assert k1.terms == {weyl.simple(af2, 0): one, weyl.simple(af2, 1): one,
                            weyl.from_word(af2, (0, 1)): one - em}
        k2 = equivariant_k_sl2(2)
        assert k2.terms == {weyl.from_word(af2, (1, 0)): one,
                            weyl.from_word(af2, (0, 1)): em}
        # t_alpha, t_{-alpha} expansions
        exp = group_elt_to_T(weyl.from_word(af2, (0, 1)))
        assert exp.terms == {weyl.from_word(af2, (0, 1)): (one - em) * (one - em),
                             weyl.simple(af2, 0): one - em,
                             weyl.simple(af2, 1): one - em,
                             weyl.identity(af2): one}
        exp = group_elt_to_T(weyl.from_word(af2, (1, 0)))
        assert exp.terms == {weyl.from_word(af2, (1, 0)): (one - ep) * (one - ep),
                             weyl.simple(af2, 0): one - ep,
                             weyl.simple(af2, 1): one - ep,
                             weyl.identity(af2): one}
        e2 = GrothendieckEngine.get(2)
        for r in range(0, 3):
            assert phi0_hecke(equivariant_k_sl2(r)) == \
                fomin_stanley_elt(e2, (1,) * r)
    report(7, t, "equivariant k_empty, k_{sigma_1}, k_{sigma_2} and the "
                 "t_{+-alpha} expansions match; phi_0 agrees with phi_0(k_w)")


def test_criterion_08_pieri_structure_consistency():
    with _Timer(300) as t:
        for n in (2, 3, 4):
            engine = GrothendieckEngine.get(n)
            for lam in engine.bounded(7):
                for i in range(1, n):
                    prod = t_mul(engine.kappa(i), fomin_stanley_elt(engine, lam))
                    assert pieri(engine, i, lam) == \
                        expand_in_fs_basis(engine, prod)
                    # signed-count formula vs direct expansion (checked inside)
                    assert structure_d(engine, (i,), lam) == \
                        pieri(engine, i, lam)
        # sampled general pairs against the Hopf isomorphism
        for n in (2, 3, 4):
            engine = GrothendieckEngine.get(n)
            labels = engine.bounded(5)
            pairs = [(u, v) for u in labels for v in labels
                     if sum(u) + sum(v) <= 7 and u <= v]
            if n == 4:
                pairs = pairs[::3]
            for u, v in pairs:
                assert structure_d(engine, u, v) == engine.g_multiply(u, v)
    report(8, t, "Pieri counts = product expansions (n<=4, l(v)<=7); signed-count = "
                 "direct; sampled d^w_{uv} match g-basis products")


def test_criterion_09_identity_suite():
    with _Timer(60) as t:
        import random
        rng = random.Random(0)
        # braid + idempotent relations as operators
        for typ, m in (("A2", 3), ("B2", 4), ("G2", 6)):
            datum = RootDatum.of_type(typ)
            i, j = datum.nodes
            seq1 = [i if k % 2 == 0 else j for k in range(m)]
            seq2 = [j if k % 2 == 0 else i for k in range(m)]
            for _ in range(10):
                p = LaurentPoly(datum, {
                    datum.weight(tuple(rng.randint(-2, 2)
                                       for _ in range(datum.rank))):
                    rng.randint(-2, 2) or 1 for _ in range(3)})
                q1, q2 = p, p
                for k in reversed(seq1):
                    q1 = demazure(datum, k, q1)
                for k in reversed(seq2):
                    q2 = demazure(datum, k, q2)
                assert q1 == q2
                d = demazure(datum, i, p)
                assert demazure(datum, i, d) == -d
        # Leibniz rule, 200 random pairs
        sl3 = RootDatum.sl(3)
        for _ in range(200):
            i = rng.choice((1, 2))
            mk = lambda: LaurentPoly(sl3, {
                sl3.weight((rng.randint(-2, 2), rng.randint(-2, 2), 0)):
                rng.randint(-2, 2) or 1 for _ in range(3)})
            q, qq = mk(), mk()
            assert demazure(sl3, i, q * qq) == \
                demazure(sl3, i, q) * qq + \
                weyl_reflect_poly(sl3, i, q) * demazure(sl3, i, qq)
        # phi_0 multiplicativity
        for _ in range(100):
            p = LaurentPoly(sl3, {sl3.weight((rng.randint(-3, 3),
                                              rng.randint(-3, 3), 0)):
                                  rng.randint(-3, 3) or 1 for _ in range(3)})
            q = LaurentPoly(sl3, {sl3.weight((rng.randint(-3, 3),
                                              rng.randint(-3, 3), 0)):
                                  rng.randint(-3, 3) or 1 for _ in range(3)})
            assert phi0(p * q) == phi0(p) * phi0(q)
        # y_w = sum_{v <= w} T_v: fold of (1 + T_i) along the word
        for datum in (RootDatum.of_type("A2"), RootDatum.affine_sl(2)):
            coeffs = datum.coefficient_lattice()
            for w in weyl.all_elements(datum, 4):
                acc = HeckeElt.one(datum, coeffs)
                for i in w.word:
                    yi = HeckeElt.one(datum, coeffs) + \
                        HeckeElt.T(weyl.simple(datum, i), coeffs)
                    acc = t_mul(acc, yi)
                assert acc == y_elt(w)
        # Moebius inversion on Bruhat intervals, l <= 4
        for datum in (RootDatum.of_type("A2"), RootDatum.affine_sl(2)):
            els = weyl.all_elements(datum, 4)
            for u in els:
                for w in els:
                    total = sum((-1) ** (v.length - u.length)
                                for v in els
                                if weyl.bruhat_leq(u, v) and weyl.bruhat_leq(v, w))
                    assert total == (1 if u == w else 0)
        # localization values equal the group-element expansion coefficients
        for datum in (RootDatum.of_type("A2"), RootDatum.affine_sl(2)):
            flavor = "big" if datum.flavor == "finite" else "level-zero"
            eng = PsiEngine(datum, flavor)
            for w in weyl.all_elements(datum, 4):
                exp = group_elt_to_T(w)
                for v in weyl.all_elements(datum, 4):
                    assert exp.coefficient(v) == eng.psi_right(v, w)
        # kappa commutativity for n <= 5 and the kappa coproduct rule for r < n <= 5
        from khecke.hecke import coproduct, phi0_tensor, TensorElt
        for n in (2, 3, 4, 5):
            engine = GrothendieckEngine.get(n)
            for i in range(1, n):
                for j in range(i, n):
                    assert t_mul(engine.kappa(i), engine.kappa(j)) == \
                        t_mul(engine.kappa(j), engine.kappa(i))
            for r in range(1, n):
                got = phi0_tensor(coproduct(engine.kappa(r)))
                want = TensorElt.zero(engine.datum, engine.fin)
                for jj in range(r + 1):
                    terms = {(u, v): LaurentPoly.one(engine.fin)
                             for u in engine.kappa(jj).int_terms()
                             for v in engine.kappa(r - jj).int_terms()}
                    want = want + TensorElt(engine.datum, engine.fin, terms)
                assert got == want
    report(9, t, "identity suite exact: braid/idempotent, Leibniz, phi_0 "
                 "multiplicativity, y_w, Moebius, Kloc, kappa commutativity, "
                 "kappa coproduct")


def test_criterion_10_conjecture_scans():
    with _Timer(900) as t:
        for n in (2, 3, 4):
            rep = conjecture_scan(n, 8)
            assert rep.passed, rep.summary()
        for n in (2, 3):
            rep = cross_k_scan(n, 6)
            assert rep.passed, rep.summary()
    report(10, t, "zero violations: CJ:sign, C:g(1)(2), C:G(1)(2)(3) for n<=4 "
                  "to length 8; C:g(3)/C:G(4) for n=2,3 vs n+1 to degree 6")


def test_criterion_11_bijection_table():
    with _Timer(5) as t:
        for n in (2, 3, 4):
            assert goldens.diff_table("bijection", n) == []
    report(11, t, "Grassmannian <-> bounded-partition table reproduced at "
                  "element level (n=2,3,4)")
