import hashlib
import random
from types import SimpleNamespace

import pytest

from khecke.cartan import LaurentPoly, VerificationError
from khecke import weyl
from khecke.grothendieck import GrothendieckEngine
from khecke.hecke import (HeckeElt, coproduct, phi0_hecke, phi0_tensor, t_mul,
                          TensorElt)
from khecke.localization import sl2_sigma
from khecke.peterson import (ConjectureReport, SupportTruncationError,
                             _G_in_F, _check_centralizer, conjecture_scan,
                             cross_k_scan, equivariant_k_sl2,
                             expand_in_fs_basis, fomin_stanley_elt,
                             fomin_stanley_via_linear_system, l0_membership,
                             pieri, structure_d)

from hecke_oracle import int_mul


def elt(engine, word):
    return weyl.from_word(engine.datum, word)


class TestFominStanley:
    def test_n3_row_210(self, e3):
        fs = fomin_stanley_elt(e3, (2, 1))
        want = {elt(e3, w): 1 for w in
                [(2, 1, 0), (0, 2, 0), (0, 2, 1), (1, 0, 1), (1, 0, 2), (2, 1, 2)]}
        assert fs.int_terms() == want

    def test_n4_row_210(self, e4):
        fs = fomin_stanley_elt(e4, (3,))
        want = {elt(e4, w): 1 for w in
                [(2, 1, 0), (1, 0, 3), (0, 3, 2), (3, 2, 1)]}
        assert fs.int_terms() == want

    def test_sl2_rows(self, e2):
        for r in range(0, 7):
            fs = fomin_stanley_elt(e2, (1,) * r)
            if r == 0:
                assert fs.int_terms() == {weyl.identity(e2.datum): 1}
            else:
                want = {sl2_sigma(e2.datum, r): 1, sl2_sigma(e2.datum, -r): 1}
                assert fs.int_terms() == want

    def test_unique_grassmannian_term(self, e3, e4):
        for engine, cap in ((e3, 7), (e4, 6)):
            for lam in engine.bounded(cap):
                fs = fomin_stanley_elt(engine, lam)
                grass = [w for w in fs.int_terms() if weyl.is_grassmannian(w)]
                assert grass == [engine.grassmannian(lam)]
                assert fs.int_terms()[grass[0]] == 1

    def test_membership(self, e3, e4):
        for engine, cap in ((e3, 5), (e4, 4)):
            for lam in engine.bounded(cap):
                assert l0_membership(fomin_stanley_elt(engine, lam))

    def test_linear_system_oracle(self, e2, e3):
        for engine in (e2, e3):
            for lam in engine.bounded(4):
                if not lam:
                    continue
                assert fomin_stanley_via_linear_system(engine, lam) == \
                    fomin_stanley_elt(engine, lam), lam

    def test_commutativity_sampled(self, e3):
        rng = random.Random(10)
        labels = e3.bounded(4)
        for _ in range(10):
            a = fomin_stanley_elt(e3, rng.choice(labels))
            b = fomin_stanley_elt(e3, rng.choice(labels))
            assert t_mul(a, b) == t_mul(b, a)


class TestFominStanleyMemo:
    def test_memo_matches_unmemoised_varphi(self, e3, e4):
        for engine, cap in ((e3, 5), (e4, 4)):
            for lam in engine.bounded(cap):
                assert engine.varphi_g(lam) == \
                    engine.varphi(engine.g_of(lam)).int_terms(), lam

    def test_callers_leave_memo_unchanged(self, e3):
        labels = e3.bounded(3)
        before = {lam: dict(e3.varphi_g(lam)) for lam in labels}
        for lam in labels:
            for mu in labels:
                structure_d(e3, lam, mu)
            expand_in_fs_basis(e3, fomin_stanley_elt(e3, lam))
        assert {lam: e3.varphi_g(lam) for lam in labels} == before


class TestL0Membership:
    def test_one(self, e2):
        assert l0_membership(HeckeElt.one(e2.datum, e2.fin))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_kappa(self, n):
        engine = GrothendieckEngine.get(n)
        for i in range(1, n):
            assert l0_membership(engine.kappa(i))

    def test_bare_T0_fails(self, e2):
        bad = HeckeElt.from_int_terms(e2.datum, e2.fin,
                                      {weyl.simple(e2.datum, 0): 1})
        assert not l0_membership(bad)


class TestExpansion:
    def test_unit_vectors(self, e3):
        for lam in e3.bounded(4):
            fs = fomin_stanley_elt(e3, lam)
            assert expand_in_fs_basis(e3, fs) == {lam: 1}

    def test_kappa_expands_to_sigma(self, e3):
        for i in (1, 2):
            assert expand_in_fs_basis(e3, e3.kappa(i)) == {(i,): 1}

    def test_sl2_product(self, e2):
        prod = t_mul(e2.kappa(1), fomin_stanley_elt(e2, (1, 1)))
        assert expand_in_fs_basis(e2, prod) == {(1, 1, 1): 1, (1, 1): -1}

    def test_non_member_diagnosed(self, e2):
        bad = HeckeElt.from_int_terms(e2.datum, e2.fin,
                                      {weyl.simple(e2.datum, 0): 1})
        with pytest.raises(ValueError):
            expand_in_fs_basis(e2, bad)


def expand_by_min_pivot(engine, terms):
    """Oracle for expand_in_fs_basis: the pivot is the least Grassmannian key
    of the whole residual, searched again at every step."""
    residual = {w: c for w, c in terms.items() if c}
    coeffs = {}
    while (w := min((w for w in residual if weyl.is_grassmannian(w)),
                    key=lambda w: (w.length, w.word), default=None)) is not None:
        c = coeffs[w] = residual[w]
        for v, a in engine.varphi_g(weyl.partition_of_grassmannian(w)).items():
            s = residual.get(v, 0) - c * a
            if s:
                residual[v] = s
            else:
                del residual[v]
    assert not residual
    return {weyl.partition_of_grassmannian(w): c for w, c in coeffs.items()}


class TestExpansionOracle:
    @pytest.mark.parametrize("n", [3, 4])
    def test_products_match_min_pivot_peel(self, n):
        engine = GrothendieckEngine.get(n)
        labels = engine.bounded(6)
        for u in labels:
            for v in labels:
                if sum(u) + sum(v) > 6:
                    continue
                terms = int_mul(engine.varphi_g(u), engine.varphi_g(v))
                got = expand_in_fs_basis(engine, terms)
                # same coefficients, pivots visited in the same order
                assert list(got.items()) == \
                    list(expand_by_min_pivot(engine, terms).items()), (u, v)
                as_elt = HeckeElt.from_int_terms(engine.datum, engine.fin, terms)
                assert expand_in_fs_basis(engine, as_elt) == got

    def test_dict_input_left_unchanged(self, e3):
        terms = int_mul(e3.varphi_g((1,)), e3.varphi_g((2, 1)))
        before = dict(terms)
        expand_in_fs_basis(e3, terms)
        assert terms == before

    def test_stray_grassmannian_term_raises(self, e3):
        # T_w alone, w Grassmannian: its row brings non-Grassmannian terms
        w = e3.grassmannian((2,))
        assert len(e3.varphi_g((2,))) > 1
        with pytest.raises(ValueError, match="not in the Fomin-Stanley"):
            expand_in_fs_basis(e3, {w: 1})
        # phi_0(k_w) plus a Grassmannian term of no row
        terms = dict(e3.varphi_g((1,)))
        terms[e3.grassmannian((2, 2))] = 3
        with pytest.raises(ValueError, match="not in the Fomin-Stanley"):
            expand_in_fs_basis(e3, terms)

    def test_row_adding_grassmannian_key_raises(self, e3):
        # a row that adds a Grassmannian key is left in the residual
        extra = e3.grassmannian((2, 1))

        def varphi_g(lam):
            row = dict(e3.varphi_g(lam))
            if lam == (1,):
                row[extra] = 1
            return row

        fake = SimpleNamespace(varphi_g=varphi_g)
        with pytest.raises(ValueError, match="not in the Fomin-Stanley"):
            expand_in_fs_basis(fake, e3.varphi_g((1,)))

    def test_non_integer_rejected(self, e2):
        fin = e2.fin
        p = LaurentPoly.monomial(fin.fundamental_weight(1))
        with pytest.raises(ValueError, match="integer"):
            expand_in_fs_basis(e2, HeckeElt.scalar(e2.datum, fin, p))


class TestPieri:
    def test_identity_gives_sigma_i(self, e3):
        for i in (1, 2):
            assert pieri(e3, i, ()) == {(i,): 1}

    def test_sl2_example(self, e2):
        assert pieri(e2, 1, (1, 1)) == {(1, 1, 1): 1, (1, 1): -1}

    def test_index_bounds(self, e3):
        with pytest.raises(ValueError):
            pieri(e3, 3, (1,))

    def test_returns_a_copy_of_the_row(self):
        engine = GrothendieckEngine(3)
        pieri(engine, 1, (1,)).clear()
        assert pieri(engine, 1, (1,)) == engine._pieri_row(1, (1,)) != {}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_product_expansion(self, n):
        engine = GrothendieckEngine.get(n)
        for lam in engine.bounded(5):
            for i in range(1, n):
                prod = t_mul(engine.kappa(i), fomin_stanley_elt(engine, lam))
                assert pieri(engine, i, lam) == expand_in_fs_basis(engine, prod)


class TestStructure:
    def test_u_identity(self, e3):
        for lam in e3.bounded(3):
            assert structure_d(e3, (), lam) == {lam: 1}

    def test_reduces_to_pieri(self, e3):
        for i in (1, 2):
            for lam in e3.bounded(3):
                assert structure_d(e3, (i,), lam) == pieri(e3, i, lam)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_product_route(self, n):
        # the product route: phi_0(k_u) phi_0(k_v) peeled in the phi_0(k) basis
        engine = GrothendieckEngine.get(n)
        labels = engine.bounded(6)
        for lam in labels:
            for mu in labels:
                if sum(lam) + sum(mu) > 6:
                    continue
                product = int_mul(engine.varphi_g(lam), engine.varphi_g(mu))
                assert structure_d(engine, lam, mu) == \
                    expand_in_fs_basis(engine, product), (lam, mu)

    def test_disagreeing_routes_raise(self, e3, monkeypatch):
        monkeypatch.setattr(GrothendieckEngine, "g_multiply", lambda self, lam, mu: {})
        with pytest.raises(VerificationError, match="routes disagree"):
            structure_d(e3, (1,), (1,))


class TestEquivariantSl2:
    def test_k_empty(self):
        k = equivariant_k_sl2(0)
        assert k.int_terms() == {weyl.identity(k.datum): 1}

    def test_k_sigma1(self, af2):
        fin = af2.finite
        one = LaurentPoly.one(fin)
        em = LaurentPoly.monomial(-fin.simple_root(1))
        k = equivariant_k_sl2(1)
        assert k.coefficient(weyl.simple(af2, 0)) == one
        assert k.coefficient(weyl.simple(af2, 1)) == one
        assert k.coefficient(weyl.from_word(af2, (0, 1))) == one - em
        assert len(k.terms) == 3

    def test_k_sigma2(self, af2):
        fin = af2.finite
        k = equivariant_k_sl2(2)
        assert k.coefficient(weyl.from_word(af2, (1, 0))) == LaurentPoly.one(fin)
        assert k.coefficient(weyl.from_word(af2, (0, 1))) == \
            LaurentPoly.monomial(-fin.simple_root(1))
        assert len(k.terms) == 2

    def test_partition_argument(self, af2):
        assert equivariant_k_sl2((1, 1)) == equivariant_k_sl2(2)
        with pytest.raises(ValueError):
            equivariant_k_sl2((2,))

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError, match="r >= 0"):
            equivariant_k_sl2(-1)

    def test_cutoff_failure_is_loud(self):
        with pytest.raises(SupportTruncationError):
            equivariant_k_sl2(5, cutoff=5)

    def test_cutoff_failure_is_a_domain_error(self):
        # one domain-error type: the CLI maps every ValueError to exit 1
        with pytest.raises(ValueError):
            equivariant_k_sl2(5, cutoff=5)

    def test_non_central_element_rejected(self, af2):
        with pytest.raises(VerificationError):
            _check_centralizer(HeckeElt.T(weyl.simple(af2, 0), af2.finite))

    def test_phi0_matches_fs(self, e2):
        for r in range(0, 7):
            k = equivariant_k_sl2(r, cutoff=r + 4)
            assert phi0_hecke(k) == fomin_stanley_elt(e2, (1,) * r)


class TestCentralizer:
    def test_every_fundamental_weight_checked(self, af3):
        fin = af3.finite
        elt = HeckeElt.T(weyl.simple(af3, 2), fin)

        def commutes(j, sign):
            om = LaurentPoly.monomial(fin.fundamental_weight(j).scaled(sign))
            scal = HeckeElt.scalar(af3, fin, om)
            return t_mul(elt, scal) == t_mul(scal, elt)

        # T_2 commutes with e^{+-omega_1}, not with e^{+-omega_2}
        assert commutes(1, 1) and commutes(1, -1)
        assert not commutes(2, 1) and not commutes(2, -1)
        with pytest.raises(VerificationError, match="centralize"):
            _check_centralizer(elt)

    def test_identity_accepted(self, af3):
        _check_centralizer(HeckeElt.one(af3, af3.finite))

    def test_one_unit_per_node(self, af3, monkeypatch):
        # commuting with the unit e^{omega_j} implies commuting with its inverse
        import khecke.peterson as peterson
        products = []

        def counting(a, b):
            products.append((a, b))
            return t_mul(a, b)
        monkeypatch.setattr(peterson, "t_mul", counting)
        _check_centralizer(HeckeElt.one(af3, af3.finite))
        assert len(products) == 2 * len(af3.finite.nodes)


class TestKappaCoproduct:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_phi0_delta_kappa(self, n):
        # phi_0(Delta(kappa_r)) = sum_j kappa_j (x) kappa_{r-j}
        engine = GrothendieckEngine.get(n)
        for r in range(1, n):
            got = phi0_tensor(coproduct(engine.kappa(r)))
            want = TensorElt(engine.datum, engine.fin)
            for j in range(r + 1):
                terms = {}
                for u in engine.kappa(j).int_terms():
                    for v in engine.kappa(r - j).int_terms():
                        terms[(u, v)] = LaurentPoly.one(engine.fin)
                want = want + TensorElt(engine.datum, engine.fin, terms)
            assert got == want, (n, r)

    def test_g_coproduct_matches_hecke_side(self, e2):
        # varphi is a Hopf morphism: phi_0 Delta(varphi(g_lam)) =
        # sum c^{mu nu}_lam varphi(g_mu) (x) varphi(g_nu)
        for lam in e2.bounded(4):
            lhs = phi0_tensor(coproduct(fomin_stanley_elt(e2, lam)))
            rhs = TensorElt(e2.datum, e2.fin)
            for (mu, nu), c in e2.g_coproduct(lam).terms.items():
                terms = {}
                for u, a in fomin_stanley_elt(e2, mu).int_terms().items():
                    for v, b in fomin_stanley_elt(e2, nu).int_terms().items():
                        key = (u, v)
                        terms[key] = terms.get(key, 0) + c * a * b
                rhs = rhs + TensorElt(
                    e2.datum, e2.fin,
                    {k: LaurentPoly.const(e2.fin, x) for k, x in terms.items()})
            assert lhs == rhs, lam


class TestScans:
    def test_small_scans_pass(self):
        for n, cap in ((2, 6), (3, 5)):
            rep = conjecture_scan(n, cap)
            assert rep.passed, rep.summary()
            assert rep.checked > 0

    def test_scan_neither_expands_products_nor_peels_G(self, monkeypatch):
        import khecke.peterson as peterson

        def product_route(engine, b):
            raise AssertionError("the scan expanded a product in the phi_0(k) basis")

        def G_peel(self, w, max_length):
            raise AssertionError("the scan peeled G_w in the G basis")
        monkeypatch.setattr(peterson, "expand_in_fs_basis", product_route)
        monkeypatch.setattr(GrothendieckEngine, "G_in_G_basis", G_peel)
        rep = conjecture_scan(3, 5)
        assert rep.passed, rep.summary()

    def test_sign_k_violation_is_a_C_G1_violation(self, monkeypatch):
        # [T_x] phi_0(k_lam) is the coefficient of G_lam in G_x: a wrong sign
        # there is reported under both conjectures, each in its own labels
        import khecke.peterson as peterson
        engine = GrothendieckEngine(2)
        lift = engine.varphi_g
        monkeypatch.setattr(engine, "varphi_g",
                            lambda lam: {x: -c for x, c in lift(lam).items()})
        monkeypatch.setitem(GrothendieckEngine._instances, 2, engine)
        monkeypatch.setattr(peterson, "structure_d", lambda engine, lam, mu: {})
        rep = conjecture_scan(2, 3)
        by_kind = {}
        for v in rep.violations:
            by_kind.setdefault(v["conjecture"], []).append((v["label"], v["detail"]))
        assert set(by_kind) == {"CJ:sign-k", "C:G1"}
        cj = by_kind["CJ:sign-k"]
        assert ("lam=(1,), x=1", -1) in cj
        assert by_kind["C:G1"] == [
            ("w={1}, {0}".format(*label.split(", x=")), c) for label, c in cj]

    def test_n5_scan_passes(self):
        rep = conjecture_scan(5, 7)
        assert rep.passed, rep.summary()
        assert rep.checked == 5181

    def test_n5_len8_scan_passes(self):
        rep = conjecture_scan(5, 8)
        assert rep.passed, rep.summary()
        assert rep.checked == 9719

    def test_n6_len8_scan_passes(self):
        rep = conjecture_scan(6, 8)
        assert rep.passed, rep.summary()
        assert rep.checked == 23722

    def test_n6_len9_scan_passes(self):
        rep = conjecture_scan(6, 9)
        assert rep.passed, rep.summary()
        assert rep.checked == 45473

    def test_n4_len7_scan_report_pinned(self):
        rep = conjecture_scan(4, 7)
        assert rep.passed, rep.summary()
        assert rep.checked == 2601
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == \
            "47b01d29fd77137eef8ff5c71448a7bb83c2ae712ec66e7e9e6cd6b3d2153768"

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_G_in_F_by_duality_matches_m_to_F(self, n):
        engine = GrothendieckEngine(n)
        labels = engine.bounded(7)
        table = _G_in_F(engine, labels)
        assert list(table) == labels
        for lam in labels:
            G = engine.G_of(engine.grassmannian(lam), 7)
            assert list(table[lam].items()) == \
                list(engine.m_to_F(G).terms.items()), lam

    def test_scans_form_no_full_kappa_product(self, monkeypatch):
        engines = {n: GrothendieckEngine(n) for n in (4, 5)}
        for n, engine in engines.items():
            monkeypatch.setitem(GrothendieckEngine._instances, n, engine)
        assert conjecture_scan(4, 7).passed
        assert cross_k_scan(4, 8).passed
        for engine in engines.values():
            assert all(len(nu) <= 1 for nu in engine._kprod), engine.n

    def test_n7_len10_scan_passes(self):
        rep = conjecture_scan(7, 10)
        assert rep.passed, rep.summary()
        assert rep.checked == 250897

    def test_cross_scan_passes(self):
        rep = cross_k_scan(2, 5)
        assert rep.passed

    def test_cross_scan_n4_deg10_passes(self):
        for n, degree, checked in ((4, 10, 277), (5, 8, 93), (7, 10, 187)):
            rep = cross_k_scan(n, degree)
            assert rep.passed, rep.summary()
            assert rep.checked == checked

    def test_report_roundtrip(self):
        import json
        rep = conjecture_scan(2, 4)
        data = json.loads(rep.to_json())
        assert data["passed"] is True
        assert data["n"] == 2
        assert "PASS" in rep.summary()

    def test_report_from_json(self):
        import json
        rep = cross_k_scan(2, 3)
        rep.record("C:g3/C:G4", "somewhere", -1)
        back = ConjectureReport.from_json(json.loads(rep.to_json()))
        assert back == rep
        assert back.summary() == rep.summary()
        assert rep.summary().splitlines()[0] == \
            "conjecture scan n=2 max_length=3 cross_n=3: FAIL (1 violations) " \
            f"[{rep.checked} values checked]"

    @pytest.mark.parametrize("scan, args", [(conjecture_scan, (2, 4)),
                                            (cross_k_scan, (2, 3))],
                             ids=["conjecture_scan", "cross_k_scan"])
    def test_report_from_json_of_scans(self, scan, args):
        import json
        rep = scan(*args)
        assert ConjectureReport.from_json(json.loads(rep.to_json())) == rep

    def test_default_violations_not_shared(self):
        a = ConjectureReport(conjectures=["x"], n=2, max_length=1)
        b = ConjectureReport(conjectures=["x"], n=2, max_length=1)
        a.record("x", "somewhere", -1)
        assert a.violations is not b.violations
        assert b.violations == [] and b.passed
        assert a != b

    @pytest.mark.parametrize("field, other", [
        ("conjectures", ["y"]), ("n", 3), ("max_length", 2), ("cross_n", 3),
        ("max_degree", 4), ("checked", 1),
        ("violations", [{"conjecture": "x", "label": "l", "detail": -1}]),
    ])
    def test_reports_differing_in_one_field_are_unequal(self, field, other):
        base = dict(conjectures=["x"], n=2, max_length=1)
        rep = ConjectureReport(**base)
        assert ConjectureReport(**base) == rep
        assert ConjectureReport(**{**base, field: other}) != rep

    def test_violation_recording(self):
        from khecke.peterson import ConjectureReport
        rep = ConjectureReport(conjectures=["x"], n=2, max_length=1)
        rep.record("x", "somewhere", -5)
        assert not rep.passed
        assert "FAIL" in rep.summary()
