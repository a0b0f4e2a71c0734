import random

from hypothesis import given, strategies as st

from khecke.cartan import LaurentPoly, RootDatum, demazure, phi0
from khecke import weyl
from khecke.hecke import (HeckeElt, TensorElt, coproduct, coproduct_T_simple,
                          fold_T, group_elt_to_T, int_mul, phi0_hecke,
                          structure_constants_c, t_mul, tensor_mul, y_elt)


def rand_poly(datum, rng, size=2, box=1):
    terms = {}
    for _ in range(size):
        w = datum.weight(tuple(rng.randint(-box, box) for _ in range(datum.rank)))
        terms[w] = rng.randint(-2, 2)
    p = LaurentPoly(datum, terms)
    return p if not p.is_zero() else LaurentPoly.one(datum)


def rand_hecke(datum, coeffs, els, rng, size=2):
    return HeckeElt(datum, coeffs,
                    {rng.choice(els): rand_poly(coeffs, rng) for _ in range(size)})


def int_elements(draw, datum, max_len):
    """A random integer element {WeylElt: nonzero int} of the 0-Hecke ring."""
    els = weyl.all_elements(datum, max_len)
    return draw(st.dictionaries(st.sampled_from(els),
                                st.integers(-3, 3).filter(bool), max_size=4))


class TestFold:
    """fold_T and int_mul against t_mul over R(T)."""

    def test_square_and_identity(self, af2):
        e, r0 = weyl.identity(af2), weyl.simple(af2, 0)
        assert fold_T((), r0) == (1, r0)
        assert fold_T((0,), e) == (1, r0)
        assert fold_T((0, 0), e) == (-1, r0)
        assert fold_T((1, 0, 0, 1), e) == (-1, weyl.from_word(af2, (1, 0, 1)))

    @given(st.integers(2, 4), st.data())
    def test_int_mul_matches_t_mul(self, n, data):
        datum = RootDatum.affine_sl(n)
        a = int_elements(data.draw, datum, 3)
        b = int_elements(data.draw, datum, 3)
        want = t_mul(HeckeElt.from_int_terms(datum, datum.finite, a),
                     HeckeElt.from_int_terms(datum, datum.finite, b))
        assert int_mul(a, b) == want.int_terms()

    @given(st.integers(2, 4), st.data())
    def test_remembered_folds_match_t_mul(self, n, data):
        datum = RootDatum.affine_sl(n)
        a = int_elements(data.draw, datum, 4)
        b = int_elements(data.draw, datum, 4)
        want = t_mul(HeckeElt.from_int_terms(datum, datum.finite, a),
                     HeckeElt.from_int_terms(datum, datum.finite, b)).int_terms()
        assert int_mul(a, b) == want

    @given(st.integers(2, 4), st.data())
    def test_fold_matches_generator_products(self, n, data):
        datum = RootDatum.affine_sl(n)
        fin = datum.finite
        word = data.draw(st.lists(st.sampled_from(datum.nodes), max_size=6))
        v = data.draw(st.sampled_from(weyl.all_elements(datum, 3)))
        acc = HeckeElt.T(v, fin)
        for i in reversed(word):
            acc = t_mul(HeckeElt.T(weyl.simple(datum, i), fin), acc)
        sign, w = fold_T(word, v)
        assert acc.int_terms() == {w: sign}


class TestProduct:
    def test_ti_squared(self, af2):
        fin = af2.finite
        T0 = HeckeElt.T(weyl.simple(af2, 0), fin)
        assert t_mul(T0, T0) == -T0

    def test_sl2_fold_example(self, af2):
        fin = af2.finite
        a = HeckeElt.from_int_terms(af2, fin, {weyl.simple(af2, 0): 1,
                                               weyl.simple(af2, 1): 1})
        b = HeckeElt.from_int_terms(af2, fin, {weyl.from_word(af2, (1, 0)): 1,
                                               weyl.from_word(af2, (0, 1)): 1})
        want = HeckeElt.from_int_terms(af2, fin, {
            weyl.from_word(af2, (0, 1, 0)): 1, weyl.from_word(af2, (1, 0, 1)): 1,
            weyl.from_word(af2, (1, 0)): -1, weyl.from_word(af2, (0, 1)): -1})
        assert t_mul(a, b) == want

    def test_scalar_commutation_oracle(self, af2):
        # e^lam T_w computed two ways: t_mul and a term-by-term commutation fold
        fin = af2.finite
        rng = random.Random(2)
        els = weyl.all_elements(af2, 3)
        for _ in range(30):
            lam = fin.weight((rng.randint(-2, 2), 0))
            w = rng.choice(els)
            scal = HeckeElt.scalar(af2, fin, LaurentPoly.monomial(lam))
            left = t_mul(HeckeElt.T(w, fin), scal)
            # manual fold: push e^lam left through T_w one generator at a time
            acc = HeckeElt.scalar(af2, fin, LaurentPoly.monomial(lam))
            for i in reversed(w.word):
                out = {}
                for v, q in acc.terms.items():
                    tq = demazure(af2, i, q)
                    rq = q + (LaurentPoly.one(fin) - LaurentPoly.monomial(
                        af2.project(af2.simple_root(i)))) * tq  # r_i = 1 + (1-e^a) T_i
                    for key, val in ((v, tq),):
                        if not val.is_zero():
                            out[key] = out.get(key, LaurentPoly.zero(fin)) + val
                    riv = weyl.multiply(weyl.simple(af2, i), v)
                    add = rq if riv.length > v.length else -rq
                    tgt = riv if riv.length > v.length else v
                    out[tgt] = out.get(tgt, LaurentPoly.zero(fin)) + add
                acc = HeckeElt(af2, fin, out)
            assert left == acc

    def test_associativity_random(self, af2, A2):
        rng = random.Random(3)
        for datum in (af2, A2):
            coeffs = datum.coefficient_lattice()
            els = weyl.all_elements(datum, 3)
            for _ in range(15):
                a = rand_hecke(datum, coeffs, els, rng)
                b = rand_hecke(datum, coeffs, els, rng)
                c = rand_hecke(datum, coeffs, els, rng)
                assert t_mul(t_mul(a, b), c) == t_mul(a, t_mul(b, c))

    def test_monomial_property(self, af3):
        # products of pure T's have singleton support with sign
        fin = af3.finite
        rng = random.Random(4)
        els = weyl.all_elements(af3, 4)
        for _ in range(40):
            u, v = rng.choice(els), rng.choice(els)
            prod = t_mul(HeckeElt.T(u, fin), HeckeElt.T(v, fin))
            assert len(prod.terms) == 1
            [(w, p)] = prod.terms.items()
            assert p.constant_value() in (1, -1)

    def test_braid_relations(self):
        # rank-2 subsystems: as HeckeElts and as operators on random polys
        rng = random.Random(5)
        for typ, m in (("A2", 3), ("B2", 4), ("G2", 6)):
            datum = RootDatum.of_type(typ)
            i, j = datum.nodes
            seq1 = [i if k % 2 == 0 else j for k in range(m)]
            seq2 = [j if k % 2 == 0 else i for k in range(m)]
            one = HeckeElt.one(datum, datum)
            lhs = one
            for k in reversed(seq1):
                lhs = t_mul(HeckeElt.T(weyl.simple(datum, k), datum), lhs)
            rhs = one
            for k in reversed(seq2):
                rhs = t_mul(HeckeElt.T(weyl.simple(datum, k), datum), rhs)
            assert lhs == rhs
            for _ in range(100 // m):
                p = rand_poly(datum, rng, size=3, box=2)
                q1, q2 = p, p
                for k in reversed(seq1):
                    q1 = demazure(datum, k, q1)
                for k in reversed(seq2):
                    q2 = demazure(datum, k, q2)
                assert q1 == q2


class TestGroupExpansion:
    def test_identity(self, af2):
        assert group_elt_to_T(weyl.identity(af2)) == \
            HeckeElt.one(af2, af2.finite)

    def test_t_alpha_expansion(self, af2):
        fin = af2.finite
        one = LaurentPoly.one(fin)
        em = LaurentPoly.monomial(-fin.simple_root(1))
        exp = group_elt_to_T(weyl.from_word(af2, (0, 1)))
        assert exp.coefficient(weyl.from_word(af2, (0, 1))) == (one - em) * (one - em)
        assert exp.coefficient(weyl.simple(af2, 0)) == one - em
        assert exp.coefficient(weyl.simple(af2, 1)) == one - em
        assert exp.coefficient(weyl.identity(af2)) == one

    def test_support_in_bruhat_ideal(self, A2):
        for w in weyl.all_elements(A2, 3):
            exp = group_elt_to_T(w)
            for v in exp.terms:
                assert weyl.bruhat_leq(v, w)

    def test_multiplicative(self, A2, af2):
        rng = random.Random(6)
        for datum in (A2, af2):
            els = weyl.all_elements(datum, 3)
            for _ in range(20):
                u, v = rng.choice(els), rng.choice(els)
                assert group_elt_to_T(weyl.multiply(u, v)) == \
                    t_mul(group_elt_to_T(u), group_elt_to_T(v))

    def test_phi0_collapses_to_identity(self, af2):
        exp = group_elt_to_T(weyl.from_word(af2, (0, 1)))
        assert phi0_hecke(exp) == HeckeElt.one(af2, af2.finite)

    def test_phi0_of_scalar_times_T(self, af2):
        fin = af2.finite
        lam = fin.fundamental_weight(1)
        w = weyl.from_word(af2, (1, 0))
        elt = HeckeElt(af2, fin, {w: LaurentPoly.monomial(lam)})
        assert phi0_hecke(elt) == HeckeElt.T(w, fin)

    def test_phi0_multiplicative_on_translations(self, af2):
        # phi_0 is multiplicative on the centralizer; translations generate it
        for lam, mu in [((1, -1), (1, -1)), ((1, -1), (-2, 2)), ((2, -2), (-1, 1))]:
            a = group_elt_to_T(weyl.translation(af2, lam))
            b = group_elt_to_T(weyl.translation(af2, mu))
            assert phi0_hecke(t_mul(a, b)) == t_mul(phi0_hecke(a), phi0_hecke(b))


class TestYBasis:
    def test_y_simple(self, af2):
        fin = af2.finite
        r0 = weyl.simple(af2, 0)
        assert y_elt(r0) == HeckeElt.from_int_terms(
            af2, fin, {weyl.identity(af2): 1, r0: 1})

    def test_y_bruhat_ideal_A2(self, A2):
        w = weyl.from_word(A2, (1, 2))
        got = y_elt(w)
        want = HeckeElt.from_int_terms(A2, A2, {
            weyl.identity(A2): 1, weyl.simple(A2, 1): 1,
            weyl.simple(A2, 2): 1, w: 1})
        assert got == want

    def test_demazure_act_idempotent(self, af2):
        # T_0 T_0 = -T_0 acting on the level-zero lattice
        fin = af2.finite
        rng = random.Random(7)
        for _ in range(20):
            p = rand_poly(fin, rng, size=3, box=2)
            once = demazure(af2, 0, p)
            assert demazure(af2, 0, once) == -once


class TestCoproduct:
    def test_identity(self, af2):
        fin = af2.finite
        D = coproduct(HeckeElt.one(af2, fin))
        assert D == TensorElt.one(af2, fin)

    def test_T0(self, af2):
        fin = af2.finite
        one = LaurentPoly.one(fin)
        em = LaurentPoly.monomial(-fin.simple_root(1))  # e^{alpha_0} level zero
        D = coproduct(HeckeElt.T(weyl.simple(af2, 0), fin))
        e = weyl.identity(af2)
        r0 = weyl.simple(af2, 0)
        assert D.coefficient(e, r0) == one
        assert D.coefficient(r0, e) == one
        assert D.coefficient(r0, r0) == one - em
        assert len(D.terms) == 3

    def test_counit(self, af2):
        fin = af2.finite
        e = weyl.identity(af2)
        for w in weyl.all_elements(af2, 4):
            D = coproduct(HeckeElt.T(w, fin))
            # contract either slot with the coefficient of T_id
            left = {v: p for (u, v), p in D.terms.items() if u == e}
            right = {u: p for (u, v), p in D.terms.items() if v == e}
            assert left == right == HeckeElt.T(w, fin).terms

    def test_word_independence(self, A2):
        D1 = tensor_mul(tensor_mul(coproduct_T_simple(A2, A2, 1),
                                   coproduct_T_simple(A2, A2, 2)),
                        coproduct_T_simple(A2, A2, 1))
        D2 = tensor_mul(tensor_mul(coproduct_T_simple(A2, A2, 2),
                                   coproduct_T_simple(A2, A2, 1)),
                        coproduct_T_simple(A2, A2, 2))
        assert D1 == D2

    def test_algebra_morphism(self, A2, af2):
        rng = random.Random(8)
        for datum in (A2, af2):
            coeffs = datum.coefficient_lattice()
            els = weyl.all_elements(datum, 3)
            for _ in range(12):
                a = rand_hecke(datum, coeffs, els, rng, size=1)
                b = rand_hecke(datum, coeffs, els, rng, size=1)
                assert coproduct(t_mul(a, b)) == \
                    tensor_mul(coproduct(a), coproduct(b))


class TestStructureConstants:
    def test_identity_row(self, A2):
        c = structure_constants_c(weyl.identity(A2))
        e = weyl.identity(A2)
        assert list(c) == [(e, e)]
        assert c[(e, e)] == LaurentPoly.one(A2)

    def test_simple_diagonal(self, A2):
        r1 = weyl.simple(A2, 1)
        c = structure_constants_c(r1)
        one = LaurentPoly.one(A2)
        assert c[(r1, r1)] == one - LaurentPoly.monomial(A2.simple_root(1))

    def test_pointwise_product_identity(self, A2, eng_A2):
        # psi^u psi^v (pointwise) = sum_w c_w^{uv} psi^w(x), A2, l(w) <= 3
        els = weyl.all_elements(A2, 3)
        tables = {}
        for w in els:
            for (u, v), c in structure_constants_c(w).items():
                tables.setdefault((u, v), {})[w] = c
        for u in els:
            for v in els:
                row = tables.get((u, v), {})
                for x in els:
                    lhs = eng_A2.psi_right(u, x) * eng_A2.psi_right(v, x)
                    rhs = LaurentPoly.zero(A2)
                    for w, c in row.items():
                        rhs = rhs + c * eng_A2.psi_right(w, x)
                    assert lhs == rhs, (u, v, x)
