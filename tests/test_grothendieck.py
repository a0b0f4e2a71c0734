import hashlib
import random
import sys
from math import comb

import pytest
from hypothesis import given, strategies as st

from khecke import weyl
from khecke.cartan import VerificationError
from khecke.grothendieck import GrothendieckEngine
from khecke.hecke import t_mul
from khecke.symfunc import (SymFunc, coproduct_h, hall_pair, multiply,
                            partitions_of, partitions_up_to, spread)

from hecke_oracle import int_mul


class TestKappa:
    def test_kappa0_is_one(self, e3):
        assert e3.kappa(0).int_terms() == {weyl.identity(e3.datum): 1}

    def test_kappa1_n3(self, e3):
        assert sorted(w.word for w in e3.kappa(1).int_terms()) == \
            [(0,), (1,), (2,)]

    def test_kappa2_n3(self, e3):
        assert {w.word for w in e3.kappa(2).int_terms()} == \
            {(1, 0), (0, 2), (2, 1)}

    def test_counts(self, e4):
        for i in range(4):
            terms = e4.kappa(i).int_terms()
            assert len(terms) == comb(4, i)
            assert all(c == 1 for c in terms.values())
            assert all(w.length == i for w in terms)

    def test_out_of_range(self, e3):
        with pytest.raises(ValueError):
            e3.kappa(3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_commutativity(self, n):
        engine = GrothendieckEngine.get(n)
        for i in range(1, n):
            for j in range(i, n):
                assert t_mul(engine.kappa(i), engine.kappa(j)) == \
                    t_mul(engine.kappa(j), engine.kappa(i))


def int_elements(draw, datum, max_len):
    """A random integer element {WeylElt: nonzero int} of the 0-Hecke ring."""
    return draw(st.dictionaries(st.sampled_from(weyl.all_elements(datum, max_len)),
                                st.integers(-3, 3).filter(bool), max_size=5))


class TestKappaRows:
    """kappa_r times an integer element, as a spread of remembered rows."""

    @given(st.integers(2, 5), st.data())
    def test_matches_int_mul(self, n, data):
        engine = GrothendieckEngine.get(n)
        r = data.draw(st.integers(0, n - 1))
        terms = int_elements(data.draw, engine.datum, 3)
        assert engine._kappa_times(r, terms) == int_mul(engine.kappa_product((r,)), terms)

    def test_cancelling_terms(self, e3):
        # kappa_1 (1 + T_0): T_0 T_0 = -T_0 cancels the T_0 of kappa_1
        e, r0 = weyl.identity(e3.datum), weyl.simple(e3.datum, 0)
        terms = {e: 1, r0: 1}
        got = e3._kappa_times(1, terms)
        assert got == int_mul(e3.kappa_product((1,)), terms)
        assert r0 not in got and all(got.values())

    def test_second_call_folds_nothing(self, monkeypatch):
        engine = GrothendieckEngine(4)
        x = weyl.from_word(engine.datum, (1, 0))
        right_simple, calls = weyl.right_simple, []

        def counted(w, i):
            calls.append(w)
            return right_simple(w, i)
        monkeypatch.setattr(weyl, "right_simple", counted)
        first = engine._kappa_times(2, {x: 1})
        assert first == int_mul(engine.kappa_product((2,)), {x: 1})
        # down x -> r_1 -> e, then up one letter per row: rows r_1 and x
        r1 = weyl.simple(engine.datum, 1)
        assert len(calls) == 2 + len(engine.kappa_product((2,))) + len(engine._rows[2][r1])
        calls.clear()
        assert engine._kappa_times(2, {x: 3}) == {w: 3 * c for w, c in first.items()}
        assert calls == []

    def test_long_climb_is_a_loop(self):
        # a row 3,000 letters above the nearest remembered one: more steps
        # than the recursion limit allows frames
        engine = GrothendieckEngine(2)
        x = weyl.from_word(engine.datum, (0, 1) * 1500)
        assert x.length == 3000 > sys.getrecursionlimit()
        assert engine._kappa_times(1, {x: 1}) == int_mul(engine.kappa_product((1,)), {x: 1})

    @pytest.mark.parametrize("r", [3, 4])
    def test_unbounded_r_is_a_value_error(self, r):
        engine = GrothendieckEngine(3)
        for _ in range(2):
            with pytest.raises(ValueError, match="partition must be 2-bounded"):
                engine._kappa_times(r, {weyl.identity(engine.datum): 1})


class TestKappaLayerPins:
    """Values of the kappa layer at n = 5 and 6, where the other tests pin
    counts."""

    @staticmethod
    def digest(rows):
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    def test_varphi_g_pinned(self):
        engine = GrothendieckEngine(6)
        rows = [(lam, sorted((w.word, c) for w, c in engine.varphi_g(lam).items()))
                for lam in engine.bounded(8)]
        assert len(rows) == 60
        assert self.digest(rows) == \
            "fe9832af7a6e3ae2f08e0187fbc5cdf8192745f7a78f5fd2e185949d3ecd4d26"

    def test_kappa_product_pinned(self):
        # the full products, rows at non-Grassmannian x included, at n = 5
        engine = GrothendieckEngine(5)
        rows = [(lam, sorted((w.word, c) for w, c in engine.kappa_product(lam).items()))
                for lam in engine.bounded(7)]
        assert (len(rows), sum(len(terms) for _, terms in rows)) == (38, 8676)
        assert self.digest(rows) == \
            "a1954aaa3810f66234a4ec7eed80a8cf21676c2a14ed208aefddb69d81b986e8"

    def test_g_coproduct_pinned(self):
        engine = GrothendieckEngine(6)
        rows = [(lam, sorted(engine.g_coproduct(lam).terms.items()))
                for lam in engine.bounded(8)]
        assert self.digest(rows) == \
            "cb2f169f7de02f0ff12e97bb49ae5d8bb3bae12876707016004a83790239e7ab"


class TestG:
    def test_G_identity(self, e3):
        G = e3.G_of(weyl.identity(e3.datum), 4)
        assert G == SymFunc("m", {(): 1}, 3)

    def test_n2_sigma1_F_pattern(self, e2):
        GF = e2.m_to_F(e2.G_of(e2.grassmannian((1,)), 7))
        for d in range(1, 8):
            want = 1 if (d - 1) % 2 == 0 else -1
            assert GF.terms[(1,) * d] == want

    def test_F_identity_and_single_box(self, e3):
        assert e3.F_of(weyl.identity(e3.datum)) == SymFunc("m", {(): 1}, 3)
        assert e3.F_of(e3.grassmannian((1,))) == SymFunc("m", {(1,): 1}, 3)

    def test_lowest_degree_is_F_with_unit_dominant_term(self, e2, e3, e4):
        for engine in (e2, e3, e4):
            for lam in engine.bounded(6):
                v = engine.grassmannian(lam)
                F = engine.F_of(v)
                assert min(map(sum, F.terms)) == v.length if F.terms else v.length == 0
                if lam:
                    assert F.terms[lam] == 1
                G = engine.G_of(v, v.length)
                assert G.degree_part(v.length) == F

    def test_alternating_signs(self, e3):
        for lam in e3.bounded(6):
            v = e3.grassmannian(lam)
            for mu, c in e3.G_of(v, 7).terms.items():
                assert (c > 0) == ((sum(mu) - v.length) % 2 == 0)

    def test_F_matrix_unitriangular(self, e3):
        from khecke.symfunc import dominates
        for lam in e3.bounded(6):
            F = e3.F_of(e3.grassmannian(lam))
            for mu, c in F.terms.items():
                assert dominates(lam, mu)
            assert F.terms.get(lam, 1 if not lam else None) == 1

    def test_stable_limit_no_node0(self, e3):
        # reduced words avoiding r_0 give the classical stable Grothendieck
        # polynomial; for w = r_1: G_(1) = m_1 - m_11 + m_111 - ...
        w = weyl.simple(e3.datum, 1)
        G = e3.G_of(w, 6)
        for d in range(1, 7):
            assert G.terms.get((1,) * d) == (1 if (d - 1) % 2 == 0 else -1)
            for mu in partitions_up_to(d, 2):
                if mu and sum(mu) == d and mu != (1,) * d:
                    assert mu not in G.terms


class TestgAndKSchur:
    def test_g_sigma_r_is_h_r(self, e3, e4):
        for engine in (e3, e4):
            for r in range(1, engine.n):
                assert engine.g_of((r,)) == SymFunc("h", {(r,): 1}, engine.n)

    def test_n2_column(self, e2):
        assert e2.g_of((1, 1, 1)) == \
            SymFunc("h", {(1,): 1, (1, 1): 2, (1, 1, 1): 1}, 2)

    def test_n3_21(self, e3):
        assert e3.g_of((2, 1)) == SymFunc("h", {(2,): 1, (2, 1): 1}, 3)
        assert e3.g_in_s_basis((2, 1)) == \
            SymFunc("s", {(2,): 1, (2, 1): 1, (3,): 1}, 3)

    def test_kschur_sigma_r(self, e3):
        for r in (1, 2):
            assert e3.kschur_of((r,)) == SymFunc("h", {(r,): 1}, 3)

    def test_unbounded_partition_rejected(self, e3):
        for solve in (e3.g_of, e3.kschur_of):
            with pytest.raises(ValueError, match="partition must be 2-bounded"):
                solve((3,))

    def test_kschur_n2_column(self, e2):
        assert e2.kschur_of((1, 1)) == SymFunc("h", {(1, 1): 1}, 2)

    def test_duality_pairings(self, e2, e3, e4):
        for engine, cap in ((e2, 7), (e3, 6), (e4, 6)):
            labels = engine.bounded(cap)
            for lam in labels:
                g = engine.g_of(lam)
                ks = engine.kschur_of(lam)
                for mu in labels:
                    u = engine.grassmannian(mu)
                    G = engine.G_of(u, g.max_degree())
                    assert hall_pair(g, G) == (1 if mu == lam else 0)
                    if sum(mu) == sum(lam):
                        assert hall_pair(ks, engine.F_of(u)) == (1 if mu == lam else 0)

    @pytest.mark.parametrize("n, cap, nonzero",
                             [(2, 6, 22), (3, 6, 63), (4, 6, 86), (5, 5, 49)])
    def test_G_side_and_g_side_agree_by_duality(self, n, cap, nonzero):
        # {g, G} and {kschur, F} are dual pairs, so [F_mu] G_lam and
        # [g_lam] kschur_mu both equal <kschur_mu, G_lam>: the first comes
        # from the G-side peel over the kappa table, the second from the
        # g-side columns
        engine = GrothendieckEngine.get(n)
        bounded = engine.bounded(cap)
        G_side = {(lam, mu): c for lam in bounded for mu, c in engine.m_to_F(
            engine.G_of(engine.grassmannian(lam), cap)).terms.items()}
        g_side = {(lam, mu): c for mu in bounded
                  for lam, c in engine.expand_in_g(engine.kschur_of(mu)).items()}
        assert G_side == g_side
        assert len(G_side) == nonzero

    def test_g_top_component_is_kschur(self, e2, e3, e4):
        for engine in (e2, e3, e4):
            for lam in engine.bounded(6):
                g = engine.g_of(lam)
                assert g.max_degree() == sum(lam)
                assert g.degree_part(sum(lam)) == engine.kschur_of(lam)

    def test_hall_pair_with_G_consistency(self, e3):
        # pairing with G through degree max_degree(g) equals pairing with G
        # through a higher degree: g has no h-term above its top degree
        for lam in e3.bounded(4):
            g = e3.g_of(lam)
            for mu in e3.bounded(4):
                u = e3.grassmannian(mu)
                G = e3.G_of(u, 5)
                assert hall_pair(g, G) == hall_pair(g, e3.G_of(u, g.max_degree()))


class TestCoproductAndProduct:
    def test_delta_g1(self, e3):
        D = e3.g_coproduct((1,))
        assert D.terms == {((1,), ()): 1, ((), (1,)): 1}

    def test_n2_delta_g111_has_minus_two(self, e2):
        D = e2.g_coproduct((1, 1, 1))
        assert D.terms[((1,), (1,))] == -2

    def test_n3_delta_g21_has_minus_g1_g1(self, e3):
        D = e3.g_coproduct((2, 1))
        assert D.terms[((1,), (1,))] == -1

    def test_g_multiply_example(self, e2):
        # g_1 g_11 = g_111 - g_11
        assert e2.g_multiply((1,), (1, 1)) == {(1, 1, 1): 1, (1, 1): -1}

    def test_product_consistent_with_h_arithmetic(self, e2):
        prod = multiply(e2.g_of((1,)), e2.g_of((1, 1)))
        back = SymFunc("h", {}, 2)
        for mu, c in e2.g_multiply((1,), (1, 1)).items():
            back = back + e2.g_of(mu).scaled(c)
        assert back == prod


def g_coproduct_by_g_coeff(engine, lam):
    """Oracle for g_coproduct: sum c [T_mu] kappa_a [T_nu] kappa_b over the
    terms c h_a (x) h_b of Delta(g_lam), each factor read off the full
    kappa product."""
    out = {}
    labels = engine.bounded(sum(lam))
    for (a, b), c in coproduct_h(engine.g_of(lam)).terms.items():
        for mu in labels:
            ca = engine.kappa_product(a).get(engine.grassmannian(mu), 0)
            for nu in labels:
                cb = engine.kappa_product(b).get(engine.grassmannian(nu), 0)
                out[(mu, nu)] = out.get((mu, nu), 0) + c * ca * cb
    return {key: c for key, c in out.items() if c}


def g_coproduct_via_h(engine, lam):
    """Oracle for g_coproduct: Delta(g_lam) through the h basis.  Each left
    factor h_a of Delta(h_mu) over the h-terms of g_lam spreads over column a,
    times its right row summed through the columns."""
    left_rows = {}
    for (a, b), c in coproduct_h(engine.g_of(lam)).terms.items():
        left_rows.setdefault(a, {})[b] = c
    out = {}
    for a, row in left_rows.items():
        right = spread(row, lambda nu: engine._column(nu).items())
        for mu, ca in engine._column(a).items():
            for nu, val in right.items():
                out[mu, nu] = out.get((mu, nu), 0) + ca * val
    return {k: c for k, c in out.items() if c}


class TestGCoproductByPieri:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_h_route(self, n):
        engine = GrothendieckEngine(n)
        for lam in engine.bounded(7):
            assert engine.g_coproduct(lam).terms == g_coproduct_via_h(engine, lam), lam
        assert not engine._open

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pieri_rows_match_lambda_side(self, n):
        # the coproduct reads rows with j < a_1, which varphi_g never checks
        engine = GrothendieckEngine(n)
        for j in range(n):
            h_j = SymFunc.gen("h", (j,) if j else ())
            for a in engine.bounded(7 - j):
                assert engine._pieri_row(j, a) == \
                    engine.expand_in_g(multiply(h_j, engine.g_of(a))), (j, a)

    def test_coproduct_terms_pinned(self):
        # sha256 taken on the h (x) h route it replaced
        engine = GrothendieckEngine(4)
        terms = [(lam, sorted(engine.g_coproduct(lam).terms.items()))
                 for lam in engine.bounded(7)]
        assert hashlib.sha256(repr(terms).encode()).hexdigest() == \
            "1f7837a9e288e50d3ec5bc46500521cad73f4de67c26e5357a099b53c83796ab"


class TestCoproductRecursionChecks:
    """The four ways the Pieri recursion for Delta(g_lam) refuses to go on;
    each leaves the memo and the in-progress set as they were."""

    @staticmethod
    def refused(engine, lam, match):
        with pytest.raises(VerificationError, match=match):
            engine.g_coproduct(lam)
        assert lam not in engine._dg and not engine._open

    def test_leading_coefficient_not_one(self, monkeypatch):
        engine = GrothendieckEngine(3)
        row = engine._pieri_row
        monkeypatch.setattr(engine, "_pieri_row",
                            lambda j, a: {mu: 2 * c for mu, c in row(j, a).items()})
        self.refused(engine, (1,), r"h_1 g_\(\) is 2, not 1")

    def test_partition_met_again(self, monkeypatch):
        engine = GrothendieckEngine(3)
        row = engine._pieri_row

        def reentrant_row(j, a):
            if (j, a) == (2, (1,)):
                engine.g_coproduct((2, 1))
            return row(j, a)
        monkeypatch.setattr(engine, "_pieri_row", reentrant_row)
        self.refused(engine, (2, 1), r"Delta\(g_\(2, 1\)\) met \(2, 1\) again")

    def test_counit(self):
        engine = GrothendieckEngine(3)
        engine._dg[(1,)] = {**engine.g_coproduct((1,)).terms, ((), (2,)): 1}
        self.refused(engine, (1, 1), r"counit of Delta\(g_\(1, 1\)\) leaves")

    def test_cocommutativity(self):
        engine = GrothendieckEngine(3)
        engine._dg[(1,)] = {**engine.g_coproduct((1,)).terms, ((2,), (1,)): 1}
        self.refused(engine, (1, 1), r"Delta\(g_\(1, 1\)\) is not cocommutative")


class TestGOfTrusted:
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_public_constructor(self, n):
        engine = GrothendieckEngine.get(n)
        for v in weyl.all_elements(engine.datum, 6):
            for deg in range(v.length, 7):
                G = engine.G_of(v, deg)
                want = SymFunc("m", G.terms, n)
                assert G == want and G.n == want.n
                assert list(G.terms.items()) == list(want.terms.items())


class TestGCoproductOracle:
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_g_coeff_sum(self, n):
        engine = GrothendieckEngine.get(n)
        for lam in engine.bounded(4):
            assert engine.g_coproduct(lam).terms == \
                g_coproduct_by_g_coeff(engine, lam), lam


class TestVarphi:
    def test_h_r_maps_to_kappa(self, e3):
        for r in range(0, 3):
            assert e3.varphi(SymFunc.gen("h", (r,) if r else ())) == e3.kappa(r)

    def test_morphism(self, e3):
        rng = random.Random(9)
        labels = e3.bounded(3)
        for _ in range(10):
            f = SymFunc("h", {rng.choice(labels): rng.randint(-2, 2)}, 3)
            g = SymFunc("h", {rng.choice(labels): rng.randint(-2, 2)}, 3)
            assert e3.varphi(multiply(f, g)) == t_mul(e3.varphi(f), e3.varphi(g))

    def test_part_bound_rejected(self, e3):
        with pytest.raises(ValueError):
            e3.varphi(SymFunc.gen("h", (3,)))

    def test_noncommutative_coefficient_identity(self, e3):
        # [T_w] varphi(g_v) = coefficient of G_v in the G-basis expansion of G_w
        for w in weyl.all_elements(e3.datum, 6):
            expansion = e3.G_in_G_basis(w, 6)
            for mu in e3.bounded(6):
                lifted = e3.varphi(e3.g_of(mu))
                assert lifted.int_terms().get(w, 0) == expansion.get(mu, 0), (w, mu)


class TestGOf:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_G_of_matches_partition_scan(self, n):
        # a fresh engine asked in an unsorted degree order
        engine = GrothendieckEngine(n)
        elements = weyl.all_elements(engine.datum, 5)
        for d in (3, 1, 5, 0, 4, 2):
            for w in elements:
                want = {lam: engine.kappa_product(lam).get(w, 0)
                        for lam in engine.bounded(d)}
                assert engine.G_of(w, d).terms == \
                    {lam: c for lam, c in want.items() if c}, (w.word, d)

    def test_G_of_truncates_and_copies(self):
        # asked at d + 2 first, G_of(v, d) still stops at degree d, and a
        # caller's edits to one result reach no later result
        engine = GrothendieckEngine(3)
        d = 2
        elements = weyl.all_elements(engine.datum, d + 2)
        full = {v: dict(engine.G_of(v, d + 2).terms) for v in elements}
        assert any(sum(lam) > d for terms in full.values() for lam in terms)
        for v in elements:
            for degree in (d, d + 2):
                G = engine.G_of(v, degree)
                assert G.terms == {lam: c for lam, c in full[v].items()
                                   if sum(lam) <= degree}
                G.terms[(2, 2, 2)] = 5
                G.terms.pop(next(iter(full[v]), None), None)
            assert engine.G_of(v, d + 2).terms == full[v]


class TestGInGBasis:
    def test_grassmannian_is_delta(self, e3):
        for lam in e3.bounded(5):
            v = e3.grassmannian(lam)
            exp = e3.G_in_G_basis(v, 6)
            assert exp == {lam: 1}

    def test_row_1210(self, e3):
        # matches the -1 entries of the phi_0(k) table row 1210
        w = weyl.from_word(e3.datum, (1, 2, 1, 0))
        exp = e3.G_in_G_basis(w, 6)
        assert exp[weyl.partition_of_grassmannian(w)] == 1

    @pytest.mark.parametrize("n, max_length", [(2, 8), (3, 6), (4, 5), (5, 4)])
    def test_transpose_of_fs_table(self, n, max_length):
        # <g_lam, G_w> = [T_w] varphi(g_lam), and g and G are dual bases, so
        # the G-basis row of w is the column of w in the phi_0(k) table
        engine = GrothendieckEngine.get(n)
        labels = engine.bounded(max_length)
        for w in weyl.all_elements(engine.datum, max_length):
            column = {lam: engine.varphi_g(lam).get(w, 0) for lam in labels}
            assert engine.G_in_G_basis(w, max_length) == \
                {lam: c for lam, c in column.items() if c}, w.word

    def test_cross_check_fs_coefficients(self, e3):
        # the expansion coefficients reappear as [T_w] of the lifted g's
        from khecke.peterson import fomin_stanley_elt
        w = weyl.from_word(e3.datum, (1, 2, 1, 0))
        for lam in e3.bounded(5):
            fs = fomin_stanley_elt(e3, lam)
            assert fs.int_terms().get(w, 0) == e3.G_in_G_basis(w, 5).get(lam, 0)


def expand_by_pairing(engine, f, pair):
    """Oracle for expand_in_g / expand_in_kschur: one pairing per bounded label."""
    out = {}
    for mu in engine.bounded(f.max_degree()):
        c = pair(f, engine.grassmannian(mu))
        if c:
            out[mu] = c
    return out


@st.composite
def h_combinations(draw):
    """(n, f): integer h-terms plus integer g's, whose columns cancel."""
    n = draw(st.integers(2, 5))
    engine = GrothendieckEngine.get(n)
    labels = engine.bounded(4)
    f = SymFunc("h", draw(st.dictionaries(st.sampled_from(labels),
                                          st.integers(-3, 3), max_size=4)), n)
    for lam in draw(st.lists(st.sampled_from(labels), max_size=3)):
        f = f + engine.g_of(lam).scaled(draw(st.integers(-2, 2)))
    return n, f


class TestColumnExpansions:
    @given(h_combinations())
    def test_expand_in_g_matches_pair_with_G(self, case):
        n, f = case
        engine = GrothendieckEngine.get(n)
        assert engine.expand_in_g(f) == expand_by_pairing(
            engine, f, lambda f, u: hall_pair(f, engine.G_of(u, f.max_degree())))

    @given(h_combinations())
    def test_expand_in_kschur_matches_pair_with_F(self, case):
        n, f = case
        engine = GrothendieckEngine.get(n)
        assert engine.expand_in_kschur(f) == \
            expand_by_pairing(engine, f, lambda f, u: hall_pair(f, engine.F_of(u)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_zero_element(self, n):
        engine = GrothendieckEngine.get(n)
        zero = SymFunc("h", {}, n)
        assert engine.expand_in_g(zero) == engine.expand_in_kschur(zero) == {}

    def test_g_combination_reads_back(self, e3):
        f = e3.g_of((2, 1)).scaled(2) - e3.g_of((1,)) + e3.g_of((2, 2, 1))
        assert e3.expand_in_g(f) == {(2, 1): 2, (1,): -1, (2, 2, 1): 1}

    def test_rejects_non_h_and_unbounded_parts(self, e3):
        for expand in (e3.expand_in_g, e3.expand_in_kschur):
            with pytest.raises(ValueError, match="h basis"):
                expand(SymFunc("m", {(1,): 1}, 3))
            with pytest.raises(ValueError, match="parts < n"):
                expand(SymFunc("h", {(3,): 1}, 3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_column_matches_g_coeff(self, n):
        engine = GrothendieckEngine(n)
        for nu in engine.bounded(5):
            want = {mu: engine.kappa_product(nu).get(engine.grassmannian(mu), 0)
                    for mu in engine.bounded(sum(nu))}
            assert engine._column(nu) == {mu: c for mu, c in want.items() if c}, nu


class TestFastPathOracles:
    """Each fast path against the full kappa products it replaces."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_restricted_column_matches_full_product(self, n):
        engine = GrothendieckEngine(n)
        for nu in engine.bounded(7):
            assert engine._column(nu) == \
                engine.grassmannian_terms(engine.kappa_product(nu)), nu

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pieri_varphi_g_matches_hopf_lift(self, n):
        engine = GrothendieckEngine(n)
        for lam in engine.bounded(7):
            assert engine.varphi_g(lam) == engine._varphi_int(engine.g_of(lam)), lam
        assert not engine._open


class TestPieriRecursionChecks:
    """The three ways the Pieri recursion for varphi_g refuses to go on."""

    def test_leading_coefficient_not_one(self, monkeypatch):
        engine = GrothendieckEngine(3)
        g_of = engine.g_of
        monkeypatch.setattr(engine, "g_of", lambda lam: g_of(lam).scaled(2))
        with pytest.raises(VerificationError, match=r"h_1 g_\(\) is 2, not 1"):
            engine.varphi_g((1,))
        assert (1,) not in engine._fs and not engine._open

    def test_pieri_rule_mismatch(self, monkeypatch):
        engine = GrothendieckEngine(3)
        engine.g_of(())
        engine._column((1,))
        terms = engine.grassmannian_terms
        monkeypatch.setattr(engine, "grassmannian_terms",
                            lambda t: {**terms(t), (): 7})
        with pytest.raises(VerificationError, match="Pieri rule gives"):
            engine.varphi_g((1,))
        assert (1,) not in engine._fs and not engine._open

    def test_partition_met_again(self, monkeypatch):
        engine = GrothendieckEngine(3)
        g_of = engine.g_of

        def reentrant_g_of(lam):
            engine.varphi_g((2, 1))
            return g_of(lam)
        monkeypatch.setattr(engine, "g_of", reentrant_g_of)
        with pytest.raises(VerificationError, match=r"met \(2, 1\) again"):
            engine.varphi_g((2, 1))
        assert (2, 1) not in engine._fs and not engine._open


class TestOneGuard:
    """One in-progress set serves both Pieri recursions: each refusal leaves
    it empty, and the engine goes on to the right values."""

    def test_phi0_then_coproduct_refused(self, monkeypatch):
        engine = GrothendieckEngine(3)
        g_of, row = engine.g_of, engine._pieri_row

        def reentrant_g_of(lam):
            engine.varphi_g((2, 1))
            return g_of(lam)

        def reentrant_row(j, a):
            if (j, a) == (2, (1,)):
                engine.g_coproduct((2, 1))
            return row(j, a)
        with monkeypatch.context() as m:
            m.setattr(engine, "g_of", reentrant_g_of)
            with pytest.raises(VerificationError, match=r"phi_0\(k_\(2, 1\)\) met"):
                engine.varphi_g((2, 1))
        assert not engine._open
        with monkeypatch.context() as m:
            m.setattr(engine, "_pieri_row", reentrant_row)
            with pytest.raises(VerificationError, match=r"Delta\(g_\(2, 1\)\) met"):
                engine.g_coproduct((2, 1))
        assert not engine._open
        fresh = GrothendieckEngine(3)
        for lam in engine.bounded(4):
            assert engine.varphi_g(lam) == fresh._varphi_int(fresh.g_of(lam)), lam
            assert engine.g_coproduct(lam).terms == g_coproduct_via_h(fresh, lam), lam


class TestGOfCheck:
    def test_corrupt_column_fails_duality(self, monkeypatch):
        engine = GrothendieckEngine(3)
        column = engine._column
        monkeypatch.setattr(engine, "_column", lambda nu: (
            {**column(nu), (1,): 2} if nu == (1,) else column(nu)))
        with pytest.raises(VerificationError, match=r"duality failed for \(1,\)"):
            engine.g_of((1,))
        assert (1,) not in engine._g


def dual_solve_by_g_coeff(engine, lam, top_only):
    """Oracle for g_of / kschur_of: forward substitution, each entry read off
    the full kappa products, degrees from |lam| down (|lam| only for
    k-Schur), lex-ascending."""
    ell = sum(lam)
    coeffs = {}
    for d in ([ell] if top_only else range(ell, -1, -1)):
        for mu in sorted(partitions_of(d, engine.n - 1)):
            u = engine.grassmannian(mu)
            rhs = (1 if mu == lam else 0) - sum(
                c * engine.kappa_product(nu).get(u, 0) for nu, c in coeffs.items())
            if rhs:
                coeffs[mu] = rhs
    return SymFunc("h", coeffs, engine.n)


class TestDualSolveOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_forward_substitution(self, n):
        engine = GrothendieckEngine(n)
        for lam in engine.bounded(6):
            for solve, top_only in ((engine.g_of, False), (engine.kschur_of, True)):
                got, want = solve(lam), dual_solve_by_g_coeff(engine, lam, top_only)
                assert list(got.terms.items()) == list(want.terms.items()), lam
                assert got.basis == "h" and got.n == n
