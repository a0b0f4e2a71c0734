import pytest
from hypothesis import given, strategies as st

from khecke.cartan import (LaurentPoly, RootDatum, divisible_by_one_minus_e, eta,
                           exact_divide_one_minus_e)
from khecke import localization, weyl
from khecke.hecke import group_elt_to_T
from khecke.localization import (PsiEngine, gkm_check_big,
                                 grassmannian_expansion, sl2_psi_closed,
                                 sl2_sigma, small_gkm_check,
                                 small_gkm_grassmannian_check, wrongway)


def reduced_words(w):
    """All reduced words of w, by descent recursion."""
    if w.is_identity():
        return [()]
    out = []
    for i in w.datum.nodes:
        if weyl.has_left_descent(w, i):
            for rest in reduced_words(weyl.multiply(weyl.simple(w.datum, i), w)):
                out.append((i,) + rest)
    return out


def act_elt(engine, w, p):
    """w . p, one simple reflection per letter of w's word."""
    for i in reversed(w.word):
        p = engine.act(i, p)
    return p


def table_json(engine, max_len):
    """All values psi^v(w) for l(v), l(w) <= max_len as JSON records."""
    els = weyl.all_elements(engine.datum, max_len)
    values = ((v, w, engine.psi_right(v, w)) for v in els for w in els)
    return [{"v": weyl.word_str(v.word), "w": weyl.word_str(w.word),
             "value": val.to_json()} for v, w, val in values if not val.is_zero()]


def sl2_index(w):
    """Inverse of sl2_sigma (every affine SL_2 element is some sigma_j)."""
    ell = w.length
    if ell == 0:
        return 0
    # positive sigma_j: odd words start with 0, even words with 1
    positive = (w.word[0] == 0) if ell % 2 else (w.word[0] == 1)
    return ell if positive else -ell


class TestWorkedExample:
    def test_sl3_value(self, A2, eng_A2):
        v = weyl.simple(A2, 1)
        w = weyl.from_word(A2, (1, 2, 1))
        want = LaurentPoly(A2, {A2.zero(): 1,
                                A2.simple_root(1) + A2.simple_root(2): -1})
        assert eng_A2.psi_right(v, w) == want
        assert eng_A2.psi_left(v, w) == want
        assert eng_A2.psi_graham_willems(v, w, (1, 2, 1)) == want
        assert eng_A2.psi_graham_willems(v, w, (2, 1, 2)) == want

    def test_single_step(self, A2, eng_A2):
        r1 = weyl.simple(A2, 1)
        one = LaurentPoly.one(A2)
        assert eng_A2.psi_left(r1, r1) == \
            one - LaurentPoly.monomial(A2.simple_root(1))

    def test_non_reduced_word_rejected(self, A2, eng_A2):
        w = weyl.from_word(A2, (1, 2))
        with pytest.raises(ValueError):
            eng_A2.psi_graham_willems(weyl.simple(A2, 1), w, (1, 2, 2, 2))
        with pytest.raises(ValueError):
            eng_A2.psi_graham_willems(weyl.simple(A2, 1), w, (2, 1))

    def test_table_export(self, A2, eng_A2):
        records = table_json(eng_A2, 2)
        assert all(set(r) == {"v", "w", "value"} for r in records)
        assert {"v": "", "w": "1", "value": [{"exponent": [0, 0], "coeff": 1}]} \
            in records

    def test_psi_id_constant_one(self, A2, eng_A2, lz2):
        for w in weyl.all_elements(A2, 3):
            assert eng_A2.psi_right(weyl.identity(A2), w) == LaurentPoly.one(A2)
        for w in weyl.all_elements(lz2.datum, 5):
            assert lz2.psi_right(weyl.identity(lz2.datum), w) == \
                LaurentPoly.one(lz2.coeffs)


class TestAgreement:
    def test_three_way_A2(self, A2, eng_A2):
        els = weyl.all_elements(A2, 3)
        for w in els:
            for v in els:
                r = eng_A2.psi_right(v, w)
                assert r == eng_A2.psi_left(v, w)
                assert r == eng_A2.psi_graham_willems(v, w)

    def test_three_way_affine_both_flavors(self, af2, lz2, big2):
        els = weyl.all_elements(af2, 5)
        for eng in (lz2, big2):
            for w in els:
                for v in els:
                    r = eng.psi_right(v, w)
                    assert r == eng.psi_left(v, w)
                    assert r == eng.psi_graham_willems(v, w)

    def test_word_independence(self, A2, eng_A2):
        for w in weyl.all_elements(A2, 3):
            vals = {}
            for word in reduced_words(w):
                for v in weyl.all_elements(A2, 3):
                    got = eng_A2.psi_graham_willems(v, w, word)
                    if (v, w) in vals:
                        assert vals[(v, w)] == got, (v, w, word)
                    vals[(v, w)] = got

    def test_support(self, A2, eng_A2, lz2):
        for eng, datum, cap in ((eng_A2, A2, 3), (lz2, lz2.datum, 5)):
            for w in weyl.all_elements(datum, cap):
                for v in weyl.all_elements(datum, cap):
                    if not weyl.bruhat_leq(v, w):
                        assert eng.psi_right(v, w).is_zero()

    def test_diagonal(self, A2, af3, eng_A2, lz2):
        # grassmannian_expansion divides by this product as the pivot psi^u(u)
        lz3 = PsiEngine(af3, "level-zero")
        for eng, datum, cap in ((eng_A2, A2, 3), (lz2, lz2.datum, 5), (lz3, af3, 4)):
            for v in weyl.all_elements(datum, cap):
                assert eng.psi_right(v, v) == eng.diagonal(v)

    def test_eta_symmetry(self, A2, eng_A2):
        # psi^v(w) = eta(w . psi^{v^{-1}}(w^{-1}))
        els = weyl.all_elements(A2, 3)
        for v in els:
            for w in els:
                rhs = eta(act_elt(eng_A2, w, eng_A2.psi_right(
                    weyl.inverse(v), weyl.inverse(w))))
                assert eng_A2.psi_right(v, w) == rhs

    def test_kloc_group_expansion(self, A2, eng_A2, lz2):
        for eng, datum, cap in ((eng_A2, A2, 3), (lz2, lz2.datum, 4)):
            for w in weyl.all_elements(datum, cap):
                exp = group_elt_to_T(w)
                for v in weyl.all_elements(datum, cap):
                    assert exp.coefficient(v) == eng.psi_right(v, w)

    def test_psi_y_lemma(self, A2, eng_A2):
        # (y_i . psi^v)(T_w) = psi^{v r_i}(T_w) if v r_i < v else psi^v(T_w)
        els = weyl.all_elements(A2, 3)
        for v in els:
            for i in A2.nodes:
                ri = weyl.simple(A2, i)
                vri = weyl.multiply(v, ri)
                target = vri if vri.length < v.length else v
                for w in els:
                    # (y_i psi^v)(T_w) = psi^v(T_w y_i), and T_w y_i =
                    # chi(w r_i > w)(T_w + T_{w r_i}); psi^v(T_x) = delta_{v,x}
                    wri = weyl.multiply(w, ri)
                    lhs = (1 if (wri.length > w.length and v == w) else 0) + \
                          (1 if (wri.length > w.length and v == wri) else 0)
                    rhs = 1 if target == w else 0
                    assert lhs == rhs


class TestKostantKumar:
    def test_identity(self, A2, eng_A2):
        e = weyl.identity(A2)
        assert eng_A2.psi_kk(e, e) == LaurentPoly.one(A2)

    def test_mobius_relation(self, A2, eng_A2):
        # sum_{v >= u} psi_KK^v = psi^u evaluated at all w, l <= 3
        els = weyl.all_elements(A2, 3)
        for u in els:
            for w in els:
                total = LaurentPoly.zero(A2)
                for v in els:
                    if weyl.bruhat_leq(u, v):
                        total = total + eng_A2.psi_kk(v, w)
                assert total == eng_A2.psi_right(u, w)

    def test_closed_form(self, A2, eng_A2):
        els = weyl.all_elements(A2, 3)
        for v in els:
            for w in els:
                assert eng_A2.psi_kk(v, w) == eng_A2.psi_kk_closed(v, w)


class TestGKMBig:
    @staticmethod
    def _pairs(datum, els):
        roots = sorted({a for v in els for a in weyl.inversions(v)},
                       key=lambda a: a.coords)
        return [(a, w) for a in roots for w in els]

    def test_constant_function(self, A2):
        # zero values take residue {} without reduction
        pairs = self._pairs(A2, weyl.all_elements(A2, 3))
        for c in (LaurentPoly.one(A2), LaurentPoly.zero(A2)):
            assert gkm_check_big(lambda w: c, pairs)

    def test_psi_tables_pass(self, A2, eng_A2):
        els = weyl.all_elements(A2, 3)
        pairs = self._pairs(A2, els)
        for v in els:
            assert gkm_check_big(lambda x, v=v: eng_A2.psi_right(v, x), pairs)

    def test_affine_big_torus(self, af2, big2):
        els = weyl.all_elements(af2, 4)
        pairs = self._pairs(af2, els)
        for v in weyl.all_elements(af2, 3):
            assert gkm_check_big(lambda x, v=v: big2.psi_right(v, x), pairs)

    def test_perturbation_fails(self, A2, eng_A2):
        els = weyl.all_elements(A2, 3)
        pairs = self._pairs(A2, els)
        v = weyl.simple(A2, 1)
        w0 = weyl.from_word(A2, (1, 2, 1))

        def bad(x):
            p = eng_A2.psi_right(v, x)
            return p + LaurentPoly.one(A2) if x == w0 else p
        assert not gkm_check_big(bad, pairs)

    def test_perturbation_at_a_zero_value_fails(self, A2, eng_A2):
        # psi^v(x) = 0 for v = r_1 not <= x = r_2; raising it to 1 breaks the
        # pair (alpha_2, x), whose neighbour r_2 x = e still has residue {}
        els = weyl.all_elements(A2, 3)
        pairs = self._pairs(A2, els)
        v, x = weyl.simple(A2, 1), weyl.simple(A2, 2)
        assert eng_A2.psi_right(v, x).is_zero()

        def bad(y):
            return LaurentPoly.one(A2) if y == x else eng_A2.psi_right(v, y)
        assert not gkm_check_big(bad, pairs)

    @staticmethod
    def _pairwise(psi_of, pairs):
        """Oracle: form each difference and test it for divisibility."""
        return all(divisible_by_one_minus_e(
            psi_of(weyl.left_reflection(a, w)) - psi_of(w), a) for a, w in pairs)

    @pytest.mark.parametrize("name", ["A2~", "C2~", "G2~"])
    def test_matches_pairwise_oracle(self, name):
        datum, eng, els, pairs = big_torus(name, 3)
        for v in els:
            psi_of = lambda x, v=v: eng.psi_right(v, x)
            assert gkm_check_big(psi_of, pairs)
            assert self._pairwise(psi_of, pairs)

    def test_affine_perturbation_fails_both_routes(self):
        datum, eng, els, pairs = big_torus("A2~", 3)
        v, x = weyl.simple(datum, 0), weyl.from_word(datum, (0, 1, 2))

        def bad(y):
            p = eng.psi_right(v, y)
            return p + LaurentPoly.one(p.datum) if y == x else p
        assert not gkm_check_big(bad, pairs)
        assert not self._pairwise(bad, pairs)


def big_torus(name, max_len):
    """(datum, big-torus engine, elements to max_len, gkm-check's pairs)."""
    datum = RootDatum.of_type(name)
    els = weyl.all_elements(datum, max_len)
    return datum, PsiEngine(datum, "big"), els, TestGKMBig._pairs(datum, els)


def shared_steps(els):
    """(v, w, w r_i) with i the smallest right descent of w and
    l(v r_i) > l(v), where psi_right's recurrence returns psi^v(w r_i)."""
    for v in els:
        for w in els:
            if not w.is_identity():
                i = weyl.smallest_right_descent(w)
                if weyl.right_simple(v, i).length > v.length:
                    yield v, w, weyl.right_simple(w, i)


class TestGKMBigResidueMemo:
    """gkm_check_big memoises residues by (id of the psi value, alpha)."""

    @staticmethod
    def _count_reductions(monkeypatch):
        calls = []
        reduce = localization.residue_mod_one_minus_e

        def counted(p, alpha):
            calls.append(alpha)
            return reduce(p, alpha)
        monkeypatch.setattr(localization, "residue_mod_one_minus_e", counted)
        return calls

    def test_fresh_copies_reduce_every_nonzero_end(self, monkeypatch):
        # a psi_of that is not memoised: every value is a new object, so an
        # id-keyed memo that dropped its values would meet reused ids
        datum, eng, els, pairs = big_torus("A2~", 3)
        calls = self._count_reductions(monkeypatch)
        nonzero = 0
        for v in els:
            def fresh(x, v=v):
                p = eng.psi_right(v, x)
                return LaurentPoly(p.datum, p.terms)
            assert gkm_check_big(fresh, pairs)
            nonzero += sum(bool(eng.psi_right(v, x))
                           for a, w in pairs for x in (weyl.left_reflection(a, w), w))
        assert len(calls) == nonzero == 2562

    def test_perturbing_one_end_of_a_shared_value_fails(self):
        # psi^v(w) and psi^v(w r_i) are one object, and r_alpha w = w r_i; f
        # lies in (1 - e^beta) for every other root beta, so only the pairs
        # joining w and w r_i can see psi^v(w) + f
        datum, eng, els, pairs = big_torus("A2~", 3)
        v, w, wri = next((v, w, wri) for v, w, wri in shared_steps(els)
                         if eng.psi_right(v, w))
        assert eng.psi_right(v, w) is eng.psi_right(v, wri)
        roots = {a for a, _ in pairs}
        alpha = next(a for a in roots if weyl.left_reflection(a, w) == wri)
        one = LaurentPoly.one(datum)
        f = one
        for beta in roots - {alpha}:
            f = f * (one - LaurentPoly.monomial(beta))
        assert not divisible_by_one_minus_e(f, alpha)

        def bad(x):
            p = eng.psi_right(v, x)
            return p + f if x == w else p
        assert not gkm_check_big(bad, pairs)
        assert not TestGKMBig._pairwise(bad, pairs)
        assert TestGKMBig._pairwise(bad, [(a, y) for a, y in pairs if a != alpha])

    @pytest.mark.parametrize("name, ceiling",
                             [("A2~", 960), ("C2~", 913), ("G2~", 828)])
    def test_reduction_ceiling(self, monkeypatch, name, ceiling):
        # one reduction per distinct (nonzero value, alpha); keyed per point
        # (x, alpha) these were 2,184, 2,106 and 1,881
        datum, eng, els, pairs = big_torus(name, 3)
        calls = self._count_reductions(monkeypatch)
        for v in els:
            assert gkm_check_big(lambda x, v=v: eng.psi_right(v, x), pairs)
        assert len(calls) <= ceiling

    def test_psi_right_shares_the_step_value(self):
        # the sharing the memo saves on: psi^v(w) is psi^v(w r_i) itself
        datum, eng, els, pairs = big_torus("A2~", 3)
        steps = list(shared_steps(els))
        assert steps
        for v, w, wri in steps:
            assert eng.psi_right(v, w) is eng.psi_right(v, wri)


class TestSmallGKM:
    def test_d_validation(self, af2, lz2):
        alpha = af2.finite.simple_root(1)
        with pytest.raises(ValueError):
            small_gkm_grassmannian_check(lambda w: LaurentPoly.one(af2.finite),
                                         af2, (1, -1), alpha, 0,
                                         weyl.identity(af2))

    def test_constant_passes(self, af2):
        one = LaurentPoly.one(af2.finite)
        alpha = af2.finite.simple_root(1)
        for d in (1, 2, 3):
            assert small_gkm_grassmannian_check(lambda w: one, af2, (1, -1),
                                                alpha, d, sl2_sigma(af2, 3))

    def test_sl2_psi_windows(self, af2, lz2):
        alpha = af2.finite.simple_root(1)
        for m in range(-4, 5):
            psi_of = lambda x, m=m: lz2.psi_right(sl2_sigma(af2, m), x)
            for d in (1, 2, 3):
                for j in range(-6, 7):
                    w = sl2_sigma(af2, j)
                    assert small_gkm_grassmannian_check(
                        psi_of, af2, (1, -1), alpha, d, w), (m, d, j)
                    assert small_gkm_check(
                        psi_of, af2, (1, -1), alpha, d, w), (m, d, j)

    def test_n3_spot_checks(self, af3):
        # Grassmannian psi's satisfy both small-torus conditions (spot range)
        engine = PsiEngine(af3, "level-zero")
        fin = af3.finite
        grass = [v for v in weyl.all_elements(af3, 3) if weyl.is_grassmannian(v)]
        els = weyl.all_elements(af3, 3)
        avees = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
        for v in grass:
            psi_of = lambda x, v=v: engine.psi_right(v, x)
            for avee in avees:
                alpha = fin.weight(avee)
                for d in (1, 2):
                    for w in els[:8]:
                        assert small_gkm_grassmannian_check(
                            psi_of, af3, avee, alpha, d, w)
                        assert small_gkm_check(
                            psi_of, af3, avee, alpha, d, w)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reflects_by_the_transposition(self, n):
        # with d = 1 the check evaluates psi at w and at r_alpha w only; the
        # oracle builds r_alpha, alpha^vee = e_i - e_j, as the window of (i j)
        datum = RootDatum.affine_sl(n)
        zero = LaurentPoly.zero(datum.finite)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                avee = tuple(int(t == i) - int(t == j) for t in range(n))
                win = list(weyl._win_identity(n))
                win[i], win[j] = win[j], win[i]
                r_alpha = weyl._intern(datum, tuple(win))
                for w in weyl.all_elements(datum, 3):
                    seen = []
                    assert small_gkm_check(lambda x: seen.append(x) or zero, datum,
                                           avee, datum.finite.weight(avee), 1, w)
                    assert seen == [w, weyl.multiply(r_alpha, w)]

    @pytest.mark.parametrize("n, avee", [(2, (-1, 1)), (3, (0, -1, 1)),
                                         (3, (-1, 0, 1))])
    def test_negative_coroot(self, n, avee):
        datum = RootDatum.affine_sl(n)
        engine = PsiEngine(datum, "level-zero")
        alpha = datum.finite.weight(avee)
        els = weyl.all_elements(datum, 3)
        for v in [v for v in els if weyl.is_grassmannian(v)]:
            psi_of = lambda x, v=v: engine.psi_right(v, x)
            for d in (1, 2):
                for w in els[:8]:
                    assert small_gkm_check(psi_of, datum, avee, alpha, d, w)


class TestSl2ClosedForms:
    def test_psi_2_2(self, af2):
        fin = af2.finite
        one = LaurentPoly.one(fin)
        x = LaurentPoly.monomial(fin.simple_root(1))
        assert sl2_psi_closed(2, 2) == (one - x) * (one - x)

    def test_psi_0_row(self, af2):
        fin = af2.finite
        for j in range(-8, 9):
            assert sl2_psi_closed(0, j) == LaurentPoly.one(fin)

    def test_matches_recurrence(self, af2, lz2):
        for m in range(-10, 11):
            for j in range(-10, 11):
                assert sl2_psi_closed(m, j) == \
                    lz2.psi_right(sl2_sigma(af2, m), sl2_sigma(af2, j)), (m, j)

    def test_eta_mirror(self):
        for m in range(-5, 6):
            for j in range(-5, 6):
                assert sl2_psi_closed(-m, -j) == eta(sl2_psi_closed(m, j))

    def test_sigma_index_roundtrip(self, af2):
        for j in range(-9, 10):
            assert sl2_index(sl2_sigma(af2, j)) == j

    def test_levelzero_is_projection_of_big(self, af2, lz2, big2,
                                            level_zero_project):
        for m in range(-3, 4):
            for j in range(-4, 5):
                bigval = big2.psi_right(sl2_sigma(af2, m), sl2_sigma(af2, j))
                assert level_zero_project(bigval, af2) == \
                    lz2.psi_right(sl2_sigma(af2, m), sl2_sigma(af2, j))


class TestWrongWay:
    def test_section_on_grassmannians(self, af2, lz2):
        for j in range(0, 5):
            psi_of = lambda x, j=j: lz2.psi_right(sl2_sigma(af2, j), x)
            ww = wrongway(psi_of)
            for k in range(-4, 5):
                assert ww(sl2_sigma(af2, k)) == psi_of(sl2_sigma(af2, k))

    def test_constant(self, af2):
        one = LaurentPoly.one(af2.finite)
        ww = wrongway(lambda w: one)
        for j in range(-3, 4):
            assert ww(sl2_sigma(af2, j)) == one

    def test_coset_constant(self, af2, lz2):
        psi_of = lambda x: lz2.psi_right(sl2_sigma(af2, -2), x)
        ww = wrongway(psi_of)
        for j in range(-4, 5):
            rep = weyl.grassmannian_part(sl2_sigma(af2, j))[0]
            assert ww(sl2_sigma(af2, j)) == ww(rep)

    def test_triangular_expansion(self, af2, lz2):
        # varpi(psi^{sigma_{-1}}) over Grassmannian psi's has triangular support
        ww = wrongway(lambda x: lz2.psi_right(sl2_sigma(af2, -1), x))
        coeffs = grassmannian_expansion(lz2, ww, 5)
        assert coeffs  # nonzero
        assert all(sl2_index(u) >= 1 for u in coeffs)


# -- the Grassmannian expansion against trial division of its pivot ----------------


def _binomial_direction(d):
    """A direction alpha with (1 - e^alpha) dividing d, found from d's support."""
    terms = d.sorted_terms()
    base = terms[0][0]
    for w, _ in terms[1:]:
        alpha = w - base
        if divisible_by_one_minus_e(d, alpha, 1):
            return alpha
        alpha = base - w
        if divisible_by_one_minus_e(d, alpha, 1):
            return alpha
    raise ValueError("no binomial factor found")


def _exact_quotient(p, d):
    """Exact division p / d when d factors as monomial * prod (1 - e^alpha):
    divide p and d in lockstep by each binomial read off d's support."""
    if p.is_zero():
        return p
    q, rem_d = p, d
    while len(rem_d.terms) > 1:
        alpha = _binomial_direction(rem_d)
        q = exact_divide_one_minus_e(q, alpha)
        rem_d = exact_divide_one_minus_e(rem_d, alpha)
    [(mu, c)] = rem_d.terms.items()
    if c not in (1, -1):
        raise ValueError("denominator is not a unit times cyclotomic binomials")
    return LaurentPoly(p.datum, {w - mu: cc * c for w, cc in q.terms.items()})


def expansion_by_trial_division(engine, psi_of, max_len):
    """grassmannian_expansion with the pivot psi^u(u) factored by trial division."""
    grass = sorted((u for u in weyl.all_elements(engine.datum, max_len)
                    if weyl.is_grassmannian(u)), key=lambda u: (u.length, u.word))
    coeffs = {}
    for u in grass:
        residual = psi_of(u)
        for v, c in coeffs.items():
            residual = residual - c * engine.psi_right(v, u)
        q = _exact_quotient(residual, engine.psi_right(u, u))
        if not q.is_zero():
            coeffs[u] = q
    return coeffs


class TestGrassmannianExpansion:
    @pytest.mark.parametrize("n, max_u, max_x", [(3, 4, 5), (4, 3, 4)])
    def test_matches_trial_division(self, n, max_u, max_x):
        datum = RootDatum.affine_sl(n)
        engine = PsiEngine(datum, "level-zero")
        nonzero = 0
        for x in weyl.all_elements(datum, max_x):
            pw = wrongway(lambda y, x=x: engine.psi_right(x, y))
            got = grassmannian_expansion(engine, pw, max_u)
            assert got == expansion_by_trial_division(engine, pw, max_u), x
            nonzero += bool(got)
        assert nonzero

    def test_indivisible_residual_raises(self, lz2):
        # the residual -1 at sigma_1 is not divisible by its pivot 1 - e^alpha
        one, zero = LaurentPoly.one(lz2.coeffs), LaurentPoly.zero(lz2.coeffs)
        with pytest.raises(ValueError):
            grassmannian_expansion(lz2, lambda w: one if w.is_identity() else zero, 1)


# -- psi_right's one-product step against its slow paths ---------------------------


def psi_right_two_products(engine, v, w, memo):
    """The right recurrence with the step (1 - m) psi^{vr_i}(w) + m psi^v(wr_i)."""
    key = (v, w)
    if key in memo:
        return memo[key]
    if w.is_identity():
        val = engine._one() if v.is_identity() else engine._zero()
    else:
        datum = engine.datum
        i = next(i for i in datum.nodes if weyl.has_right_descent(w, i))
        wri = weyl.multiply(w, weyl.simple(datum, i))
        vri = weyl.multiply(v, weyl.simple(datum, i))
        if vri.length > v.length:
            val = psi_right_two_products(engine, v, wri, memo)
        else:
            m = LaurentPoly.monomial(-engine.root_image(w, i))
            val = (engine._one() - m) * psi_right_two_products(engine, vri, w, memo) \
                + m * psi_right_two_products(engine, v, wri, memo)
    memo[key] = val
    return val


PSI_CASES = [(RootDatum.affine_sl(3), "big", 4), (RootDatum.affine_sl(3), "level-zero", 4),
             (RootDatum.of_type("B2"), "big", 4), (RootDatum.of_type("G2"), "big", 6)]
PSI_ENGINES = [(PsiEngine(d, flavor), weyl.all_elements(d, cap), {})
               for d, flavor, cap in PSI_CASES]


class TestPsiRightStep:
    @given(st.sampled_from(range(len(PSI_ENGINES))), st.data())
    def test_matches_two_product_step_and_other_algorithms(self, case, data):
        engine, els, memo = PSI_ENGINES[case]
        v = data.draw(st.sampled_from(els))
        w = data.draw(st.sampled_from(els))
        got = engine.psi_right(v, w)
        assert got == psi_right_two_products(engine, v, w, memo)
        assert got == engine.psi_left(v, w)
        assert got == engine.psi_graham_willems(v, w)


ROOT_IMAGE_CASES = [("A2~", "big"), ("A2~", "level-zero"), ("A1~", "big"),
                    ("A1~", "level-zero"), ("C2~", "big"), ("G2~", "big"),
                    ("B2", "big"), ("G2", "big")]


class TestRootImage:
    @pytest.mark.parametrize("typ,flavor", ROOT_IMAGE_CASES)
    def test_remembered_root_image_matches_the_action(self, typ, flavor):
        # the engine remembers w(alpha_i) per (w, i); weyl.apply acts letter
        # by letter (or by the window's finite part on level zero)
        datum = RootDatum.of_type(typ)
        engine = PsiEngine(datum, flavor)
        alphas = {i: datum.to_lattice(datum.simple_root(i), engine.coeffs)
                  for i in datum.nodes}
        els = weyl.all_elements(datum, 4)
        for _ in range(2):
            for w in els:
                for i, alpha in alphas.items():
                    assert engine.root_image(w, i) == weyl.apply(w, alpha), (w, i)


class TestLevelZeroNeedsCompanion:
    def test_affinized_gcm_rejected_at_construction(self):
        for datum in (RootDatum.of_type("C2~"),
                      RootDatum.affinize_cartan([[2, -2], [-2, 2]], [1, 1])):
            with pytest.raises(ValueError, match="finite companion"):
                PsiEngine(datum, "level-zero")
            assert PsiEngine(datum, "big").psi_right(
                weyl.identity(datum), weyl.simple(datum, 0)) == LaurentPoly.one(datum)

    def test_finite_datum_rejected(self, A2):
        with pytest.raises(ValueError):
            PsiEngine(A2, "level-zero")
