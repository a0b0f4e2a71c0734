import pytest
from hypothesis import given, strategies as st

from khecke.cartan import (DatumMismatchError, LaurentPoly, RootDatum,
                           _RootSolver, demazure, divisible_by_one_minus_e, eta,
                           exact_divide_one_minus_e, level_zero_project, phi0,
                           weyl_reflect_poly)


def poly(datum, coords_coeffs):
    return LaurentPoly(datum, {datum.weight(c): v for c, v in coords_coeffs})


def rand_poly(datum, rng, size=3, box=2):
    terms = {}
    for _ in range(size):
        w = datum.weight(tuple(rng.randint(-box, box) for _ in range(datum.rank)))
        terms[w] = rng.randint(-3, 3)
    return LaurentPoly(datum, terms)


class TestRootDatum:
    def test_gcm_invariants_validated(self):
        with pytest.raises(ValueError):
            RootDatum.from_cartan([[2, 1], [1, 2]])
        with pytest.raises(ValueError):
            RootDatum.from_cartan([[2, -1], [0, 2]])
        with pytest.raises(ValueError):
            RootDatum.from_cartan([[1]])

    def test_affine_marks_null_root(self, af2, af3):
        for datum in (af2, af3):
            delta = datum.null_root()
            for i in datum.nodes:
                assert datum.pairing(i, delta) == 0

    def test_reflect_fundamental(self, sl2):
        om = sl2.fundamental_weight(1)
        a = sl2.simple_root(1)
        assert sl2.reflect(1, om) == om - a

    def test_reflect_sl3(self, sl3):
        # a_{12} = -1 forces r_1(alpha_2) = alpha_1 + alpha_2
        assert sl3.reflect(1, sl3.simple_root(2)) == \
            sl3.simple_root(1) + sl3.simple_root(2)

    def test_reflect_involutive(self, sl2):
        import random
        rng = random.Random(7)
        for _ in range(100):
            lam = sl2.weight((rng.randint(-9, 9), rng.randint(-9, 9)))
            assert sl2.reflect(1, sl2.reflect(1, lam)) == lam

    def test_datum_mismatch_rejected(self, sl2, sl3):
        with pytest.raises(DatumMismatchError):
            sl3.reflect(1, sl2.fundamental_weight(1))

    def test_canonical_form_last_coordinate_zero(self, sl3):
        w = sl3.weight((2, 5, 3))
        assert w.coords[-1] == 0
        assert w == sl3.weight((-1, 2, 0))


class TestDemazure:
    def test_zero_pairing(self, sl2):
        assert demazure(sl2, 1, LaurentPoly.one(sl2)).is_zero()

    def test_pairing_one_single_term(self, sl2):
        # T_1 e^{omega_1} = e^{r_1 omega_1}: the printed three-case formula's
        # positive branch starts at the reflected weight
        om = sl2.fundamental_weight(1)
        a = sl2.simple_root(1)
        got = demazure(sl2, 1, LaurentPoly.monomial(om))
        assert got == LaurentPoly.monomial(om - a)

    def test_fundamental_rep_weights_sl4(self):
        # T_i e^{e_J}: 0 / e^{e_{r_i J}} / -e^{e_J} by membership of i, i+1
        sl4 = RootDatum.sl(4)
        def eJ(*J):
            return sl4.weight(tuple(1 if k + 1 in J else 0 for k in range(4)))
        got = demazure(sl4, 2, LaurentPoly.monomial(eJ(2)))
        assert got == LaurentPoly.monomial(eJ(3))
        got = demazure(sl4, 2, LaurentPoly.monomial(eJ(3)))
        assert got == -LaurentPoly.monomial(eJ(3))
        assert demazure(sl4, 2, LaurentPoly.monomial(eJ(2, 3))).is_zero()

    def test_idempotence(self, sl3):
        import random
        rng = random.Random(3)
        for i in (1, 2):
            for _ in range(25):
                p = rand_poly(sl3, rng)
                d = demazure(sl3, i, p)
                assert demazure(sl3, i, d) == -d

    def test_leibniz(self, sl3):
        import random
        rng = random.Random(5)
        for _ in range(200):
            i = rng.choice((1, 2))
            q1, q2 = rand_poly(sl3, rng), rand_poly(sl3, rng)
            lhs = demazure(sl3, i, q1 * q2)
            rhs = demazure(sl3, i, q1) * q2 + \
                weyl_reflect_poly(sl3, i, q1) * demazure(sl3, i, q2)
            assert lhs == rhs

    def test_level_zero_action_node0(self, af2):
        # alpha_0 projects to -alpha; pairing with e^alpha is -2
        fin = af2.finite
        a = fin.simple_root(1)
        got = demazure(af2, 0, LaurentPoly.monomial(a))
        assert got == LaurentPoly(fin, {a: -1, fin.zero(): -1})


class TestPhi0Eta:
    def test_phi0_cancellation(self, sl2):
        a = sl2.simple_root(1)
        p = poly(sl2, [((0, 0), 1)]) - LaurentPoly.monomial(a)
        assert phi0(p) == 0
        assert phi0(p * p) == 0

    def test_phi0_coefficient_sum(self, sl2):
        lam, mu = sl2.weight((3, 0)), sl2.weight((-2, 0))
        assert phi0(LaurentPoly(sl2, {lam: 3, mu: -1})) == 2

    @given(st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=4),
           st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=4))
    def test_phi0_multiplicative(self, pd, qd):
        sl2 = RootDatum.sl(2)
        p = LaurentPoly(sl2, {sl2.weight((k, 0)): v for k, v in pd.items()})
        q = LaurentPoly(sl2, {sl2.weight((k, 0)): v for k, v in qd.items()})
        assert phi0(p * q) == phi0(p) * phi0(q)

    def test_eta_involution_morphism(self, sl3):
        import random
        rng = random.Random(11)
        for _ in range(50):
            p, q = rand_poly(sl3, rng), rand_poly(sl3, rng)
            assert eta(eta(p)) == p
            assert eta(p * q) == eta(p) * eta(q)
            assert eta(p + q) == eta(p) + eta(q)

    def test_eta_single(self, sl2):
        a = sl2.simple_root(1)
        assert eta(LaurentPoly.monomial(a)) == LaurentPoly.monomial(-a)


class TestProjection:
    def test_kernel(self, af2):
        fin = af2.finite
        delta = af2.null_root()
        lam0 = af2.fundamental_weight(0)
        a1 = af2.simple_root(1)
        proj = af2.project(a1 + delta.scaled(3))
        assert proj == fin.simple_root(1)
        assert af2.project(lam0).is_zero()

    def test_poly_projection(self, af2):
        p = LaurentPoly(af2, {af2.simple_root(1): 2, af2.null_root(): 1})
        q = level_zero_project(p, af2)
        fin = af2.finite
        assert q == LaurentPoly(fin, {fin.simple_root(1): 2, fin.zero(): 1})


class TestDivisibility:
    def test_basic(self, sl2):
        a = sl2.simple_root(1)
        one = LaurentPoly.one(sl2)
        binom = one - LaurentPoly.monomial(a)
        assert divisible_by_one_minus_e(binom, a, 1)
        assert not divisible_by_one_minus_e(binom, a, 2)
        assert divisible_by_one_minus_e(binom * binom, a, 2)
        assert not divisible_by_one_minus_e(one, a, 1)
        assert exact_divide_one_minus_e(binom * binom, a) == binom

    def test_multivariate(self, sl3):
        a1, a2 = sl3.simple_root(1), sl3.simple_root(2)
        one = LaurentPoly.one(sl3)
        p = (one - LaurentPoly.monomial(a1)) * (one - LaurentPoly.monomial(a1 + a2))
        assert divisible_by_one_minus_e(p, a1, 1)
        assert divisible_by_one_minus_e(p, a1 + a2, 1)
        assert not divisible_by_one_minus_e(p, a2, 1)

    def test_exact_divide_roundtrip(self, sl3):
        import random
        rng = random.Random(13)
        a = sl3.simple_root(1)
        one = LaurentPoly.one(sl3)
        binom = one - LaurentPoly.monomial(a)
        for _ in range(30):
            q = rand_poly(sl3, rng)
            assert exact_divide_one_minus_e(binom * q, a) == q


class TestSerialization:
    def test_lex_sorted_records(self, sl2):
        p = LaurentPoly(sl2, {sl2.weight((2, 0)): 3, sl2.weight((-1, 0)): -1})
        data = p.to_json()
        assert data == [{"exponent": [-1, 0], "coeff": -1},
                        {"exponent": [2, 0], "coeff": 3}]
        assert LaurentPoly.from_json(sl2, data) == p


AFFINE_GCMS = {
    "A1~": ([[2, -2], [-2, 2]], [1, 1]),
    "A2~": ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [1, 1, 1]),
    "C2~": ([[2, -1, 0], [-2, 2, -2], [0, -1, 2]], [1, 2, 1]),
    "G2~": ([[2, -1, 0], [-1, 2, -1], [0, -3, 2]], [1, 2, 3]),
}
SOLVER_DATA = (
    [RootDatum.affine_sl(n) for n in range(2, 6)]
    + [RootDatum.of_type(t) for t in ("A1", "A2", "A3", "B2", "C2", "G2")]
    + [RootDatum.affinize_cartan(m, marks, name=f"gcm-{name}")
       for name, (m, marks) in AFFINE_GCMS.items()])


def lattice_point(datum, combo, noise, scale):
    """scale * (sum combo_i alpha_i) + noise, cut to the datum's rank."""
    v = [scale * sum(c * datum.simple_root(i).coords[k]
                     for c, i in zip(combo, datum.nodes))
         for k in range(datum.rank)]
    return datum.weight(tuple(x + e for x, e in zip(v, noise)))


class TestRootSolver:
    """The factored solver against the elimination it was factored from."""

    @given(st.sampled_from(SOLVER_DATA),
           st.lists(st.integers(-4, 4), min_size=7, max_size=7),
           st.lists(st.integers(-2, 2), min_size=7, max_size=7),
           st.sampled_from([0, 1]), st.sampled_from([1, 2, 3]))
    def test_matches_elimination(self, datum, combo, noise, noisy, scale):
        noise = [e * noisy for e in noise[:datum.rank]]
        lam = lattice_point(datum, combo, noise, scale)
        oracle = _RootSolver(datum).solve_by_elimination(lam.coords)
        assert datum.root_coords(lam) == oracle
        if not noisy:
            want = tuple(scale * c for c in combo[:len(datum.nodes)])
            assert oracle == want

    def test_none_results_agree(self):
        # unit vectors off the root lattice: odd level (affine SL_n), or
        # index > 1 of the root lattice (A1, A2, B2, ...)
        none_seen = 0
        for datum in SOLVER_DATA:
            slow = _RootSolver(datum)
            for k in range(datum.rank):
                for c in (1, -1, 2):
                    lam = datum.weight(tuple(c if t == k else 0
                                             for t in range(datum.rank)))
                    got = datum.root_coords(lam)
                    assert got == slow.solve_by_elimination(lam.coords)
                    none_seen += got is None
        assert none_seen > 0
