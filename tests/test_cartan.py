from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from khecke import weyl
from khecke.cartan import (DatumMismatchError, LaurentPoly, RootDatum, Weight,
                           _alpha_lines, _divide_line_once, demazure,
                           divisible_by_one_minus_e, eta, exact_divide_one_minus_e,
                           phi0, residue_mod_one_minus_e, spread, weyl_reflect_poly)


def poly(datum, coords_coeffs):
    return LaurentPoly(datum, {datum.weight(c): v for c, v in coords_coeffs})


def null_root(datum):
    """delta = sum_i a_i alpha_i of an affine datum, from its marks."""
    delta = datum.zero()
    for i in datum.nodes:
        delta = delta + datum.simple_root(i).scaled(datum.marks[i])
    return delta


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

    @pytest.mark.parametrize("typ", ["A0", "A01", "A007", "A0~", "A01~", "A-1"])
    def test_type_a_needs_positive_rank_without_leading_zero(self, typ):
        with pytest.raises(ValueError):
            RootDatum.of_type(typ)

    def test_type_a_names(self):
        assert RootDatum.of_type("A1~") is RootDatum.affine_sl(2)
        assert len(RootDatum.of_type("A1").nodes) == 1
        assert len(RootDatum.of_type("A10").nodes) == 10

    def test_constructors_share_one_datum_per_argument(self):
        assert RootDatum.sl(3) is RootDatum.sl(3)
        assert RootDatum.of_type(" A2~ ") is RootDatum.affine_sl(3)
        assert RootDatum.of_type("B2") is RootDatum.of_type(" B2 ")

    @pytest.mark.parametrize("make", [RootDatum.sl, RootDatum.affine_sl])
    def test_constructor_errors_are_not_cached(self, make):
        for _ in range(2):
            with pytest.raises(ValueError, match="needs n >= 2"):
                make(1)

    def test_affine_marks_null_root(self, af2, af3):
        for datum in (af2, af3):
            delta = null_root(datum)
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


class TestSpread:
    def test_laurent_coefficients(self, sl2):
        # 0 + p is p (Combination.__radd__), so ring coefficients sum as ints
        # do: u gets x * x + 1 * 1, and v's terms x * 1 and 1 * (-x) cancel
        one = LaurentPoly.one(sl2)
        x = LaurentPoly.monomial(sl2.simple_root(1))
        rows = {"a": [("u", x), ("v", one)], "b": [("u", one), ("v", -x)]}
        assert spread({"a": x, "b": one}, rows.__getitem__) == {"u": x * x + one}


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


class TestCoefficientLattice:
    """The one flavor rule, and the simple reflections' action on each lattice."""

    COMPANION = "level-zero flavor needs an affine datum with a finite companion"

    @pytest.mark.parametrize("typ,flavor,want", [
        ("A2", None, "self"), ("A2", "big", "self"),
        ("A2", "level-zero", COMPANION), ("A2", "bogus", "unknown flavor"),
        ("A2~", None, "finite"), ("A2~", "big", "self"),
        ("A2~", "level-zero", "finite"), ("A2~", "bogus", "unknown flavor"),
        ("C2~", None, COMPANION), ("C2~", "big", "self"),
        ("C2~", "level-zero", COMPANION), ("C2~", "bogus", "unknown flavor"),
    ])
    def test_flavor_table(self, typ, flavor, want):
        datum = RootDatum.of_type(typ)
        if want == "self":
            assert datum.coefficient_lattice(flavor) is datum
        elif want == "finite":
            assert datum.coefficient_lattice(flavor) is datum.finite
        else:
            with pytest.raises(ValueError, match=want):
                datum.coefficient_lattice(flavor)

    def test_simple_action_memoised_per_lattice(self, af3):
        for lattice in (af3, af3.finite):
            action = af3.simple_action(lattice)
            assert af3.simple_action(lattice) is action
            assert set(action) == set(af3.nodes)
            for i, (row, alpha) in action.items():
                assert alpha == af3.to_lattice(af3.simple_root(i), lattice)
                assert len(row) == lattice.rank
        assert af3.simple_action(af3) is not af3.simple_action(af3.finite)

    def test_simple_action_rejects_other_lattices(self, af2, sl2, sl3):
        for datum, lattice in ((af2, sl3), (af2, RootDatum.affine_sl(3)),
                               (sl2, sl3), (RootDatum.of_type("C2~"), sl3)):
            with pytest.raises(DatumMismatchError):
                datum.simple_action(lattice)
        with pytest.raises(DatumMismatchError):
            demazure(af2, 1, LaurentPoly.one(sl3))
        with pytest.raises(DatumMismatchError):
            weyl_reflect_poly(sl2, 1, LaurentPoly.one(sl3))


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
        delta = null_root(af2)
        lam0 = af2.fundamental_weight(0)
        a1 = af2.simple_root(1)
        proj = af2.project(a1 + delta.scaled(3))
        assert proj == fin.simple_root(1)
        assert af2.project(lam0).is_zero()

    def test_poly_projection(self, af2, level_zero_project):
        p = LaurentPoly(af2, {af2.simple_root(1): 2, null_root(af2): 1})
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
    + [RootDatum.sl(n) for n in (2, 3, 4)]
    + [RootDatum.of_type(t) for t in ("A1", "A2", "A3", "B2", "C2", "G2")]
    + [RootDatum.affinize_cartan(m, marks, name=f"gcm-{name}")
       for name, (m, marks) in AFFINE_GCMS.items()])


def as_matrix(datum):
    """``datum.cartan`` as a list of rows in node order."""
    return [[datum.cartan[i][j] for j in datum.nodes] for i in datum.nodes]


class TestDerivedCartan:
    """The GCM, rank and flavor are derived from the roots, coroots and marks;
    the matrices that were once typed in beside them are the references."""

    @pytest.mark.parametrize("n, name", [(2, "A1~"), (3, "A2~")])
    def test_affine_sl_small(self, n, name):
        assert as_matrix(RootDatum.affine_sl(n)) == AFFINE_GCMS[name][0]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_affine_sl_cyclic(self, n):
        want = [[2 if i == j else (-1 if (i - j) % n in (1, n - 1) else 0)
                 for j in range(n)] for i in range(n)]
        assert as_matrix(RootDatum.affine_sl(n)) == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sl_path(self, n):
        nodes = range(1, n)
        want = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in nodes]
                for i in nodes]
        assert as_matrix(RootDatum.sl(n)) == want

    @pytest.mark.parametrize("typ", ["B2", "C2", "G2", "C2~", "G2~"])
    def test_named_types(self, typ):
        named = RootDatum._NAMED.get(typ) or RootDatum._NAMED_AFFINE[typ][0]
        assert as_matrix(RootDatum.of_type(typ)) == named

    def test_rank_and_flavor(self):
        want = {"A1~:sl2": (4, "affine"), "A2~:sl3": (5, "affine"),
                "A3~:sl4": (6, "affine"), "A4~:sl5": (7, "affine"),
                "A1:sl2": (2, "finite"), "A2:sl3": (3, "finite"),
                "A3:sl4": (4, "finite"), "A1": (1, "finite"), "A2": (2, "finite"),
                "A3": (3, "finite"), "B2": (2, "finite"), "C2": (2, "finite"),
                "G2": (2, "finite"), "gcm-A1~": (3, "affine"),
                "gcm-A2~": (4, "affine"), "gcm-C2~": (4, "affine"),
                "gcm-G2~": (4, "affine")}
        assert {d.name: (d.rank, d.flavor) for d in SOLVER_DATA} == want

    def test_rank_zero(self):
        datum = RootDatum.from_cartan([])
        assert (datum.rank, datum.flavor, datum.nodes, datum.cartan) == \
            (0, "finite", (), {})
        assert datum.rho == datum.zero()
        assert [w.word for w in weyl.all_elements(datum, 3)] == [()]


def lattice_point(datum, combo, noise, scale):
    """scale * (sum combo_i alpha_i) + noise, cut to the datum's rank."""
    v = [scale * sum(c * datum.simple_root(i).coords[k]
                     for c, i in zip(combo, datum.nodes))
         for k in range(datum.rank)]
    return datum.weight(tuple(x + e for x, e in zip(v, noise)))


def eliminate(cols, rhs):
    """Gauss-Jordan elimination of [A | B] over Q, A by its columns ``cols``
    and B by its rows ``rhs``, pivots chosen from the A part alone.
    Returns the reduced rows as Fractions and the pivot columns in order."""
    rows = len(rhs)
    ncols = len(cols)
    aug = [[Fraction(cols[c][r]) for c in range(ncols)] + [Fraction(x) for x in rhs[r]]
           for r in range(rows)]
    piv = []
    r = 0
    for c in range(ncols):
        p = next((k for k in range(r, rows) if aug[k][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = aug[r][c]
        aug[r] = [x / inv for x in aug[r]]
        for k in range(rows):
            if k != r and aug[k][c] != 0:
                f = aug[k][c]
                aug[k] = [x - f * y for x, y in zip(aug[k], aug[r])]
        piv.append(c)
        r += 1
        if r == rows:
            break
    return aug, piv


class FactoredRootSolver:
    """The root lattice solve factored once per datum, the oracle of
    ``RootDatum.root_coords``: elimination of [A | I] gives E with E A
    reduced, kept as the integer rows of D E over one common denominator D.
    Solving is then dot products: the rows past the rank must vanish, and
    each node's pivot row must be divisible by D."""

    def __init__(self, datum: RootDatum):
        cols = [datum.simple_root(i).coords for i in datum.nodes]
        if datum.quotient_vector is not None:
            cols.append(datum.quotient_vector)
        self.nnodes = len(datum.nodes)
        rank = datum.rank
        aug, piv = eliminate(cols, [[int(r == k) for k in range(rank)]
                                    for r in range(rank)])
        factor = [row[len(cols):] for row in aug]
        self.denom = lcm(*(x.denominator for row in factor for x in row))
        scaled = [tuple(int(x * self.denom) for x in row) for row in factor]
        self.consistency = scaled[len(piv):]
        pivot_row = {c: scaled[k] for k, c in enumerate(piv)}
        self.node_rows = [pivot_row.get(c) for c in range(self.nnodes)]

    def solve(self, coords):
        dot = lambda row: sum(a * b for a, b in zip(row, coords))
        if any(dot(row) for row in self.consistency):
            return None
        out = []
        for row in self.node_rows:
            if row is None:  # free column: set to 0
                out.append(0)
                continue
            q, rem = divmod(dot(row), self.denom)
            if rem:
                return None
            out.append(q)
        return tuple(out)


class TestRootSolver:
    """``root_coords``, one elimination, against the factored solver."""

    @given(st.sampled_from(SOLVER_DATA),
           st.lists(st.integers(-4, 4), min_size=7, max_size=7),
           st.lists(st.integers(-2, 2), min_size=7, max_size=7),
           st.sampled_from([0, 1]), st.sampled_from([1, 2, 3]))
    def test_matches_elimination(self, datum, combo, noise, noisy, scale):
        noise = [e * noisy for e in noise[:datum.rank]]
        lam = lattice_point(datum, combo, noise, scale)
        oracle = FactoredRootSolver(datum).solve(lam.coords)
        assert datum.root_coords(lam) == oracle
        if not noisy:
            want = tuple(scale * c for c in combo[:len(datum.nodes)])
            assert oracle == want

    def test_none_results_agree(self):
        # unit vectors off the root lattice: odd level (affine SL_n), or
        # index > 1 of the root lattice (A1, A2, B2, ...)
        none_seen = 0
        for datum in SOLVER_DATA:
            factored = FactoredRootSolver(datum)
            for k in range(datum.rank):
                for c in (1, -1, 2):
                    lam = datum.weight(tuple(c if t == k else 0
                                             for t in range(datum.rank)))
                    got = datum.root_coords(lam)
                    assert got == factored.solve(lam.coords)
                    none_seen += got is None
        assert none_seen > 0


# -- the ring layer's fast paths against plain-coordinate oracles ---------------

RING_DATA = (
    [RootDatum.sl(n) for n in (2, 3, 4)]
    + [RootDatum.affine_sl(n) for n in (2, 3)]
    + [RootDatum.of_type(t) for t in ("B2", "G2", "C2~")]
    + [RootDatum.affinize_cartan(*AFFINE_GCMS["A2~"], name="gcm-A2~")])

# (acting datum, coefficient lattice): each datum on its own lattice, and
# affine SL_n on the level-zero one
ACTION_PAIRS = ([(datum, datum) for datum in RING_DATA]
                + [(RootDatum.affine_sl(n), RootDatum.affine_sl(n).finite)
                   for n in (2, 3, 4)])

coords_st = st.lists(st.integers(-3, 3), min_size=7, max_size=7)
# a small box and few coefficient values, so terms collide and cancel
terms_st = st.dictionaries(st.tuples(*[st.integers(-1, 1)] * 7),
                           st.integers(-2, 2), max_size=5)


def cut(datum, coords):
    return tuple(coords[:datum.rank])


def oracle_terms(datum, raw):
    """{canonical coords: coeff} from raw coordinates, zeros dropped."""
    out = {}
    for x, c in raw.items():
        key = datum.canon(cut(datum, x))
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def build(datum, raw):
    """The public constructor on weights summed by Weight equality."""
    acc = {}
    for x, c in raw.items():
        w = Weight(datum, cut(datum, x))
        acc[w] = acc.get(w, 0) + c
    return LaurentPoly(datum, acc)


def as_oracle(p):
    """The poly's terms by coordinates, checking the trusted invariants."""
    for w, c in p.terms.items():
        assert c != 0
        assert w.datum is p.datum
        assert w.coords == w.datum.canon(w.coords)
    return {w.coords: c for w, c in p.terms.items()}


def oracle_add(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def oracle_mul(datum, a, b):
    out = {}
    for x, c in a.items():
        for y, d in b.items():
            key = datum.canon(tuple(u + v for u, v in zip(x, y)))
            out[key] = out.get(key, 0) + c * d
    return {k: c for k, c in out.items() if c}


class TestCanonicalWeights:
    """Every Weight is canonical, however it was built."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quotient_equality(self, n):
        # regression: the Weight constructor once kept (1, ..., 1) as given
        sl = RootDatum.sl(n)
        assert Weight(sl, (1,) * n) == sl.zero()
        assert Weight(sl, (1,) * n).is_zero()
        assert hash(Weight(sl, (2,) * n)) == hash(sl.zero())
        af = RootDatum.affine_sl(n)
        assert Weight(af, (1,) * n + (0, 0)) == af.zero()
        assert Weight(af, (3,) * n + (1, 2)) == af.weight((0,) * n + (1, 2))
        assert Weight(af, (1,) * n + (0, 0)) != null_root(af)

    @given(st.sampled_from(RING_DATA), coords_st, coords_st, st.integers(-3, 3))
    def test_ops_match_datum_weight(self, datum, x, y, k):
        x, y = cut(datum, x), cut(datum, y)
        a, b = datum.weight(x), datum.weight(y)
        assert Weight(datum, x) == a
        cases = [
            (a + b, [u + v for u, v in zip(x, y)]),
            (a - b, [u - v for u, v in zip(x, y)]),
            (-a, [-u for u in x]),
            (a.scaled(k), [k * u for u in x]),
        ]
        for fast, raw in cases:
            slow = datum.weight(raw)
            assert fast == slow and hash(fast) == hash(slow)
            assert fast.coords == slow.coords == datum.canon(raw)

    def test_datum_checks_kept(self, sl2, sl3):
        with pytest.raises(DatumMismatchError):
            Weight(sl3, (1, 2))
        with pytest.raises(DatumMismatchError):
            sl3.zero() + sl2.zero()


class TestRingOracle:
    """LaurentPoly's trusted ring operations against {coords: int} sums."""

    @given(st.sampled_from(RING_DATA), terms_st, terms_st, st.integers(-2, 2))
    def test_ring_ops(self, datum, pt, qt, k):
        p, q = build(datum, pt), build(datum, qt)
        po, qo = oracle_terms(datum, pt), oracle_terms(datum, qt)
        assert as_oracle(p) == po and as_oracle(q) == qo
        assert as_oracle(p + q) == oracle_add(po, qo)
        assert as_oracle(p - q) == oracle_add(po, qo, -1)
        assert as_oracle(-p) == {x: -c for x, c in po.items()}
        assert as_oracle(p.scaled(k)) == {x: k * c for x, c in po.items() if k}
        assert as_oracle(k * p) == as_oracle(p * k) == as_oracle(p.scaled(k))
        assert as_oracle(p * q) == oracle_mul(datum, po, qo)
        assert as_oracle(eta(p)) == {datum.canon(tuple(-u for u in x)): c
                                     for x, c in po.items()}
        assert (p - p).is_zero() and (p + (-p)).is_zero()

    @given(st.sampled_from(RING_DATA), coords_st, coords_st,
           st.sampled_from([1, -1, 2, -3]), st.integers(-3, 3), terms_st)
    def test_one_term_factor(self, datum, x, y, c, d, pt):
        # c e^mu * p is a shift of p by mu scaled by c, on either side; a
        # product of two single terms is one term
        mono = LaurentPoly.monomial(datum.weight(cut(datum, x)), c)
        other = LaurentPoly.monomial(datum.weight(cut(datum, y)), d)
        p = build(datum, pt)
        mo, oo, po = as_oracle(mono), as_oracle(other), as_oracle(p)
        assert as_oracle(mono * p) == as_oracle(p * mono) == oracle_mul(datum, mo, po)
        assert as_oracle(mono * other) == oracle_mul(datum, mo, oo)

    @pytest.mark.parametrize("c", [1, 3])
    def test_one_term_factor_explicit(self, c):
        # e^mu p, p e^mu and c e^mu p with an explicit c outside {1, -1}
        import random
        rng = random.Random(c)
        for datum in RING_DATA:
            mono = LaurentPoly.monomial(datum.simple_root(datum.nodes[-1]), c)
            p = rand_poly(datum, rng, size=4)
            mo, po = as_oracle(mono), as_oracle(p)
            assert as_oracle(mono * p) == as_oracle(p * mono) == oracle_mul(datum, mo, po)
            assert as_oracle(mono * mono) == oracle_mul(datum, mo, mo)

    @given(st.sampled_from(RING_DATA), terms_st, terms_st)
    def test_forced_cancellation(self, datum, pt, qt):
        # r = q - p cancels every term of p in p + r; the cross terms of
        # (p + q)(p - q) cancel in the product's own sum; p * (q - q) is 0
        p, q = build(datum, pt), build(datum, qt)
        po, qo = as_oracle(p), as_oracle(q)
        assert as_oracle(p + (q - p)) == qo
        assert as_oracle((p + q) * (p - q)) == oracle_add(
            oracle_mul(datum, po, po), oracle_mul(datum, qo, qo), -1)
        assert (p * (q - q)).is_zero()
        assert as_oracle(p * q - q * p) == {}

    @given(st.sampled_from(ACTION_PAIRS), terms_st, st.data())
    def test_reflect_and_demazure(self, pair, pt, data):
        # the oracle acts on the datum's own lattice: a level-zero weight is
        # lifted with level 0 and degree 0, acted on, and projected back
        datum, lattice = pair
        i = data.draw(st.sampled_from(datum.nodes))
        p = build(lattice, pt)

        def lift(x):
            return datum.weight(x + (0,) * (datum.rank - lattice.rank))

        def down(lam):
            return lam.coords if lattice is datum else datum.project(lam).coords

        want = {}
        for x, c in as_oracle(p).items():
            want[down(datum.reflect(i, lift(x)))] = c
        assert as_oracle(weyl_reflect_poly(datum, i, p)) == want
        # T_i e^lam for lam = r_i mu in the three cases of the formula
        alpha = datum.simple_root(i)
        want = {}
        for x, c in as_oracle(p).items():
            m = datum.pairing(i, lift(x))
            ks = range(-m, 0) if m > 0 else range(-m)
            for k in ks:
                key = down(lift(x) + alpha.scaled(k))
                want[key] = want.get(key, 0) + (c if m > 0 else -c)
        assert as_oracle(demazure(datum, i, p)) == {x: c for x, c in want.items() if c}

    def test_public_constructor_checks(self, sl2, sl3):
        with pytest.raises(DatumMismatchError):
            LaurentPoly(sl3, {sl2.zero(): 1})
        assert LaurentPoly(sl3, {sl3.zero(): 0}).terms == {}


def root_direction(datum, combo):
    return datum.weight(tuple(
        sum(c * datum.simple_root(i).coords[k] for c, i in zip(combo, datum.nodes))
        for k in range(datum.rank)))


class TestDivisibilityOracle:
    """Line-by-line divisibility against q * (1 - e^alpha)^d."""

    @given(st.sampled_from(RING_DATA), terms_st,
           st.lists(st.integers(-2, 2), min_size=3, max_size=3),
           st.integers(1, 3), st.tuples(*[st.integers(-2, 2)] * 7),
           st.integers(1, 3))
    def test_multiples_and_perturbations(self, datum, qt, combo, d, mu, c):
        alpha = root_direction(datum, combo)
        if alpha.is_zero():
            return
        one = LaurentPoly.one(datum)
        binom = one - LaurentPoly.monomial(alpha)
        q = build(datum, qt)
        p = q
        for _ in range(d):
            p = p * binom
        for k in range(1, d + 1):
            assert divisible_by_one_minus_e(p, alpha, k)
        # one extra term makes one alpha-line's coefficient sum nonzero
        bad = p + LaurentPoly.monomial(datum.weight(cut(datum, mu)), c)
        assert not divisible_by_one_minus_e(bad, alpha, 1)
        with pytest.raises(ValueError):
            exact_divide_one_minus_e(bad, alpha)
        back = p
        for _ in range(d):
            back = exact_divide_one_minus_e(back, alpha)
            as_oracle(back)
        assert back == q

    def test_mixed_data_rejected(self, sl2, sl3):
        p = LaurentPoly.one(sl3)
        with pytest.raises(DatumMismatchError):
            divisible_by_one_minus_e(p, sl2.simple_root(1))
        with pytest.raises(DatumMismatchError):
            exact_divide_one_minus_e(p, sl2.simple_root(1))


def iterated_division(p, alpha, d):
    """p in (1 - e^alpha)^d Z[P] by dividing each alpha-line d times."""
    if p.is_zero():
        return True
    for coeffs in _alpha_lines(p, alpha).values():
        for _ in range(d):
            coeffs = _divide_line_once(coeffs)
            if coeffs is None:
                return False
    return True


RESIDUE_DATA = (RootDatum.sl(3), RootDatum.of_type("B2"), RootDatum.of_type("G2"),
                RootDatum.affine_sl(3), RootDatum.of_type("C2~"))
combo_st = st.lists(st.integers(-2, 2), min_size=3, max_size=3)


class TestResidues:
    """Residues mod (1 - e^alpha) and line moments against line division."""

    @given(st.sampled_from(RESIDUE_DATA), terms_st, terms_st, terms_st, combo_st,
           st.booleans())
    def test_residue_equality_is_divisibility(self, datum, ft, gt, qt, combo, planted):
        alpha = root_direction(datum, combo)
        if alpha.is_zero():
            return
        f, g = build(datum, ft), build(datum, gt)
        if planted:
            binom = LaurentPoly.one(datum) - LaurentPoly.monomial(alpha)
            g = f + build(datum, qt) * binom
        same = residue_mod_one_minus_e(f, alpha) == residue_mod_one_minus_e(g, alpha)
        assert same == divisible_by_one_minus_e(f - g, alpha, 1)
        assert same == iterated_division(f - g, alpha, 1)
        if planted:
            assert same
        # the residue is the line sums of _alpha_lines, zero sums dropped
        sums = {key: sum(line.values()) for key, line in _alpha_lines(f, alpha).items()}
        assert residue_mod_one_minus_e(f, alpha) == {k: c for k, c in sums.items() if c}

    @given(st.sampled_from(RING_DATA), terms_st, terms_st, combo_st,
           st.integers(0, 3), st.integers(1, 3), st.booleans())
    def test_moments_match_iterated_division(self, datum, qt, rt, combo, k, d, perturb):
        alpha = root_direction(datum, combo)
        if alpha.is_zero():
            return
        binom = LaurentPoly.one(datum) - LaurentPoly.monomial(alpha)
        p = build(datum, qt)
        for _ in range(k):
            p = p * binom
        if perturb:
            p = p + build(datum, rt)
        assert divisible_by_one_minus_e(p, alpha, d) == iterated_division(p, alpha, d)
        if not perturb and k >= d:
            assert divisible_by_one_minus_e(p, alpha, d)

    def test_residue_rejects(self, sl2, sl3):
        p = LaurentPoly.one(sl3)
        with pytest.raises(DatumMismatchError):
            residue_mod_one_minus_e(p, sl2.simple_root(1))
        with pytest.raises(ValueError):
            residue_mod_one_minus_e(p, sl3.zero())
        assert residue_mod_one_minus_e(LaurentPoly.zero(sl3), sl3.simple_root(1)) == {}
