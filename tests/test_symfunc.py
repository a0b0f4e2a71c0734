import random

import pytest
from hypothesis import given, strategies as st

from khecke import symfunc
from khecke.symfunc import (SymFunc, TensorSym, convert, coproduct_h,
                            dominates, hall_pair, kostka, make_partition,
                            multiply, partitions_of, partitions_up_to, peel)


def rand_symfunc(basis, rng, degree):
    return SymFunc(basis, {lam: rng.randint(-3, 3)
                           for lam in partitions_of(degree)})


class TestPartitions:
    def test_make_partition_sorts(self):
        assert make_partition([1, 3, 2]) == (3, 2, 1)
        assert make_partition([]) == ()
        with pytest.raises(ValueError):
            make_partition([2, -1])

    def test_partitions_of(self):
        assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert partitions_of(4, 2) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_dominance(self):
        assert dominates((3, 1), (2, 2))
        assert not dominates((2, 2), (3, 1))
        assert dominates((2, 1), (2, 1))


def partitions_unmemoised(n, max_part=None):
    """Oracle for partitions_of: the recursive enumeration, no memo."""
    out = []

    def rec(rem, bound, prefix):
        if rem == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(bound, rem), 0, -1):
            rec(rem - p, p, prefix + [p])

    rec(n, n if max_part is None else min(max_part, n), [])
    return out


class TestPartitionMemo:
    def test_matches_unmemoised(self):
        for n in range(11):
            for cap in [None, *range(n + 2)]:
                assert partitions_of(n, cap) == partitions_unmemoised(n, cap), (n, cap)

    def test_matches_recursive_enumeration_and_memo(self, monkeypatch):
        memo = {}

        def recursive(n, cap):
            if (n, cap) not in memo:
                memo[n, cap] = ((),) if n == 0 else tuple(
                    (p,) + rest for p in range(min(cap, n), 0, -1)
                    for rest in recursive(n - p, p))
            return memo[n, cap]
        monkeypatch.setattr(symfunc, "_PARTITIONS", {})
        for n in range(26):
            for cap in [None, *range(n + 2)]:
                assert partitions_of(n, cap) == \
                    list(recursive(n, n if cap is None else min(cap, n))), (n, cap)
        assert symfunc._PARTITIONS == memo

    def test_long_partition_does_not_recurse(self, monkeypatch):
        monkeypatch.setattr(symfunc, "_PARTITIONS", {})
        assert partitions_of(2000, 1) == [(1,) * 2000]

    def test_refuses_to_list_too_many(self, monkeypatch):
        monkeypatch.setattr(symfunc, "_PARTITIONS", {})
        monkeypatch.setattr(symfunc, "MAX_PARTITIONS", 41)
        assert len(partitions_of(9)) == 30
        with pytest.raises(ValueError, match="10 has 42 partitions with parts <= 10"):
            partitions_of(10)
        assert (10, 10) not in symfunc._PARTITIONS

    def test_returned_list_is_a_copy(self):
        first = partitions_of(5, 3)
        first.append((9,))
        first[0] = ()
        assert partitions_of(5, 3) == partitions_unmemoised(5, 3)
        assert partitions_of(5, 3) is not partitions_of(5, 3)


class TestKostka:
    @pytest.mark.parametrize("lam,mu,val", [
        ((2, 1), (1, 1, 1), 2),
        ((3,), (1, 1, 1), 1),
        ((1, 1, 1), (1, 1, 1), 1),
        ((2, 2), (2, 1, 1), 1),
        ((2, 2), (1, 1, 1, 1), 2),
        ((2, 1), (2, 2), 0),
    ])
    def test_values(self, lam, mu, val):
        assert kostka(lam, mu) == val

    def test_unitriangular(self):
        for d in range(1, 7):
            for lam in partitions_of(d):
                assert kostka(lam, lam) == 1
                for mu in partitions_of(d):
                    if kostka(lam, mu):
                        assert dominates(lam, mu)


class TestConvert:
    def test_h2_to_s(self):
        assert convert(SymFunc.gen("h", (2,)), "s") == SymFunc.gen("s", (2,))

    def test_jacobi_trudi_s21(self):
        assert convert(SymFunc.gen("s", (2, 1)), "h") == \
            SymFunc("h", {(2, 1): 1, (3,): -1})

    def test_h1_cubed(self):
        got = convert(SymFunc.gen("h", (1, 1, 1)), "s")
        assert got == SymFunc("s", {(3,): 1, (2, 1): 2, (1, 1, 1): 1})

    def test_roundtrips(self):
        rng = random.Random(0)
        for _ in range(25):
            f = rand_symfunc("m", rng, rng.randint(0, 7))
            for b in ("h", "s"):
                assert convert(convert(f, b), "m") == f
            fs = convert(f, "s")
            assert convert(convert(fs, "h"), "s") == fs

    def test_basis_mismatch_is_explicit(self):
        with pytest.raises(ValueError):
            SymFunc.gen("h", (1,)) + SymFunc.gen("m", (1,))
        with pytest.raises(ValueError):
            hall_pair(SymFunc.gen("m", (1,)), SymFunc.gen("m", (1,)))


def h_expansions(max_degree=5):
    """Random integer combinations, cancellations included, of low degree."""
    return st.dictionaries(st.sampled_from(partitions_up_to(max_degree)),
                           st.integers(-3, 3), max_size=6)


def expand_per_term(f, row, target):
    """Oracle for the row expansions of ``convert``: one SymFunc per term."""
    out = SymFunc(target, {}, f.n)
    for lam, c in f.terms.items():
        out = out + SymFunc(target, dict(row(lam)), f.n).scaled(c)
    return out


class TestExpandRows:
    @given(st.sampled_from([("s", "m", symfunc._s_to_m_row),
                            ("h", "s", symfunc._h_to_s_row)]),
           h_expansions(), st.sampled_from([None, 3]))
    def test_matches_per_term_sum(self, route, terms, n):
        source, target, row = route
        f = SymFunc(source, terms, n)
        got = convert(f, target)
        want = expand_per_term(f, row, target)
        assert got == want
        assert (got.basis, got.n) == (want.basis, want.n)


class TestSpread:
    def test_empty(self):
        assert symfunc.spread({}, lambda key: [(key, 1)]) == {}

    def test_cancels_to_empty(self):
        rows = {"a": [("x", 1), ("y", 2)], "b": [("x", -1), ("y", -2)]}
        assert symfunc.spread({"a": 3, "b": 3}, rows.__getitem__) == {}

    @given(st.integers(1, 5), st.data())
    def test_matches_dict_oracle(self, k, data):
        rows = {i: data.draw(st.dictionaries(st.integers(0, k), st.integers(-3, 3)))
                for i in range(k)}
        terms = data.draw(st.dictionaries(st.integers(0, k - 1), st.integers(-3, 3)))
        want = {}
        for i, c in terms.items():
            for j, a in rows[i].items():
                want[j] = want.get(j, 0) + c * a
        got = symfunc.spread(terms, lambda i: rows[i].items())
        assert got == {j: c for j, c in want.items() if c}
        assert all(got.values())


class TestPeel:
    @given(st.integers(1, 6), st.data())
    def test_rebuilds_unitriangular_systems(self, k, data):
        # row(i) = e_i + later keys; key k is outside the order, so it is leftover
        rows = {i: {i: 1, **{j: data.draw(st.integers(-3, 3))
                             for j in range(i + 1, k + 1)}}
                for i in range(k)}
        terms = data.draw(st.dictionaries(st.integers(0, k), st.integers(-5, 5)))
        coeffs, left = peel(terms, range(k), lambda i: rows[i].items())
        rebuilt = dict(left)
        for i, c in coeffs.items():
            for j, a in rows[i].items():
                rebuilt[j] = rebuilt.get(j, 0) + c * a
        assert {j: c for j, c in rebuilt.items() if c} == \
            {j: c for j, c in terms.items() if c}
        assert set(left) <= {k}
        assert all(coeffs.values())

    def test_row_adds_a_later_key(self):
        # key 1 is not in terms; row 0 brings it in before the order reaches it
        rows = {0: {0: 1, 1: 2}, 1: {1: 1}}
        assert peel({0: 1}, [0, 1], lambda i: rows[i].items()) == ({0: 1, 1: -2}, {})

    def test_order_keys_missing_from_residual_are_skipped(self):
        rows = {0: {0: 1, 2: 1}, 1: {1: 1, 2: 1}, 2: {2: 1}}
        visited = []

        def row(i):
            visited.append(i)
            return rows[i].items()
        # key 0 is absent, and key 2 cancels before the order reaches it
        assert peel({1: 3, 2: 3}, [0, 1, 2], row) == ({1: 3}, {})
        assert visited == [1]

    def test_key_already_passed_stays_in_residual(self):
        rows = {0: {0: 1}, 1: {1: 1, 0: 5}}
        assert peel({1: 1}, [0, 1], lambda i: rows[i].items()) == ({1: 1}, {0: -5})


class TestHallPairing:
    def test_duality(self):
        assert hall_pair(SymFunc.gen("h", (2, 1)), SymFunc.gen("m", (2, 1))) == 1
        assert hall_pair(SymFunc.gen("h", (2, 1)), SymFunc.gen("m", (1, 1, 1))) == 0

    def test_h11_monomial_coefficient(self):
        # h_1^2 = m_2 + 2 m_11; the pairing itself is the h/m duality
        h11 = multiply(SymFunc.gen("h", (1,)), SymFunc.gen("h", (1,)))
        assert convert(h11, "m") == SymFunc("m", {(2,): 1, (1, 1): 2})
        assert convert(h11, "m").terms[(1, 1)] == 2
        assert hall_pair(h11, SymFunc.gen("m", (1, 1))) == 1

    def test_bilinearity(self):
        rng = random.Random(1)
        for _ in range(20):
            d = rng.randint(1, 5)
            f1, f2 = rand_symfunc("h", rng, d), rand_symfunc("h", rng, d)
            g = rand_symfunc("m", rng, d)
            assert hall_pair(f1 + f2, g) == hall_pair(f1, g) + hall_pair(f2, g)


class TestMultiplyTruncate:
    def test_h_concat(self):
        assert multiply(SymFunc.gen("h", (1,)), SymFunc.gen("h", (1,))) == \
            SymFunc.gen("h", (1, 1))

    def test_commutative_associative(self):
        rng = random.Random(2)
        for _ in range(8):
            f = rand_symfunc("m", rng, 2)
            g = rand_symfunc("m", rng, 3)
            h = rand_symfunc("m", rng, 3)
            assert multiply(f, g) == multiply(g, f)
            assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))

    @given(st.integers(1, 4), st.integers(1, 4))
    def test_h_product_degree(self, a, b):
        prod = multiply(SymFunc.gen("h", (a,)), SymFunc.gen("h", (b,)))
        assert prod == SymFunc.gen("h", make_partition((a, b)))


class TestCoproduct:
    def test_h2(self):
        D = coproduct_h(SymFunc.gen("h", (2,)))
        assert D == TensorSym(("h", "h"), {((2,), ()): 1, ((1,), (1,)): 1,
                                           ((), (2,)): 1})

    def test_multiplicativity(self):
        # Delta(h_21) = Delta(h_2) * Delta(h_1) expanded
        D = coproduct_h(SymFunc.gen("h", (2, 1)))
        assert D.terms[((2, 1), ())] == 1
        assert D.terms[((1,), (2,))] == 1
        assert D.terms[((1, 1), (1,))] == 1
        assert D.terms[((2,), (1,))] == 1
        total = sum(abs(c) for c in D.terms.values())
        assert total == 3 * 2  # (h2+h1 h1+1 h2-side) x (h1 split)

    def test_counitality(self):
        rng = random.Random(3)
        for _ in range(10):
            f = rand_symfunc("h", rng, 4)
            D = coproduct_h(f)
            left = SymFunc("h", {mu: c for (lam, mu), c in D.terms.items()
                                 if lam == ()})
            assert left == f


def coproduct_h_per_term(f):
    """Oracle for coproduct_h: one TensorSym per h-term, summed."""
    total = TensorSym(("h", "h"), {}, f.n)
    for lam, c in f.terms.items():
        acc = {((), ()): c}
        for r in lam:
            nxt = {}
            for (left, right), a in acc.items():
                for j in range(r + 1):
                    key = (make_partition(left + (j,)), make_partition(right + (r - j,)))
                    nxt[key] = nxt.get(key, 0) + a
            acc = nxt
        total = total + TensorSym(("h", "h"), acc, f.n)
    return total


class TestCoproductOracle:
    @given(h_expansions(), st.sampled_from([None, 4]))
    def test_matches_per_term_sum(self, terms, n):
        f = SymFunc("h", terms, n)
        got, want = coproduct_h(f), coproduct_h_per_term(f)
        assert got == want
        assert got.n == want.n
        assert all(got.terms.values())


class TestCoproductMemo:
    @pytest.mark.parametrize("terms", [{(2, 1): 2, (1, 1): -1, (3,): 1},
                                       {(2, 1): 1}])
    def test_repeat_calls_equal_and_independent(self, terms):
        f = SymFunc("h", terms, 4)
        first, second = coproduct_h(f), coproduct_h(f)
        assert first == second
        assert first.terms is not second.terms
        first.terms.clear()
        assert coproduct_h(f) == second
        assert coproduct_h(f) == coproduct_h_per_term(f)

    def test_cancelling_terms_dropped(self):
        f = SymFunc("h", {(1,): 1}) + SymFunc("h", {(1,): -1})
        assert coproduct_h(f).is_zero()


class TestTrustedConstructors:
    def test_keeps_dict_as_given(self):
        terms = {(2, 1): 3}
        f = SymFunc._trusted("m", terms, 3)
        assert f.terms is terms
        assert f == SymFunc("m", terms, 3) and f.n == 3
        pairs = {((1,), ()): 2}
        t = TensorSym._trusted(("h", "h"), pairs, 4)
        assert t.terms is pairs
        assert t == TensorSym(("h", "h"), pairs, 4) and t.n == 4


class TestBoundContext:
    """One rule for SymFunc and TensorSym sums: two different bound contexts
    raise, and a sum keeps the one bound context its operands have."""

    @pytest.mark.parametrize("make", [
        lambda c, n: SymFunc("g", {(1,): c}, n),
        lambda c, n: TensorSym(("g", "g"), {((1,), ()): c}, n)],
        ids=["SymFunc", "TensorSym"])
    def test_sum_across_contexts(self, make):
        with pytest.raises(ValueError, match="bound-context mismatch"):
            make(1, 3) + make(2, 4)
        for left, right in ((3, None), (None, 3), (3, 3)):
            total = make(1, left) + make(2, right)
            assert total == make(3, 3) and total.n == 3
        assert (make(1, None) + make(2, None)).n is None


class TestCauchy:
    def test_degree_zero(self, e2):
        assert e2.cauchy_check(0)

    def test_n2_degree3(self, e2):
        assert e2.cauchy_check(3)

    def test_n3_degree4(self, e3):
        assert e3.cauchy_check(4)
