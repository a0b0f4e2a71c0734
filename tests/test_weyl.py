import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from khecke.cartan import DatumMismatchError, RootDatum
from khecke import weyl


def is_positive_root(datum, lam):
    """lam is a nonzero root with nonnegative simple-root coordinates."""
    c = datum.root_coords(lam)
    return c is not None and any(c) and all(x >= 0 for x in c)


def words_leq(datum, max_len):
    return weyl.all_elements(datum, max_len)


class TestGroupOps:
    def test_involution(self, A2):
        r1 = weyl.simple(A2, 1)
        assert weyl.multiply(r1, r1).is_identity()

    def test_t_alpha(self, af2):
        # t_alpha = r_0 r_1 in affine SL_2
        r0, r1 = weyl.simple(af2, 0), weyl.simple(af2, 1)
        t = weyl.multiply(r0, r1)
        assert t == weyl.translation(af2, (1, -1))
        assert t.length == 2

    def test_level_zero_translation_trivial(self, af2):
        om = af2.finite.fundamental_weight(1)
        t = weyl.translation(af2, (1, -1))
        assert weyl.apply(t, om) == om

    def test_group_laws(self, A2, af2):
        rng = random.Random(0)
        for datum in (A2, af2):
            els = words_leq(datum, 4)
            for _ in range(40):
                u, v, w = (rng.choice(els) for _ in range(3))
                assert weyl.multiply(weyl.multiply(u, v), w) == \
                    weyl.multiply(u, weyl.multiply(v, w))
                assert weyl.multiply(u, weyl.inverse(u)).is_identity()

    def test_length_subadditive(self, af3):
        rng = random.Random(1)
        els = words_leq(af3, 4)
        for _ in range(50):
            u, v = rng.choice(els), rng.choice(els)
            uv = weyl.multiply(u, v)
            assert uv.length <= u.length + v.length

    def test_apply_big_action_faithful_key(self, A2, af2, af3):
        # w -> w(rho) is injective, so it can key the elements of data
        # without a window; the quotient lattice of sl(4) included
        data = [A2, af2, af3, RootDatum.sl(4)] + [
            RootDatum.of_type(t) for t in ("B2", "G2", "C2~", "G2~")]
        for datum in data:
            seen = {}
            for w in words_leq(datum, 6):
                key = weyl.apply(w, datum.rho).coords
                assert key not in seen or seen[key] == w.word
                seen[key] = w.word
            # distinct canonical words have distinct keys
            assert len(seen) == len(words_leq(datum, 6))

    def test_key_is_fold_of_reflect_over_word(self, af2):
        datum = af2
        for w in words_leq(datum, 5):
            lam = datum.rho
            for i in reversed(w.word):
                lam = datum.reflect(i, lam)
            assert weyl.apply(w, datum.rho).coords == lam.coords


def subword_products(w):
    """Oracle for the Bruhat order: the elements of all 2^l(w) subwords of
    w's canonical word, one ``from_word`` each."""
    word = w.word
    return {weyl.from_word(w.datum, [word[k] for k in range(len(word)) if mask >> k & 1])
            for mask in range(1 << len(word))}


class TestBruhat:
    def test_identity_below_everything(self, A2):
        e = weyl.identity(A2)
        for w in words_leq(A2, 3):
            assert weyl.bruhat_leq(e, w)

    def test_subword(self, A2):
        r1 = weyl.simple(A2, 1)
        w = weyl.from_word(A2, (1, 2, 1))
        assert weyl.bruhat_leq(r1, w)

    @pytest.mark.parametrize("typ", ["A2", "A1~"])
    def test_against_subword_oracle(self, typ):
        els = words_leq(RootDatum.of_type(typ), 5)
        for w in els:
            below = subword_products(w)
            for v in els:
                assert weyl.bruhat_leq(v, w) == (v in below), (v, w)

    @pytest.mark.parametrize("typ", ["A1~", "A2~", "A2", "C2~"])
    def test_ideal_against_subword_oracle(self, typ):
        for w in words_leq(RootDatum.of_type(typ), 5):
            ideal = weyl.bruhat_ideal(w)
            assert set(ideal) == subword_products(w), w
            assert ideal == sorted(ideal, key=lambda v: (v.length, v.word))


def reduced_words(w):
    """All reduced words of w, by left-descent recursion."""
    if w.is_identity():
        return [()]
    return [(i,) + rest for i in w.datum.nodes if weyl.has_left_descent(w, i)
            for rest in reduced_words(weyl.left_simple(i, w))]


class TestInversions:
    def test_simple(self, A2):
        assert weyl.inversions(weyl.simple(A2, 1)) == {A2.simple_root(1)}

    def test_r1r2(self, A2):
        a1, a2 = A2.simple_root(1), A2.simple_root(2)
        assert weyl.inversions(weyl.from_word(A2, (1, 2))) == {a1, a1 + a2}

    def test_count_equals_length(self, A2, af2):
        for datum in (A2, af2):
            for w in words_leq(datum, 6):
                inv = weyl.inversions(w)
                assert len(inv) == w.length
                assert all(is_positive_root(datum, a) for a in inv)

    @given(st.sampled_from(["A2", "B2", "G2", "A2~"]), st.data())
    def test_prefix_roots_of_every_reduced_word(self, typ, data):
        datum = RootDatum.of_type(typ)
        w = weyl.from_word(datum, random_word(data.draw, datum, 6))
        inv = weyl.inversions(w)
        for word in reduced_words(w):
            roots = weyl.prefix_roots(datum, word)
            assert len(set(roots)) == len(roots) == w.length
            assert set(roots) == inv
            # each is a positive root whose reflection shortens w from the left
            for beta in roots:
                assert is_positive_root(datum, beta)
                r = weyl.reflection_for_root(datum, beta)
                assert weyl.multiply(r, w).length < w.length


class TestTranslations:
    def test_zero(self, af3):
        assert weyl.translation(af3, (0, 0, 0)).is_identity()

    def test_sigma2(self, af2):
        # t_{-alpha^vee} = r_1 r_0
        assert weyl.translation(af2, (-1, 1)) == weyl.from_word(af2, (1, 0))

    def test_nonzero_sum_rejected(self, af2):
        with pytest.raises(ValueError):
            weyl.translation(af2, (1, 0))

    @pytest.mark.parametrize("n", [3, 4])
    def test_grassmannian_part_roundtrip(self, n):
        datum = RootDatum.affine_sl(n)
        rng = random.Random(n)
        fin_els = [w for w in words_leq(datum, 3)
                   if all(i != 0 for i in w.word)]
        for _ in range(50):
            lam = [rng.randint(-2, 2) for _ in range(n - 1)]
            lam.append(-sum(lam))
            u = rng.choice(fin_els)
            w = weyl.multiply(weyl.translation(datum, lam), u)
            rep, lam_back = weyl.grassmannian_part(w)
            assert tuple(lam) == lam_back
            assert weyl.is_grassmannian(rep)

    def test_length_antidominant(self, af3):
        # l(t_lam u) = l(t_lam) - l(u) for Grassmannian t_lam u, lam antidominant
        for lam in [(-1, 0, 1), (-2, 0, 2), (-2, -1, 3)]:
            t = weyl.translation(af3, lam)
            rep, lam_back = weyl.grassmannian_part(t)
            assert lam_back == lam
            u = weyl.multiply(weyl.inverse(rep), t)  # rep = t * u^{-1}
            # u lies in the finite group and l(rep) = l(t) - l(u)
            assert all(i != 0 for i in u.word)
            assert rep.length == t.length - u.length


class TestPartitionBijection:
    def test_empty(self, af3):
        assert weyl.grassmannian_from_partition(af3, ()).is_identity()

    def test_table_rows(self, af3, af4):
        assert weyl.grassmannian_from_partition(af3, (2, 1)) == \
            weyl.from_word(af3, (2, 1, 0))
        assert weyl.grassmannian_from_partition(af4, (2, 2)) == \
            weyl.from_word(af4, (0, 1, 3, 0))

    def test_bound_rejected(self, af3):
        with pytest.raises(ValueError):
            weyl.grassmannian_from_partition(af3, (3,))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_roundtrip(self, n):
        datum = RootDatum.affine_sl(n)
        from khecke.symfunc import partitions_up_to
        for lam in partitions_up_to(6, n - 1):
            w = weyl.grassmannian_from_partition(datum, lam)
            assert w.length == sum(lam)
            assert weyl.is_grassmannian(w)
            assert weyl.partition_of_grassmannian(w) == lam


    def test_one_memo_both_directions(self, af3):
        # inverse first: every Grassmannian element of the memo-free datum
        # finds its partition, and the forward map then returns that element
        ops = weyl._DatumOps.of(af3)
        ops.grassmannians.clear()
        ops.partitions.clear()
        grass = [w for w in words_leq(af3, 5) if weyl.is_grassmannian(w)]
        lams = [weyl.partition_of_grassmannian(w) for w in grass]
        assert len(set(lams)) == len(grass)
        for w, lam in zip(grass, lams):
            assert sum(lam) == w.length
            assert weyl.grassmannian_from_partition(af3, lam) is w
            assert weyl.grassmannian_from_partition(af3, list(lam)) is w
        assert len(ops.grassmannians) == len(ops.partitions)
        assert {ops.partitions[w] for w in ops.grassmannians.values()} == \
            set(ops.grassmannians)


class TestCyclicallyDecreasing:
    def test_singletons(self, af3):
        got = sorted(w.word for w in weyl.cyclically_decreasing(af3, 1))
        assert got == [(0,), (1,), (2,)]

    def test_pairs_n3(self, af3):
        got = {w.word for w in weyl.cyclically_decreasing(af3, 2)}
        assert got == {(1, 0), (0, 2), (2, 1)}

    def test_count_n4(self, af4):
        els = weyl.cyclically_decreasing(af4, 2)
        assert len(els) == 6
        assert len(set(els)) == 6
        assert all(w.length == 2 for w in els)

    def test_bound_rejected(self, af3):
        with pytest.raises(ValueError):
            weyl.cyclically_decreasing(af3, 3)


class TestWindowVsGenericPath:
    @pytest.mark.parametrize("n", [2, 3])
    def test_agreement(self, n):
        win = RootDatum.affine_sl(n)
        gcm = [[win.cartan[i][j] for j in win.nodes] for i in win.nodes]
        gen = RootDatum.affinize_cartan(gcm, [1] * n, name=f"generic-af-sl{n}-{n}")
        win_els = words_leq(win, 5)
        gen_els = [weyl.from_word(gen, w.word) for w in win_els]
        assert all(w.length == g.length for w, g in zip(win_els, gen_els))
        lookup = {w.word: g for w, g in zip(win_els, gen_els)}
        for u in win_els:
            for v in win_els:
                if u.length + v.length > 5:
                    continue
                prod_w = weyl.multiply(u, v)
                prod_g = weyl.multiply(lookup[u.word], lookup[v.word])
                assert prod_w.word == prod_g.word
                assert weyl.bruhat_leq(u, v) == \
                    weyl.bruhat_leq(lookup[u.word], lookup[v.word])


class TestLevelZeroApply:
    """Level-zero ``apply``: the window fast path against the word path
    through ``RootDatum.simple_action``, and both against the big action on
    the weight lifted with level 0 and degree 0, then projected."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_window_matches_word_path(self, n):
        datum = RootDatum.affine_sl(n)
        fin = datum.finite
        weights = [fin.weight(tuple(int(t == k) for t in range(n))) for k in range(n)]
        weights.append(fin.weight(tuple(3 * t * t - 5 for t in range(n))))
        for w in words_leq(datum, 4):
            word_only = SimpleNamespace(datum=datum, word=w.word, window=None)
            for lam in weights:
                got = weyl.apply(w, lam)
                assert got.datum is fin
                assert weyl.apply(word_only, lam) == got
                lifted = datum.weight(lam.coords + (0, 0))
                assert datum.project(weyl.apply(w, lifted)) == got

    def test_foreign_lattice_rejected(self, A2, af2, sl3):
        for w in (weyl.simple(af2, 0), weyl.simple(A2, 1)):
            with pytest.raises(DatumMismatchError):
                weyl.apply(w, sl3.zero())


class TestSerialization:
    def test_word_strings(self):
        assert weyl.word_str((2, 1, 0)) == "210"
        assert weyl.parse_word("210") == (2, 1, 0)
        assert weyl.parse_word("10,2,11") == (10, 2, 11)
        assert weyl.parse_word("") == ()

    def test_element_json(self, A2, af2):
        w = weyl.from_word(A2, (1, 2))
        assert w.to_json() == {"word": [1, 2]}
        t = weyl.translation(af2, (1, -1))
        data = t.to_json()
        assert data["word"] == [0, 1]
        assert data["window"] == [3, 0]


GENERIC_DATA = [RootDatum.of_type(t) for t in ("A2", "B2", "G2")] + [
    RootDatum.affinize_cartan([[2, -1, 0], [-2, 2, -2], [0, -1, 2]], [1, 2, 1],
                              name="generic-C2~"),
    RootDatum.sl(4)]


def random_word(draw, datum, max_len):
    return tuple(draw(st.lists(st.sampled_from(datum.nodes), max_size=max_len)))


def swap_values(win, i):
    """Window of r_i * w, independently of ``_win_compose``: swap the values
    i, i+1 (mod n) everywhere."""
    n = len(win)
    out = []
    for val in win:
        r = (val - 1) % n + 1
        if r == i or (i == 0 and r == n):
            out.append(val + 1)
        elif r == i + 1 or (i == 0 and r == 1):
            out.append(val - 1)
        else:
            out.append(val)
    return tuple(out)


def win_canonical_word(win):
    """Greedy smallest-left-descent word of a window, reduced from scratch."""
    word = []
    win = tuple(win)
    n = len(win)
    while True:
        i = next((i for i in range(n) if weyl._win_left_descent(win, i)), None)
        if i is None:
            break
        word.append(i)
        win = swap_values(win, i)
    if win != weyl._win_identity(n):
        raise ValueError("window did not reduce to the identity")
    return tuple(word)


# -- the action-matrix oracle -------------------------------------------------


def mat_mul(a, b):
    cols = range(len(b[0]))
    return tuple(tuple(sum(arow[k] * b[k][j] for k in range(len(b))) for j in cols)
                 for arow in a)


def mat_apply(m, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


def reflection_matrices(datum):
    """({i: matrix of r_i}, unit): column k of r_i's matrix is r_i(e_k), in
    canonical coordinates; unit has column k = canon(e_k), the identity of
    the group they generate (not the identity matrix on a quotient lattice)."""
    rank = datum.rank
    basis = [datum.weight(tuple(int(t == k) for t in range(rank))) for k in range(rank)]
    refl = {i: tuple(zip(*(datum.reflect(i, e).coords for e in basis)))
            for i in datum.nodes}
    return refl, tuple(zip(*(e.coords for e in basis)))


def matrix_of(datum, word):
    """The action matrix of r_{word[0]} ... r_{word[-1]}."""
    refl, m = reflection_matrices(datum)
    for i in word:
        m = mat_mul(m, refl[i])
    return m


def negates(datum, m, i) -> bool:
    """True iff the action matrix m sends alpha_i to a negative root."""
    v = mat_apply(m, datum.simple_root(i).coords)
    return any(x < 0 for x in datum.root_coords(datum.weight(v)))


def canonical_from_matrix(datum, matrix, inv_matrix):
    """Greedy smallest-left-descent word of an action matrix, reduced from scratch."""
    refl, unit = reflection_matrices(datum)
    word = []
    m, mi = matrix, inv_matrix
    while True:
        found = next((i for i in datum.nodes if negates(datum, mi, i)), None)
        if found is None:
            break
        word.append(found)
        m = mat_mul(refl[found], m)
        mi = mat_mul(mi, refl[found])
    if m != unit:
        raise ValueError("matrix did not reduce to the identity")
    return tuple(word)


class TestInterning:
    """Interned products against the canonical word computed from scratch."""

    @given(st.integers(2, 5), st.data())
    def test_window_multiply(self, n, data):
        datum = RootDatum.affine_sl(n)
        u = weyl.from_word(datum, random_word(data.draw, datum, 8))
        v = weyl.from_word(datum, random_word(data.draw, datum, 8))
        uv = weyl.multiply(u, v)
        win = weyl._win_compose(u.window, v.window)
        assert uv.window == win
        assert uv.word == win_canonical_word(win)
        assert uv is weyl.from_word(datum, u.word + v.word)
        assert weyl.inverse(u) is weyl.from_word(datum, u.word[::-1])

    @given(st.integers(2, 5), st.data())
    def test_simple_times_window_swaps_values(self, n, data):
        # a window: a permutation of 1..n shifted by multiples of n summing to 0
        perm = data.draw(st.permutations(range(1, n + 1)))
        shifts = data.draw(st.lists(st.integers(-3, 3), min_size=n - 1,
                                    max_size=n - 1))
        shifts.append(-sum(shifts))
        win = tuple(p + n * q for p, q in zip(perm, shifts))
        for i in range(n):
            assert weyl._win_compose(weyl._win_simple(n, i), win) == \
                swap_values(win, i)

    @given(st.sampled_from(GENERIC_DATA), st.data())
    def test_matrix_multiply(self, datum, data):
        u = weyl.from_word(datum, random_word(data.draw, datum, 6))
        v = weyl.from_word(datum, random_word(data.draw, datum, 6))
        uv = weyl.multiply(u, v)
        m = mat_mul(matrix_of(datum, u.word), matrix_of(datum, v.word))
        mi = mat_mul(matrix_of(datum, v.word[::-1]), matrix_of(datum, u.word[::-1]))
        assert matrix_of(datum, uv.word) == m
        assert uv.word == canonical_from_matrix(datum, m, mi)
        assert uv is weyl.from_word(datum, u.word + v.word)
        assert weyl.inverse(u) is weyl.from_word(datum, u.word[::-1])

    def test_one_element_per_action(self, af3):
        weyl.all_elements(af3, 5)
        interned = weyl._DatumOps.of(af3).interned
        assert len({w.word for w in interned.values()}) == len(interned)
        assert all(w.window == action for action, w in interned.items())


def fresh_datum(typ):
    """A new datum of type ``typ``, with nothing interned yet, built past the
    constructors' caches; "sl4" is ``RootDatum.sl(4)`` on its quotient
    lattice."""
    if typ.startswith("sl"):
        return RootDatum.sl.__wrapped__(int(typ[2:]))
    if typ.startswith("A"):
        return RootDatum.affine_sl.__wrapped__(int(typ[1:-1]) + 1)
    return RootDatum._of_type.__wrapped__(typ)


class TestCanonicalWords:
    """Words built from interned neighbours against the greedy reduction
    from scratch, with elements met in random order on a fresh datum."""

    @given(st.sampled_from(["A1~", "A2~", "A3~", "A4~"]), st.data())
    def test_window_path(self, typ, data):
        datum = fresh_datum(typ)
        for word in data.draw(st.lists(st.lists(st.sampled_from(datum.nodes),
                                                max_size=9), max_size=12)):
            w = weyl.from_word(datum, word)
            assert w.word == win_canonical_word(w.window)

    @given(st.sampled_from(["B2", "G2", "C2~", "sl4"]), st.data())
    def test_matrix_path(self, typ, data):
        datum = fresh_datum(typ)
        for word in data.draw(st.lists(st.lists(st.sampled_from(datum.nodes),
                                                max_size=7), max_size=8)):
            w = weyl.from_word(datum, word)
            assert w.word == canonical_from_matrix(
                datum, matrix_of(datum, w.word), matrix_of(datum, w.word[::-1]))


class TestIdentityEquality:
    """Equal elements are one object, so identity equality and hashing agree
    with equality of canonical words.  Elements are met on a fresh datum."""

    @staticmethod
    def check(datum, draw, max_len):
        u = weyl.from_word(datum, random_word(draw, datum, max_len))
        v = weyl.from_word(datum, random_word(draw, datum, max_len))
        uv = weyl.multiply(u, v)
        assert weyl.from_word(datum, u.word + v.word) is uv
        assert weyl.from_word(datum, uv.word) is uv
        assert weyl.inverse(weyl.inverse(u)) is u
        assert weyl.inverse(u) is weyl.from_word(datum, u.word[::-1])
        assert weyl.multiply(uv, weyl.inverse(v)) is u
        i = draw(st.sampled_from(datum.nodes))
        ri = weyl.simple(datum, i)
        assert weyl.left_simple(i, u) is weyl.from_word(datum, (i,) + u.word)
        assert weyl.right_simple(u, i) is weyl.from_word(datum, u.word + (i,))
        assert weyl.multiply(ri, weyl.right_simple(u, i)) is \
            weyl.right_simple(weyl.left_simple(i, u), i)
        for alpha in sorted(weyl.inversions(v), key=lambda a: a.coords):
            r_alpha = weyl.reflection_for_root(datum, alpha)
            assert weyl.left_reflection(alpha, u) is weyl.multiply(r_alpha, u)
            assert weyl.left_reflection(alpha, v) is \
                weyl.from_word(datum, r_alpha.word + v.word)
        assert (u == v) == (u.word == v.word)
        assert len({u, v, uv, weyl.from_word(datum, u.word)}) == \
            len({u.word, v.word, uv.word})

    @given(st.sampled_from(["A1~", "A2~", "A3~", "A4~"]), st.data())
    def test_window_path(self, typ, data):
        self.check(fresh_datum(typ), data.draw, 8)

    @given(st.sampled_from(["B2", "G2", "C2~", "sl4"]), st.data())
    def test_matrix_path(self, typ, data):
        self.check(fresh_datum(typ), data.draw, 6)


class TestDisplayOrder:
    """``WeylElt.__lt__`` is the (length, word) key every sort site used."""

    @given(st.sampled_from(["A2~", "C2~", "B2", "sl4"]), st.data())
    def test_matches_length_word_key(self, typ, data):
        datum = RootDatum.sl(4) if typ == "sl4" else RootDatum.of_type(typ)
        els = [weyl.from_word(datum, data.draw(st.lists(
            st.sampled_from(datum.nodes), max_size=7))) for _ in range(8)]
        assert sorted(els) == sorted(els, key=lambda w: (w.length, w.word))


def grassmannian_oracle(w):
    """is_grassmannian recomputed: the window test, else the descent test."""
    if w.window is not None:
        return list(w.window) == sorted(w.window)
    return not any(weyl.has_right_descent(w, i) for i in w.datum.nodes if i != 0)


class TestGrassmannianFlag:
    """The flag remembered on w against the test it replaces, asked twice so
    both the first (computing) and the second (remembered) answer are checked."""

    @given(st.sampled_from(["A1~", "A2~", "A3~", "A4~", "B2", "G2", "C2~"]),
           st.data())
    def test_memo_matches_oracle(self, typ, data):
        datum = RootDatum.of_type(typ)
        w = weyl.from_word(datum, random_word(data.draw, datum, 8))
        want = grassmannian_oracle(w)
        assert weyl.is_grassmannian(w) is want
        assert weyl.is_grassmannian(w) is want

    @pytest.mark.parametrize("typ", ["A2~", "C2~"])
    def test_fresh_elements(self, typ):
        datum = fresh_datum(typ)
        els = weyl.all_elements(datum, 4)
        assert all(w._grass is None for w in els)
        for w in els:
            assert [weyl.is_grassmannian(w), weyl.is_grassmannian(w)] == \
                [grassmannian_oracle(w)] * 2


class TestRightDescent:
    """smallest_right_descent against the has_right_descent search."""

    @given(st.sampled_from(["A1~", "A2~", "A3~", "B2", "G2", "C2~"]), st.data())
    def test_memo_matches_search(self, typ, data):
        datum = RootDatum.of_type(typ)
        w = weyl.from_word(datum, random_word(data.draw, datum, 7))
        want = next((i for i in datum.nodes if weyl.has_right_descent(w, i)), None)
        assert weyl.smallest_right_descent(w) == want
        assert weyl.smallest_right_descent(w) == want
        assert want is None or weyl.right_simple(w, want).length < w.length


class TestLeftEdges:
    """left_simple(i, w) against the product it remembers."""

    @staticmethod
    def check(w, i):
        riw = weyl.left_simple(i, w)
        assert riw is weyl.multiply(weyl.simple(w.datum, i), w)
        assert weyl.left_simple(i, w) is riw
        assert weyl.left_simple(i, riw) is w
        assert (riw.length > w.length) == (not weyl.has_left_descent(w, i))

    @given(st.integers(2, 5), st.data())
    def test_window_path(self, n, data):
        datum = RootDatum.affine_sl(n)
        w = weyl.from_word(datum, random_word(data.draw, datum, 8))
        self.check(w, data.draw(st.sampled_from(datum.nodes)))

    @given(st.sampled_from(GENERIC_DATA), st.data())
    def test_matrix_path(self, datum, data):
        w = weyl.from_word(datum, random_word(data.draw, datum, 6))
        self.check(w, data.draw(st.sampled_from(datum.nodes)))

    @pytest.mark.parametrize("datum", [RootDatum.affine_sl(n) for n in (2, 3, 4, 5)]
                             + GENERIC_DATA, ids=lambda d: d.name)
    def test_identity(self, datum):
        e = weyl.identity(datum)
        for i in datum.nodes:
            self.check(e, i)
            assert weyl.left_simple(i, e) is weyl.simple(datum, i)

    def test_rejects_non_nodes(self, af2):
        w = weyl.simple(af2, 0)
        with pytest.raises(ValueError):
            weyl.left_simple(7, w)
        assert 7 not in (w._left or {})


class TestRightAndRootEdges:
    """right_simple(w, i) and left_reflection(alpha, w) against the products
    they remember."""

    @staticmethod
    def check(draw, datum):
        w = weyl.from_word(datum, random_word(draw, datum, 8))
        i = draw(st.sampled_from(datum.nodes))
        wri = weyl.right_simple(w, i)
        assert wri is weyl.multiply(w, weyl.simple(datum, i))
        assert weyl.right_simple(w, i) is wri
        assert weyl.right_simple(wri, i) is w
        assert (wri.length < w.length) == weyl.has_right_descent(w, i)
        u = weyl.from_word(datum, random_word(draw, datum, 6))
        roots = sorted(weyl.inversions(u), key=lambda a: a.coords)
        if not roots:
            return
        alpha = draw(st.sampled_from(roots))
        r_alpha_w = weyl.left_reflection(alpha, w)
        assert r_alpha_w is weyl.multiply(weyl.reflection_for_root(datum, alpha), w)
        assert weyl.left_reflection(alpha, w) is r_alpha_w
        assert weyl.left_reflection(alpha, r_alpha_w) is w

    @given(st.integers(2, 5), st.data())
    def test_window_path(self, n, data):
        self.check(data.draw, RootDatum.affine_sl(n))

    @given(st.sampled_from(GENERIC_DATA), st.data())
    def test_matrix_path(self, datum, data):
        self.check(data.draw, datum)

    def test_non_root_rejected(self, af2):
        w = weyl.simple(af2, 1)
        with pytest.raises(ValueError):
            weyl.left_reflection(af2.fundamental_weight(0), w)
        assert af2.fundamental_weight(0) not in (w._roots or {})


class TestQuotientLattice:
    """RootDatum.sl(n) acts on Z^n mod the all-ones vector."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_cartan_type(self, n):
        top = n * (n - 1) // 2 + 1
        counts = lambda d: [len(layer) for layer in weyl.elements_up_to_length(d, top)]
        assert counts(RootDatum.sl(n)) == counts(RootDatum.of_type(f"A{n - 1}"))
        r1 = weyl.simple(RootDatum.sl(n), 1)
        assert weyl.multiply(r1, r1) is weyl.identity(RootDatum.sl(n))

    def test_product_of_simples(self, sl3):
        w = weyl.multiply(weyl.simple(sl3, 1), weyl.simple(sl3, 2))
        assert w.word == (1, 2)
        assert weyl.apply(w, sl3.simple_root(1)) == sl3.simple_root(2)


def unmemoised_reflection(datum, alpha):
    """r_alpha = r_i r_beta r_i with beta = r_i(alpha), recursing to a simple root."""
    for i in datum.nodes:
        if alpha == datum.simple_root(i):
            return weyl.simple(datum, i)
    i = next(i for i in datum.nodes if datum.pairing(i, alpha) > 0)
    ri = weyl.simple(datum, i)
    inner = unmemoised_reflection(datum, datum.reflect(i, alpha))
    return weyl.multiply(weyl.multiply(ri, inner), ri)


class TestReflectionMemo:
    @pytest.mark.parametrize("typ", ["A2", "B2", "G2", "A2~", "A3~"])
    def test_memoised_matches_unmemoised(self, typ):
        datum = RootDatum.of_type(typ)
        roots = {a for w in weyl.all_elements(datum, 4) for a in weyl.inversions(w)}
        for alpha in sorted(roots, key=lambda a: a.coords):
            r_alpha = weyl.reflection_for_root(datum, alpha)
            assert r_alpha is unmemoised_reflection(datum, alpha)
            assert weyl.reflection_for_root(datum, alpha) is r_alpha
            assert weyl.apply(r_alpha, alpha) == -alpha

    def test_rejects_non_roots(self, af2):
        with pytest.raises(ValueError):
            weyl.reflection_for_root(af2, af2.fundamental_weight(0))
        assert af2.fundamental_weight(0) not in weyl._DatumOps.of(af2).reflections

    @pytest.mark.parametrize("typ, nodes", [("A2~", (1,)), ("A2~", (1, 2)),
                                            ("G2~", (1, 2))])
    def test_rejects_negative_roots(self, typ, nodes):
        datum = RootDatum.of_type(typ)
        alpha = sum((datum.simple_root(i) for i in nodes[1:]), datum.simple_root(nodes[0]))
        assert weyl.apply(weyl.reflection_for_root(datum, alpha), alpha) == -alpha
        for _ in range(2):
            with pytest.raises(ValueError, match="positive root"):
                weyl.reflection_for_root(datum, -alpha)
            assert -alpha not in weyl._DatumOps.of(datum).reflections


DESCENT_DATA = [RootDatum.of_type(t) for t in ("B2", "G2", "C2~", "G2~")] + [
    RootDatum.sl(4)]


class TestDescentsWithoutWindow:
    """Descents read off w(rho) and the right edges, and w(alpha_i) read off
    two interned keys, against the action-matrix root solve."""

    @pytest.mark.parametrize("datum", DESCENT_DATA, ids=lambda d: d.name)
    def test_descents_match_root_solve(self, datum):
        for w in words_leq(datum, 5):
            m = matrix_of(datum, w.word)
            mi = matrix_of(datum, w.word[::-1])
            for i in datum.nodes:
                # left: w^{-1}(alpha_i) < 0; right: w(alpha_i) < 0
                assert weyl.has_left_descent(w, i) == negates(datum, mi, i), (w, i)
                assert weyl.has_right_descent(w, i) == negates(datum, m, i), (w, i)

    @pytest.mark.parametrize("datum", DESCENT_DATA, ids=lambda d: d.name)
    def test_simple_root_image_matches_apply(self, datum):
        for w in words_leq(datum, 5):
            for i in datum.nodes:
                want = weyl.apply(w, datum.simple_root(i))
                assert weyl.simple_root_image(w, i, datum) == want
                assert want.coords == mat_apply(matrix_of(datum, w.word),
                                                datum.simple_root(i).coords)
