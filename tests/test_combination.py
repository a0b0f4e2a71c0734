"""The linear structure that LaurentPoly, HeckeElt, TensorElt, SymFunc and
TensorSym share through ``cartan.Combination``, against plain-dict sums."""

import pytest
from hypothesis import given, strategies as st

from khecke import weyl
from khecke.cartan import DatumMismatchError, LaurentPoly, RootDatum
from khecke.hecke import HeckeElt, TensorElt
from khecke.symfunc import SymFunc, TensorSym

SL2, SL3, AF2 = RootDatum.sl(2), RootDatum.sl(3), RootDatum.affine_sl(2)
ELTS = [weyl.from_word(AF2, w) for w in ((), (0,), (1,), (1, 0))]
PARTS = [(), (1,), (2,), (1, 1)]


def lattice_weight(lattice, e):
    return lattice.weight((e,) + (0,) * (lattice.rank - 1))


class Kind:
    """One Combination type: a constructor over a ring, two distinct rings,
    a pool of keys, whether coefficients lie in R(T), and the error that
    mixing the rings raises."""

    def __init__(self, name, make, rings, keys, over_rt, error):
        self.name, self.make, self.rings, self.keys = name, make, rings, keys
        self.over_rt, self.error = over_rt, error
        coeff = (st.dictionaries(st.integers(0, 2), st.integers(-2, 2), max_size=3)
                 if over_rt else st.integers(-2, 2))
        self.spec = st.dictionaries(st.integers(0, 3), coeff, max_size=4)

    def build(self, ring, spec):
        keys = self.keys(ring)
        if self.over_rt:
            return self.make(ring, {keys[i]: LaurentPoly(ring, {
                lattice_weight(ring, e): v for e, v in c.items()})
                for i, c in spec.items()})
        return self.make(ring, {keys[i]: c for i, c in spec.items()})

    def oracle(self, ring, spec):
        """{(key, exponent or None): nonzero int} straight from the spec."""
        keys = self.keys(ring)
        if self.over_rt:
            return {(keys[i], lattice_weight(ring, e)): v
                    for i, c in spec.items() for e, v in c.items() if v}
        return {(keys[i], None): c for i, c in spec.items() if c}

    def flat(self, x):
        if self.over_rt:
            return {(k, w): v for k, p in x.terms.items() for w, v in p.terms.items()}
        return {(k, None): c for k, c in x.terms.items()}


def oracle_add(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


KINDS = [
    Kind("LaurentPoly", LaurentPoly, (SL3, SL2),
         lambda ring: [lattice_weight(ring, e) for e in range(4)], False,
         DatumMismatchError),
    Kind("HeckeElt", lambda c, t: HeckeElt(AF2, c, t), (AF2.finite, AF2),
         lambda ring: ELTS, True, DatumMismatchError),
    Kind("TensorElt", lambda c, t: TensorElt(AF2, c, t), (AF2.finite, AF2),
         lambda ring: [(u, v) for u in ELTS[:2] for v in ELTS[1:3]], True,
         DatumMismatchError),
    Kind("SymFunc", SymFunc, ("m", "h"), lambda ring: PARTS, False, ValueError),
    Kind("TensorSym", TensorSym, (("h", "h"), ("g", "g")),
         lambda ring: [(a, b) for a in PARTS[:2] for b in PARTS[1:3]], False,
         ValueError),
]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
class TestCombination:
    @given(st.data())
    def test_sums_match_dict_oracle(self, kind, data):
        ring = kind.rings[0]
        xs, ys = data.draw(kind.spec), data.draw(kind.spec)
        k = data.draw(st.integers(-2, 2))
        x, y = kind.build(ring, xs), kind.build(ring, ys)
        xo, yo = kind.oracle(ring, xs), kind.oracle(ring, ys)
        assert kind.flat(x) == xo and kind.flat(y) == yo
        assert kind.flat(x + y) == oracle_add(xo, yo)
        assert kind.flat(x - y) == oracle_add(xo, yo, -1)
        assert kind.flat(-x) == {key: -c for key, c in xo.items()}
        assert kind.flat(x.scaled(k)) == {key: k * c for key, c in xo.items() if k}
        for z in (x + y, x - y, -x, x.scaled(k)):
            assert z == kind.make(ring, z.terms)

    @given(st.data())
    def test_zero_is_empty_and_falsy(self, kind, data):
        ring = kind.rings[0]
        x = kind.build(ring, data.draw(kind.spec))
        assert bool(x) == bool(x.terms) == (not x.is_zero())
        zero = kind.make(ring, {})
        for z in (x - x, x + (-x), x.scaled(0), x.scaled(LaurentPoly.zero(SL2))):
            assert z.terms == {} and not z and z.is_zero()
            assert z == zero

    @given(st.data())
    def test_equal_elements_hash_equal(self, kind, data):
        ring = kind.rings[0]
        xs, ys = data.draw(kind.spec), data.draw(kind.spec)
        x, y = kind.build(ring, xs), kind.build(ring, ys)
        again = kind.build(ring, dict(reversed(list(xs.items()))))
        assert x == again and hash(x) == hash(again)
        assert x + y == y + x and hash(x + y) == hash(y + x)

    @given(st.data())
    def test_mixed_rings_raise(self, kind, data):
        a, b = kind.rings
        x = kind.build(a, data.draw(kind.spec))
        z = kind.build(b, data.draw(kind.spec))
        for op in (lambda: x + z, lambda: z + x, lambda: x - z):
            with pytest.raises(ValueError) as err:
                op()
            assert err.type is kind.error

    def test_rings_distinguish_zero(self, kind):
        a, b = kind.rings
        assert kind.make(a, {}) != kind.make(b, {})


@pytest.mark.parametrize("make", [lambda n: SymFunc("h", {(1,): 1}, n),
                                  lambda n: TensorSym(("h", "h"), {((1,), ()): 1}, n)],
                         ids=["SymFunc", "TensorSym"])
def test_sums_keep_the_bound_context(make):
    for x, y in ((make(None), make(3)), (make(3), make(None))):
        assert (x + y).n == 3 and (x - y).n == 3
    assert make(None) == make(3) and hash(make(None)) == hash(make(3))
