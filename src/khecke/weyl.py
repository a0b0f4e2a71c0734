"""Weyl-group elements for any symmetrizable GCM, with a fast affine type A path.

Elements are stored by their canonical reduced word (greedy smallest left
descent) and interned per datum by a key that determines them.  In affine
type A the key is the affine permutation window [w(1), ..., w(n)] (entries
distinct mod n, summing to n(n+1)/2 + 0); products, lengths and descents are
O(n) there.  For data without a window the key is w(rho), a weight of the
datum's own lattice: rho is regular dominant, so w -> w(rho) is injective.
There i is a left descent of w iff <alpha_i^vee, w(rho)> < 0, a right
descent iff the right edge w r_i is shorter, a product uv is u's word
applied to v(rho), and w^{-1} is the element of the reversed word.

A product or inverse is computed as a key and looked up (``_intern``).  The
first time a key is met its word is derived by walking down smallest left
descents only as far as the first interned element; each step r_j x is the
product of windows in affine type A, else r_j applied to x(rho).
Each element also remembers its edges, each multiplied once per (w, i):
the right edges w r_i (``right_simple``) for the 0-Hecke fold
``hecke.times_T`` and, with the smallest right descent, for the kappa_r
rows and ``psi_right``; the left edges r_i w (``left_simple``) for
``hecke._gen_mul``, the Bruhat walk and ``psi_left``; and the root edges
r_alpha w (``left_reflection``) for the GKM checks.  Elements stay
immutable values: the memo is derived from the element alone, and
interning makes each edge one object.  No 0-Hecke fold is kept here:
``GrothendieckEngine`` keeps the rows kappa_r T_x it folds.

Equality is identity.  ``_DatumOps.__init__`` and ``_intern`` are the only
places a ``WeylElt`` is constructed, and each looks the key up in its
datum's table first, so equal elements are the same object;
``_DatumOps._registry`` keeps every datum alive, so no ``id`` is
reused.  Dicts and sets keyed by elements therefore hash in C.

Words in tables and CLI output are read left to right: "210" is r2*r1*r0.
"""

from __future__ import annotations

import itertools

from .cartan import DatumMismatchError, RootDatum, Weight
from .symfunc import partitions_of


class _DatumOps:
    """Per-datum cached machinery: elements interned by window or by w(rho),
    reflections by root, the bounded-partition bijection."""

    _registry: dict[int, "_DatumOps"] = {}

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.interned: dict = {}  # window, else w(rho) -> WeylElt
        n = datum.window_n

        def involution(word, key):  # interned with its greedy word
            elt = self.interned[key] = WeylElt(datum, word, key)
            return elt
        rho = datum.rho
        self.identity = involution((), _win_identity(n) if n else rho)
        self.simples = {i: involution((i,), _win_simple(n, i) if n
                                      else datum.reflect(i, rho))
                        for i in datum.nodes}
        self.reflections: dict = {}  # positive real root -> r_alpha
        # the bounded-partition bijection, both directions filled together
        self.grassmannians: dict = {}  # partition -> Grassmannian element
        self.partitions: dict = {}  # Grassmannian element -> partition

    @classmethod
    def of(cls, datum) -> "_DatumOps":
        ops = cls._registry.get(id(datum))
        if ops is None:
            ops = cls(datum)
            cls._registry[id(datum)] = ops
        return ops


# -- window arithmetic (affine type A) ----------------------------------------


def _win_identity(n):
    return tuple(range(1, n + 1))


def _win_simple(n, i):
    if i == 0:
        return (0,) + tuple(range(2, n)) + (n + 1,) if n > 1 else None
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def _win_compose(u, v):
    """Window of the product u*v (u after v): u(q n + r + 1) = u[r] + q n."""
    n = len(u)
    return tuple([u[(x - 1) % n] + (x - 1) // n * n for x in v])


def _win_inverse(win):
    n = len(win)
    pos = {}
    for idx, val in enumerate(win, start=1):
        q, r = divmod(val - 1, n)
        pos[r + 1] = idx - q * n
    return tuple(pos[r] for r in range(1, n + 1))


def _win_right_descent(win, i):
    n = len(win)
    if i == 0:
        return win[n - 1] - n > win[0]
    return win[i - 1] > win[i]


def _win_left_descent(win, i):
    return _win_right_descent(_win_inverse(win), i)


class WeylElt:
    """Immutable Weyl group element: canonical word plus its interning key,
    the window in affine type A, else w(rho).

    Compared and hashed by identity, which is equality because elements are
    interned: construct them only in ``_DatumOps.__init__`` (the identity and
    the simple reflections) and ``_intern`` (everything else), never
    directly, by copying or by unpickling."""

    __slots__ = ("datum", "word", "length", "window", "_rho",
                 "_left", "_right", "_roots", "_rdesc", "_grass")

    def __init__(self, datum, word, key):
        self.datum = datum
        self.word = tuple(word)
        self.length = len(self.word)
        windowed = datum.window_n is not None
        self.window = key if windowed else None
        self._rho = None if windowed else key  # w(rho)
        self._left = None  # node i -> r_i w, filled by left_simple
        self._right = None  # node i -> w r_i, filled by right_simple
        self._roots = None  # positive real root alpha -> r_alpha w, by left_reflection
        self._rdesc = None  # smallest right descent, by smallest_right_descent
        self._grass = None  # minimal in wW, by is_grassmannian

    # -- identity / generators ------------------------------------------------

    def __repr__(self):
        return f"W[{''.join(map(str, self.word)) or 'id'}]"

    def __lt__(self, other):
        """Display order: by length, then canonical word.  Not the Bruhat
        order (``bruhat_leq``); it only makes ``sorted`` deterministic."""
        return (self.length, self.word) < (other.length, other.word)

    def is_identity(self) -> bool:
        return not self.word

    def to_json(self) -> dict:
        out = {"word": list(self.word)}
        if self.window is not None:
            out["window"] = list(self.window)
        return out


def _win_down(win):
    """(j, r_j x) for the smallest left descent j of the window x."""
    inv = _win_inverse(win)
    n = len(win)
    j = next((i for i in range(n) if _win_right_descent(inv, i)), None)
    return None if j is None else (j, _win_compose(_win_simple(n, j), win))


def _rho_down(lam):
    """(j, (r_j x)(rho)) for the smallest left descent j of x, given
    lam = x(rho): the first node with <alpha_j^vee, lam> < 0."""
    datum = lam.datum
    for j, (row, alpha) in datum.simple_action(datum).items():
        m = RootDatum._dot(row, lam.coords)
        if m < 0:
            return j, lam - alpha.scaled(m)
    return None


def _intern(datum, key) -> WeylElt:
    """The element of ``datum`` with interning key ``key`` (its window, else
    w(rho)).  A new key gets the greedy word: ``_win_down`` or ``_rho_down``
    to the first interned element, then that element's word."""
    interned = _DatumOps.of(datum).interned
    elt = interned.get(key)
    if elt is None:
        down = _win_down if datum.window_n is not None else _rho_down
        word, x = [], key
        while x not in interned:
            step = down(x)
            if step is None:
                raise ValueError("action did not reduce to the identity")
            word.append(step[0])
            x = step[1]
        elt = interned[key] = WeylElt(datum, tuple(word) + interned[x].word, key)
    return elt


def identity(datum) -> WeylElt:
    return _DatumOps.of(datum).identity


def simple(datum, i) -> WeylElt:
    if i not in datum.nodes:
        raise ValueError(f"{i} is not a node of {datum.name}")
    return _DatumOps.of(datum).simples[i]


def from_word(datum, word) -> WeylElt:
    """Element of an arbitrary (possibly non-reduced) word."""
    w = identity(datum)
    for i in word:
        w = multiply(w, simple(datum, i))
    return w


def parse_word(text: str):
    """Digit-string word: '210' -> (2, 1, 0).  Commas allowed for nodes > 9."""
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        return tuple(int(t) for t in text.split(","))
    return tuple(int(ch) for ch in text)


def word_str(word) -> str:
    return "".join(str(i) for i in word) if all(i < 10 for i in word) else \
        ",".join(str(i) for i in word)


# -- descents ------------------------------------------------------------------


def has_left_descent(w: WeylElt, i) -> bool:
    """True iff l(r_i w) < l(w), i.e. w^{-1}(alpha_i) < 0, i.e.
    <alpha_i^vee, w(rho)> < 0."""
    if w.window is not None:
        return _win_left_descent(w.window, i)
    return w.datum.pairing(i, w._rho) < 0


def has_right_descent(w: WeylElt, i) -> bool:
    """True iff l(w r_i) < l(w), read off the remembered right edge."""
    if w.window is not None:
        return _win_right_descent(w.window, i)
    return right_simple(w, i).length < w.length


def smallest_right_descent(w: WeylElt):
    """The smallest i with l(w r_i) < l(w) (None for the identity), searched
    once per w and remembered on it."""
    if w._rdesc is None:
        w._rdesc = next((i for i in w.datum.nodes if has_right_descent(w, i)), None)
    return w._rdesc


# -- group operations ----------------------------------------------------------


def multiply(u: WeylElt, v: WeylElt) -> WeylElt:
    """uv: the composed windows, else u's word applied to v(rho)."""
    if u.datum is not v.datum:
        raise DatumMismatchError("elements of different Weyl groups")
    if u.is_identity():
        return v
    if v.is_identity():
        return u
    if u.window is not None:
        return _intern(u.datum, _win_compose(u.window, v.window))
    return _intern(u.datum, apply(u, v._rho))


def left_simple(i, w: WeylElt) -> WeylElt:
    """r_i w, multiplied once per (w, i) and remembered on w.

    Interning makes the edge a pure function of (w, i); two threads racing
    on a miss store the same element."""
    edges = w._left
    if edges is None:
        edges = w._left = {}
    riw = edges.get(i)
    if riw is None:
        riw = edges[i] = multiply(simple(w.datum, i), w)
    return riw


def right_simple(w: WeylElt, i) -> WeylElt:
    """w r_i, multiplied once per (w, i) and remembered on w, as in
    ``left_simple``."""
    edges = w._right
    if edges is None:
        edges = w._right = {}
    wri = edges.get(i)
    if wri is None:
        wri = edges[i] = multiply(w, simple(w.datum, i))
    return wri


def left_reflection(alpha: Weight, w: WeylElt) -> WeylElt:
    """r_alpha w for a positive real root alpha, multiplied once per
    (w, alpha) and remembered on w, as in ``left_simple``."""
    edges = w._roots
    if edges is None:
        edges = w._roots = {}
    r_alpha_w = edges.get(alpha)
    if r_alpha_w is None:
        r_alpha_w = edges[alpha] = multiply(reflection_for_root(w.datum, alpha), w)
    return r_alpha_w


def inverse(w: WeylElt) -> WeylElt:
    """w^{-1}: the inverse window, else the element of the reversed word."""
    datum = w.datum
    if w.window is not None:
        return _intern(datum, _win_inverse(w.window))
    rho = identity(datum)._rho
    return _intern(datum, _act(datum.simple_action(datum), w.word, rho))


def _act(action, letters, lam: Weight) -> Weight:
    """r_{j_k} ... r_{j_1}(lam) for ``letters`` j_1, ..., j_k, by ``action``
    (``RootDatum.simple_action`` of lam's lattice)."""
    dot = RootDatum._dot
    for i in letters:
        row, alpha = action[i]
        m = dot(row, lam.coords)
        if m:
            lam = lam - alpha.scaled(m)
    return lam


def apply(w: WeylElt, lam: Weight) -> Weight:
    """Action on a weight of any coefficient lattice of w's datum, the
    datum's own included: letter by letter through
    ``RootDatum.simple_action``, which rejects foreign lattices.  A window
    element acts on the level-zero lattice through its finite part, a
    permutation of coordinates; the word path is its test oracle."""
    datum = w.datum
    action = datum.simple_action(lam.datum)
    if w.window is not None and lam.datum is not datum:
        # w = t_mu u acts level-zero through its finite part u
        n = len(w.window)
        out = [0] * n
        for i, val in enumerate(w.window):
            out[(val - 1) % n] = lam.coords[i]
        return lam.datum.weight(out)
    return _act(action, reversed(w.word), lam)


def simple_root_image(w: WeylElt, i, lattice) -> Weight:
    """w(alpha_i) in the coefficient ``lattice``.  Without a window, on the
    datum's own lattice, this is w(rho) - (w r_i)(rho), as
    (w r_i)(rho) = w(rho - alpha_i): two interned keys, with w r_i the
    remembered right edge."""
    if w._rho is not None and lattice is w.datum:
        return w._rho - right_simple(w, i)._rho
    return apply(w, w.datum.simple_action(lattice)[i][1])


# -- Bruhat order ---------------------------------------------------------------


def bruhat_leq(v: WeylElt, w: WeylElt) -> bool:
    """Bruhat order by the lifting property, one step per letter i of w's
    canonical word: i is a left descent of what remains of w, so v <= w iff
    min(v, r_i v) <= r_i w.  v <= w iff the walk brings v to the identity."""
    if v.datum is not w.datum:
        raise DatumMismatchError("elements of different Weyl groups")
    for k, i in enumerate(w.word):
        if v.length > w.length - k:
            return False
        rv = left_simple(i, v)
        if rv.length < v.length:
            v = rv
    return v.is_identity()


def bruhat_ideal(w: WeylElt) -> list[WeylElt]:
    """All v <= w: the products of the subwords of the canonical word, grown
    one letter at a time from the right."""
    seen = {identity(w.datum)}
    for i in reversed(w.word):
        seen |= {left_simple(i, v) for v in seen}
    return sorted(seen)


def prefix_roots(datum, word) -> list[Weight]:
    """beta_k = r_{i_1} ... r_{i_{k-1}}(alpha_{i_k}) for each letter i_k of word.

    For a reduced word of w these are the l(w) distinct roots of Inv(w)."""
    out = []
    for k, i in enumerate(word):
        beta = datum.simple_root(i)
        for j in reversed(word[:k]):
            beta = datum.reflect(j, beta)
        out.append(beta)
    return out


def inversions(v: WeylElt) -> set[Weight]:
    """Inv(v) = {alpha > 0 : r_alpha v < v}, the prefix roots of its word."""
    return set(prefix_roots(v.datum, v.word))


def reflection_for_root(datum, alpha: Weight) -> WeylElt:
    """r_alpha for a positive real root alpha = u(alpha_i), as u r_i u^{-1}.

    Memoised per datum by root."""
    memo = _DatumOps.of(datum).reflections
    r_alpha = memo.get(alpha)
    if r_alpha is None:
        r_alpha = memo[alpha] = _reflection_for_root(datum, alpha)
    return r_alpha


def _reflection_for_root(datum, alpha: Weight) -> WeylElt:
    coords = datum.root_coords(alpha)
    if coords is None:
        raise ValueError("not in the root lattice")
    if all(c <= 0 for c in coords):
        raise ValueError("reflection_for_root needs a positive root")
    for i in datum.nodes:
        if alpha == datum.simple_root(i):
            return simple(datum, i)
    for i in datum.nodes:
        if datum.pairing(i, alpha) > 0:
            beta = datum.reflect(i, alpha)
            ri = simple(datum, i)
            return multiply(multiply(ri, reflection_for_root(datum, beta)), ri)
    raise ValueError("root did not reduce to a simple root")


# -- enumeration -----------------------------------------------------------------


def elements_up_to_length(datum, max_len: int) -> list[list[WeylElt]]:
    """Elements grouped by length 0..max_len (BFS over right products)."""
    layers = [[identity(datum)]]
    for ell in range(1, max_len + 1):
        nxt = set()
        for w in layers[ell - 1]:
            for i in datum.nodes:
                if not has_right_descent(w, i):
                    nxt.add(right_simple(w, i))
        layers.append(sorted(nxt))
    return layers


def all_elements(datum, max_len: int) -> list[WeylElt]:
    return [w for layer in elements_up_to_length(datum, max_len) for w in layer]


# -- affine type A specials --------------------------------------------------------


def _require_window(datum):
    if datum.window_n is None:
        raise ValueError("operation needs an affine type A (window) datum")
    return datum.window_n


def translation(datum, lam) -> WeylElt:
    """t_lam for lam in the coroot lattice (sum zero), affine type A."""
    n = _require_window(datum)
    lam = tuple(lam)
    if len(lam) != n or sum(lam) != 0:
        raise ValueError("translation needs a length-n integer vector summing to 0")
    return _intern(datum, tuple(i + n * lam[i - 1] for i in range(1, n + 1)))


def is_grassmannian(w: WeylElt) -> bool:
    """Minimal in wW: no right descent at a finite node (O(1) on a window).
    Tested once per w and remembered on it, as in ``smallest_right_descent``."""
    if w._grass is None:
        w._grass = not any(has_right_descent(w, i) for i in w.datum.nodes if i != 0)
    return w._grass


def grassmannian_part(w: WeylElt):
    """(Grassmannian representative of wW, lam with wW = t_lam W)."""
    n = _require_window(w.datum)
    win = tuple(sorted(w.window))
    rep = _intern(w.datum, win)
    lam = [0] * n
    for val in win:
        q, r = divmod(val - 1, n)
        lam[r] = q
    return rep, tuple(lam)


def translation_of_coset(w: WeylElt) -> WeylElt:
    """t_lam with wW = t_lam W."""
    _, lam = grassmannian_part(w)
    return translation(w.datum, lam)


def grassmannian_from_partition(datum, partition) -> WeylElt:
    """Element of the (n-1)-bounded partition: cell (i,j) has residue j-i mod n,
    read bottom row to top, right to left, multiplied left to right.
    Memoised per datum, recording the inverse for ``partition_of_grassmannian``."""
    n = _require_window(datum)
    parts = tuple(partition)
    ops = _DatumOps.of(datum)
    w = ops.grassmannians.get(parts)
    if w is not None:
        return w
    if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)) or \
            any(p <= 0 for p in parts):
        raise ValueError("not a partition")
    if parts and parts[0] >= n:
        raise ValueError(f"partition must be {n-1}-bounded")
    word = []
    for i in range(len(parts), 0, -1):          # bottom row to top
        for j in range(parts[i - 1], 0, -1):    # right to left
            word.append((j - i) % n)
    w = ops.grassmannians[parts] = from_word(datum, word)
    ops.partitions[w] = parts
    return w


def partition_of_grassmannian(w: WeylElt):
    """Inverse of grassmannian_from_partition (|partition| = length)."""
    if not is_grassmannian(w):
        raise ValueError("element is not Grassmannian")
    n = _require_window(w.datum)
    known = _DatumOps.of(w.datum).partitions
    if w not in known:
        for lam in partitions_of(w.length, n - 1):
            grassmannian_from_partition(w.datum, lam)
    if w not in known:
        raise ValueError("no bounded partition matches this element")
    return known[w]


def cyclically_decreasing(datum, ell: int) -> list[WeylElt]:
    """One element per size-ell subset of Z/nZ, indices multiplied in
    cyclically decreasing order."""
    n = _require_window(datum)
    if not 0 <= ell <= n - 1:
        raise ValueError("need 0 <= ell <= n-1")
    out = []
    for subset in itertools.combinations(range(n), ell):
        out.append(from_word(datum, cyclically_decreasing_word(n, subset)))
    return out


def cyclically_decreasing_word(n: int, subset) -> tuple:
    """The cyclically decreasing word with letter set ``subset`` of Z/nZ."""
    subset = set(subset)
    if len(subset) >= n:
        raise ValueError("subset must be proper")
    start = min(set(range(n)) - subset)
    word = []
    for k in range(1, n + 1):
        j = (start - k) % n
        if j in subset:
            word.append(j)
    return tuple(word)
