"""One sparse, windowed coefficient container for every finite sum.

The hbar and u series, the Weyl, torus and crossed-product elements, the
forms and the chains are all finite sums: a dict `coeffs` from keys
(powers, modes, monomials, words) to coefficients from the layer below.
Sparse writes their linear structure once.  A sum merges the two dicts, a
zero coefficient is never stored, and negation and scalar multiples act
coefficient by coefficient.  A subclass keeps its metadata slots and
rebuilds itself through `_spawn(coeffs, other=None)`; a sum passes its
second operand as `other`, so the two windows combine.  Chains add the one
operator kernel: `Chain._map` sums an operator's signed, scaled values on
single words in one integer accumulator (scalars._chain_sums), and
`Chain._store` keeps one canonical representative per word.

Equality is decided on a window, by one of three rules:

  filtered     (Filtered) keys carry a degree and the element one
               reliability limit; both sides are cut at the smaller limit
               and compared term by term.
  coefficient  (Sparse) a key on one side only is read as zero through
   window      the other side's smallest coefficient window: it counts as
               zero when its coefficient, cut there, vanishes.
  difference   (Chain) the difference must be zero, so a key on one side
               only makes the two unequal.

The rules decide different things and are not interchangeable.  Elements
are immutable by convention and unhashable, since equality depends on the
windows.
"""


def _acc(table, key, val):
    """Add val into table[key] as cur + val, or store it when key is new."""
    cur = table.get(key)
    table[key] = val if cur is None else cur + val


class Sparse:
    """Finite sum {key: coefficient} with the coefficient-window equality.

    `_scalars` lists the scalar types the coefficients are multiplied and
    divided by; `_scalar` may convert a scalar first.
    """

    __slots__ = ("coeffs",)

    _scalars: tuple = ()

    def _spawn(self, coeffs, other=None):
        """A new element with this one's metadata and the given terms."""
        raise NotImplementedError

    def _coerce(self, other):
        """other as an operand of this class, or None."""
        return other if isinstance(other, type(self)) else None

    def _scalar(self, s):
        """s as the coefficients are multiplied by it, or None."""
        return s if isinstance(s, self._scalars) else None

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for k, v in o.coeffs.items():
            _acc(out, k, v)
        return self._spawn(out, o)

    __radd__ = __add__

    def __neg__(self):
        return self._spawn({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        s = self._scalar(other)
        if s is None:
            return NotImplemented
        return self._spawn({k: v * s for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, self._scalars):
            return NotImplemented
        return self._spawn({k: v / other for k, v in self.coeffs.items()})

    # -- windows -----------------------------------------------------------

    def global_window(self):
        """Smallest coefficient window, or None when there are no terms."""
        return min((w for v in self.coeffs.values()
                    if (w := v.global_window()) is not None), default=None)

    def truncate(self, window):
        """Cut every coefficient at window."""
        return self._spawn({k: v.truncate(window)
                            for k, v in self.coeffs.items()})

    def shift(self, k: int):
        """Shift every coefficient by k powers of its own variable."""
        return self._spawn({key: v.shift(k) for key, v in self.coeffs.items()})

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        wa, wb = self.global_window(), o.global_window()
        for k in set(self.coeffs) | set(o.coeffs):
            a = self.coeffs.get(k)
            b = o.coeffs.get(k)
            if a is None:
                if not (b if wa is None else b.truncate(wa)).is_zero():
                    return False
            elif b is None:
                if not (a if wb is None else a.truncate(wb)).is_zero():
                    return False
            elif a != b:
                return False
        return True

    # unhashable: equality depends on the windows (a class that defines
    # __eq__ gets __hash__ = None too, so every subclass is unhashable)
    __hash__ = None


class Filtered(Sparse):
    """Sum whose keys carry a degree (`_degree`) under one reliability
    limit (`global_window`); no key above the limit is stored.  Subclasses
    rebuild through `_at(limit, coeffs)`."""

    __slots__ = ()

    @staticmethod
    def _degree(key):
        return key

    def _at(self, limit, coeffs):
        raise NotImplementedError

    def _spawn(self, coeffs, other=None):
        limit = self.global_window()
        if other is not None:
            limit = min(limit, other.global_window())
        return self._at(limit, coeffs)

    def truncate(self, limit):
        """Lower the reliability limit to at most limit."""
        return self._at(min(limit, self.global_window()), self.coeffs)

    @property
    def low(self):
        """Lowest key degree, or None when there are no terms."""
        return min(map(self._degree, self.coeffs), default=None)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        common = min(self.global_window(), o.global_window())
        deg = self._degree
        a = {k: v for k, v in self.coeffs.items() if deg(k) <= common}
        b = {k: v for k, v in o.coeffs.items() if deg(k) <= common}
        return a.keys() == b.keys() and all(a[k] == b[k] for k in a)


class Chain(Sparse):
    """Sum of words with the difference equality: a word on one side only
    makes the two chains unequal.

    Every chain operator is linear and given by its value on one word, so
    `_map` holds the one sum they all share.  `_store` is the one way a
    chain keeps its terms."""

    __slots__ = ()

    def _store(self, coeffs):
        """Keep coeffs as this chain's terms.  Zero coefficients are
        dropped; each other word passes through the subclass hook
        `_admit(key, value)`, which returns the canonical (key, value) or
        None to drop the word; words with one representative are summed in
        order."""
        clean: dict = {}
        for k, v in coeffs.items():
            if v.is_zero():
                continue
            kv = self._admit(k, v)
            if kv is not None:
                _acc(clean, *kv)
        self.coeffs = {k: v for k, v in clean.items() if not v.is_zero()}

    def _map(self, terms, build=None, u_cap=None):
        """The linear map with value terms(key, coeff) on each word, a list
        of entries (target, sign, scalar or None, u shift), built by `build`
        (default `_spawn`).  The one route for every chain operator is
        `scalars._chain_sums`: each entry's products go into one integer
        accumulator, signed by its scale, and every output coefficient is
        frozen once, so the sums do not depend on how their terms are
        grouped; a shifted entry's u window is cut at u_cap."""
        # imported here: scalars builds its series on this module
        from .scalars import _chain_sums
        return (build or self._spawn)(_chain_sums(
            ((c, terms(k, c)) for k, c in self.coeffs.items()), u_cap))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()
