"""Finite sorted ordered sets, monotone maps, preorders and the factorisation machinery.

Everything downstream (algebras, syntactic quotients, theory algebras) is built
on the small vocabulary defined here: carriers partitioned into sorts, each sort
a finite partial order; sort- and order-preserving functions; preorders that
extend the carrier order; kernels and quotients.

All values are immutable after construction and all operations are pure, so
they can be shared freely.

Orders and preorders are up-set bitmask rows over their carrier's one
numbering of its elements (see ``SortedOrderedSet``).
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator

Sort = int
Elem = Hashable

#: Default cap on the number of elements per sort.  Every algorithm in this
#: package is polynomial in carrier size; the cap just keeps accidental blowups
#: loud instead of slow.
MAX_SORT_SIZE = 64


class CarrierBoundExceeded(RuntimeError):
    """A sort would hold more elements than the carrier cap allows, or a
    tree-algebra file declares a sort above its arity cap.

    A resource bound, not malformed input: the command line reports it with
    the bound exit code."""


def _check_sort_size(sort: Sort, size: int, cap: int = MAX_SORT_SIZE) -> None:
    """Raise ``CarrierBoundExceeded`` when ``size`` elements of ``sort``
    are more than ``cap``."""
    if size > cap:
        raise CarrierBoundExceeded(f"sort {sort} has {size} elements, cap is {cap}")


class NoFactorisation(Exception):
    """Raised when ``factor_through`` fails; carries one violating pair."""

    def __init__(self, witness: tuple, message: str = ""):
        self.witness = witness
        super().__init__(message or f"kernel violation at pair {witness!r}")


def _members(row: int) -> list[int]:
    """The indices of the set bits of ``row``, lowest first."""
    out = []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return out


def _rows_of(A: "SortedOrderedSet", pairs: Iterable[tuple[Elem, Elem]], what: str = "pair") -> list[int]:
    """Row i: the bitmask of element i and of what ``pairs`` relates it to,
    over A's numbering.  A pair (a ``what``) outside A or across sorts is
    an error, so no row leaves its sort."""
    index, sort_of = A._index, A._sort_of
    rows = [1 << i for i in range(len(index))]
    for a, b in pairs:
        i, j = index.get(a), index.get(b)
        if i is None or j is None:
            raise ValueError(f"{what} ({a!r},{b!r}) mentions unknown element")
        if sort_of[a] != sort_of[b]:
            raise ValueError(f"{what} ({a!r},{b!r}) crosses sorts")
        rows[i] |= 1 << j
    return rows


def _transitive_closure(rows: list[int]) -> list[int]:
    """Close ``rows`` in place (row i the bitmask of the successors of
    element i) and return them; carriers and preorders keep the result.
    A row takes in the successors of each element it reaches, one at a
    time, so an already transitive relation costs one step per pair."""
    for i, reach in enumerate(rows):
        todo, seen = reach, 0
        while todo:
            low = todo & -todo
            reach |= rows[low.bit_length() - 1]
            seen |= low
            todo = reach & ~seen
        rows[i] = reach
    return rows


def _related(self, a: Elem, b: Elem) -> bool:
    """A carrier's ``leq``, a preorder's ``holds``: bit b of a's row."""
    index = self._index
    try:
        return 1 << index[b] & self._rows[index[a]] != 0
    except KeyError:
        return False


def _pair_set(self) -> frozenset[tuple[Elem, Elem]]:
    """A carrier's ``leq_pairs``, a preorder's ``pairs``: its rows as pairs."""
    es = self._by_index
    return frozenset((es[i], es[j]) for i, row in enumerate(self._rows) for j in _members(row))


class SortedOrderedSet:
    """A finite carrier partitioned by sort, each sort a finite partial order.

    Elements may be any hashable values; an element belongs to exactly one
    sort.  Elements of distinct sorts are incomparable.  Antisymmetry is
    validated at construction; violations are construction errors.
    Empty sorts are permitted.

    Its elements are numbered 0..n-1 in carrier order (``_by_index``, and
    ``_index`` back), once: preorders, integer tables and the syntactic
    pair search read this numbering.  The order is kept as up-set bitmask
    rows over it (``_rows``).
    """

    def __init__(
        self,
        elems: dict[Sort, Iterable[Elem]],
        leq_pairs: Iterable[tuple[Elem, Elem]] = (),
        *,
        max_size: int = MAX_SORT_SIZE,
    ):
        self._elems: dict[Sort, tuple[Elem, ...]] = {
            s: tuple(es) for s, es in sorted(elems.items())
        }
        self._sort_of: dict[Elem, Sort] = {}
        self._index: dict[Elem, int] = {}
        for s, es in self._elems.items():
            _check_sort_size(s, len(es), max_size)
            for e in es:
                if e in self._sort_of:
                    raise ValueError(f"element {e!r} occurs twice")
                self._sort_of[e] = s
                self._index[e] = len(self._index)
        self._by_index: list[Elem] = list(self._index)
        self._rows = rows = _transitive_closure(_rows_of(self, leq_pairs, "leq pair"))
        for i, row in enumerate(rows):
            for j in _members(row & -(2 << i)):  # above i, after it
                if rows[j] >> i & 1:
                    a, b = self._by_index[i], self._by_index[j]
                    raise ValueError(f"order not antisymmetric: {a!r} and {b!r}")

    @classmethod
    def chain(cls, elems: Iterable[Elem], sort: Sort = 0) -> "SortedOrderedSet":
        """Single-sort carrier totally ordered in the given element order."""
        es = list(elems)
        pairs = [(es[i], es[i + 1]) for i in range(len(es) - 1)]
        return cls({sort: es}, pairs)

    # -- access ------------------------------------------------------------

    @property
    def sorts(self) -> tuple[Sort, ...]:
        return tuple(self._elems)

    def elements(self, sort: Sort) -> tuple[Elem, ...]:
        return self._elems.get(sort, ())

    def __iter__(self) -> Iterator[Elem]:
        return iter(self._by_index)

    def __len__(self) -> int:
        return len(self._by_index)

    def __contains__(self, x: Any) -> bool:
        return x in self._sort_of

    def sort_of(self, x: Elem) -> Sort:
        return self._sort_of[x]

    leq = _related

    leq_pairs = _pair_set

    def is_trivially_ordered(self) -> bool:
        return all(row == 1 << i for i, row in enumerate(self._rows))

    def same_elements(self, other: "SortedOrderedSet") -> bool:
        return self._elems == other._elems

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, SortedOrderedSet)
            and self._elems == other._elems
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((tuple(self._elems.items()), tuple(self._rows)))

    def __repr__(self):
        parts = ", ".join(f"{s}:{list(es)!r}" for s, es in self._elems.items())
        return f"SortedOrderedSet({parts})"


class SortedFunction:
    """A total, sort-preserving, monotone map between two carriers."""

    def __init__(self, dom: SortedOrderedSet, cod: SortedOrderedSet, mapping: dict):
        self.dom = dom
        self.cod = cod
        self.mapping = dict(mapping)
        for x in dom:
            if x not in self.mapping:
                raise ValueError(f"function not total: {x!r} unmapped")
            y = self.mapping[x]
            if y not in cod:
                raise ValueError(f"value {y!r} not in codomain")
            if cod.sort_of(y) != dom.sort_of(x):
                raise ValueError(f"{x!r} -> {y!r} does not preserve sorts")
        for a, b in dom.leq_pairs():
            if not cod.leq(self.mapping[a], self.mapping[b]):
                raise ValueError(f"not monotone at ({a!r},{b!r})")

    @classmethod
    def identity(cls, carrier: SortedOrderedSet) -> "SortedFunction":
        return cls(carrier, carrier, {x: x for x in carrier})

    def __call__(self, x: Elem) -> Elem:
        return self.mapping[x]

    def compose(self, inner: "SortedFunction") -> "SortedFunction":
        """self after inner."""
        return SortedFunction(
            inner.dom, self.cod, {x: self.mapping[inner(x)] for x in inner.dom}
        )

    def is_surjective(self) -> bool:
        image = set(self.mapping.values())
        return all(y in image for y in self.cod)

    def __repr__(self):
        return f"SortedFunction({self.mapping!r})"


class Preorder:
    """A reflexive transitive relation on a carrier, sort by sort.

    ``order_extending`` reports whether the carrier's own order is contained
    in the relation; most constructions below require that.
    """

    def __init__(self, carrier: SortedOrderedSet, pairs: Iterable[tuple[Elem, Elem]]):
        self.carrier = carrier
        self._index, self._by_index = carrier._index, carrier._by_index
        self._rows = _transitive_closure(_rows_of(carrier, pairs))

    holds = _related

    def equivalent(self, a: Elem, b: Elem) -> bool:
        return self.holds(a, b) and self.holds(b, a)

    pairs = _pair_set

    def is_order_extending(self) -> bool:
        return _contains_order(self.carrier, self)

    def is_total_per_sort(self) -> bool:
        es = self.carrier.elements
        return all(self.holds(a, b) for s in self.carrier.sorts for a in es(s) for b in es(s))

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, Preorder)
            and self.carrier.same_elements(other.carrier)
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash(tuple(self._rows))

    def __repr__(self):
        nontriv = sorted((repr(a), repr(b)) for a, b in self.pairs() if a != b)
        return f"Preorder({nontriv})"


# -- operations -------------------------------------------------------------


def kernel(f: SortedFunction) -> Preorder:
    """All pairs (a, a') with f(a) <= f(a'); an order-extending preorder."""
    pairs = [
        (a, b)
        for s in f.dom.sorts
        for a in f.dom.elements(s)
        for b in f.dom.elements(s)
        if f.cod.leq(f(a), f(b))
    ]
    return Preorder(f.dom, pairs)


def factor_through(f: SortedFunction, g: SortedFunction) -> SortedFunction:
    """The unique monotone h with g = h . f, for surjective f.

    Exists exactly when ker f is contained in ker g; otherwise raises
    NoFactorisation with one violating pair.
    """
    if f.dom is not g.dom and not f.dom.same_elements(g.dom):
        raise ValueError("factor_through requires a shared domain")
    if not f.is_surjective():
        raise ValueError("factor_through requires f surjective")
    for s in f.dom.sorts:
        for a in f.dom.elements(s):
            for b in f.dom.elements(s):
                if f.cod.leq(f(a), f(b)) and not g.cod.leq(g(a), g(b)):
                    raise NoFactorisation((a, b))
    section: dict = {}
    for x in f.dom:
        section.setdefault(f(x), x)
    return SortedFunction(f.cod, g.cod, {y: g(section[y]) for y in f.cod})


def quotient_set(
    A: SortedOrderedSet, q: Preorder
) -> tuple[SortedOrderedSet, SortedFunction]:
    """Classes of the preorder q, ordered by [a] <= [b] iff a q b.

    q must be over A's elements and contain A's order; a ValueError says
    which fails.  Each class is named by its first representative in
    carrier enumeration order; the returned map sends an element to its
    class representative and is surjective and monotone, with kernel q.
    The classes are read off A's numbering and q's up-set rows, with no
    numbering of their own.
    """
    if not _contains_order(A, q):
        raise ValueError("preorder does not contain the carrier order")
    # i q j and j q i iff i and j have the same up-set row (the rows are
    # reflexive and transitive), so the class of element i is named by the
    # first index with i's row, the first representative in carrier order
    elems, up = A._by_index, q._rows
    rep: dict = {}
    first: dict = {}  # up-set row -> the first index with it
    reps = 0  # the bitmask of the representatives
    classes: dict[Sort, list] = {s: [] for s in A.sorts}
    for i, x in enumerate(elems):
        r = first.setdefault(up[i], i)
        rep[x] = elems[r]
        if r == i:
            classes[A.sort_of(x)].append(x)
            reps |= 1 << i
    pairs = [(elems[i], elems[j]) for i in _members(reps) for j in _members(up[i] & reps)]
    Q = SortedOrderedSet(classes, pairs)
    return Q, SortedFunction(A, Q, rep)


def _contains_order(A: SortedOrderedSet, q: Preorder) -> bool:
    """Whether q, a preorder over A's elements, contains A's order."""
    if not A.same_elements(q.carrier):
        raise ValueError("preorder is over a different carrier")
    return all(a & ~b == 0 for a, b in zip(A._rows, q._rows))


def upward_closure(A: SortedOrderedSet, X: Iterable[Elem]) -> frozenset:
    """Union of the principal up-sets of the elements of X: OR of rows."""
    up = 0
    for x in X:
        if x not in A:
            raise ValueError(f"{x!r} not in carrier")
        up |= A._rows[A._index[x]]
    return frozenset(A._by_index[j] for j in _members(up))


def is_upward_closed(A: SortedOrderedSet, X: Iterable[Elem]) -> bool:
    xs = frozenset(X)
    return upward_closure(A, xs) == xs
