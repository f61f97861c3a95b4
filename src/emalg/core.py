"""Finite sorted ordered sets, monotone maps, preorders and the factorisation machinery.

Everything downstream (algebras, syntactic quotients, theory algebras) is built
on the small vocabulary defined here: carriers partitioned into sorts, each sort
a finite partial order; sort- and order-preserving functions; preorders that
extend the carrier order; kernels and quotients.

All values are immutable after construction and all operations are pure, so
they can be shared freely.

Orders and preorders are up-set bitmask rows over their carrier's one
numbering of its elements (see ``SortedOrderedSet``), a map is the array of
its values' indices (``SortedFunction._image``), tested for order by
``_unordered`` alone.  Label pairs and label dicts are input at the boundary
only: what the package builds itself, it builds from closed rows and index
arrays (the ``_from_rows`` constructors, ``SortedFunction._unchecked``).
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator, Optional

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


def _unordered(rows: list[int], up: list[int], image: list) -> Optional[tuple[int, int]]:
    """The first pair (i, j), in index order, with j in row i of ``rows``
    and image[j] outside the up-set row ``up[image[i]]``, or None: the one
    order test of a map.  None entries (a partial graph) are skipped."""
    return next(((i, j) for i, y in enumerate(image) if y is not None for j in _members(rows[i])
                 if image[j] is not None and not up[y] >> image[j] & 1), None)


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
        self._elems: dict[Sort, tuple[Elem, ...]] = {s: tuple(es) for s, es in sorted(elems.items())}
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
        self._rows = [1 << i for i in range(len(self._by_index))]  # discrete until pairs are read
        if leq_pairs:
            self._order(_transitive_closure(_rows_of(self, leq_pairs, "leq pair")))

    @classmethod
    def _from_rows(cls, elems: dict, rows: list[int], *, max_size: int = MAX_SORT_SIZE) -> "SortedOrderedSet":
        """The carrier on ``elems`` ordered by ``rows``, one closed up-set row
        per element over its numbering (sorts ascending, each sort's elements
        in the given order).  It makes the label constructor's checks but the
        closing: the cap, no element twice, every row reflexive and inside its
        sort, and antisymmetry."""
        self = cls(elems, max_size=max_size)
        start = 0
        for s, es in self._elems.items():
            inside = (1 << start + len(es)) - (1 << start)
            for i in range(start, start + len(es)):
                if rows[i] & ~inside or not rows[i] >> i & 1:
                    raise ValueError(f"row of {self._by_index[i]!r} is not reflexive or leaves sort {s}")
            start += len(es)
        self._order(list(rows))
        return self

    def _order(self, rows: list[int]) -> None:
        """Keep the closed ``rows`` if no two are equal, which is antisymmetry
        (i <= j <= i iff rows i and j are); else name the first such pair."""
        if len(set(rows)) < len(rows):
            first: dict = {}  # row -> the first index with it
            i, j = min((i, j) for j, row in enumerate(rows) if (i := first.setdefault(row, j)) != j)
            raise ValueError(f"order not antisymmetric: {self._by_index[i]!r} and {self._by_index[j]!r}")
        self._rows = rows

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
    """A total, sort-preserving, monotone map between two carriers: ``_image``
    holds each value's index over the codomain, in domain order; ``mapping``
    the labels, of the domain's elements alone."""

    def __init__(self, dom: SortedOrderedSet, cod: SortedOrderedSet, mapping: dict):
        self.dom, self.cod, self.mapping, self._image = dom, cod, dict(mapping), []
        if len(self.mapping) > len(dom):  # keys outside the domain are dropped
            self.mapping = {x: y for x, y in self.mapping.items() if x in dom}
        for x in dom:
            if x not in self.mapping:
                raise ValueError(f"function not total: {x!r} unmapped")
            y = self.mapping[x]
            if y not in cod:
                raise ValueError(f"value {y!r} not in codomain")
            if cod.sort_of(y) != dom.sort_of(x):
                raise ValueError(f"{x!r} -> {y!r} does not preserve sorts")
            self._image.append(cod._index[y])
        if bad := _unordered(dom._rows, cod._rows, self._image):
            a, b = map(dom._by_index.__getitem__, bad)
            raise ValueError(f"not monotone at ({a!r},{b!r})")

    @classmethod
    def _unchecked(cls, dom: SortedOrderedSet, cod: SortedOrderedSet, image: list) -> "SortedFunction":
        """The map of index array ``image``, proved total, sort-preserving and monotone by its caller."""
        f = cls.__new__(cls)
        f.dom, f.cod, f._image = dom, cod, image
        f.mapping = dict(zip(dom._by_index, map(cod._by_index.__getitem__, image)))
        return f

    def __call__(self, x: Elem) -> Elem:
        return self.mapping[x]

    def is_surjective(self) -> bool:
        return len(set(self._image)) == len(self.cod)

    def __repr__(self):
        return f"SortedFunction({self.mapping!r})"


class Preorder:
    """A reflexive transitive relation on a carrier, sort by sort."""

    def __init__(self, carrier: SortedOrderedSet, pairs: Iterable[tuple[Elem, Elem]]):
        self.carrier = carrier
        self._index, self._by_index = carrier._index, carrier._by_index
        self._rows = _transitive_closure(_rows_of(carrier, pairs))

    @classmethod
    def _from_rows(cls, carrier: SortedOrderedSet, rows: list[int]) -> "Preorder":
        """The preorder of ``rows``, up-set rows over ``carrier``'s numbering
        that its caller has closed and kept inside their sorts."""
        q = cls.__new__(cls)
        q.carrier, q._index, q._by_index, q._rows = carrier, carrier._index, carrier._by_index, rows
        return q

    holds = _related

    pairs = _pair_set

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
    """All pairs (a, a') with f(a) <= f(a'); an order-extending preorder,
    whose row a, read off f(a)'s row, is closed and inside a's sort."""
    image = f._image
    up = [f.cod._rows[y] for y in image]
    return Preorder._from_rows(f.dom, [sum(1 << j for j, y in enumerate(image) if row >> y & 1) for row in up])


def factor_through(f: SortedFunction, g: SortedFunction) -> SortedFunction:
    """The unique monotone h with g = h . f, for surjective f.

    Exists exactly when ker f is contained in ker g; otherwise raises
    NoFactorisation with one violating pair.  h needs no check: it is total,
    as f is onto; f(a) <= f(a') gives a ker g a', so g(a) <= g(a'), which
    makes h well defined (by antisymmetry) and monotone; it keeps sorts.
    """
    if f.dom is not g.dom and not f.dom.same_elements(g.dom):
        raise ValueError("factor_through requires a shared domain")
    if not f.is_surjective():
        raise ValueError("factor_through requires f surjective")
    for i, (kf, kg) in enumerate(zip(kernel(f)._rows, kernel(g)._rows)):
        if kf & ~kg:
            raise NoFactorisation((f.dom._by_index[i], f.dom._by_index[_members(kf & ~kg)[0]]))
    h = dict(zip(f._image, g._image))
    return SortedFunction._unchecked(f.cod, g.cod, [h[y] for y in range(len(f.cod))])


def quotient_set(
    A: SortedOrderedSet, q: Preorder
) -> tuple[SortedOrderedSet, SortedFunction]:
    """Classes of the preorder q, ordered by [a] <= [b] iff a q b.

    q must be over A's elements and contain A's order; a ValueError says
    which fails.  Each class is named by its first representative in
    carrier enumeration order; the returned map sends an element to its
    class representative and is surjective and monotone, with kernel q.

    The quotient's rows are q's rows of the representatives, cut down to
    them.  The map needs no check: it is total; it keeps sorts, as equal
    rows, each reflexive and inside its sort, share a sort; and it is
    monotone, as a <= b in A gives a q b, so [a] <= [b].
    """
    if not _contains_order(A, q):
        raise ValueError("preorder does not contain the carrier order")
    # i q j and j q i iff i and j have the same up-set row (the rows are
    # reflexive and transitive), so the class of element i is named by the
    # first index with i's row, the first representative in carrier order
    elems, index, up = A._by_index, A._index, q._rows
    first: dict = {}  # up-set row -> the first index with it
    rep = [first.setdefault(row, i) for i, row in enumerate(up)]
    classes = {s: [x for x in A.elements(s) if rep[index[x]] == index[x]] for s in A.sorts}
    Q = SortedOrderedSet._from_rows(classes, _restricted_rows(up, list(first.values())))
    return Q, SortedFunction._unchecked(A, Q, [Q._index[elems[r]] for r in rep])


def _restricted_rows(rows: list[int], keep: list[int]) -> list[int]:
    """The rows of the ascending indices ``keep``, cut down to them and
    renumbered in their order: a shift and a mask per run of kept indices."""
    runs: list = []  # [first index, length, new index of the first]
    for new, i in enumerate(keep):
        if runs and runs[-1][0] + runs[-1][1] == i:
            runs[-1][1] += 1
        else:
            runs.append([i, 1, new])
    return [sum((rows[k] >> i & (1 << m) - 1) << new for i, m, new in runs) for k in keep]


def _contains_order(A: SortedOrderedSet, q: Preorder) -> bool:
    """Whether q, a preorder over A's elements, contains A's order."""
    if not A.same_elements(q.carrier):
        raise ValueError("preorder is over a different carrier")
    return all(a & ~b == 0 for a, b in zip(A._rows, q._rows))


def _up(A: SortedOrderedSet, X: Iterable[Elem]) -> int:
    """The OR of the rows of X's elements; one outside A is an error."""
    up = 0
    for x in X:
        if x not in A:
            raise ValueError(f"{x!r} not in carrier")
        up |= A._rows[A._index[x]]
    return up


def upward_closure(A: SortedOrderedSet, X: Iterable[Elem]) -> frozenset:
    """Union of the principal up-sets of the elements of X: OR of rows."""
    return frozenset(A._by_index[j] for j in _members(_up(A, X)))


def is_upward_closed(A: SortedOrderedSet, X: Iterable[Elem]) -> bool:
    """Whether the OR of the rows of X's elements is X's own bitmask."""
    xs = frozenset(X)
    return _up(A, xs) == sum(1 << A._index[x] for x in xs)
