"""Finite sorted ordered sets, monotone maps, preorders and the factorisation machinery.

Everything downstream (algebras, syntactic quotients, theory algebras) is built
on the small vocabulary defined here: carriers partitioned into sorts, each sort
a finite partial order; sort- and order-preserving functions; preorders that
extend the carrier order; kernels and quotients.

All values are immutable after construction and all operations are pure, so
they can be shared freely.
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
    """A sort would hold more elements than the carrier cap allows.

    A resource bound, not malformed input: the command line reports it with
    the bound exit code."""


class NoFactorisation(Exception):
    """Raised when ``factor_through`` fails; carries one violating pair."""

    def __init__(self, witness: tuple, message: str = ""):
        self.witness = witness
        super().__init__(message or f"kernel violation at pair {witness!r}")


def _transitive_closure(pairs: set[tuple[Elem, Elem]]) -> set[tuple[Elem, Elem]]:
    """The pairs (a, c) joined by a path of one or more pairs.

    The elements are numbered in order of appearance and each one's
    successors are a bitmask.  A row is closed by taking in the successors
    of each element it reaches, one element at a time, until it reaches
    nothing new, so an already transitive relation costs one step per
    pair."""
    index: dict = {}
    edges = [(index.setdefault(a, len(index)), index.setdefault(b, len(index))) for a, b in pairs]
    elems = list(index)
    succ = [0] * len(elems)
    for i, j in edges:
        succ[i] |= 1 << j
    for i, reach in enumerate(succ):
        todo, seen = reach, 0
        while todo:
            low = todo & -todo
            reach |= succ[low.bit_length() - 1]
            seen |= low
            todo = reach & ~seen
        succ[i] = reach
    out = set()
    for a, s in zip(elems, succ):
        while s:
            low = s & -s
            out.add((a, elems[low.bit_length() - 1]))
            s ^= low
    return out


class SortedOrderedSet:
    """A finite carrier partitioned by sort, each sort a finite partial order.

    Elements may be any hashable values; an element belongs to exactly one
    sort.  Elements of distinct sorts are incomparable.  Antisymmetry is
    validated at construction; violations are construction errors.
    Empty sorts are permitted.
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
        for s, es in self._elems.items():
            if len(es) > max_size:
                raise CarrierBoundExceeded(
                    f"sort {s} has {len(es)} elements, cap is {max_size}"
                )
            for e in es:
                if e in self._sort_of:
                    raise ValueError(f"element {e!r} occurs twice")
                self._sort_of[e] = s
        pairs = set()
        for a, b in leq_pairs:
            if a not in self._sort_of or b not in self._sort_of:
                raise ValueError(f"leq pair ({a!r},{b!r}) mentions unknown element")
            if self._sort_of[a] != self._sort_of[b]:
                raise ValueError(f"leq pair ({a!r},{b!r}) crosses sorts")
            pairs.add((a, b))
        pairs |= {(e, e) for e in self._sort_of}
        closed = _transitive_closure(pairs)
        for a, b in closed:
            if a != b and (b, a) in closed:
                raise ValueError(f"order not antisymmetric: {a!r} and {b!r}")
        self._leq = frozenset(closed)

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
        for es in self._elems.values():
            yield from es

    def __len__(self) -> int:
        return sum(len(es) for es in self._elems.values())

    def __contains__(self, x: Any) -> bool:
        return x in self._sort_of

    def sort_of(self, x: Elem) -> Sort:
        return self._sort_of[x]

    def leq(self, a: Elem, b: Elem) -> bool:
        return (a, b) in self._leq

    def leq_pairs(self) -> frozenset[tuple[Elem, Elem]]:
        return self._leq

    def is_trivially_ordered(self) -> bool:
        return all(a == b for a, b in self._leq)

    def same_elements(self, other: "SortedOrderedSet") -> bool:
        return self._elems == other._elems

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, SortedOrderedSet)
            and self._elems == other._elems
            and self._leq == other._leq
        )

    def __hash__(self):
        return hash((tuple(self._elems.items()), self._leq))

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
        ps = set()
        for a, b in pairs:
            if a not in carrier or b not in carrier:
                raise ValueError(f"pair ({a!r},{b!r}) mentions unknown element")
            if carrier.sort_of(a) != carrier.sort_of(b):
                raise ValueError(f"pair ({a!r},{b!r}) crosses sorts")
            ps.add((a, b))
        ps |= {(e, e) for e in carrier}
        self._pairs = frozenset(_transitive_closure(ps))

    def holds(self, a: Elem, b: Elem) -> bool:
        return (a, b) in self._pairs

    def equivalent(self, a: Elem, b: Elem) -> bool:
        return (a, b) in self._pairs and (b, a) in self._pairs

    def pairs(self) -> frozenset[tuple[Elem, Elem]]:
        return self._pairs

    def is_order_extending(self) -> bool:
        return self.carrier.leq_pairs() <= self._pairs

    def is_total_per_sort(self) -> bool:
        for s in self.carrier.sorts:
            es = self.carrier.elements(s)
            for a in es:
                for b in es:
                    if (a, b) not in self._pairs:
                        return False
        return True

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, Preorder)
            and self.carrier.same_elements(other.carrier)
            and self._pairs == other._pairs
        )

    def __hash__(self):
        return hash(self._pairs)

    def __repr__(self):
        nontriv = sorted((repr(a), repr(b)) for a, b in self._pairs if a != b)
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

    q must contain A's order.  Each class is named by its first representative
    in carrier enumeration order; the returned map sends an element to its
    class representative and is surjective and monotone, with kernel q.
    """
    if not A.same_elements(q.carrier):
        raise ValueError("preorder is over a different carrier")
    if not q.is_order_extending():
        raise ValueError("preorder does not contain the carrier order")
    # each element's up-set and down-set under q as bitmasks over element
    # indices in carrier order; its class is their intersection, named by
    # its lowest index, the first representative in carrier order
    elems = list(A)
    index = {e: i for i, e in enumerate(elems)}
    up = [0] * len(elems)
    down = [0] * len(elems)
    for a, b in q.pairs():
        i, j = index[a], index[b]
        up[i] |= 1 << j
        down[j] |= 1 << i
    rep: dict = {}
    classes: dict[Sort, list] = {}  # the class names of each sort, as indices
    i = 0
    for s in A.sorts:
        classes[s] = []
        for x in A.elements(s):
            same = up[i] & down[i]
            r = (same & -same).bit_length() - 1
            rep[x] = elems[r]
            if r == i:
                classes[s].append(i)
            i += 1
    pairs = [
        (elems[a], elems[b]) for cs in classes.values() for a in cs for b in cs if up[a] >> b & 1
    ]
    Q = SortedOrderedSet({s: [elems[a] for a in cs] for s, cs in classes.items()}, pairs)
    return Q, SortedFunction(A, Q, rep)


def upward_closure(A: SortedOrderedSet, X: Iterable[Elem]) -> frozenset:
    """Union of the principal up-sets of the elements of X."""
    xs = set(X)
    for x in xs:
        if x not in A:
            raise ValueError(f"{x!r} not in carrier")
    return frozenset(b for b in A for x in xs if A.leq(x, b))


def is_upward_closed(A: SortedOrderedSet, X: Iterable[Elem]) -> bool:
    xs = frozenset(X)
    return upward_closure(A, xs) == xs


def strip_order(A: SortedOrderedSet) -> SortedOrderedSet:
    """The same elements with the trivial order on every sort."""
    return SortedOrderedSet({s: A.elements(s) for s in A.sorts})
