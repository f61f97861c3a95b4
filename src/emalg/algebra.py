"""Finitary algebras for the three container instances.

An algebra is a sorted ordered carrier together with one table per shallow
operation of its monad.  The operations, with their argument and result
sorts, are the monad's ``signature`` (``emalg.monads``):

* word: mult (0,0)->0, a binary multiplication (an ordered semigroup);
* omega: dot (1,1)->1, mix (1,inf)->inf and omega 1->inf (Wilke-style data,
  which determines evaluation of every ultimately periodic word);
* tree: comp (n, s1..sn)->s1+..+sn for 1 <= n and a sum within the arity
  cap, giving the value of the depth-two tree a(b1(...),...,bn(...)).  A
  slot may also be the marker ``VAR`` (stored as None) for a bare variable
  child, of sort 1, passed through in order.  Entries with VAR slots are
  optional data; evaluation raises ``MissingTableEntry`` when one is needed
  but absent.

The tables are stored over element indices, laid out under "the table
view" below, and only this module reads that storage.  Every computation
reads them; labels exist only at the boundary, where the keyword tables of
``FinAlgebra`` are coded once and the label views decoded on first access.

One evaluator, ``eval_element``, is the structure map for all three: over
element indices, it checks every label's sort against its position, folds
a finite sequence by the binary op of its argument sorts (mult, dot or
mix), closes an omega period with omega, and evaluates a deep tree by
recursion.

Construction checks the tables against the signature (every entry fits an
operation and lands in its result sort, every operation is total) and for
monotonicity.  Associativity is *not* assumed at construction.  On finite
tables it comes to a finite list of axioms read off the signature:
associativity of the binary ops (mult; dot and the mix action), Wilke's
shift and power laws for omega, and associativity of depth-three
composition for comp.  One check, ``_axiom_violations``, tests them on
every tuple of elements: ``check_algebra_laws`` reports each failure, so
that defective tables are reported rather than silently trusted, and the
``wilke_algebra`` factory rejects its first (for omega tables these are
exactly what makes ultimately periodic evaluation representation
independent).
"""

from __future__ import annotations

import copy
import functools
import itertools
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Optional

from .core import (
    Elem,
    Preorder,
    Sort,
    SortedFunction,
    SortedOrderedSet,
    _contains_order,
    _members,
    _restricted_rows,
    is_upward_closed,
    quotient_set,
)
from .monads import (
    SORT_WORD,
    MixedWord,
    Monad,
    Node,
    OmegaMonad,
    SortMismatch,
    Tree,
    TreeMonad,
    UPWord,
    Var,
    Word,
    WordMonad,
    _tree_vars,
)

#: Marker for a bare-variable slot in tree composition tables.
VAR = None


class NotCongruence(Exception):
    """The preorder is not compatible with the shallow products."""

    def __init__(self, witness, message: str = ""):
        self.witness = witness
        super().__init__(message or f"congruence violated at {witness!r}")


class MissingTableEntry(KeyError):
    """A tree evaluation needed an optional slot entry that is absent."""


class FinAlgebra:
    """A finitary algebra over one of the three instances.

    It stores integer tables (``_coded``, see "the table view" below).
    ``tables`` is its label view, decoded from them on first read: one
    read-only mapping per op of ``_OPS`` keyed by flat argument tuples, in
    the order of the stored entries; ``mult``, ``dot`` and ``mix`` are three
    of them, and ``omega`` (keyed by a) and ``comp`` (keyed by (head,
    slots)) show theirs in the keyword shapes."""

    def __init__(
        self,
        monad: Monad,
        carrier: SortedOrderedSet,
        *,
        mult: Optional[dict] = None,
        dot: Optional[dict] = None,
        mix: Optional[dict] = None,
        omega: Optional[dict] = None,
        comp: Optional[dict] = None,
    ):
        tables = {"mult": dict(mult or {}), "dot": dict(dot or {}), "mix": dict(mix or {})}
        tables["omega"] = {(a,): v for a, v in (omega or {}).items()}
        tables["comp"] = {(a, *slots): v for (a, slots), v in (comp or {}).items()}
        self._init(monad, carrier, _encode(carrier, tables))

    def _init(self, monad, carrier, coded: dict, monotone: bool = False):
        """Take over the integer tables ``coded``, check them against the
        signature and, unless they are known to be ``monotone`` (see
        ``quotient_algebra``), walk them for monotonicity."""
        self.monad = monad
        self.carrier = carrier
        self.kind = monad.kind
        self._coded = coded
        self._validate()
        if not monotone and not carrier.is_trivially_ordered():
            bad = _walk_rows(self, carrier._rows)
            if bad:
                raise ValueError(f"{bad[0]} not monotone at {bad[1]!r} vs {bad[2]!r}")

    @functools.cached_property
    def _memo(self) -> dict:
        """What the library derives from this algebra and an ordered tuple of
        its elements alone, keyed by (function, arguments...): see
        ``_per_algebra``.  It lives as long as the algebra, and the copy
        that ``quotient_algebra`` makes under another order starts empty."""
        return {}

    @functools.cached_property
    def tables(self):
        """The label view, one read-only mapping per op of ``_OPS``, decoded
        from the integer tables place by place."""
        elems, n = self.carrier._by_index, len(self.carrier)
        tables: dict = {op: {} for op in _OPS}
        for place, table in self._coded.items():
            if place[1:] == (2, ()):  # a binary op, decoded inline
                tables[place[0]].update({(elems[c % n], elems[c // n]): elems[v] for c, v in table.items()})
            else:
                tables[place[0]].update({_labels(elems, place, c): elems[v] for c, v in table.items()})
        return MappingProxyType({op: MappingProxyType(t) for op, t in tables.items()})

    mult = property(lambda self: self.tables["mult"])
    dot = property(lambda self: self.tables["dot"])
    mix = property(lambda self: self.tables["mix"])

    @functools.cached_property
    def omega(self):
        return MappingProxyType({a: v for (a,), v in self.tables["omega"].items()})

    @functools.cached_property
    def comp(self):
        return MappingProxyType({(k[0], k[1:]): v for k, v in self.tables["comp"].items()})

    # -- validation ----------------------------------------------------------

    def _validate(self):
        """Every op of the monad's signature is total on its argument sorts
        and lands in its result sort, except an op that has nowhere to land
        (a sort restriction emptied every result sort it has, as it empties
        the infinite sort of an omega algebra); every other entry fits a
        shape too (a comp entry with a bare slot).  A shape's keys are the
        codes of a box of sort runs, read in one pass."""
        A, coded = self.carrier, self._coded
        elems, n, signature = A._by_index, len(A), self.monad.signature
        sort_at = [A._sort_of[e] for e in elems]
        live = {op for op, _, result in signature if A.elements(result)}
        found = dict.fromkeys(coded, 0)  # entries at argument tuples of elements
        for op, arg_sorts, result in signature:
            place, codes = (op, len(arg_sorts), ()), [0]
            for i, s in enumerate(arg_sorts):
                digits = [A._index[e] * n**i for e in A.elements(s)]
                codes = [c + d for c in codes for d in digits]
            values = list(map(coded.get(place, {}).get, codes))
            if None in values and op in live:
                args = _labels(elems, place, codes[values.index(None)])
                raise ValueError(f"{op} not total at {args!r}")
            if all(sort_at[v] == result for v in set(values) - {None}):
                found[place] = found.get(place, 0) + len(values) - values.count(None)
        # a table with entries left over holds bare comp slots, values of the
        # wrong sort or entries that fit no shape: check each of its entries
        shapes = {(op, args): result for op, args, result in signature}
        for place, table in coded.items():
            op, _, bare = place
            for code, v in table.items() if len(table) > found[place] else ():
                args = _labels(elems, place, code)
                sorts = [1 if i in bare else A._sort_of[a] for i, a in enumerate(args)]
                result = shapes.get((op, tuple(sorts)))
                if result is None:
                    raise ValueError(f"{op} entry at {args!r} fits no operation")
                if sort_at[v] != result:
                    raise ValueError(f"{op} value {elems[v]!r} at {args!r} is not of sort {result}")

    # -- shallow application ---------------------------------------------------

    def comp_value(self, a, slots: tuple):
        """Value of the shallow tree a(slot_1,...,slot_n), in labels; VAR
        slots pass a variable through.  The all-variable pattern is the unit
        law (``_apply``)."""
        index = self.carrier._index
        args = [VAR if b is VAR else index[b] for b in (a, *slots)]
        return self.carrier._by_index[_apply(self, "comp", tuple(args))]

    def elements(self, sort: Sort):
        return self.carrier.elements(sort)

    def __repr__(self):
        return f"FinAlgebra({self.kind}, {len(self.carrier)} elements)"


def _per_algebra(fn):
    """``fn(alg, *args)``, memoised on ``alg`` (``FinAlgebra._memo``) by
    ``fn`` and the hashable ``args``, for a result that depends on nothing
    else.  Callers share the result and must not mutate it.  The memo sits
    inside the function, so replacing a module's function replaces its
    memo too."""

    @functools.wraps(fn)
    def memoised(alg: FinAlgebra, *args):
        memo, key = alg._memo, (fn, *args)
        if key not in memo:
            memo[key] = fn(alg, *args)
        return memo[key]

    return memoised


# -- the table view -------------------------------------------------------------
#
# An algebra's data is one table of shallow entries per op of the monad's
# signature.  In labels, an entry is (op, args, value) with a flat argument
# tuple, and ``alg.tables[op]`` is keyed by ``args``:
#
#   ("mult", (a, b))   ("dot", (a, b))   ("mix", (a, e))   ("omega", (a,))
#   ("comp", (head, slot_1, ..., slot_n)), VAR standing for a bare slot
#
# The storage is the same entries over the carrier's n element indices:
# arguments d_0, ..., d_(m-1) have the code d_0 + d_1 n + ... + d_(m-1)
# n^(m-1), a bare slot counting as 0, and ``alg._coded[(op, m, bare)]``
# (a place) maps the code of each entry with bare slots at the positions
# ``bare`` to its value's index.  The places come op by op in ``_OPS``
# order, each where its first entry was written, and every reader visits
# them in that order and each place's entries in its table's own order.
# ``_encode`` is the one place where labels become codes; ``_labels``
# decodes them.

_OPS = ("mult", "dot", "mix", "omega", "comp")


def _places(alg: FinAlgebra) -> list:
    """The places of the entries, (op, number of arguments, positions of
    the bare slots), sorted.  An all-bare pattern is the unit law, which
    gives nothing new, and is left out."""
    return sorted(p for p in alg._coded if not p[2] or len(p[2]) < p[1] - 1)


def _encode(carrier: SortedOrderedSet, tables: dict) -> dict:
    """The integer tables (``FinAlgebra._coded``) of the label ``tables``
    (op -> flat argument tuple -> value) over ``carrier``'s numbering; an
    argument or value outside the carrier raises ValueError.

    The entries of an op are split into places, by argument count and,
    for comp, by the positions of the bare slots; the places come in the
    order of their first entries.  Each place is then coded by one dict
    comprehension over its entries in table order, a binary place with
    two index lookups an entry.  Only when a lookup fails are the entries
    read one by one, in the same order, to name the first bad one."""
    index, n = carrier._index, len(carrier)
    places: dict = {}  # place -> its entries, in table order
    coded: dict = {}
    try:
        for op, table in tables.items():
            if op == "comp":
                for args, value in table.items():
                    bare = tuple([i for i, a in enumerate(args) if i and a is VAR])
                    places.setdefault((op, len(args), bare), []).append((args, value))
                continue
            lengths = dict.fromkeys(map(len, table))
            for m in lengths:
                places[(op, m, ())] = (
                    table.items() if len(lengths) == 1 else [e for e in table.items() if len(e[0]) == m]
                )
        for place, entries in places.items():
            if place[1:] == (2, ()):  # a binary op, coded inline
                coded[place] = {index[a] + index[b] * n: index[v] for (a, b), v in entries}
                continue
            weights = [n**i for i in range(place[1]) if i not in place[2]]
            shown = [i not in place[2] for i in range(place[1])]
            coded[place] = {
                sum(map(operator.mul, map(index.__getitem__, itertools.compress(args, shown)), weights)): index[v]
                for args, v in entries
            }
    except (KeyError, TypeError):
        _name_bad_entry(index, tables)
        raise
    return coded


def _name_bad_entry(index: dict, tables: dict) -> None:
    """Raise ValueError at the first entry of ``tables``, op by op in table
    order, with an argument or a value outside ``index``; an argument
    first, on a bare comp slot never."""
    for op, table in tables.items():
        for args, value in table.items():
            for i, a in enumerate(args):
                if not (op == "comp" and i and a is VAR) and a not in index:
                    raise ValueError(f"{op} entry at {args!r} fits no operation")
            if value not in index:
                raise ValueError(f"{op} value {value!r} at {args!r} is not an element")


def _labels(elems: list, place: tuple, code: int) -> tuple:
    """The flat argument tuple, in labels, of the entry at ``code`` in the
    table of ``place``; VAR at a bare slot.  (``elems`` may be any list
    over the numbering: a map to another carrier's indices relabels.)"""
    n = len(elems)
    return tuple([VAR if i in place[2] else elems[code // n**i % n] for i in range(place[1])])


def _comp_term(args: tuple, sorts: tuple) -> Tree:
    """head(slot_1, ..., slot_n): each slot a node over fresh variables, as
    many as its sort, or a bare variable where it is VAR."""
    children, off = [], 0
    for x, k in zip(args[1:], sorts[1:]):
        if x is VAR:
            children.append(Var(off))
            off += 1
        else:
            children.append(Node(x, tuple(Var(off + j) for j in range(k))))
            off += k
    return Tree(Node(args[0], tuple(children)), off)


#: For each op, its shallow term: the free element op(x1, ..., xn) over the
#: labels ``args`` of sorts ``sorts``.  Every term the package builds is one
#: of these or comes from one through the monad's ``sing``, ``map`` and
#: ``flat``: closure witnesses, one-step contexts, composed contexts.
_TERM = {
    "mult": lambda args, sorts: Word(args),
    "dot": lambda args, sorts: Word(args),
    "omega": lambda args, sorts: UPWord((), args),
    "mix": lambda args, sorts: MixedWord(args[:1], args[1]),
    "comp": _comp_term,
}


def _build(monad: Monad, carrier: SortedOrderedSet, coded: dict, monotone=False):
    """The algebra on ``carrier`` with the integer tables ``coded``, their
    places in ``_OPS`` order; tables known to be ``monotone`` skip the
    monotonicity walk."""
    alg = FinAlgebra.__new__(FinAlgebra)
    alg._init(monad, carrier, coded, monotone)
    return alg


def _mapped(alg: FinAlgebra, f: list, size: int) -> dict:
    """``alg``'s integer tables carried along ``f`` (element index -> index
    over a carrier of ``size`` elements, or None): an entry that mentions an
    index with no image is left out, and where two entries meet the first
    keeps its place.  A binary place without bare slots is carried by one
    comprehension; the others read their codes digit by digit."""
    n, out = len(alg.carrier), {}
    for place, table in alg._coded.items():
        if place[1:] == (2, ()):
            mapped = {
                x + y * size: b
                for c, v in table.items()
                if (x := f[c % n]) is not None and (y := f[c // n]) is not None and (b := f[v]) is not None
            }
        else:
            mapped = {}
            opened = [(n**i, size**i) for i in range(place[1]) if i not in place[2]]
            for code, v in table.items():
                new = 0
                for w, s in opened:
                    d = f[code // w % n]
                    if d is None:
                        break
                    new += d * s
                else:
                    if f[v] is not None:
                        mapped[new] = f[v]
        if mapped:
            out[place] = mapped
    return out


def _walk_rows(alg: FinAlgebra, up: list) -> Optional[tuple]:
    """A witness (op, args, args2) that the reflexive, transitive relation
    with up-set rows ``up`` (row i: the bitmask of what element i is
    related to, over the carrier's numbering) is not compatible with the
    tables, or None.

    Compatible means: two entries of one op whose arguments are related
    position by position (a bare slot matching only a bare slot) have
    related values.  Under a discrete relation there are none.

    The walk has two steps, and both raise each argument x of an entry
    without a bare slot, one at a time, to each element of ``above[x]``
    (every element other than x above x).  Where every intermediate tuple
    has an entry this is the same test as over the whole product of the
    up-sets: the values along a chain of one-argument raises are related
    step by step (ab <= a'b <= a'b'), and transitivity relates the ends.
    The intermediate entries exist for the total word and omega tables,
    and for tree entries without a bare slot, whose raised keys are
    required too.  Entries with a bare slot are optional, so they keep the
    walk over the whole product of up-sets.  The first step only asks
    whether there is a violation, on whole table fibres (``_violated``);
    the second, run only when there is, searches place by place in entry
    order, then position, then index order (``_first_violation``), so the
    witness, returned in labels, is the first one over all related pairs."""
    if all(row == 1 << i for i, row in enumerate(up)):
        return None
    above = [_members(u & ~(1 << i)) for i, u in enumerate(up)]
    if not _violated(alg, up, above):
        return None
    return _first_violation(alg, up, above)


def _violated(alg: FinAlgebra, up: list, above: list) -> bool:
    """Whether ``_first_violation(alg, up, above)`` finds a witness.

    Over each argument position of each shape of the monad's signature
    that has entries, the entries with element x there form x's fibre
    (``_fibres``).  Raising x to y is violated there iff some entry of y's
    fibre is not related to the entry of x's fibre with the same other
    arguments: iff the one-hot code of y's fibre has a bit outside x's
    fibre read through the up-set rows, block by block.  One big-integer
    test covers every y in ``above[x]``.  The entries with a bare slot are
    compared with the whole product of the up-sets, one by one."""
    n = len(up)
    rows = [u.to_bytes((n + 7) // 8, "little") for u in up]
    for run, fibres in _fibres(alg):
        for x, (values, _) in zip(run, fibres):
            if above[x]:
                raised = 0
                for y in above[x]:
                    raised |= fibres[y - run.start][1]
                if raised & ~_joined(rows, values):
                    return True
    for (op, m, bare), table in alg._coded.items():
        if bare and any(
            value2 is not None and not up[v] >> value2 & 1
            for code, v in table.items()
            for _, value2 in _raised_bare(table, m, bare, n, code, above)
        ):
            return True
    return False


@_per_algebra
def _fibres(alg: FinAlgebra) -> list:
    """For each argument position i of each shape of the monad's signature
    that has entries, the indices of the position's sort (``_sort_runs``)
    and, for each of them in order, its fibre: the value indices of the
    entries with it at position i, the other arguments in
    ``itertools.product`` order (one row of the transposed ``_columns``),
    and their one-hot code, one block of ⌈n/8⌉ bytes per entry with the
    bit of its value set.  Memoised on the algebra (``_per_algebra``), so
    the walks of every relation on one algebra share them."""
    n, runs = len(alg.carrier), _sort_runs(alg.carrier)
    blocks = [(1 << v).to_bytes((n + 7) // 8, "little") for v in range(n)]
    out = []
    for op, sorts, result in alg.monad.signature:
        if result in runs:  # an op with nowhere to land has no entries
            pools = [runs.get(s, ()) for s in sorts]
            for i, pool in enumerate(pools):
                columns = _columns(alg, op, sorts, i, pools)
                out.append((pool, [(values, _joined(blocks, values)) for values in zip(*columns)]))
    return out


def _joined(blocks: list, values) -> int:
    """The blocks of ``values`` (bytes per element index), in order, read
    as one little-endian integer."""
    return int.from_bytes(b"".join(map(blocks.__getitem__, values)), "little")


def _raised_bare(table: dict, m: int, bare: tuple, n: int, code: int, above: list):
    """The argument codes and values of the entries of ``table`` (entries
    of ``m`` arguments with bare slots at ``bare``) whose arguments are
    related to those of the entry at ``code``, other than that entry: over
    the whole product of the up-sets (``above[x]``: the elements other than
    x above x), in product order.  The value is None where there is no
    entry; an all-bare pattern is the unit law, whose value is its head."""
    opened = [n**i for i in range(m) if i not in bare]
    tuples = itertools.product(*([x] + above[x] for x in (code // w % n for w in opened)))
    next(tuples)  # the entry itself
    for ys in tuples:
        code2 = sum(map(int.__mul__, ys, opened))
        yield code2, (ys[0] if len(ys) == 1 else table.get(code2))


def _first_violation(alg: FinAlgebra, up: list, above: list) -> Optional[tuple]:
    """The first witness of ``_walk_rows``, over the places in their stored
    order and each place's entries in its table's order: raising one
    argument x of an entry without a bare slot at a time to each element
    of ``above[x]``, and the arguments of an entry with one over the whole
    product of the up-sets (``_raised_bare``); bare slots stay bare."""
    elems, n = alg.carrier._by_index, len(alg.carrier)
    for place, table in alg._coded.items():
        op, m, bare = place
        get, weights = table.get, [n**i for i in range(m)]
        for code, v in table.items():
            related = up[v]
            if bare:
                for code2, value2 in _raised_bare(table, m, bare, n, code, above):
                    if value2 is not None and not related >> value2 & 1:
                        return op, _labels(elems, place, code), _labels(elems, place, code2)
                continue
            for w in weights:
                x = code // w % n
                for y in above[x]:
                    code2 = code + (y - x) * w
                    value2 = get(code2)
                    if value2 is not None and not related >> value2 & 1:
                        return op, _labels(elems, place, code), _labels(elems, place, code2)
    return None


# -- factories ----------------------------------------------------------------


def word_algebra(carrier: SortedOrderedSet, mult: dict) -> FinAlgebra:
    return FinAlgebra(WordMonad(), carrier, mult=mult)


def wilke_algebra(carrier: SortedOrderedSet, dot: dict, mix: dict, omega: dict) -> FinAlgebra:
    """A two-sorted algebra from Wilke data, rejected at its first failed
    axiom (``_axiom_violations``): associativity of dot, mix as an action,
    mix(s, omega(dot(t,s))) = omega(dot(s,t)) and omega(s^k) = omega(s).
    """
    alg = FinAlgebra(OmegaMonad(), carrier, dot=dot, mix=mix, omega=omega)
    bad = next(_axiom_violations(alg), None)
    if bad:
        raise ValueError(f"Wilke coherence violated: {bad}")
    return alg


def tree_algebra(monad: TreeMonad, carrier: SortedOrderedSet, comp: dict) -> FinAlgebra:
    return FinAlgebra(monad, carrier, comp=comp)


def one_element_algebra(monad: Monad) -> FinAlgebra:
    """The terminal algebra: one element per sort, the unit of the sort, and
    every op of the signature sends units to the unit of its result sort."""
    carrier = SortedOrderedSet({s: [("unit", s)] for s in monad.sorts})
    unit = {s: i for i, s in enumerate(carrier.sorts)}  # each unit's index
    n, coded = len(carrier), {}
    for op, args, result in sorted(monad.signature, key=lambda shape: _OPS.index(shape[0])):
        code = sum(unit[s] * n**i for i, s in enumerate(args))
        coded.setdefault((op, len(args), ()), {})[code] = unit[result]
    return _build(monad, carrier, coded)


def _word_algebra_of_cayley(carrier: SortedOrderedSet, right: list, found: list) -> FinAlgebra:
    """The word algebra on ``carrier`` from its right Cayley graph, with the
    table filled column by column after Froidure and Pin (1997).  Elements
    0..g-1 are the generators, ``right[s][h]`` is the index of s.(generator
    h), and ``found[t]`` is (u, h, True) for t = u.h, (u, h, False) for
    t = h.u, or None for a generator.  Each entry is one lookup: for
    t = u.h, s.t is (s.u).h, read in the right Cayley graph; for t = h.u,
    s.t is (s.h).u, read in the earlier column of u."""
    columns: list = []  # columns[t][s]: the index of s.t
    for t, how in enumerate(found):
        if how is None:
            columns.append([row[t] for row in right])
            continue
        u, h, on_right = how
        column = columns[u]
        if on_right:
            columns.append([right[su][h] for su in column])
        else:
            columns.append([column[row[h]] for row in right])
    n = len(carrier)
    mult = {s + t * n: column[s] for s in range(n) for t, column in enumerate(columns)}
    return _build(WordMonad(), carrier, {("mult", 2, ()): mult})


# -- evaluation ----------------------------------------------------------------


@_per_algebra
def _evaluator(alg: FinAlgebra) -> tuple:
    """What evaluation reads on ``alg``, set up once: the sort of each
    element index, and for the argument sorts of each binary op
    (``Monad.binary``) its integer table's ``get`` and its result sort."""
    A = alg.carrier
    steps = {sorts: (_table(alg, op, 2).get, r) for sorts, (op, r) in alg.monad.binary.items()}
    return [A._sort_of[e] for e in A._by_index], steps


def _decoded(alg: FinAlgebra, args: tuple) -> tuple:
    """The element indices ``args`` in labels; a bare slot stays VAR."""
    elems = alg.carrier._by_index
    return tuple([VAR if a is VAR else elems[a] for a in args])


def _apply(alg: FinAlgebra, op: str, args: tuple) -> int:
    """``op``'s entry at the flat argument tuple ``args`` of element indices
    (VAR at a bare slot); MissingTableEntry where there is none.  A comp
    pattern whose slots are all bare is the unit law a(x0, .., x{n-1}) = a."""
    n, code, w, bare = len(alg.carrier._by_index), 0, 1, ()
    for i, a in enumerate(args):
        if a is VAR:
            bare += (i,)
        else:
            code += a * w
        w *= n
    if op == "comp" and len(bare) == len(args) - 1:
        return args[0]
    value = alg._coded.get((op, len(args), bare), {}).get(code)
    if value is None:
        head, *slots = labels = _decoded(alg, args)
        if op == "comp":
            raise MissingTableEntry(f"no composition entry for head {head!r} with slots {tuple(slots)!r}")
        raise MissingTableEntry(f"no {op} entry at {labels!r}")
    return value


def _fold(alg: FinAlgebra, values: list) -> int:
    """The element indices ``values`` multiplied left to right, each step by
    the op of the signature that takes the sorts of its two arguments:
    mult, dot or mix (and, for terms over trees, unary composition).  A
    binary op lands in one of its argument sorts, so ``_validate`` has
    made it total: each step is one table read."""
    sort_at, steps = _evaluator(alg)
    n, acc, acc_sort = len(sort_at), values[0], sort_at[values[0]]
    for v in values[1:]:
        step = steps.get((acc_sort, sort_at[v]))
        if step is None:
            raise SortMismatch(f"no binary operation takes sorts {(acc_sort, sort_at[v])}")
        get, acc_sort = step
        acc = get(acc + v * n)
    return acc


def eval_element(alg: FinAlgebra, beta, t) -> Elem:
    """The unique extension of the label assignment ``beta`` applied to ``t``.

    ``beta`` maps labels of ``t`` to carrier elements (dict or callable);
    each value must have the sort of its label's position.  Over their
    indices, a sequence folds by ``_fold``, an omega period is closed by
    ``omega`` first, and a tree evaluates by recursion through comp.

    A tree's variables x0..x{sort-1} must occur exactly once each, in
    increasing order across the leaves.  Shallow tables do not determine
    the value of permuted or partial variable patterns (those are
    independent data in the full container), so such trees are rejected.
    """
    get = beta.__getitem__ if isinstance(beta, dict) else beta
    index, sort_of, elems = alg.carrier._index, alg.carrier._sort_of, alg.carrier._by_index
    alg.monad.element_sort(t)  # a shape of another instance is rejected here
    values = []
    for a, s in alg.monad.labels(t):
        v = get(a)
        if sort_of[v] != s:
            raise SortMismatch(f"label {a!r} maps to {v!r} of sort {sort_of[v]}, not {s}")
        values.append(index[v])
    if isinstance(t, Tree):
        order = list(_tree_vars(t.root))
        if order != list(range(t.sort)):
            raise SortMismatch(
                f"tree variables {order} are not x0..x{t.sort - 1} in order; "
                "the value of such a tree is not determined by shallow tables"
            )
        next_value = iter(values).__next__  # labels come depth first

        def ev(n):
            if n.__class__ is Var:
                return VAR
            v = next_value()
            return _apply(alg, "comp", (v, *[ev(c) for c in n.children]))

        return elems[ev(t.root)]
    if isinstance(t, UPWord):
        n = len(t.prefix)
        values[n:] = [_apply(alg, "omega", (_fold(alg, values[n:]),))]
    return elems[_fold(alg, values)]


def eval_upword(alg: FinAlgebra, u: Iterable, v: Iterable, beta) -> Elem:
    """Value of u.v^w in a Wilke-style algebra (u may be empty).

    Evaluates the raw pair as given; coherent algebras give the same value
    for every representation of the same omega-word.
    """
    u, v = tuple(u), tuple(v)
    if not v:
        raise ValueError("period must be nonempty")
    return eval_element(alg, beta, _raw_up(u, v))


def _raw_up(u: tuple, v: tuple):
    """An unnormalised u.v^w wrapper: evaluation must not depend on the
    representation, so tests feed raw pairs through here."""
    w = UPWord.__new__(UPWord)
    object.__setattr__(w, "prefix", tuple(u))
    object.__setattr__(w, "period", tuple(v))
    return w


# -- morphisms ------------------------------------------------------------------


@dataclass
class Morphism:
    source: FinAlgebra
    target: FinAlgebra
    fn: SortedFunction

    def __call__(self, x):
        return self.fn(x)

    def is_surjective(self) -> bool:
        return self.fn.is_surjective()


def is_morphism(phi, A: FinAlgebra, B: FinAlgebra) -> bool:
    """Whether phi (a mapping or SortedFunction) is a total, sort-preserving
    and monotone map from A's carrier to B's that commutes with every
    shallow product entry.  A SortedFunction between exactly these carriers
    has been checked as a map already."""
    if isinstance(phi, Morphism):
        phi = phi.fn
    if not isinstance(phi, SortedFunction) or (phi.dom, phi.cod) != (A.carrier, B.carrier):
        try:
            phi = SortedFunction(A.carrier, B.carrier, getattr(phi, "mapping", phi))
        except ValueError:
            return False
    if A.kind != B.kind:
        return False
    # over element indices: an optional slot entry absent in the target
    # cannot refute, and an all-bare pattern is the unit law (``_apply``)
    f = phi._image
    nA, nB = len(A.carrier), len(B.carrier)
    for (op, m, bare), table in A._coded.items():
        opened = [(nA**i, nB**i) for i in range(m) if i not in bare]
        target = B._coded.get((op, m, bare), {}).get
        for code, v in table.items():
            code2 = sum([f[code // w % nA] * s for w, s in opened])
            value2 = code2 if bare and len(opened) == 1 else target(code2)
            if value2 is not None and f[v] != value2:
                return False
    return True


def morphism(A: FinAlgebra, B: FinAlgebra, mapping: dict) -> Morphism:
    fn = SortedFunction(A.carrier, B.carrier, mapping)
    if not is_morphism(fn, A, B):
        raise ValueError("mapping does not commute with the products")
    return Morphism(A, B, fn)


# -- products and subalgebras ----------------------------------------------------


def product(algs: list[FinAlgebra], monad: Optional[Monad] = None) -> FinAlgebra:
    """Componentwise product; the empty product is the one-element algebra."""
    if not algs:
        if monad is None:
            raise ValueError("empty product needs an explicit monad")
        return one_element_algebra(monad)
    if any(a.kind != algs[0].kind for a in algs):
        raise ValueError("product components must share the instance")
    sorts = sorted(set(s for a in algs for s in a.carrier.sorts))
    return tuple_algebra(
        algs,
        [t for s in sorts for t in itertools.product(*(a.elements(s) for a in algs))],
    )


@dataclass
class GeneratedSubalgebra:
    algebra: FinAlgebra
    witnesses: dict  # element -> free element over the generator labels


def _closure(alg: FinAlgebra, start: dict) -> dict:
    """Close a set of (element -> witness free element) under the table
    entries, recording a witness for every new element: the least fixpoint,
    the same for every instance.  Sweeps the integer tables place by place
    in entry order until a sweep adds nothing or every element has a witness,
    keeping the witnesses in a list over the carrier's numbering.  An entry
    whose arguments all have witnesses gives its value, if that has none
    yet, ``flat`` of the op's shallow term over them.  A bare tree slot
    needs no witness and stays a bare variable of sort 1.  The result
    lists ``start`` first, then each new element as it was found."""
    A, monad = alg.carrier, alg.monad
    elems, n = A._by_index, len(A)
    wit: list = [None] * n
    for e, w in start.items():
        wit[A._index[e]] = w
    found: list = []  # the indices of the new elements, in order
    missing = n - len(start)
    changed = True
    while changed and missing:
        changed = False
        for (op, m, bare), table in alg._coded.items():
            term, weights = _TERM[op], [n**i for i in range(m)]
            for code, r in table.items():
                if wit[r] is not None:
                    continue
                xs = [VAR if i in bare else code // w % n for i, w in enumerate(weights)]
                if any(x is not VAR and wit[x] is None for x in xs):
                    continue
                labels = tuple([VAR if x is VAR else wit[x] for x in xs])
                sorts = tuple([1 if x is VAR else A._sort_of[elems[x]] for x in xs])
                wit[r] = monad.flat(term(labels, sorts))
                found.append(r)
                missing -= 1
                changed = True
    out = dict(start)
    out.update((elems[r], wit[r]) for r in found)
    return out


def subalgebra_generated(alg: FinAlgebra, gens: Iterable[Elem]) -> GeneratedSubalgebra:
    """Least product-closed subset containing ``gens``, with the inherited
    order and restricted tables; each element's witness is a free element
    over the generators themselves that evaluates to it (see ``_closure``,
    which sweeps the integer tables and so decodes no label view).

    The closure is memoised on ``alg`` by the tuple of ``gens``
    (``_per_algebra``): a repeated call shares the subalgebra, and so what
    is memoised on that, and gets its own copy of the witnesses."""
    sub, wit = _generated(alg, tuple(gens))
    return GeneratedSubalgebra(alg if sub is None else sub, dict(wit))


@_per_algebra
def _generated(alg: FinAlgebra, gens: tuple) -> tuple:
    """The subalgebra that ``gens`` generate, None when it is ``alg`` itself
    (so that the memo holds no reference back to ``alg`` and the algebra is
    freed as soon as it is dropped), and the witnesses."""
    monad = alg.monad
    start = {}
    for g in gens:
        if g not in alg.carrier:
            raise ValueError(f"generator {g!r} not in carrier")
        sort = alg.carrier.sort_of(g)
        if g not in start:
            start[g] = monad.sing(g, sort)
    wit = _closure(alg, start)
    sub = _restrict(alg, set(wit), monad)
    return (None if sub is alg else sub), wit


def _restrict(alg: FinAlgebra, keep: set, monad: Monad) -> FinAlgebra:
    """The elements in ``keep`` with the inherited order, and the entries
    that mention only them, as an algebra over ``monad``; ``alg`` itself
    when that keeps the whole carrier over ``alg``'s own monad."""
    A = alg.carrier
    if monad is alg.monad and keep.issuperset(A):
        return alg
    elems = {s: [e for e in A.elements(s) if e in keep] for s in A.sorts}
    kept = [i for i, e in enumerate(A) if e in keep]
    C = SortedOrderedSet._from_rows(elems, _restricted_rows(A._rows, kept))
    return _build(monad, C, _mapped(alg, list(map(C._index.get, A)), len(C)))


def _index_closure(algs: list[FinAlgebra], places: list):
    """The product-closure kernel, over element indices: a generator
    function ``grow(seeds, closed=())`` that takes seed tuples of indices in
    the components' numberings and yields the tuples of the subalgebra of
    the product that they generate, each once as it is found, the seeds
    first, so a caller may stop as soon as it has seen enough.  ``closed``,
    an already closed list of tuples, is taken as found and not yielded
    again: the closure grows on from it.

    The ops are ``places`` (as ``_places`` lists them); a bare slot holds
    VAR in every component, and a tuple arises only where every component
    has the entry.  Each round evaluates the argument tuples that hold a
    tuple found in the round before, once each: at the first such position
    j, with tuples known before the round before j and any known tuple
    after it (``_product_entry``).  Nothing is kept between closures."""
    shapes = []  # (the product's entry at one place, its pools at each j)
    for place in places:
        tables = [a._coded.get(place) for a in algs]
        if None not in tables:
            opened, layouts = _layouts(place)
            shapes.append((_product_entry(algs, tables, opened), layouts))

    def grow(seeds, closed=()):
        known = list(closed)
        seen = set(known)
        before = len(known)  # known[:before] was known before the round
        for t in seeds:
            if t not in seen:
                seen.add(t)
                known.append(t)
                yield t
        while before < len(known):
            after = len(known)
            pools = (known[:before], known[before:], known[:after])
            for entry, layouts in shapes:
                for layout in layouts:
                    columns = [pools[i] for i in layout]
                    if not all(columns):
                        continue
                    for t in map(entry, itertools.product(*columns)):
                        if t not in seen and None not in t:  # None: no entry
                            seen.add(t)
                            known.append(t)
                            yield t
            before = after

    return grow


@functools.lru_cache(maxsize=256)
def _layouts(place: tuple) -> tuple:
    """The open (not bare) positions of a place, and the pool each of them
    draws from when the first tuple new in the round sits at open position
    j: 0, the tuples known before the round, before j; 1, the new ones, at
    j; 2, every known tuple, after j."""
    _, m, bare = place
    opened = tuple(p for p in range(m) if p not in bare)
    r = len(opened)
    return opened, tuple((0,) * j + (1,) + (2,) * (r - 1 - j) for j in range(r))


def _product_entry(algs: list, tables: list, opened: tuple):
    """The product's entry at one place, as a function of the argument
    tuples at its open positions ``opened``: the tuple of the components'
    values, with None for a component that has no entry.  Component c
    reads its index in each argument, scales it by the argument's position
    in its own argument code, and looks the sum up in ``tables[c]``."""
    parts = [
        (c, table.get, [len(a.carrier) ** p for p in opened])
        for c, (a, table) in enumerate(zip(algs, tables))
    ]

    def entry(args: tuple) -> tuple:
        value = []
        for c, get, scales in parts:
            code = 0
            for t, s in zip(args, scales):
                code += t[c] * s
            value.append(get(code))
        return tuple(value)

    return entry


def _table(alg: FinAlgebra, op: str, arity: int) -> dict:
    """``op``'s integer table at ``arity`` arguments with no bare slot: the
    code of each argument tuple of indices (see "the table view") -> the
    index of its value, in the order of those entries; empty where
    there are none.  Callers read it and must not mutate it."""
    return alg._coded.get((op, arity, ()), {})


def _sort_runs(carrier: SortedOrderedSet) -> dict:
    """Each nonempty sort's element indices, one run of the numbering."""
    index, elements = carrier._index, carrier.elements
    return {s: range(index[es[0]], index[es[0]] + len(es)) for s in carrier.sorts if (es := elements(s))}


def _columns(alg: FinAlgebra, op: str, sorts: tuple, i: int, pools: list):
    """The columns of ``op``'s shape with argument sorts ``sorts`` along
    position i: for each choice of the other arguments from ``pools``
    (lists of element indices), in ``itertools.product`` order, the value
    indices at the elements of ``pools[i]``, None where there is no entry.
    The syntactic steps read them as they are, the compatibility walk
    transposed, one fibre per element (``_fibres``)."""
    n = len(alg.carrier)
    get = _table(alg, op, len(sorts)).get
    bases = [0]  # the argument codes of the other arguments, 0 at position i
    for j, pool in enumerate(pools):
        if j != i:
            bases = [c + d * n**j for c in bases for d in pool]
    hole = [x * n**i for x in pools[i]]  # position i's place in an argument code
    return [[get(base + x) for x in hole] for base in bases]


def _grow_tuples(algs: list[FinAlgebra], seeds: Iterable[tuple]):
    """The tuples of the subalgebra of the product generated by the seed
    tuples, in labels, each yielded once as it is found, the seeds first
    (``_index_closure``, over the first component's places)."""
    seeds = list(map(tuple, seeds))
    if set(map(len, seeds)) - {len(algs)}:
        raise ValueError("seed arity does not match the component count")
    indices = [a.carrier._index for a in algs]
    elems = [a.carrier._by_index for a in algs]
    try:
        seeds = [tuple(map(dict.__getitem__, indices, t)) for t in seeds]
    except KeyError as exc:
        raise ValueError(f"seed component {exc.args[0]!r} is not in its carrier") from None
    grow = _index_closure(algs, _places(algs[0]))
    for t in grow(seeds):
        yield tuple(map(list.__getitem__, elems, t))


def generated_tuples(algs: list[FinAlgebra], seeds: Iterable[tuple]) -> set:
    """Carrier of the subalgebra of the product generated by the seed tuples
    (see ``_grow_tuples``)."""
    return set(_grow_tuples(algs, seeds))


def _closure_map(algs: list[FinAlgebra], seeds: Iterable[tuple]) -> tuple[dict, list]:
    """The closure of the seeds (``_grow_tuples``) read as a map: the tuple
    of the first components of each tuple to the last component of the
    first tuple found with them; and each key a later tuple maps elsewhere."""
    mapping, clashes = {}, []
    for t in _grow_tuples(algs, seeds):
        if mapping.setdefault(t[:-1], t[-1]) != t[-1]:
            clashes.append(t[:-1])
    return mapping, clashes


def tuple_algebra(algs: list[FinAlgebra], tuples: Iterable[tuple]) -> FinAlgebra:
    """The subalgebra of the product of ``algs`` on an already product-closed
    set of tuples, with componentwise order and tables: each entry of the
    first component, place by place in its stored order, is read at the
    argument tuples whose first components are its arguments
    (``_product_entry``), and kept where its value is one of the tuples."""
    A0 = algs[0].carrier
    # the tuples in the product's numbering: by sort, in their order within each
    ts = sorted(dict.fromkeys(tuple(t) for t in tuples), key=lambda t: A0.sort_of(t[0]))
    sorts = sorted(set(s for a in algs for s in a.carrier.sorts) | {A0.sort_of(t[0]) for t in ts})
    elems = {s: [t for t in ts if A0.sort_of(t[0]) == s] for s in sorts}
    indices = [a.carrier._index for a in algs]  # each tuple over the components' numberings
    number = {tuple(map(dict.__getitem__, indices, t)): p for p, t in enumerate(ts)}
    rows = [-1] * len(number)  # the AND over the components of the tuples above in each
    for k, a in enumerate(algs):
        holders = [0] * len(a.carrier)  # element -> the tuples with it at k
        for t, p in number.items():
            holders[t[k]] |= 1 << p
        above = [sum(map(holders.__getitem__, _members(row))) for row in a.carrier._rows]
        rows = [row & above[t[k]] for row, t in zip(rows, number)]
    carrier = SortedOrderedSet._from_rows(elems, rows, max_size=max([64, *map(len, elems.values())]))
    by_first: dict = {}
    for t in number:
        by_first.setdefault(t[0], []).append(t)
    n0, n, coded = len(A0), len(carrier), {}
    for place, table in algs[0]._coded.items():
        tables = [a._coded.get(place) for a in algs]
        if None in tables:
            continue
        opened, _ = _layouts(place)
        if place[2] and len(opened) == 1:  # all bare: the unit law, a(x0, ..) = a
            entry = operator.itemgetter(0)
        else:
            entry = _product_entry(algs, tables, opened)
        weights = [n0**p for p in opened]
        pools = ([by_first.get(code // w % n0, ()) for w in weights] for code in table)
        args = [t for columns in pools for t in itertools.product(*columns)]
        codes = [0] * len(args)  # the product's argument codes
        for p, s in enumerate(n**i for i in opened):
            codes = [c + number[t[p]] * s for c, t in zip(codes, args)]
        out = {c: v for c, v in zip(codes, map(number.get, map(entry, args))) if v is not None}
        if out:
            coded[place] = out
    return _build(algs[0].monad, carrier, coded)


def restrict_sorts(alg: FinAlgebra, delta: Iterable[Sort]) -> FinAlgebra:
    """Keep only the elements whose sort lies in ``delta``, and the entries
    that mention only them, over the monad that ``Monad.restricted`` gives
    (a tree algebra's arity cap falls to the largest sort kept).  The kept
    sorts must be closed under each op that keeps a result sort: where a
    shape takes kept, nonempty sorts to a dropped one, ValueError names
    that sort before anything is built.  (An op with no kept result sort
    goes, as omega does when an omega algebra keeps its finite sort.)  Of
    the nonempty subsets of {0, 1, 2, 3}, only {0, 1, 3} raises on a tree
    algebra of cap 3: a head of sort 3 on sorts 0, 1, 1 lands in sort 2."""
    ds = set(delta)
    monad = alg.monad.restricted(ds)
    kept = {s for s in alg.carrier.sorts if s in ds and alg.elements(s)}
    live = {op for op, _, result in monad.signature if result in kept}
    for op, args, result in monad.signature:
        if op in live and result not in ds and kept.issuperset(args):
            raise ValueError(f"the kept sorts {sorted(ds)} compose into the dropped sort {result}")
    keep = {e for e in alg.carrier if alg.carrier.sort_of(e) in ds}
    return _restrict(alg, keep, monad)


# -- congruence orderings ---------------------------------------------------------


def is_congruence_ordering(alg: FinAlgebra, q: Preorder) -> bool:
    """Whether q contains the order of ``alg``'s carrier (a q over other
    elements raises ValueError) and is compatible with every product entry,
    checked one argument position at a time (see ``_walk_rows``).  By
    associativity a deep violation decomposes into a chain of one-step
    replacements, so the shallow check is complete; that reduction is
    exercised by tests rather than taken on faith."""
    return _contains_order(alg.carrier, q) and _walk_rows(alg, q._rows) is None


def quotient_algebra(alg: FinAlgebra, q: Preorder) -> tuple[FinAlgebra, Morphism]:
    """Quotient by a congruence ordering; the returned map is a surjective
    morphism whose kernel is exactly ``q``.

    ``is_congruence_ordering`` walks the tables once, and the quotient is
    built without walking them again for monotonicity, because a compatible
    preorder makes its tables monotone: a q a' gives op(.., a, ..) q
    op(.., a', ..).  (So the quotient's entry at a tuple of classes is the
    class of the entry at any tuple of representatives.)  Its integer
    tables are the source's carried to the class indices (``_mapped``).
    When every class is a singleton, the quotient is a copy of the source
    under the order of ``q`` that shares its integer tables (and any label
    view the source has decoded); the walk still runs as the certificate."""
    if not is_congruence_ordering(alg, q):
        raise NotCongruence(None, "preorder fails shallow compatibility")
    Q, qfn = quotient_set(alg.carrier, q)
    if len(Q) == len(alg.carrier):
        quot = copy.copy(alg)
        quot.carrier = Q
        quot.__dict__.pop("_memo", None)  # derived under the source's order
    else:
        quot = _build(alg.monad, Q, _mapped(alg, qfn._image, len(Q)), monotone=True)
    return quot, Morphism(alg, quot, qfn)


# -- recognizers -------------------------------------------------------------------


@dataclass
class Recognizer:
    """A finite recognition device: an assignment of alphabet letters into an
    algebra plus an upward-closed accepting set in one sort."""

    alphabet: SortedOrderedSet
    algebra: FinAlgebra
    assignment: dict
    accepting: frozenset
    accepting_sort: Sort = field(init=False)

    def __post_init__(self):
        if not self.alphabet.is_trivially_ordered():
            raise ValueError("alphabets are unordered")
        for c in self.alphabet:
            if c not in self.assignment:
                raise ValueError(f"letter {c!r} unassigned")
            v = self.assignment[c]
            if v not in self.algebra.carrier:
                raise ValueError(f"letter {c!r} is assigned {v!r}, which is not in the carrier")
            if self.alphabet.sort_of(c) != self.algebra.carrier.sort_of(v):
                raise ValueError(f"assignment of {c!r} does not preserve sorts")
        self.accepting = frozenset(self.accepting)
        outside = sorted((p for p in self.accepting if p not in self.algebra.carrier), key=repr)
        if outside:
            raise ValueError(f"accepting element {outside[0]!r} is not in the carrier")
        sorts = {self.algebra.carrier.sort_of(p) for p in self.accepting}
        if len(sorts) > 1:
            raise ValueError("accepting set must sit inside one sort")
        self.accepting_sort = next(iter(sorts)) if sorts else SORT_WORD
        if not is_upward_closed(self.algebra.carrier, self.accepting):
            raise ValueError("accepting set is not upward closed")

    def value(self, t) -> Elem:
        return eval_element(self.algebra, self.assignment, t)

    def accepts(self, t) -> bool:
        return self.value(t) in self.accepting


# -- law checking -------------------------------------------------------------------


@dataclass
class LawReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, law: str, witness):
        self.violations.append((law, witness))


def check_algebra_laws(alg: FinAlgebra) -> LawReport:
    """Verify the unit and associative laws through the finite axioms of the
    signature that they come to on shallow tables (``_axiom_violations``),
    each checked on every tuple of elements.  A violation is a report entry
    ("unit", ("comp-unit", args)) or ("assoc", (axiom, args)).  The unit
    law needs no other check: evaluation sends each singleton sing(e) to e
    by construction, and an all-bare comp entry is its only table content."""
    report = LawReport()
    for axiom, args in _axiom_violations(alg):
        report.add("unit" if axiom == "comp-unit" else "assoc", (axiom, args))
    return report


def _associative(alg: FinAlgebra) -> bool:
    """Whether the product of the word algebra ``alg`` is associative, by
    Light's test (Clifford and Preston, *The Algebraic Theory of
    Semigroups* I, 1961): (x.g).y = x.(g.y) for every x and y and every g
    of ``_generators``, one row comparison per (x, g).  The elements g for
    which it holds are closed under the product, since (x.gh).y =
    ((x.g).h).y = (x.g).(h.y) = x.(g.(h.y)) = x.(gh.y); and every element
    that ``_generators``' closure reaches is a product of two elements
    reached before it, or a generator, whether or not the product is
    associative.  So it holds for every element."""
    table, n = _table(alg, "mult", 2), len(alg.carrier)
    rows = [[table[x + y * n] for y in range(n)] for x in range(n)]
    for g in map(alg.carrier._index.__getitem__, _generators(alg)):
        for row in rows:
            if rows[row[g]] != [row[z] for z in rows[g]]:
                return False
    return True


@_per_algebra
def _generators(alg: FinAlgebra) -> Optional[tuple]:
    """Elements that generate the monad's ``generated_sort`` of ``alg``
    under its binary op, or None if the monad declares no such sort.

    In carrier order, an element joins when the closure of the ones before
    it misses it.  The closure multiplies by the generators on either side,
    which by associativity reaches every product of them: 2 reads of the
    op's integer table per generator and element.  Memoised on the algebra
    (``_per_algebra``)."""
    sort = alg.monad.generated_sort
    if sort is None:
        return None
    op, _ = alg.monad.binary[(sort, sort)]
    table, n, A = _table(alg, op, 2), len(alg.carrier), alg.carrier
    gens: list = []
    reached: list = []
    seen: set = set()
    for g in map(A._index.__getitem__, A.elements(sort)):
        if g in seen:
            continue
        gens.append(g)
        seen.add(g)
        # the known elements and g times g, then each element found times
        # every generator, until none is new
        multiply, by, new = reached + [g], [g], [g]
        while multiply:
            for x in multiply:
                for h in by:
                    for c in (table[x + h * n], table[h + x * n]):
                        if c not in seen:
                            seen.add(c)
                            new.append(c)
            reached += new
            multiply, by, new = new, gens, []
    return tuple([A._by_index[g] for g in gens])


def _axiom_violations(alg: FinAlgebra):
    """Each failed axiom of the monad's signature, as (axiom, args), lazily
    and in a fixed order.  On finite tables the associative law of the
    structure map comes to these axioms (for omega tables they are Wilke's):

    (a) for two binary ops that compose, (x.y).z = x.(y.z) on every triple
        of elements of their sorts: "mult-assoc", "dot-assoc", and
        "mix-action" where the outer op acts on another sort;
    (b) for a unary op u that closes a period (omega), the shift law
        s.u(t.s) = u(s.t) and the power law u(s^k) = u(s): "omega-shift"
        at (s, t), "omega-power" at (s, s^k); an op with no result
        elements (after ``restrict_sorts``) is skipped;
    (c) for each comp entry a(b_1, .., b_n) = m, m(c_1, ..) = a(b_1(..), ..,
        b_n(..)) on every argument tuple of m within the arity cap, a bare
        slot standing wherever a sort-1 tree may: "comp-assoc" at (a,
        slots, args).  Unary composition is a binary shape too, and is
        checked here only.  A missing optional entry on either side skips
        the tuple.  An entry whose slots are all bare is the unit law
        a(x0, .., x{n-1}) = a, which evaluation takes as given: "comp-unit"
        at (a, slots) where it stores another value."""
    A, monad = alg.carrier, alg.monad
    binary, elems, n, runs = monad.binary, A._by_index, len(A), _sort_runs(A)
    for (s1, s2), (op1, r1) in binary.items():
        if op1 == "comp":  # unary composition: comp entries, checked in (c)
            continue
        for s3 in monad.sorts:
            if (r1, s3) not in binary or (s2, s3) not in binary:
                continue
            op3, r2 = binary[(s2, s3)]
            if (s1, r2) not in binary:
                continue
            op2, op4 = binary[(r1, s3)][0], binary[(s1, r2)][0]
            name = f"{op2}-assoc" if op2 == op1 else f"{op2}-action"
            xy, out, yz, xr = (_table(alg, op, 2) for op in (op1, op2, op3, op4))
            zs = runs.get(s3, ())
            for x, y in itertools.product(runs.get(s1, ()), runs.get(s2, ())):
                p = xy[x + y * n]
                for z in zs:
                    if out[p + z * n] != xr[x + yz[y + z * n] * n]:
                        yield name, (elems[x], elems[y], elems[z])
    for op, args, r in monad.signature:
        if len(args) != 1 or r not in runs:
            continue
        (s,) = args
        u, mul, act = _table(alg, op, 1), _table(alg, binary[(s, s)][0], 2), _table(alg, binary[(s, r)][0], 2)
        xs = runs.get(s, ())
        for x, y in itertools.product(xs, xs):
            if act[x + u[mul[y + x * n]] * n] != u[mul[x + y * n]]:
                yield f"{op}-shift", (elems[x], elems[y])
        for x in xs:
            p, ux = x, u[x]
            for _ in range(2 * max(1, len(xs)) + 1):
                p = mul[p + x * n]
                if u[p] != ux:
                    yield f"{op}-power", (elems[x], elems[p])
                    break
    # comp's entries place by place, keyed by flat argument tuples of
    # indices (``_labels`` over the identity numbering), VAR at a bare slot
    ids = range(n)
    comp = {_labels(ids, p, c): v for p, t in alg._coded.items() if p[0] == "comp" for c, v in t.items()}
    if not comp:
        return

    def read(args):  # as ``_apply``: an all-bare pattern is the unit law
        return args[0] if args.count(VAR) == len(args) - 1 else comp.get(args)

    # the argument tuples of a head of each sort, by the signature's shapes
    pools = {s: [*runs.get(s, ()), VAR] if s == 1 else runs.get(s, ()) for s in monad.sorts}
    tuples: dict = {}
    for op, (k, *slot_sorts), _ in monad.signature:
        tuples.setdefault(k, []).extend(itertools.product(*map(pools.get, slot_sorts)))
    sort_at = _evaluator(alg)[0]
    for key, m in comp.items():
        a, slots = key[0], key[1:]
        if slots.count(VAR) == len(slots):  # the unit law
            if m != a:
                yield "comp-unit", (elems[a], slots)
            continue
        widths = [1 if b is VAR else sort_at[b] for b in slots]
        for args in tuples.get(sort_at[m], ()):
            via_m = read((m, *args))
            if via_m is None:
                continue
            filled, pos = [], 0
            for b, k in zip(slots, widths):
                segment = args[pos : pos + k]
                pos += k
                if b is VAR:  # a bare slot passes its argument through
                    filled.append(segment[0])
                    continue
                v = read((b, *segment))
                if v is None:
                    break
                filled.append(v)
            else:
                direct = read((a, *filled))
                if direct is not None and direct != via_m:
                    yield "comp-assoc", (elems[a], _decoded(alg, slots), _decoded(alg, args))
