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

One evaluator, ``eval_element``, is the structure map for all three: it
checks every label's sort against its position, folds a finite sequence by
the binary op of its argument sorts (mult, dot or mix), closes an omega
period with omega, and evaluates a deep tree by recursion.

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

import functools
import itertools
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
    _rows_of,
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


def _wrong_sort(op: str, args: tuple, value, result: Sort) -> str:
    return f"{op} value {value!r} at {args!r} is not of sort {result}"


class FinAlgebra:
    """A finitary algebra over one of the three instances.

    ``tables`` holds one read-only mapping per op of ``_OPS``, keyed by the
    flat argument tuple of each entry (the layout under "the table view"
    below).  The keyword tables keep their documented shapes and are
    converted once, on the way in; ``mult``, ``dot`` and ``mix`` are the
    stored tables, and ``omega`` (keyed by a) and ``comp`` (keyed by (head,
    slots)) are read-only views in those shapes, built on first use."""

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
        tables = {
            "mult": dict(mult or {}),
            "dot": dict(dot or {}),
            "mix": dict(mix or {}),
            "omega": {(a,): v for a, v in (omega or {}).items()},
            "comp": {(a, *slots): v for (a, slots), v in (comp or {}).items()},
        }
        self._init(monad, carrier, tables)

    def _init(self, monad, carrier, tables: dict, monotone: bool = False):
        """Take over ``tables`` (op -> dict keyed by flat argument tuples),
        check them against the signature and, unless they are known to be
        ``monotone`` (a quotient's are, see ``quotient_algebra``), walk them
        for monotonicity."""
        self.monad = monad
        self.carrier = carrier
        self.kind = monad.kind
        self.tables = MappingProxyType({op: MappingProxyType(tables[op]) for op in _OPS})
        # each op's lookup args -> value, None where the table has no entry
        self._read = {op: tables[op].get for op in _OPS}
        self._read["comp"] = functools.partial(_read_comp, tables["comp"])
        self._validate()
        if not monotone and not carrier.is_trivially_ordered():
            bad = _walk_rows(self, carrier._rows)
            if bad:
                raise ValueError(f"{bad[0]} not monotone at {bad[1]!r} vs {bad[2]!r}")

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
        shape too (a comp entry with a bare slot)."""
        A = self.carrier
        signature = self.monad.signature
        sorts = A._sort_of
        live = {op for op, _, result in signature if A.elements(result)}
        found = dict.fromkeys(_OPS, 0)  # entries whose arguments are elements
        for op, arg_sorts, result in signature:
            read = self._read[op]
            for args in itertools.product(*map(A.elements, arg_sorts)):
                value = read(args)
                if value is None:
                    if op in live:
                        raise ValueError(f"{op} not total at {args!r}")
                elif sorts.get(value) != result:
                    raise ValueError(_wrong_sort(op, args, value, result))
                else:
                    found[op] += 1
        # a table with more entries holds bare comp slots or entries that fit
        # no shape: check each of its entries
        rest = {op for op in _OPS if len(self.tables[op]) > found[op]}
        if rest:
            shapes = {(op, args): result for op, args, result in signature}
            slot_sort = {**sorts, VAR: 1}.get  # a bare comp slot passes x0 through
            for op, args, value in _entries(self):
                if op not in rest:
                    continue
                slots = map(slot_sort if op == "comp" else sorts.get, args[1:])
                result = shapes.get((op, (sorts.get(args[0]), *slots)))
                if result is None:
                    raise ValueError(f"{op} entry at {args!r} fits no operation")
                if sorts.get(value) != result:
                    raise ValueError(_wrong_sort(op, args, value, result))

    # -- shallow application ---------------------------------------------------

    def comp_value(self, a, slots: tuple):
        """Value of the shallow tree a(slot_1,...,slot_n); VAR slots pass a
        variable through.  The all-variable pattern is the unit law."""
        value = self._read["comp"]((a, *slots))
        if value is None:
            raise MissingTableEntry(
                f"no composition entry for head {a!r} with slots {tuple(slots)!r}"
            )
        return value

    def elements(self, sort: Sort):
        return self.carrier.elements(sort)

    @functools.cached_property
    def _ints(self) -> "_IntTables":
        """The tables over element indices, built on first use and kept:
        an algebra's tables are read-only."""
        return _IntTables(self)

    def __repr__(self):
        return f"FinAlgebra({self.kind}, {len(self.carrier)} elements)"


# -- the table view -------------------------------------------------------------
#
# Whatever the instance, an algebra's data is a set of shallow operation
# tables, one per op of the monad's signature, whose argument sorts are
# those of the signature's shapes.  The helpers below see them as one list
# of entries (op, args, value) with a flat argument tuple:
#
#   ("mult", (a, b))   ("dot", (a, b))   ("mix", (a, e))   ("omega", (a,))
#   ("comp", (head, slot_1, ..., slot_n)), VAR standing for a bare slot
#
# This layout is the storage: ``alg.tables[op]`` is keyed by ``args``.
# Validation, the terminal algebra, morphism tests, restriction, quotients,
# products, the compatibility check and the closure with witnesses are
# written once over it and the signature; so are the sequence fold that
# evaluation, contexts and the ``profinite`` terms share, and the syntactic
# one-step context functions.  Only the keyword tables of ``FinAlgebra`` and
# its ``omega`` and ``comp`` views have other shapes.

_OPS = ("mult", "dot", "mix", "omega", "comp")


def _entries(alg: FinAlgebra):
    """Every table entry as (op, args, value), table by table."""
    for op, table in alg.tables.items():
        for args, value in table.items():
            yield op, args, value


def _places(alg: FinAlgebra) -> list:
    """The (op, number of arguments, positions of the bare slots) of the
    entries, in ``_entries``' argument layout: the keys of the integer
    tables (``_IntTables``).  An all-bare pattern is the unit law, which
    gives nothing new, and is left out."""
    return sorted(p for p in alg._ints.tables if not p[2] or len(p[2]) < p[1] - 1)


def _read_comp(table: dict, args: tuple):
    """comp's entry at ``args``, None where there is none; an all-bare
    pattern is the unit law, as in ``comp_value``."""
    if args.count(VAR) == len(args) - 1:
        return args[0]
    return table.get(args)


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


def _build(monad: Monad, carrier: SortedOrderedSet, entries, monotone: bool = False):
    """The algebra on ``carrier`` whose tables hold ``entries``; tables
    known to be ``monotone`` skip the monotonicity walk."""
    tables: dict = {op: {} for op in _OPS}
    for op, args, value in entries:
        tables[op][args] = value
    alg = FinAlgebra.__new__(FinAlgebra)
    alg._init(monad, carrier, tables, monotone)
    return alg


def _image(f, args: tuple) -> tuple:
    """``args`` relabelled by the mapping ``f``; bare slots stay bare."""
    return tuple([VAR if a is VAR else f[a] for a in args])


class _IntTables:
    """An algebra's tables over element indices.

    The indices are the carrier's numbering, 0..n-1 in carrier order
    (``elems``, and ``index`` back), so each sort is one run of indices.
    An argument tuple with indices d_0, ..., d_(m-1) has the code d_0 +
    d_1 n + ... + d_(m-1) n^(m-1), a bare slot counting as 0, and
    ``tables[(op, m, bare)]``, keyed by the place as ``_places`` lists it,
    maps the code of the arguments of each entry whose bare slots sit at
    the positions ``bare`` to the index of its value.  ``entries`` lists
    the entries in ``_entries`` order as (op, table, args, code, value):
    the table of (op, m, ()), the argument indices, their code and the
    value's index; an entry with a bare slot keeps its labels, with None
    for the table and the code."""

    def __init__(self, alg: FinAlgebra):
        self.elems = alg.carrier._by_index
        self.index = index = alg.carrier._index
        n = len(self.elems)
        self.tables: dict = {}
        self.entries: list = []
        for op, args, value in _entries(alg):
            if op == "comp" and VAR in args:
                bare = tuple([i for i, a in enumerate(args) if a is VAR])
                self.entries.append((op, None, args, None, value))
                digits = tuple([0 if a is VAR else index[a] for a in args])
            else:
                bare, digits = (), tuple([index[a] for a in args])
            code = 0
            for d in reversed(digits):
                code = code * n + d
            table = self.tables.setdefault((op, len(args), bare), {})
            table[code] = v = index[value]
            if not bare:
                self.entries.append((op, table, digits, code, v))

    @classmethod
    def given(cls, carrier: SortedOrderedSet, tables: dict, entries: list) -> "_IntTables":
        """The view of ``tables`` and ``entries`` already coded over
        ``carrier``'s numbering, as a construction that held them hands
        them over; they must be what ``_IntTables`` would build."""
        view = cls.__new__(cls)
        view.elems, view.index = carrier._by_index, carrier._index
        view.tables, view.entries = tables, entries
        return view


def _incompatibility(alg: FinAlgebra, rel: frozenset) -> Optional[tuple]:
    """A witness (op, args, args2) that the reflexive, transitive relation
    ``rel`` (a set of pairs) is not compatible with the tables, or None.

    Compatible means: two entries of one op whose arguments are related
    position by position (a bare slot matching only a bare slot) have
    related values.  Under a discrete relation there are none, and the
    walk returns before it builds the integer tables.

    Each entry is compared only with the entries that raise *one* of its
    arguments along one generating edge of the relation
    (``_generating_edges``): to another member of the argument's class,
    or into a class that covers it.  Every related pair is joined by a
    path of such edges, so when every intermediate tuple has an entry this
    is the same test as comparing the entry with every entry in the
    product of the up-sets: raising the arguments one edge and one
    position at a time walks from args to args2 through entries whose
    values are related step by step (ab <= a'b <= a'b'), and transitivity
    relates the two ends.  The carrier order and every ``Preorder`` are
    transitive.  The covers are taken between classes, and the
    equivalence edges stay: a reduction that counted class-mates as
    strictly above one another would remove, through each class-mate,
    every edge that leaves the class, and the class would be compared
    with nothing above it.  The intermediate entries exist for the word
    and omega tables, which are total on their argument sorts, and for
    tree entries without a bare slot, whose keys are all required; a
    raised argument keeps its sort, so the raised key is required too.
    Entries with a bare slot are optional data, so an intermediate may be
    missing: they keep the walk over the whole product of up-sets.

    The walk (``_walk_rows``) reads the relation as up-set rows over the
    carrier's numbering (``core._rows_of``) and the algebra's integer
    tables (``_IntTables``): raising position i of an argument tuple with
    code c from x to y gives the code c + (y - x) n^i, one int lookup, and
    its value is related when its bit is set in the up-set of the entry's
    value.  When the edges find a violation, the walk runs again over
    every element above each argument, visited in the same order as over
    labels (``_entries`` order, then position, then carrier order, which
    is index order), so the witness, returned in labels, is the first one
    over all related pairs."""
    return _walk_rows(alg, _rows_of(alg.carrier, rel))


def _walk_rows(alg: FinAlgebra, up: list) -> Optional[tuple]:
    """``_incompatibility`` of the relation whose up-set rows are ``up``
    (row i: the bitmask of what element i is related to, over the
    carrier's numbering)."""
    if all(row == 1 << i for i, row in enumerate(up)):
        return None
    above = [_members(u & ~(1 << i)) for i, u in enumerate(up)]
    if _first_violation(alg, up, above, _generating_edges(up, above)) is None:
        return None
    return _first_violation(alg, up, above, above)


def _generating_edges(up: list, above: list) -> list:
    """For each element i, the elements j that a generating edge of the
    relation with up-set rows ``up`` leads to from i: j is another member
    of i's class (i <= j <= i), or j's class covers i's (i < j, and no k
    has i < k < j).  ``above[i]`` lists the j != i with i <= j.  A path of
    these edges joins every related pair: up the covers of the classes,
    then across the last class.

    The strict part leaves out i's class-mates.  A cover reduction that
    took them as strictly above i would drop, through each class-mate,
    every edge that leaves the class, so the class would be compared with
    nothing above it."""
    same, strict = [], []
    for i, js in enumerate(above):
        peers = 0
        for j in js:
            if up[j] >> i & 1:
                peers |= 1 << j
        same.append(peers)
        strict.append(up[i] & ~peers & ~(1 << i))
    edges = []
    for i, row in enumerate(strict):
        through = 0
        for j in _members(row):
            through |= strict[j]
        edges.append(_members(row & ~through | same[i]))
    return edges


def _first_violation(alg: FinAlgebra, up: list, above: list, raise_to: list) -> Optional[tuple]:
    """The first witness of ``_walk_rows``, raising each argument x of an
    entry without a bare slot to the elements ``raise_to[x]``, and each of
    an entry with one over ``above[x]``, the rest of x's up-set."""
    view = alg._ints
    elems, index, n = view.elems, view.index, len(view.elems)
    labels_up, read_comp = None, alg._read["comp"]
    for op, table, args, code, v in view.entries:
        if table is None:  # a bare slot: the whole product of up-sets
            if labels_up is None:
                labels_up = {x: [x] + [elems[j] for j in js] for x, js in zip(elems, above)}
                labels_up[VAR] = [VAR]
            above_args = itertools.product(*(labels_up.get(a, ()) for a in args))
            next(above_args, None)  # args itself
            related = up[index[v]]
            for args2 in above_args:
                value2 = read_comp(args2)
                if value2 is not None and not related >> index[value2] & 1:
                    return op, args, args2
            continue
        related, get, w = up[v], table.get, 1  # w = n^i
        for i, x in enumerate(args):
            for y in raise_to[x]:
                value2 = get(code + (y - x) * w)
                if value2 is not None and not related >> value2 & 1:
                    args = tuple([elems[d] for d in args])
                    return op, args, args[:i] + (elems[y],) + args[i + 1 :]
            w *= n
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
    u = {s: ("unit", s) for s in monad.sorts}
    return _build(
        monad,
        SortedOrderedSet({s: [u[s]] for s in monad.sorts}),
        (
            (op, tuple(u[s] for s in args), u[result])
            for op, args, result in monad.signature
        ),
    )


# -- evaluation ----------------------------------------------------------------


def _apply(alg: FinAlgebra, op: str, args: tuple) -> Elem:
    """``op``'s entry at ``args``; MissingTableEntry where there is none."""
    value = alg._read[op](args)
    if value is None:
        raise MissingTableEntry(f"no {op} entry at {args!r}")
    return value


def _fold(alg: FinAlgebra, values: list) -> Elem:
    """``values`` multiplied left to right, each step by the op of the
    signature that takes the sorts of its two arguments: mult, dot or mix
    (and, for terms over trees, unary composition)."""
    sort_of, binary = alg.carrier.sort_of, alg.monad.binary
    acc, acc_sort = values[0], sort_of(values[0])
    for v in values[1:]:
        sorts = (acc_sort, sort_of(v))
        if sorts not in binary:
            raise SortMismatch(f"no binary operation takes sorts {sorts}")
        op, acc_sort = binary[sorts]
        acc = _apply(alg, op, (acc, v))
    return acc


def eval_element(alg: FinAlgebra, beta, t) -> Elem:
    """The unique extension of the label assignment ``beta`` applied to ``t``.

    ``beta`` maps labels of ``t`` to carrier elements (dict or callable);
    each value must have the sort of its label's position.  A sequence
    folds by ``_fold``, an omega period is closed by ``omega`` first, and a
    tree evaluates by recursion through ``comp_value``.

    A tree's variables x0..x{sort-1} must occur exactly once each, in
    increasing order across the leaves.  Shallow tables do not determine
    the value of permuted or partial variable patterns (those are
    independent data in the full container), so such trees are rejected.
    """
    get = beta.__getitem__ if isinstance(beta, dict) else beta
    sort_of = alg.carrier.sort_of
    alg.monad.element_sort(t)  # a shape of another instance is rejected here
    values = []
    for a, s in alg.monad.labels(t):
        v = get(a)
        if sort_of(v) != s:
            wrong = f"label {a!r} maps to {v!r} of sort {sort_of(v)}, not {s}"
            raise SortMismatch(wrong)
        values.append(v)
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
            return alg.comp_value(v, tuple([ev(c) for c in n.children]))

        return ev(t.root)
    if isinstance(t, UPWord):
        n = len(t.prefix)
        values[n:] = [_apply(alg, "omega", (_fold(alg, values[n:]),))]
    return _fold(alg, values)


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
    f = phi.mapping
    for op, args, value in _entries(A):
        target = B._read[op](_image(f, args))
        # an optional slot entry absent in the target cannot refute
        if target is not None and f[value] != target:
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


def projections(prod: FinAlgebra, algs: list[FinAlgebra]) -> list[Morphism]:
    out = []
    for i, a in enumerate(algs):
        fn = SortedFunction(
            prod.carrier, a.carrier, {x: x[i] for x in prod.carrier}
        )
        out.append(Morphism(prod, a, fn))
    return out


@dataclass
class GeneratedSubalgebra:
    algebra: FinAlgebra
    inclusion: Morphism
    witnesses: dict  # element -> free element over the generator labels


def _closure(alg: FinAlgebra, start: dict) -> dict:
    """Close a set of (element -> witness free element) under the table
    entries, recording a witness for every new element: the least fixpoint,
    the same for every instance.

    Sweeps the entries in table order (``_entries``) until a sweep adds
    nothing.  An entry whose arguments all have witnesses gives its value,
    if that has none yet, ``flat`` of the op's shallow term over them.  A
    bare tree slot needs no witness and stays a bare variable of sort 1, so
    the entries with bare slots, which no argument tuple of elements
    reaches, are used too."""
    wit = dict(start)
    monad, sort_of = alg.monad, alg.carrier.sort_of
    changed = True
    while changed:
        changed = False
        for op, args, r in _entries(alg):
            if r in wit or any(x is not VAR and x not in wit for x in args):
                continue
            labels = tuple([VAR if x is VAR else wit[x] for x in args])
            sorts = tuple([1 if x is VAR else sort_of(x) for x in args])
            wit[r] = monad.flat(_TERM[op](labels, sorts))
            changed = True
    return wit


def subalgebra_generated(alg: FinAlgebra, gens: Iterable[Elem]) -> GeneratedSubalgebra:
    """Least product-closed subset containing ``gens``, with the inherited
    order and restricted tables; each element's witness is a free element
    over the generators themselves that evaluates to it (see ``_closure``)."""
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
    incl = Morphism(
        sub, alg, SortedFunction(sub.carrier, alg.carrier, {e: e for e in sub.carrier})
    )
    return GeneratedSubalgebra(sub, incl, wit)


def _restrict(alg: FinAlgebra, keep: set, monad: Monad) -> FinAlgebra:
    """The elements in ``keep`` with the inherited order, and the entries
    that mention only them, as an algebra over ``monad``.  When ``keep``
    is the whole carrier and ``monad`` is ``alg``'s own, that is ``alg``
    itself, returned as it is: its tables are read-only and already
    checked."""
    A = alg.carrier
    if monad is alg.monad and keep.issuperset(A):
        return alg
    elems = {s: [e for e in A.elements(s) if e in keep] for s in A.sorts}
    pairs = [(a, b) for a, b in A.leq_pairs() if a in keep and b in keep]
    keep_slots = keep | {VAR}
    return _build(
        monad,
        SortedOrderedSet(elems, pairs),
        (e for e in _entries(alg) if e[2] in keep and keep_slots.issuperset(e[1])),
    )


def _index_closure(algs: list[FinAlgebra], places: list):
    """The product-closure kernel, over element indices: a generator
    function ``grow(seeds, closed=())`` that takes seed tuples, each a
    tuple of indices in the components' carrier numberings, and yields the
    tuples of the subalgebra of the product that they generate, each once
    as it is found, the seeds first, so a caller may stop as soon as it
    has seen enough.  ``closed``, an already closed list of tuples, is
    taken as found and not yielded again: the closure grows on from it.
    Nothing of the product is materialised up front.

    The ops are ``places`` (as ``_places`` lists them), read in each
    component's integer tables (``_IntTables``), which key them the same
    way; a bare slot counts as 0 in every component's argument code, so it
    holds VAR in every component, as in ``tuple_algebra``.  A tuple arises
    only where every component has the entry.

    Each round evaluates the argument tuples that hold a tuple found in
    the round before, once each: at the first such position j, with tuples
    known before the round at the positions before j and any known tuple
    after it (``_product_entry``); nothing is kept between closures, so a
    closure holds no more than its own tuples."""
    views = [a._ints for a in algs]
    shapes = []  # (the product's entry at one place, its pools at each j)
    for place in places:
        tables = [v.tables.get(place) for v in views]
        if None not in tables:
            opened, layouts = _layouts(place)
            shapes.append((_product_entry(views, tables, opened), layouts))

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


def _product_entry(views: list, tables: list, opened: tuple):
    """The product's entry at one place, as a function of the argument
    tuples at its open positions ``opened``: the tuple of the components'
    values, with None for a component that has no entry.  Component c
    reads its index in each argument, scales it by the argument's position
    in its own argument code, and looks the sum up in ``tables[c]``."""
    parts = [
        (c, table.get, [len(v.elems) ** p for p in opened])
        for c, (v, table) in enumerate(zip(views, tables))
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


def _grow_tuples(algs: list[FinAlgebra], seeds: Iterable[tuple]):
    """The tuples of the subalgebra of the product generated by the seed
    tuples, in labels, each yielded once as it is found, the seeds first
    (``_index_closure``, over the places of the first component's
    entries)."""
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


def tuple_algebra(algs: list[FinAlgebra], tuples: Iterable[tuple]) -> FinAlgebra:
    """The subalgebra of the product of ``algs`` on an already product-closed
    set of tuples, with componentwise order and tables."""
    ts = list(dict.fromkeys(tuple(t) for t in tuples))
    A0 = algs[0].carrier
    elems: dict[Sort, list] = {}
    for t in ts:
        elems.setdefault(A0.sort_of(t[0]), []).append(t)
    pairs = []
    for s, es in elems.items():
        for x in es:
            for y in es:
                if all(a.carrier.leq(xi, yi) for a, xi, yi in zip(algs, x, y)):
                    pairs.append((x, y))
    size = max((len(es) for es in elems.values()), default=1)
    sorts = sorted(set(s for a in algs for s in a.carrier.sorts) | set(elems))
    carrier = SortedOrderedSet(
        {s: elems.get(s, []) for s in sorts}, pairs, max_size=max(64, size)
    )
    bare = (VAR,) * len(algs)  # a bare slot in every component
    by_first: dict = {VAR: [bare]}
    for t in ts:
        by_first.setdefault(t[0], []).append(t)
    columns = {a: list(zip(*group)) for a, group in by_first.items()}
    no_columns = [()] * len(algs)
    tset = set(ts)
    entries = []
    for op, args, _ in _entries(algs[0]):
        # each component's entries at its columns, in the order of the combos
        values = zip(*(
            map(alg._read[op], itertools.product(*[columns.get(a, no_columns)[i] for a in args]))
            for i, alg in enumerate(algs)
        ))
        combos = itertools.product(*(by_first.get(a, ()) for a in args))
        for combo, t in zip(combos, values):
            if t in tset:
                if VAR in args:
                    combo = tuple([VAR if c is bare else c for c in combo])
                entries.append((op, combo, t))
    return _build(algs[0].monad, carrier, entries)


def restrict_sorts(alg: FinAlgebra, delta: Iterable[Sort]) -> FinAlgebra:
    """Keep only the elements whose sort lies in ``delta``; products that
    mention a dropped sort disappear with them, over the monad that
    ``Monad.restricted`` gives (a tree algebra's arity cap falls to the
    largest sort kept).  A tree shape whose arguments are all kept but
    whose result sort, below that cap, is dropped has no table to hold
    it, and construction raises."""
    ds = set(delta)
    keep = {e for e in alg.carrier if alg.carrier.sort_of(e) in ds}
    return _restrict(alg, keep, alg.monad.restricted(ds))


# -- congruence orderings ---------------------------------------------------------


def is_congruence_ordering(alg: FinAlgebra, q: Preorder) -> bool:
    """Whether q contains the order of ``alg``'s carrier (a q over other
    elements raises ValueError) and is compatible with every product entry,
    checked one argument position at a time (see ``_incompatibility``).  By
    associativity a deep violation decomposes into a chain of one-step
    replacements, so the shallow check is complete; that reduction is
    exercised by tests rather than taken on faith."""
    return _contains_order(alg.carrier, q) and _walk_rows(alg, q._rows) is None


def quotient_algebra(alg: FinAlgebra, q: Preorder) -> tuple[FinAlgebra, Morphism]:
    """Quotient by a congruence ordering; the returned map is a surjective
    morphism whose kernel is exactly ``q``.

    ``is_congruence_ordering`` walks the tables once, and the quotient is
    built without walking them again for monotonicity, because a compatible
    preorder makes its tables monotone: [a] <= [a'] in the quotient means
    a q a', so op(.., a, ..) q op(.., a', ..) by compatibility, that is
    [op(.., a, ..)] <= [op(.., a', ..)].  (The quotient's entry at a tuple
    of classes is the class of the entry at any tuple of representatives:
    q-equivalent representatives give q-equivalent values, by the same
    argument both ways.)  Totality and result sorts are still checked.

    When every class is a singleton, each named by its element, the
    quotient's tables are the source's, entry for entry: it shares them,
    read-only, under the order of ``q``, and checks nothing again (the
    source's construction checked totality and sorts).  The walk of
    ``is_congruence_ordering`` still runs: it is the certificate."""
    if not is_congruence_ordering(alg, q):
        raise NotCongruence(None, "preorder fails shallow compatibility")
    Q, qfn = quotient_set(alg.carrier, q)
    cls = qfn.mapping
    if len(Q) == len(alg.carrier):
        quot = FinAlgebra.__new__(FinAlgebra)
        quot.monad, quot.carrier, quot.kind = alg.monad, Q, alg.kind
        quot.tables, quot._read = alg.tables, alg._read
    else:
        of = [cls[e] for e in alg._ints.elems]  # the class of each element index
        quot = _build(
            alg.monad,
            Q,
            (
                (op, _image(cls, args), cls[value])
                if table is None
                else (op, tuple([of[d] for d in args]), of[value])
                for op, table, args, _, value in alg._ints.entries
            ),
            monotone=True,
        )
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
            if self.alphabet.sort_of(c) != self.algebra.carrier.sort_of(v):
                raise ValueError(f"assignment of {c!r} does not preserve sorts")
        self.accepting = frozenset(self.accepting)
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
    binary, elements = monad.binary, A.elements
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
            xy, out, yz, xr = (alg.tables[op] for op in (op1, op2, op3, op4))
            zs = elements(s3)
            for x, y in itertools.product(elements(s1), elements(s2)):
                p = xy[(x, y)]
                for z in zs:
                    if out[(p, z)] != xr[(x, yz[(y, z)])]:
                        yield name, (x, y, z)
    for op, args, r in monad.signature:
        if len(args) != 1 or not elements(r):
            continue
        (s,) = args
        u, mul, act = (alg.tables[o] for o in (op, binary[(s, s)][0], binary[(s, r)][0]))
        xs = elements(s)
        for x, y in itertools.product(xs, xs):
            if act[(x, u[(mul[(y, x)],)])] != u[(mul[(x, y)],)]:
                yield f"{op}-shift", (x, y)
        for x in xs:
            p, ux = x, u[(x,)]
            for _ in range(2 * max(1, len(xs)) + 1):
                p = mul[(p, x)]
                if u[(p,)] != ux:
                    yield f"{op}-power", (x, p)
                    break
    comp = alg.tables["comp"]
    if not comp:
        return
    # the argument tuples of a head of each sort, by the signature's shapes
    pools = {s: [*elements(s), VAR] if s == 1 else elements(s) for s in monad.sorts}
    tuples: dict = {}
    for op, (n, *slot_sorts), _ in monad.signature:
        tuples.setdefault(n, []).extend(itertools.product(*map(pools.get, slot_sorts)))
    read, sort_of = alg._read["comp"], A.sort_of
    for key, m in comp.items():
        a, slots = key[0], key[1:]
        if slots.count(VAR) == len(slots):  # as in ``_read_comp``
            if m != a:
                yield "comp-unit", (a, slots)
            continue
        widths = [1 if b is VAR else sort_of(b) for b in slots]
        for args in tuples.get(sort_of(m), ()):
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
                    yield "comp-assoc", (a, slots, args)
