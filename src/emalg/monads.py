"""The three concrete label-container monads: finite words, ultimately periodic
omega-words (two-sorted), and finite ranked trees with linearly used variables.

Each instance provides ``sing``, ``map``, ``flat``, ``labels`` and
``free_elements`` on its free elements, and its operation ``signature``.
Free elements are plain immutable values; the monad objects are stateless.

Omega-words deliberately materialise only the ultimately periodic fragment:
evaluation in a finite two-sorted algebra is determined by it, so nothing is
lost at desk scale.  The general downward-closed-sets container is *not* an
instance of this interface (it does not use the standard ordering); it is
mentioned here only as a non-example.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Any, Iterator

from .core import Sort

# Sort conventions.
SORT_WORD: Sort = 0  # the single sort of the word monad
SORT_FIN: Sort = 1  # finite part of the omega-word monad
SORT_INF: Sort = 2  # infinite part of the omega-word monad

#: Node-count cap for tree flattening.
MAX_TREE_SIZE = 10_000


class SortMismatch(ValueError):
    """An element or label appears at an impossible sort."""


class _HoleType:
    """The context hole; a unique label-like marker."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "_"


HOLE = _HoleType()


# -- free elements -----------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """A nonempty finite word; also the finite sort of the omega instance."""

    labels: tuple

    def __post_init__(self):
        if not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("words are nonempty")

    def __len__(self):
        return len(self.labels)


def _primitive_root(v: tuple) -> tuple:
    n = len(v)
    for d in range(1, n + 1):
        if n % d == 0 and v[:d] * (n // d) == v:
            return v[:d]
    return v


def normalize_up(prefix: tuple, period: tuple) -> tuple[tuple, tuple]:
    """Canonical form of u.v^w: shortest period, maximal absorption.

    The period is first reduced to its primitive root; then trailing prefix
    letters equal to the period's last letter are absorbed by rotating the
    period.  The result is the unique representation with primitive period
    and shortest prefix, so structural equality decides equality of the
    denoted omega-words.
    """
    prefix, period = tuple(prefix), tuple(period)
    if not period:
        raise ValueError("period must be nonempty")
    period = _primitive_root(period)
    while prefix and prefix[-1] == period[-1]:
        prefix = prefix[:-1]
        period = (period[-1],) + period[:-1]
    return prefix, period


@dataclass(frozen=True)
class UPWord:
    """u . v^w, stored in normal form (sort-infinity element)."""

    prefix: tuple
    period: tuple

    def __post_init__(self):
        p, q = normalize_up(tuple(self.prefix), tuple(self.period))
        object.__setattr__(self, "prefix", p)
        object.__setattr__(self, "period", q)


@dataclass(frozen=True)
class MixedWord:
    """A finite (possibly empty) run of finite labels followed by one
    infinite label (sort-infinity element of the omega instance)."""

    prefix: tuple
    tail: Any

    def __post_init__(self):
        if not isinstance(self.prefix, tuple):
            object.__setattr__(self, "prefix", tuple(self.prefix))


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Node:
    label: Any
    children: tuple = ()

    def __post_init__(self):
        if not isinstance(self.children, tuple):
            object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Tree:
    """A finite ranked tree of a given sort.

    Variables x0..x{sort-1} may each occur at most once, at leaves; the root
    carries a symbol.  A node's label must have arity equal to its child
    count (checked against a carrier on evaluation or flattening, since bare
    labels do not carry arities).

    Linearity is checked here, at the public boundary; the monad operations
    build their linear-by-construction results with ``_tree``/``_node``.
    """

    root: Node
    sort: int = 0

    def __post_init__(self):
        if isinstance(self.root, Var):
            raise ValueError("tree root must be a symbol, not a variable")
        seen: set[int] = set()
        for v in _tree_vars(self.root):
            if v in seen:
                raise ValueError(f"variable x{v} used twice (trees are linear)")
            seen.add(v)
            if v >= self.sort:
                raise ValueError(f"variable x{v} exceeds tree sort {self.sort}")


def _tree_vars(node) -> Iterator[int]:
    if isinstance(node, Var):
        yield node.index
    else:
        for c in node.children:
            yield from _tree_vars(c)


# Trusted construction.  The public ``Node``/``Tree`` constructors (and
# ``parse_tree``) normalise children and check linearity; trees that the
# monad operations build out of already-checked trees are linear by
# construction, so they are assembled here without either check.

_new = object.__new__


def _node(label, children: tuple) -> Node:
    n = _new(Node)
    attrs = n.__dict__
    attrs["label"] = label
    attrs["children"] = children
    return n


def _tree(root: Node, sort: int) -> Tree:
    t = _new(Tree)
    attrs = t.__dict__
    attrs["root"] = root
    attrs["sort"] = sort
    return t


@functools.cache
def _var_tuple(k: int) -> tuple:
    """The shared, immutable tuple (x0, ..., x{k-1}); one per arity used."""
    return tuple(Var(i) for i in range(k))


def _bounded_slots(n: int, budget: int) -> Iterator[tuple]:
    """The n-tuples of sorts with sum at most ``budget``, in
    ``itertools.product`` order: each slot takes only what the ones before
    it leave, so no tuple past the budget is built."""
    if n == 0:
        yield ()
        return
    for s in range(budget + 1):
        for rest in _bounded_slots(n - 1, budget - s):
            yield (s, *rest)


def tree_labels(node) -> Iterator[tuple[Any, int]]:
    """All (label, arity) pairs of a tree node, depth first."""
    if isinstance(node, Var):
        return
    yield node.label, len(node.children)
    for c in node.children:
        yield from tree_labels(c)


FreeElement = Any  # Word | UPWord | MixedWord | Tree, depending on instance


# -- the monad instances ------------------------------------------------------


class Monad:
    kind: str = ""
    #: The shallow operations of a finitary algebra over this monad, one
    #: ``(op, argument sorts, result sort)`` per shape.  ``FinAlgebra``
    #: stores the entries of op ``op`` in ``tables[op]``, keyed by their
    #: flat argument tuples.
    signature: tuple[tuple[str, tuple[Sort, ...], Sort], ...] = ()
    #: The sort whose binary op spells every element of a generated algebra
    #: as a product of generators and acts on the other sorts, so that a
    #: one-step context may fix an argument of this sort to a generator
    #: only (``syntactic.syntactic_preorder``); None keeps every element.
    generated_sort: Sort | None = None

    @functools.cached_property
    def binary(self) -> dict[tuple[Sort, Sort], tuple[str, Sort]]:
        """(op, result sort) of each binary op of the signature, by its
        argument sorts."""
        return {args: (op, r) for op, args, r in self.signature if len(args) == 2}

    @property
    def sorts(self) -> tuple[Sort, ...]:
        raise NotImplementedError

    def element_sort(self, t: FreeElement) -> Sort:
        raise NotImplementedError

    def sing(self, a: Any, sort: Sort) -> FreeElement:
        raise NotImplementedError

    def map(self, f, t: FreeElement) -> FreeElement:
        """Relabel: each label a of sort s becomes f(a, s).  ``f`` is
        always called with the label and its sort (a tree label's sort is
        its arity)."""
        raise NotImplementedError

    def flat(self, t: FreeElement) -> FreeElement:
        """Flatten an element whose labels are themselves free elements."""
        raise NotImplementedError

    def restricted(self, sorts) -> "Monad":
        """The monad of an algebra restricted to ``sorts``: this one, where
        a restriction only empties sorts."""
        return self

    def free_elements(self, pools: dict, size: int) -> Iterator[FreeElement]:
        """Every free element of every sort, up to ``size``, whose labels
        come from ``pools`` (sort -> labels of that sort), each once, in a
        fixed order."""
        raise NotImplementedError

    def labels(self, t: FreeElement) -> Iterator[tuple[Any, Sort]]:
        raise NotImplementedError

    def __repr__(self):
        return f"<monad {self.kind}>"


class WordMonad(Monad):
    kind = "word"
    signature = (("mult", (SORT_WORD, SORT_WORD), SORT_WORD),)
    generated_sort = SORT_WORD

    @property
    def sorts(self):
        return (SORT_WORD,)

    def element_sort(self, t):
        if not isinstance(t, Word):
            raise SortMismatch(f"not a word: {t!r}")
        return SORT_WORD

    def sing(self, a, sort=SORT_WORD):
        if sort != SORT_WORD:
            raise SortMismatch(f"word labels live at sort {SORT_WORD}")
        return Word((a,))

    def map(self, f, t):
        return Word(tuple(f(a, SORT_WORD) for a in t.labels))

    def flat(self, t):
        out: list = []
        for w in t.labels:
            if not isinstance(w, Word):
                raise SortMismatch(f"label {w!r} is not a word")
            out.extend(w.labels)
        return Word(tuple(out))

    def free_elements(self, pools, size):
        """The words of length 1..size."""
        for n in range(1, size + 1):
            for w in itertools.product(pools[SORT_WORD], repeat=n):
                yield Word(w)

    def labels(self, t):
        for a in t.labels:
            yield a, SORT_WORD


class OmegaMonad(Monad):
    """Ultimately periodic omega-words over a two-sorted label set.

    Sort-1 elements are nonempty finite words over sort-1 labels.  Sort-inf
    elements are either u.v^w pairs of sort-1 labels, or a finite (possibly
    empty) run of sort-1 labels closed off by a single sort-inf label.
    """

    kind = "omega"
    # Wilke's data: u.v, v^w and u.t determine every ultimately periodic word
    signature = (
        ("dot", (SORT_FIN, SORT_FIN), SORT_FIN),
        ("omega", (SORT_FIN,), SORT_INF),
        ("mix", (SORT_FIN, SORT_INF), SORT_INF),
    )
    generated_sort = SORT_FIN

    @property
    def sorts(self):
        return (SORT_FIN, SORT_INF)

    def element_sort(self, t):
        if isinstance(t, Word):
            return SORT_FIN
        if isinstance(t, (UPWord, MixedWord)):
            return SORT_INF
        raise SortMismatch(f"not an omega-word element: {t!r}")

    def sing(self, a, sort):
        if sort == SORT_FIN:
            return Word((a,))
        if sort == SORT_INF:
            return MixedWord((), a)
        raise SortMismatch(f"no sort {sort} in the omega instance")

    def map(self, f, t):
        if isinstance(t, Word):
            return Word(tuple(f(a, SORT_FIN) for a in t.labels))
        if isinstance(t, UPWord):
            # relabelling can shorten the period, so renormalise
            return UPWord(
                tuple(f(a, SORT_FIN) for a in t.prefix),
                tuple(f(a, SORT_FIN) for a in t.period),
            )
        return MixedWord(
            tuple(f(a, SORT_FIN) for a in t.prefix), f(t.tail, SORT_INF)
        )

    def flat(self, t):
        def cat(words) -> tuple:
            out: list = []
            for w in words:
                if not isinstance(w, Word):
                    raise SortMismatch(f"finite position holds {w!r}")
                out.extend(w.labels)
            return tuple(out)

        if isinstance(t, Word):
            return Word(cat(t.labels))
        if isinstance(t, UPWord):
            return UPWord(cat(t.prefix), cat(t.period))
        prefix = cat(t.prefix)
        tail = t.tail
        if isinstance(tail, UPWord):
            return UPWord(prefix + tail.prefix, tail.period)
        if isinstance(tail, MixedWord):
            return MixedWord(prefix + tail.prefix, tail.tail)
        raise SortMismatch(f"infinite position holds {tail!r}")

    def free_elements(self, pools, size):
        """The finite words of length 1..size, then each run u of length
        0..size followed by every period v of length 1..size (the pairs
        already in normal form, so each u.v^w once) and by every infinite
        label."""
        fin, inf = pools.get(SORT_FIN, ()), pools.get(SORT_INF, ())
        runs = [u for n in range(size + 1) for u in itertools.product(fin, repeat=n)]
        for u in runs[1:]:
            yield Word(u)
        for u in runs:
            for v in runs[1:]:
                if normalize_up(u, v) == (u, v):
                    yield UPWord(u, v)
            for e in inf:
                yield MixedWord(u, e)

    def labels(self, t):
        if isinstance(t, Word):
            for a in t.labels:
                yield a, SORT_FIN
        elif isinstance(t, UPWord):
            for a in t.prefix + t.period:
                yield a, SORT_FIN
        else:
            for a in t.prefix:
                yield a, SORT_FIN
            yield t.tail, SORT_INF


class TreeMonad(Monad):
    kind = "tree"

    def __init__(self, max_arity: int = 3):
        if max_arity < 0:
            raise ValueError("max_arity must be >= 0")
        self.max_arity = max_arity

    @property
    def sorts(self):
        return tuple(range(self.max_arity + 1))

    @functools.cached_property
    def signature(self):
        """comp (n, s1..sn) -> s1+..+sn: a head of arity n >= 1 with a tree
        of sort s_i in slot i, for every sum within the arity cap."""
        m = self.max_arity
        return tuple(
            ("comp", (n, *slots), sum(slots))
            for n in range(1, m + 1)
            for slots in _bounded_slots(n, m)
        )

    def restricted(self, sorts):
        """No tree above the largest sort kept remains, so the shapes that
        land there go: the arity cap falls to that sort."""
        cap = max(set(sorts) & set(self.sorts), default=0)
        return self if cap == self.max_arity else TreeMonad(cap)

    def element_sort(self, t):
        if not isinstance(t, Tree):
            raise SortMismatch(f"not a tree: {t!r}")
        if t.sort > self.max_arity:
            raise SortMismatch(f"tree sort {t.sort} exceeds arity cap {self.max_arity}")
        return t.sort

    def sing(self, a, sort):
        if not 0 <= sort <= self.max_arity:
            raise SortMismatch(f"arity {sort} out of range 0..{self.max_arity}")
        return _tree(_node(a, _var_tuple(sort)), sort)

    def map(self, f, t):
        def go(n):
            if n.__class__ is Var:
                return n
            children = n.children
            label = f(n.label, len(children))
            return _node(label, tuple([go(c) for c in children]))

        return _tree(go(t.root), t.sort)

    def flat(self, t):
        budget = MAX_TREE_SIZE

        def substitute(n, subs):
            nonlocal budget
            if n.__class__ is Var:
                return subs[n.index]
            budget -= 1
            if budget < 0:
                raise ValueError(f"flattened tree exceeds {MAX_TREE_SIZE} nodes")
            children = n.children
            if not children:
                return _node(n.label, ())
            return _node(n.label, tuple([substitute(c, subs) for c in children]))

        def go(n):
            if n.__class__ is Var:
                return n
            inner = n.label
            if not isinstance(inner, Tree):
                raise SortMismatch(f"label {inner!r} is not a tree")
            if inner.sort != len(n.children):
                raise SortMismatch(
                    f"inner tree of sort {inner.sort} at a node with "
                    f"{len(n.children)} children"
                )
            subs = [go(c) for c in n.children]
            return substitute(inner.root, subs)

        return _tree(go(t.root), t.sort)

    def free_elements(self, pools, size):
        """The trees of each sort k with at most ``size`` nodes, a label of
        arity n at a node with n children: every shape, with its variable
        leaves any distinct members of x0..x{k-1}, in any order, so some
        variables may be dropped."""

        def grow(budget, free):
            # (node, nodes left, variables left) for each tree over ``free``
            for n, labels in pools.items():
                if budget and labels:
                    for children, left, rest in kids(n, budget - 1, free):
                        for a in labels:
                            yield _node(a, children), left, rest

        def kids(n, budget, free):
            if not n:
                yield (), budget, free
                return
            for v in free:
                others = tuple([w for w in free if w is not v])
                for more, left, rest in kids(n - 1, budget, others):
                    yield (v, *more), left, rest
            for c, left, rest in grow(budget, free):
                for more, left2, rest2 in kids(n - 1, left, rest):
                    yield (c, *more), left2, rest2

        for k in self.sorts:
            for root, _, _ in grow(size, _var_tuple(k)):
                yield _tree(root, k)

    def labels(self, t):
        yield from tree_labels(t.root)


WORD = WordMonad()
OMEGA_UP = OmegaMonad()


def tree_monad(max_arity: int = 3) -> TreeMonad:
    return TreeMonad(max_arity)


# -- text grammar -------------------------------------------------------------
#
#   word    := '[' labels ']'                     e.g.  [a,b,a]
#   upword  := '[' labels? ']' '(' word ')^w'     e.g.  [a]([b,a])^w
#   mixed   := '[' labels? ']' label              e.g.  [a,b]e
#   tree    := term [':' digits]                  e.g.  b(x1,c)  b(x0,c):2
#   term    := sym | sym '(' term {',' term} ')' | 'x' digits
#
# Labels are identifiers; whitespace is ignored.  The token '_' denotes the
# context hole when holes are allowed.  A tree's sort is its ':' suffix, or
# else one more than its highest variable; ``serialize`` writes the suffix
# only where a tree drops its highest variables.

_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|\^w|:\s*\d+|[_()\[\],])")


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad literal at position {pos}: {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def _parse_bracket_labels(toks: list[str], allow_empty: bool):
    if not toks or toks[0] != "[":
        raise ValueError("expected '['")
    toks.pop(0)
    labels: list = []
    while toks and toks[0] != "]":
        t = toks.pop(0)
        if t == ",":
            continue
        if t == "_":
            raise ValueError("hole not allowed here")
        if t[0].isalpha():
            labels.append(t)
        else:
            raise ValueError(f"expected a label, got {t!r}")
    if not toks:
        raise ValueError("unterminated '['")
    toks.pop(0)
    if not labels and not allow_empty:
        raise ValueError("empty word literal")
    return labels


def _parse_word_or_mixed(text: str) -> Word | MixedWord:
    """'[u]' the word u, or '[u]e' the mixed word u.e (u may be empty)."""
    toks = _tokenize(text)
    prefix = tuple(_parse_bracket_labels(toks, allow_empty=True))
    if not toks:
        if not prefix:
            raise ValueError("empty word literal")
        return Word(prefix)
    if len(toks) > 1 or not toks[0][0].isalpha():
        raise ValueError(f"trailing input {toks!r}")
    return MixedWord(prefix, toks[0])


def parse_upword(text: str) -> UPWord:
    """'[u]([v])^w' the omega-word u.v^w (u may be empty), normalised."""
    toks = _tokenize(text)
    prefix = _parse_bracket_labels(toks, allow_empty=True)
    if not toks or toks.pop(0) != "(":
        raise ValueError("expected '(' before the period")
    period = _parse_bracket_labels(toks, allow_empty=False)
    if len(toks) < 2 or toks.pop(0) != ")" or toks.pop(0) != "^w":
        raise ValueError("expected ')^w' after the period")
    if toks:
        raise ValueError(f"trailing input {toks!r}")
    return UPWord(tuple(prefix), tuple(period))


def parse_tree(text: str, *, allow_hole: bool = False) -> Tree:
    toks = _tokenize(text)

    def node():
        if not toks:
            raise ValueError("unexpected end of tree literal")
        t = toks.pop(0)
        if t == "_":
            if not allow_hole:
                raise ValueError("hole not allowed here")
            label: Any = HOLE
        elif re.fullmatch(r"x\d+", t):
            return Var(int(t[1:]))
        elif t[0].isalpha():
            label = t
        else:
            raise ValueError(f"expected a label, got {t!r}")
        children: list = []
        if toks and toks[0] == "(":
            toks.pop(0)
            while True:
                children.append(node())
                if not toks:
                    raise ValueError("unterminated '('")
                nxt = toks.pop(0)
                if nxt == ")":
                    break
                if nxt != ",":
                    raise ValueError(f"expected ',' or ')', got {nxt!r}")
        return Node(label, tuple(children))

    root = node()
    suffix = toks.pop() if toks and toks[-1][0] == ":" else None
    if toks:
        raise ValueError(f"trailing input {toks!r}")
    if isinstance(root, Var):
        raise ValueError("tree root must be a symbol")
    if suffix:
        return Tree(root, int(suffix[1:]))
    return Tree(root, max((v + 1 for v in _tree_vars(root)), default=0))


def parse_element(text: str, monad: Monad) -> FreeElement:
    """Parse a free-element literal by its shape ('...)^w' an omega-word,
    '[...]' a word, '[...]e' a mixed word, else a tree); a shape the
    instance lacks raises ``SortMismatch``."""
    if ")^w" in text.replace(" ", ""):
        t = parse_upword(text)
    elif text.lstrip().startswith("["):
        t = _parse_word_or_mixed(text)
    else:
        t = parse_tree(text)
    monad.element_sort(t)
    return t


def serialize(t: FreeElement, name=str) -> str:
    """Render a free element in the literal grammar; labels through ``name``,
    the context hole as ``_``."""

    def lab(a):
        return "_" if a is HOLE else name(a)

    if isinstance(t, Word):
        return "[" + ",".join(lab(a) for a in t.labels) + "]"
    if isinstance(t, UPWord):
        pre = ",".join(lab(a) for a in t.prefix)
        per = ",".join(lab(a) for a in t.period)
        return f"[{pre}]([{per}])^w"
    if isinstance(t, MixedWord):
        pre = ",".join(lab(a) for a in t.prefix)
        return f"[{pre}]{lab(t.tail)}"
    if isinstance(t, Tree):
        least = 0  # the sort parse_tree infers: one more than the top variable

        def go(n):
            nonlocal least
            if isinstance(n, Var):
                if n.index >= least:
                    least = n.index + 1
                return f"x{n.index}"
            if not n.children:
                return lab(n.label)
            return lab(n.label) + "(" + ",".join(go(c) for c in n.children) + ")"

        text = go(t.root)
        return text if t.sort == least else f"{text}:{t.sort}"
    raise TypeError(f"not a free element: {t!r}")
