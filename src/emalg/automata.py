"""Regexes, DFAs and transition semigroups.

The pipeline is the classical one: Thompson construction, epsilon-closure
subset construction, Moore minimisation.  Languages live over nonempty
words; a regex that also matches the empty word is silently intersected with
the nonempty fragment (callers can inspect ``matches_epsilon``).  After
minimisation, a start state whose outgoing row duplicates another state's is
merged away: acceptance at the start only concerns the empty word, which is
outside the language space here, and the merge is what makes transition
semigroups come out minimal (e.g. the even-length unary language needs two
states, not three).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .algebra import Recognizer, _word_algebra_of_cayley
from .core import SortedOrderedSet
from .monads import SORT_WORD


@dataclass(frozen=True)
class Dfa:
    """A total deterministic automaton; the language is taken over nonempty
    words (acceptance of the empty word is deliberately ignored)."""

    alphabet: tuple
    n_states: int
    start: int
    accepting: frozenset
    trans: dict
    matches_epsilon: bool = field(default=False, compare=False)

    def __post_init__(self):
        for q in range(self.n_states):
            for c in self.alphabet:
                if (q, c) not in self.trans:
                    raise ValueError(f"missing transition ({q},{c!r})")
                if not 0 <= self.trans[(q, c)] < self.n_states:
                    raise ValueError(f"transition out of range at ({q},{c!r})")
        if not 0 <= self.start < self.n_states:
            raise ValueError("start state out of range")

    def step(self, q: int, c) -> int:
        return self.trans[(q, c)]

    def accepts(self, w: Iterable) -> bool:
        q = self.start
        n = 0
        for c in w:
            q = self.trans[(q, c)]
            n += 1
        return n > 0 and q in self.accepting


def words_up_to(alphabet: Iterable, n: int) -> Iterator[tuple]:
    """All nonempty words of length at most n, shortest first."""
    letters = tuple(alphabet)
    for k in range(1, n + 1):
        yield from itertools.product(letters, repeat=k)


# -- regex parsing ----------------------------------------------------------------

_META = set("()|*+?{}")  # braces are reserved: repetition counts are not supported


class RegexSyntaxError(ValueError):
    def __init__(self, pos: int, message: str):
        self.pos = pos
        super().__init__(f"regex error at position {pos}: {message}")


class _Frag:
    """NFA fragment: states are integers allocated by the builder."""

    __slots__ = ("start", "out")

    def __init__(self, start: int, out: int):
        self.start = start
        self.out = out


class _Builder:
    def __init__(self):
        self.eps: dict[int, list[int]] = {}
        self.sym: dict[tuple[int, str], list[int]] = {}
        self.n = 0

    def state(self) -> int:
        self.n += 1
        return self.n - 1

    def add_eps(self, a: int, b: int):
        self.eps.setdefault(a, []).append(b)

    def add_sym(self, a: int, c: str, b: int):
        self.sym.setdefault((a, c), []).append(b)


def _parse_regex_ast(text: str):
    pos = [0]

    def peek():
        return text[pos[0]] if pos[0] < len(text) else None

    def eat(c):
        if peek() != c:
            raise RegexSyntaxError(pos[0], f"expected {c!r}")
        pos[0] += 1

    def alt():
        parts = [concat()]
        while peek() == "|":
            eat("|")
            parts.append(concat())
        return ("alt", parts) if len(parts) > 1 else parts[0]

    def concat():
        parts = []
        while peek() is not None and peek() not in ")|":
            parts.append(repeat())
        if not parts:
            return ("eps",)
        return ("cat", parts) if len(parts) > 1 else parts[0]

    def repeat():
        node = atom()
        while peek() in ("*", "+", "?"):
            op = peek()
            eat(op)
            node = ({"*": "star", "+": "plus", "?": "opt"}[op], node)
        return node

    def atom():
        c = peek()
        if c is None:
            raise RegexSyntaxError(pos[0], "unexpected end of pattern")
        if c == "(":
            eat("(")
            node = alt()
            eat(")")
            return node
        if c in _META:
            raise RegexSyntaxError(pos[0], f"unexpected {c!r}")
        eat(c)
        return ("lit", c)

    node = alt()
    if pos[0] != len(text):
        raise RegexSyntaxError(pos[0], "unbalanced ')'")
    return node


def _thompson(node, b: _Builder) -> _Frag:
    kind = node[0]
    if kind == "lit":
        s, t = b.state(), b.state()
        b.add_sym(s, node[1], t)
        return _Frag(s, t)
    if kind == "eps":
        s = b.state()
        return _Frag(s, s)
    if kind == "cat":
        frags = [_thompson(x, b) for x in node[1]]
        for f1, f2 in zip(frags, frags[1:]):
            b.add_eps(f1.out, f2.start)
        return _Frag(frags[0].start, frags[-1].out)
    if kind == "alt":
        s, t = b.state(), b.state()
        for x in node[1]:
            f = _thompson(x, b)
            b.add_eps(s, f.start)
            b.add_eps(f.out, t)
        return _Frag(s, t)
    if kind in ("star", "opt", "plus"):
        f = _thompson(node[1], b)
        s, t = b.state(), b.state()
        b.add_eps(s, f.start)
        b.add_eps(f.out, t)
        if kind != "plus":
            b.add_eps(s, t)
        if kind != "opt":
            b.add_eps(f.out, f.start)
        return _Frag(s, t)
    raise AssertionError(kind)


def _collect_literals(node, acc: set):
    if node[0] == "lit":
        acc.add(node[1])
    elif node[0] in ("cat", "alt"):
        for x in node[1]:
            _collect_literals(x, acc)
    elif node[0] in ("star", "plus", "opt"):
        _collect_literals(node[1], acc)


def _subset_construction(b: _Builder, frag: _Frag, alphabet: tuple) -> Dfa:
    def closure(states: frozenset) -> frozenset:
        stack, seen = list(states), set(states)
        while stack:
            q = stack.pop()
            for r in b.eps.get(q, ()):
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return frozenset(seen)

    start = closure(frozenset([frag.start]))
    index = {start: 0}
    order = [start]
    trans = {}
    i = 0
    while i < len(order):
        S = order[i]
        for c in alphabet:
            nxt = closure(
                frozenset(r for q in S for r in b.sym.get((q, c), ()))
            )
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            trans[(i, c)] = index[nxt]
        i += 1
    accepting = frozenset(i for S, i in index.items() if frag.out in S)
    eps = frag.out in start
    return Dfa(alphabet, len(order), 0, accepting, trans, matches_epsilon=eps)


def _moore(dfa: Dfa) -> Dfa:
    """The minimal automaton, by Moore's refinement: from {accepting,
    rejecting}, split each block by the blocks of its states' successors
    until the block count stops growing."""
    states = range(dfa.n_states)
    block = [q in dfa.accepting for q in states]
    count = 0
    while True:
        keys = [
            (block[q], *(block[dfa.trans[(q, c)]] for c in dfa.alphabet)) for q in states
        ]
        index: dict = {}
        block = [index.setdefault(k, len(index)) for k in keys]
        if len(index) == count:
            break
        count = len(index)
    return _renumber(
        Dfa(
            dfa.alphabet,
            count,
            block[dfa.start],
            frozenset(block[q] for q in dfa.accepting),
            {(block[q], c): block[r] for (q, c), r in dfa.trans.items()},
            matches_epsilon=dfa.matches_epsilon,
        )
    )


def _renumber(dfa: Dfa) -> Dfa:
    """BFS renumbering from the start state; drops unreachable states."""
    order = [dfa.start]
    index = {dfa.start: 0}
    i = 0
    while i < len(order):
        q = order[i]
        for c in dfa.alphabet:
            r = dfa.trans[(q, c)]
            if r not in index:
                index[r] = len(order)
                order.append(r)
        i += 1
    return Dfa(
        dfa.alphabet,
        len(order),
        0,
        frozenset(index[q] for q in dfa.accepting if q in index),
        {
            (index[q], c): index[r]
            for (q, c), r in dfa.trans.items()
            if q in index
        },
        matches_epsilon=dfa.matches_epsilon,
    )


def _merge_start(dfa: Dfa) -> Dfa:
    """Retarget the start onto a state with an identical outgoing row when
    that makes the automaton smaller; sound because only nonempty words
    count."""
    row = tuple(dfa.trans[(dfa.start, c)] for c in dfa.alphabet)
    for s in range(dfa.n_states):
        if s == dfa.start:
            continue
        if tuple(dfa.trans[(s, c)] for c in dfa.alphabet) == row:
            candidate = _renumber(
                Dfa(
                    dfa.alphabet,
                    dfa.n_states,
                    s,
                    dfa.accepting,
                    dfa.trans,
                    matches_epsilon=dfa.matches_epsilon,
                )
            )
            if candidate.n_states < dfa.n_states:
                return candidate
    return dfa


def parse_regex(text: str, alphabet: Iterable | None = None) -> Dfa:
    """Compile a regex to a minimal total DFA over nonempty words.  The
    parser and the Thompson construction recurse once per level of groups
    and postfix operators; a pattern nested past the interpreter's
    recursion limit is a syntax error.  An explicit ``alphabet`` that names
    a letter twice, or misses a literal of the pattern, is one too, the
    latter at the literal's first position."""
    letters: set = set()
    b = _Builder()
    try:
        ast = _parse_regex_ast(text)
        _collect_literals(ast, letters)
        frag = _thompson(ast, b)
    except RecursionError:
        raise RegexSyntaxError(0, "pattern nests too deeply") from None
    if alphabet is None:
        alphabet = tuple(sorted(letters))
    else:
        alphabet = tuple(alphabet)
        if len(set(alphabet)) < len(alphabet):
            raise RegexSyntaxError(0, "alphabet names a letter twice")
        for pos, c in enumerate(text):
            if c in letters and c not in alphabet:
                raise RegexSyntaxError(pos, f"letter {c!r} is not in the alphabet")
    if not alphabet:
        raise RegexSyntaxError(0, "regex has no letters and no alphabet was given")
    return _merge_start(_moore(_subset_construction(b, frag, alphabet)))


# -- transition semigroups ----------------------------------------------------------


def dfa_to_recognizer(dfa: Dfa) -> Recognizer:
    """The transition semigroup generated by the letter transformations,
    with the acceptance set of transformations sending start into accepting.
    A semigroup past the carrier cap raises ``CarrierBoundExceeded``.

    The elements are found two-sided, breadth first: the distinct letter
    maps, then, for each element t in turn and each letter map g, t.g and
    g.t, each kept if new.  This discovery order is the carrier order, and
    it fixes the element names of every report.  Each element but a letter
    map records how it was first found, t.g or g.t for an earlier t, and
    the right Cayley graph is kept.  The product table is filled from them,
    after Froidure and Pin (1997), by ``algebra._word_algebra_of_cayley``,
    with no label table."""
    letter_maps = {
        c: tuple(dfa.trans[(q, c)] for q in range(dfa.n_states))
        for c in dfa.alphabet
    }

    def compose(s: tuple, t: tuple) -> tuple:
        return tuple(map(t.__getitem__, s))

    gens = list(dict.fromkeys(letter_maps.values()))
    elems = list(gens)
    index = {t: i for i, t in enumerate(elems)}
    found = [None] * len(gens)  # (t, g, True) for elems[t].g, False for g.elems[t]
    right = []  # right[t][g]: the index of elems[t].gens[g]
    while len(right) < len(elems):
        t = len(right)
        row = []
        for g, y in enumerate(gens):
            for c_, on_right in ((compose(elems[t], y), True), (compose(y, elems[t]), False)):
                i = index.get(c_)
                if i is None:
                    i = index[c_] = len(elems)
                    elems.append(c_)
                    found.append((t, g, on_right))
                if on_right:
                    row.append(i)
        right.append(row)
    alg = _word_algebra_of_cayley(SortedOrderedSet({SORT_WORD: elems}), right, found)
    alphabet = SortedOrderedSet({SORT_WORD: list(dfa.alphabet)})
    accepting = frozenset(t for t in elems if t[dfa.start] in dfa.accepting)
    return Recognizer(alphabet, alg, dict(letter_maps), accepting)
