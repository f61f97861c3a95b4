"""Regexes, DFAs and transition semigroups.

The pipeline is Glushkov's: one parse takes the pattern to its positions
and their follow sets, a subset construction over positions (with no empty
moves) makes a DFA, and Moore refinement minimises it.  Languages live over nonempty
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
import operator
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


def _parse_positions(text: str, letters: list, follow: list):
    """Parse the pattern once into Glushkov's sets (Glushkov 1961; Berry and
    Sethi 1986).  Position p is the p-th literal of the pattern: the parse
    appends its letter to ``letters`` and the set of positions that may
    follow it to ``follow``, and returns (nullable, first, last) of the
    whole pattern: whether it matches the empty word, and the positions a
    match may begin and end at."""
    pos = [0]

    def peek():
        return text[pos[0]] if pos[0] < len(text) else None

    def eat(c):
        if peek() != c:
            raise RegexSyntaxError(pos[0], f"expected {c!r}")
        pos[0] += 1

    def alt():
        nullable, first, last = concat()
        while peek() == "|":
            eat("|")
            n, fst, lst = concat()
            nullable, first, last = nullable or n, first | fst, last | lst
        return nullable, first, last

    def concat():
        nullable, first, last = True, set(), set()
        while peek() is not None and peek() not in ")|":
            n, fst, lst = repeat()
            for p in last:
                follow[p] |= fst
            if nullable:
                first = first | fst
            last = last | lst if n else lst
            nullable = nullable and n
        return nullable, first, last

    def repeat():
        nullable, first, last = atom()
        while peek() in ("*", "+", "?"):
            op = peek()
            eat(op)
            if op != "?":
                for p in last:
                    follow[p] |= first
            if op != "+":
                nullable = True
        return nullable, first, last

    def atom():
        c = peek()
        if c is None:
            raise RegexSyntaxError(pos[0], "unexpected end of pattern")
        if c == "(":
            eat("(")
            sets = alt()
            eat(")")
            return sets
        if c in _META:
            raise RegexSyntaxError(pos[0], f"unexpected {c!r}")
        eat(c)
        letters.append(c)
        follow.append(set())
        return False, {len(letters) - 1}, {len(letters) - 1}

    sets = alt()
    if pos[0] != len(text):
        raise RegexSyntaxError(pos[0], "unbalanced ')'")
    return sets


def _position_dfa(
    nullable: bool, first: set, last: set, letters: list, follow: list, alphabet: tuple
) -> Dfa:
    """The subset construction over positions.  A state is the set of
    positions the last letter read may sit at; the start is the marker -1,
    whose successors are ``first``.  There are no empty moves, so a state's
    successor on c is the positions of letter c that follow any of its
    own."""
    succ = follow + [first]  # succ[-1] is the marker's
    start = frozenset([-1])
    index = {start: 0}
    order = [start]
    trans = {}
    for i, S in enumerate(order):  # grows while it is read
        by_letter: dict = {c: [] for c in alphabet}
        for q in set().union(*(succ[p] for p in S)):
            by_letter[letters[q]].append(q)
        for c in alphabet:
            nxt = frozenset(by_letter[c])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            trans[(i, c)] = index[nxt]
    accepting = frozenset(
        i for i, S in enumerate(order) if not S.isdisjoint(last) or (nullable and -1 in S)
    )
    return Dfa(alphabet, len(order), 0, accepting, trans, matches_epsilon=nullable)


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
    parser recurses once per level of groups; a pattern nested past the
    interpreter's recursion limit is a syntax error.  An explicit
    ``alphabet`` that is empty, names a letter twice, or misses a literal
    of the pattern, is one too, the last at the literal's first position."""
    letters: list = []
    follow: list = []
    try:
        nullable, first, last = _parse_positions(text, letters, follow)
    except RecursionError:
        raise RegexSyntaxError(0, "pattern nests too deeply") from None
    known = set(letters)
    if alphabet is None:
        alphabet = tuple(sorted(known))
    else:
        alphabet = tuple(alphabet)
        if not alphabet:
            raise RegexSyntaxError(0, "the alphabet is empty")
        if len(set(alphabet)) < len(alphabet):
            raise RegexSyntaxError(0, "alphabet names a letter twice")
        for pos, c in enumerate(text):
            if c in known and c not in alphabet:
                raise RegexSyntaxError(pos, f"letter {c!r} is not in the alphabet")
    if not alphabet:
        raise RegexSyntaxError(0, "regex has no letters and no alphabet was given")
    dfa = _position_dfa(nullable, first, last, letters, follow, alphabet)
    return _merge_start(_moore(dfa))


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
    with no label table.

    A map is a tuple over the states, composed by ``operator.itemgetter``:
    s.t, first s then t, is ``itemgetter(*s)(t)``.  The search carries
    each map with one more point, the number of states, which every map
    fixes, so that an itemgetter over a map never picks a single item and
    a one-state automaton takes the same path; the carrier drops it."""
    n = dfa.n_states
    letter_maps = {c: tuple(dfa.trans[(q, c)] for q in range(n)) for c in dfa.alphabet}
    gens = [(*g, n) for g in dict.fromkeys(letter_maps.values())]
    before = [operator.itemgetter(*g) for g in gens]  # before[g](t): g.t
    elems = list(gens)
    index = {t: i for i, t in enumerate(elems)}
    found = [None] * len(gens)  # (t, g, True) for elems[t].g, False for g.elems[t]
    right = []  # right[t][g]: the index of elems[t].gens[g]
    for t, s in enumerate(elems):  # grows while it is read
        after = operator.itemgetter(*s)  # after(g): s.g
        row = []
        for g, y in enumerate(gens):
            sg = after(y)
            i = index.get(sg)
            if i is None:
                i = index[sg] = len(elems)
                elems.append(sg)
                found.append((t, g, True))
            row.append(i)
            gs = before[g](s)
            if gs not in index:
                index[gs] = len(elems)
                elems.append(gs)
                found.append((t, g, False))
        right.append(row)
    maps = [s[:-1] for s in elems]
    alg = _word_algebra_of_cayley(SortedOrderedSet({SORT_WORD: maps}), right, found)
    alphabet = SortedOrderedSet({SORT_WORD: list(dfa.alphabet)})
    accepting = frozenset(t for t in maps if t[dfa.start] in dfa.accepting)
    return Recognizer(alphabet, alg, dict(letter_maps), accepting)
