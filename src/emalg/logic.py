"""First-order logic over finite words: rank-stratified equivalence via
back-and-forth types, theory algebras built along their right Cayley graph,
and the two-sided definability decision.

Rank-m equivalence is computed as equality of canonical type objects: the
rank-0 type of a pebbled word is its atomic diagram over order, successor and
letter predicates, and the rank-(r+1) type is the atomic diagram together
with the set of rank-r types reachable by placing one more pebble.  A
position's relation code to a pebble depends only on the distance between
them, so every pebble's column of codes is a slice of one code row per word
length, and the last round takes every placement at once: with the parent's
diagram fixed, a child's rank-0 type is just the new pebble's letter and
codes.  Types are hash-consed globally so fingerprints are cheap to compare
across words; an id means nothing beyond equality with other ids.

Rank-m equivalence is a right congruence, so a theory algebra is found
by breadth-first search over its right Cayley graph, as Froidure and Pin
(1997) build a semigroup: each class is extended by the letter of each
generator class, typed once, and the search meets the classes in shortlex
order of their shortest words, which are the representatives.  Each is an
earlier one plus a letter, so none is longer than the class count, and the
class guard is the build's only size bound.  The table is filled from that
graph by the fill that transition semigroups use too
(``algebra._word_algebra_of_cayley``).  The rank side of the definability
decision walks the letter steps of the theory algebra and the syntactic
algebra together, from the letter pairs; it types no word, and stops at
the first class found on both sides of the language.

For words over a single letter the equivalence collapses to a length
threshold.  The threshold follows from the same game analysis (gaps beyond a
bound that doubles per round are interchangeable; end segments contribute a
summed version of the same bound) and is cross-checked against the direct
game in the test suite; it is what makes deep rank sweeps on unary languages
tractable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Union

from .algebra import FinAlgebra, Recognizer, _fold, _table, _word_algebra_of_cayley
from .automata import Dfa, dfa_to_recognizer
from .core import SortedOrderedSet, upward_closure
from .monads import SORT_WORD, Word
from .profinite import identity_library, satisfies_all
from .syntactic import SyntacticResult, syntactic_algebra


def _as_letters(w) -> tuple:
    if isinstance(w, Word):
        return w.labels
    return tuple(w)


# -- rank-m types -------------------------------------------------------------

_intern: dict = {}


def _intern_obj(x) -> int:
    got = _intern.get(x)
    if got is None:
        got = len(_intern)
        _intern[x] = got
    return got


@lru_cache(maxsize=64)
def _codes(n: int) -> tuple:
    """How position q of a word of length n relates to an earlier pebble on
    p (0 equal, 1 successor, 2 predecessor, 3 later, 4 earlier), at index
    q - p + n.  The code depends on q - p alone, so the column of a pebble
    on p is the slice [n - p, 2n - p).  Cached per length, at O(n) each,
    because any word may be typed."""
    return (4,) * (n - 1) + (2, 0, 1) + (3,) * (n - 1)


def _pebbled_type(
    word: tuple, n: int, codes: tuple, pebbles: tuple, letters: tuple, rels: tuple, r: int
) -> int:
    """The rank-r type of ``word`` (of length n, with code row ``codes``)
    with ``pebbles`` placed, whose atomic diagram is their letters and the
    relation codes of each pebble to the ones before it.

    A child extends its parent's diagram by one row: the new pebble's letter
    and its codes to the earlier pebbles, read for every position at once
    by zipping the word with the pebbles' columns.  With one round left the
    children are rank-0 types, which the parent's diagram and that row fix,
    so the node is interned with its set of rows and no child is interned
    at all.  A module-level function rather than a closure, so that typing
    a word leaves no reference cycle for the collector."""
    if r == 0:
        return _intern_obj(("atom", letters, rels))
    rows = zip(word, *[codes[n - p : 2 * n - p] for p in pebbles])
    if r == 1:
        return _intern_obj(("last", letters, rels, frozenset(rows)))
    succ = frozenset([
        _pebbled_type(word, n, codes, pebbles + (q,), letters + row[:1], rels + row[1:], r - 1)
        for q, row in enumerate(rows)
    ])
    return _intern_obj(("node", letters, rels, succ))


def _general_type(word: tuple, m: int) -> int:
    n = len(word)
    return _pebbled_type(word, n, _codes(n), (), (), (), m)


def _unary_threshold(m: int) -> int:
    # game analysis over a one-letter word: with r rounds left, interior gaps
    # are interchangeable beyond a bound that doubles per round (2^{r+1},
    # anchored at 2 by the adjacency atoms) and end gaps beyond the summed
    # bound 2^{r+1} - 2; whole words collapse at twice the end bound plus one
    return 1 if m <= 1 else 2 ** (m + 1) - 3


def ef_type(w, m: int) -> int:
    """Hash-consed rank-m type of a word; equal ids mean rank-m equivalence.

    Words over a single letter take a threshold fast path (for every rank
    at least 1 they are never equivalent to a word containing another
    letter, so the two fingerprint families may never collide).  The
    threshold is validated against the direct game in the test suite.  A
    negative rank is a ValueError.
    """
    if m < 0:
        raise ValueError(f"rank {m} is negative")
    word = _as_letters(w)
    if m >= 1 and len(set(word)) == 1:
        t = _unary_threshold(m)
        return _intern_obj(("unary", word[0], min(len(word), t), m))
    return _general_type(word, m)


def ef_equiv(u, w, m: int) -> bool:
    """Duplicator wins the m-round back-and-forth game on the two words."""
    if m == 0:
        return True
    return ef_type(u, m) == ef_type(w, m)


# -- theory algebras -----------------------------------------------------------


class TheoryBoundExceeded(RuntimeError):
    pass


def _normalised_letters(alphabet: Iterable) -> tuple:
    return tuple(sorted(set(alphabet), key=repr))


@dataclass
class TheoryAlgebra:
    """Rank-m equivalence classes of nonempty words with the induced
    concatenation table; class ids are dense integers with canonical
    representative words."""

    alphabet: tuple
    rank: int
    algebra: FinAlgebra
    reps: dict  # class id -> representative word (tuple of letters)
    letter_class: dict  # letter -> class id
    fingerprint_class: dict = field(repr=False, default_factory=dict)

    def size(self) -> int:
        return len(self.reps)

    def class_of(self, w) -> int:
        """Fold a word through letter classes and the table (``_fold``)."""
        return _fold(self.algebra, [self.letter_class[c] for c in _as_letters(w)])

    def classify(self, w) -> int:
        """Classify by type fingerprint, independently of the table."""
        fp = ef_type(w, self.rank)
        if fp not in self.fingerprint_class:
            raise AssertionError(
                "word realises a type outside the closure; rank equivalence "
                "is not compositional here (bug)"
            )
        return self.fingerprint_class[fp]


#: The most rank-m classes ``theory_algebra`` discovers before it gives up.
MAX_THEORY_CLASSES = 512
#: The seeded random words on which ``theory_algebra`` re-checks its table
#: against direct classification: how many, and the seed.
THEORY_CHECK_SAMPLES = 20
THEORY_CHECK_SEED = 0
#: The highest rank ``theory_algebra`` attempts.
MAX_THEORY_RANK = 8


def _too_many_classes(m: int) -> str:
    return f"more than {MAX_THEORY_CLASSES} classes at rank {m}"


def theory_algebra(alphabet: Iterable, m: int) -> TheoryAlgebra:
    """Discover the rank-m classes from the letters, breadth first along the
    right Cayley graph.

    The letter classes come first, in letter order; they are the
    generators.  Then each class k, in id order, is extended by the letter
    of each generator: reps[k] + (c,) is typed once, and is a new class if
    its type is new.  So a build types |letters| + classes * generators
    words, and the class guard ``MAX_THEORY_CLASSES`` is its only size
    bound.  Since rank equivalence is a right congruence, a shortest word
    of a class less its last letter is a shortest word of its own class, so
    the search meets the classes in shortlex order of their shortest words,
    and those are the representatives.  That it is a congruence (every
    class is a product of letter classes) is re-verified on random samples
    at the end rather than trusted.
    """
    letters = _normalised_letters(alphabet)
    if not letters:
        raise ValueError("empty alphabet")
    if m < 0:
        raise ValueError(f"rank {m} is negative")
    if m > MAX_THEORY_RANK:
        raise TheoryBoundExceeded(f"rank {m} is past any desk-scale use")

    fp_class: dict = {}
    reps: list[tuple] = []
    found: list = []  # (k, h, True) for reps[k] + (gens[h],), None for a generator

    def register(wd: tuple, fp: int, how: Optional[tuple]) -> int:
        if len(reps) >= MAX_THEORY_CLASSES:
            raise TheoryBoundExceeded(_too_many_classes(m))
        fp_class[fp] = len(reps)
        reps.append(wd)
        found.append(how)
        return len(reps) - 1

    letter_class = {}
    for c in letters:
        fp = ef_type((c,), m)
        got = fp_class.get(fp)
        letter_class[c] = register((c,), fp, None) if got is None else got

    gens = [r[0] for r in reps]
    right: list = []  # right[k][h]: the class of reps[k] + (gens[h],)
    # the loop reads the classes registered as it goes, in order
    for k, rep in enumerate(reps):
        row = []
        for h, c in enumerate(gens):
            fp = ef_type(rep + (c,), m)
            cid = fp_class.get(fp)
            row.append(register(rep + (c,), fp, (k, h, True)) if cid is None else cid)
        right.append(row)

    carrier = SortedOrderedSet(
        {SORT_WORD: list(range(len(reps)))}, max_size=max(64, len(reps))
    )
    theta = TheoryAlgebra(
        alphabet=letters,
        rank=m,
        algebra=_word_algebra_of_cayley(carrier, right, found),
        reps=dict(enumerate(reps)),
        letter_class=letter_class,
        fingerprint_class=fp_class,
    )
    rng = random.Random(THEORY_CHECK_SEED)
    limit = 8 if m == 0 else 12
    for _ in range(THEORY_CHECK_SAMPLES):
        wd = tuple(rng.choices(letters, k=rng.randint(1, limit)))
        if theta.class_of(wd) != theta.classify(wd):
            raise AssertionError(
                f"rank-{m} composition table disagrees with direct "
                f"classification on {wd!r}"
            )
    return theta


@lru_cache(maxsize=128)
def _theory_outcome(letters: tuple, m: int) -> Union[TheoryAlgebra, str]:
    # a bound failure is kept as its message: a cached exception's traceback
    # would keep the failed build's frames, and their tables, alive.
    # Rank-m classes refine rank-(m-1) ones, so a class guard that fired at
    # rank m-1 fires at rank m too; the ranks below are settled first, each
    # once per process.
    if 0 < m <= MAX_THEORY_RANK and _theory_outcome(letters, m - 1) == _too_many_classes(m - 1):
        return _too_many_classes(m)
    try:
        return theory_algebra(letters, m)
    except TheoryBoundExceeded as exc:
        return str(exc)


def cached_theory_algebra(alphabet: Iterable, m: int) -> TheoryAlgebra:
    """``theory_algebra`` with its default bounds, memoised per (letters,
    rank) for the life of the process.  A bound failure is memoised too:
    every later call raises a fresh ``TheoryBoundExceeded`` with the same
    message instead of rebuilding the closure."""
    got = _theory_outcome(_normalised_letters(alphabet), m)
    if isinstance(got, str):
        raise TheoryBoundExceeded(got)
    return got


# -- rank recognition and the two-sided decision ---------------------------------


def _as_syntactic(lang: Union[Dfa, Recognizer, SyntacticResult]) -> SyntacticResult:
    if isinstance(lang, SyntacticResult):
        return lang
    if isinstance(lang, Dfa):
        lang = dfa_to_recognizer(lang)
    return syntactic_algebra(lang)


def recognizes_at_rank(lang: Union[Dfa, Recognizer, SyntacticResult], m: int) -> bool:
    """Whether the rank-m theory map recognises the language: no two words of
    the same rank-m class may differ on membership.  Checked on the pairs
    (θ(w), σ(w)) of the theory map and the syntactic morphism over all
    nonempty words w, reached by a breadth-first walk from the letter pairs
    that extends a word by one letter per step, i.e. along the right Cayley
    graphs of both algebras at once: the answer is False at the first class
    seen both inside and outside the accepting set, and True once the walk
    is exhausted.  The walk reads only the two integer tables (a theory
    class id is its own element index) and types no word.

    The theory algebra comes from ``cached_theory_algebra``, so each
    (letters, rank) is built, or fails its bound, once per process; a
    memoised failure raises ``TheoryBoundExceeded`` again."""
    syn = _as_syntactic(lang)
    theta = cached_theory_algebra(syn.letter_map, m)
    S = syn.syn_algebra.carrier
    tmult, smult = _table(theta.algebra, "mult", 2), _table(syn.syn_algebra, "mult", 2)
    nt, ns = theta.size(), len(S)
    letters = [(theta.letter_class[c], S._index[syn.letter_map[c]]) for c in theta.alphabet]
    walk = list(dict.fromkeys(letters))
    seen = set(walk)
    member: dict = {}
    # the loop reads the pairs appended to ``walk`` as it goes, in order
    for t, s in walk:
        inside = S._by_index[s] in syn.accepting
        if member.setdefault(t, inside) != inside:
            return False
        for tc, sc in letters:
            nxt = (tmult[t + tc * nt], smult[s + sc * ns])
            if nxt not in seen:
                seen.add(nxt)
                walk.append(nxt)
    return True


@dataclass
class DefinabilityVerdict:
    """Outcome of the two independent deciders, with re-checkable evidence:
    either a witnessing rank for the theory map, or a failed inequality with
    the falsifying assignment."""

    definable: bool
    aperiodic: bool
    witness_rank: Optional[int]
    counterexample: Optional[tuple[str, dict]]
    inconclusive_rank: bool
    syn_size: int
    rank_bound: int
    blocked_at_rank: Optional[int] = None


def fo_definable(
    lang: Union[Dfa, Recognizer, SyntacticResult], *, rank_bound: int = 5
) -> DefinabilityVerdict:
    """Run both deciders and check they agree.

    (i) the aperiodicity inequalities on the syntactic algebra;
    (ii) a sweep over theory-map recognition at ranks 0..rank_bound.
    A definable language with no witnessing rank within the bound (or whose
    sweep hits the theory-size guard, which rank 2 over a two-letter
    alphabet already does) is flagged inconclusive on the rank side, with
    the verdict carried by the inequalities.  A rank witness for a
    non-aperiodic language would contradict the theory and raises.

    Theory outcomes, bound failures included, are memoised per (letters,
    rank) for the life of the process, so the guard is paid once per
    alphabet rather than once per language.
    """
    if rank_bound < 0:
        raise ValueError(f"rank bound {rank_bound} is negative")
    syn = _as_syntactic(lang)
    aperiodic, fail = satisfies_all(syn.syn_algebra, identity_library()["APERIODIC"])
    witness_rank = None
    blocked_at = None
    for m in range(rank_bound + 1):
        try:
            if recognizes_at_rank(syn, m):
                witness_rank = m
                break
        except TheoryBoundExceeded:
            blocked_at = m
            break
    if witness_rank is not None and not aperiodic:
        raise AssertionError(
            f"rank {witness_rank} recognition for a non-aperiodic language; "
            "the two deciders cannot disagree unless one is buggy"
        )
    counterexample = None
    if not aperiodic:
        ineq, beta = fail
        counterexample = (str(ineq), beta)
    return DefinabilityVerdict(
        definable=aperiodic,
        aperiodic=aperiodic,
        witness_rank=witness_rank,
        counterexample=counterexample,
        inconclusive_rank=aperiodic and witness_rank is None,
        syn_size=syn.size(),
        rank_bound=rank_bound,
        blocked_at_rank=blocked_at,
    )


# -- definably embedded sets -------------------------------------------------------


def definably_embedded(
    alg: FinAlgebra, gens: Iterable, *, rank_bound: int = 5
) -> bool:
    """Every product preimage of a principal up-set, restricted to words over
    the given finite subset, must be first-order definable."""
    if alg.kind != "word":
        raise ValueError("the first-order decision is implemented for words")
    C = sorted(set(gens), key=repr)
    alphabet = SortedOrderedSet({SORT_WORD: C})
    assignment = {c: c for c in C}
    for a in alg.carrier:
        accepting = upward_closure(alg.carrier, {a})
        rec = Recognizer(alphabet, alg, assignment, accepting)
        if not fo_definable(rec, rank_bound=rank_bound).definable:
            return False
    return True


def is_definable_algebra(alg: FinAlgebra, *, rank_bound: int = 5) -> bool:
    """Definability of the whole algebra, decided on one finite generating
    set: generated subsets inherit embeddability, so the full carrier works."""
    return definably_embedded(alg, list(alg.carrier), rank_bound=rank_bound)
