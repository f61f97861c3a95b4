"""The cross-validation battery, shared by the ``laws`` CLI command and the
acceptance tests: the monad laws on every free element up to a declared
size, the other law checks on every case of their declared scopes, and the
desk-scale regression corpus.  Every check returns (name, ok, detail).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional

from .algebra import (
    FinAlgebra,
    NotCongruence,
    Recognizer,
    eval_upword,
    is_congruence_ordering,
    is_morphism,
    product,
    quotient_algebra,
    subalgebra_generated,
    wilke_algebra,
    word_algebra,
)
from .automata import dfa_to_recognizer, parse_regex, words_up_to
from .core import Preorder, SortedOrderedSet, _transitive_closure, quotient_set, upward_closure
from .logic import fo_definable, theory_algebra
from .monads import (
    OMEGA_UP,
    SORT_FIN,
    SORT_INF,
    SORT_WORD,
    WORD,
    Monad,
    Word,
    tree_monad,
)
from .profinite import identity_library, idempotent_power, satisfies_all
from .syntactic import decompose_as_derivatives, factor_to_syntactic, syntactic_algebra
from .varieties import canonical_cover, verify_cover_evaluation


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


# -- the monad laws ------------------------------------------------------------------
#
# Per instance: its labels by sort, the size of the elements the unit laws
# run on, and the sizes of the three levels the associative law runs on.
# The unit laws cost two flats per element, so their scope is deeper: a
# word flat that repeats the last label of a result of 5 or more letters
# passes the associative law at sizes 2, 2, 2.
MONAD_LAW_SCOPE = (
    (WORD, {SORT_WORD: ["a", "b", "c"]}, 5, (2, 2, 2)),
    (OMEGA_UP, {SORT_FIN: ["a", "b"], SORT_INF: ["e", "f"]}, 4, (2, 1, 2)),
    (tree_monad(2), {0: ["c", "d"], 1: ["u"], 2: ["b"]}, 4, (2, 1, 2)),
)

# The scopes of the other law checks, each enumerated in a fixed order (the
# small-scope hypothesis: a broken law shows on a small case).
SEMIGROUP_SCOPE = 3  # congruences and terminality: semigroups of at most 3 elements
CONGRUENCE_WORD_LENGTH = 3  # congruences: the bounded definition on words up to 3 letters
TERMINALITY_LETTERS = "ab"  # terminality: recognizers over these letters
DECOMPOSITION_WORD_LENGTH = 6  # decomposition: membership on the words up to 6 letters
DUAL_DECIDER_RANK = 5  # dual deciders: the rank sweep runs to rank 5
WILKE_SCOPE = ("ab", 4, 4)  # wilke: every u.v^w over a, b with |u| <= 4 and 1 <= |v| <= 4
COVER_SIZE = 3  # covers: the free elements over an algebra's elements up to size 3


def _by_sort(monad: Monad, elements) -> dict:
    """``elements`` as label pools: sort -> its elements, for every sort."""
    pools: dict = {s: [] for s in monad.sorts}
    for t in elements:
        pools[monad.element_sort(t)].append(t)
    return pools


def check_monad_laws() -> CheckResult:
    """flat.sing = id and flat.map(sing) = id on every free element up to
    the unit size of ``MONAD_LAW_SCOPE``, and flat.flat = flat.map(flat) on
    every three-level element up to its level sizes, for all three
    instances.  The level-k elements are the labels of level k+1; the
    outermost level is streamed, not held.  Each label of the outermost
    level is flattened once, up front, and map(flat) reads those results."""
    t0 = time.perf_counter()
    violations = 0
    scopes = []
    for monad, base, unit_size, sizes in MONAD_LAW_SCOPE:
        units = 0
        for t in monad.free_elements(base, unit_size):
            units += 1
            if monad.flat(monad.sing(t, monad.element_sort(t))) != t:
                violations += 1
            if monad.flat(monad.map(monad.sing, t)) != t:
                violations += 1
        pools = base
        for size in sizes[:-1]:
            pools = _by_sort(monad, monad.free_elements(pools, size))
        # free_elements puts the pool members themselves at the labels, so
        # they are looked up by identity: hashing a nested element would
        # walk all of it on every lookup
        flats = {id(w): monad.flat(w) for ws in pools.values() for w in ws}
        flat_label = lambda w, s: flats[id(w)]
        nested = 0
        for big in monad.free_elements(pools, sizes[-1]):
            nested += 1
            if monad.flat(monad.flat(big)) != monad.flat(monad.map(flat_label, big)):
                violations += 1
        levels = "/".join(map(str, sizes))
        scopes.append(
            f"{monad.kind}: {units} elements to size {unit_size}, "
            f"{nested} nestings to sizes {levels}"
        )
    detail = f"{'; '.join(scopes)}; {violations} violations"
    return CheckResult("monad-laws", violations == 0, detail, time.perf_counter() - t0)


# -- congruence characterisations and terminality ----------------------------------------


def _bounded_quotient_compatibility(alg: FinAlgebra, q: Preorder) -> bool:
    """The definition itself, on words of up to CONGRUENCE_WORD_LENGTH
    letters: whenever the classwise images of two words of one length
    compare, their products must compare.

    The words of each length are grouped by their vector of letter classes,
    each vector with the set of its words' products.  The groups grow one
    letter at a time: the words of vector v followed by x have the vector
    v + (class of x) and the products a*x, for a in v's set.  The products
    of each vector above v1 must then lie in every q-up-set of v1's
    products; the vectors above v1 are the products of its classes'
    up-sets in the quotient."""
    _, qfn = quotient_set(alg.carrier, q)
    cls = qfn.mapping
    Q = qfn.cod
    elems, mult = list(alg.carrier), alg.mult
    bit = {e: 1 << i for i, e in enumerate(elems)}
    up = {a: sum(bit[b] for b in elems if q.holds(a, b)) for a in elems}
    above = {c: [d for d in Q if Q.leq(c, d)] for c in Q}
    layer: dict = {}
    for x in elems:
        layer.setdefault((cls[x],), set()).add(x)
    for ln in range(1, CONGRUENCE_WORD_LENGTH + 1):
        if ln > 1:
            grown: dict = {}
            for v, vals in layer.items():
                for x in elems:
                    grown.setdefault(v + (cls[x],), set()).update(
                        [mult[(a, x)] for a in vals]
                    )
            layer = grown
        masks = {v: sum(bit[a] for a in vals) for v, vals in layer.items()}
        for v1, vals in layer.items():
            allowed = -1
            for a in vals:
                allowed &= up[a]
            for v2 in itertools.product(*[above[c] for c in v1]):
                if masks[v2] & ~allowed:
                    return False
    return True


def _kernel_of_quotient_verdict(alg: FinAlgebra, q: Preorder) -> bool:
    """Whether the quotient construction yields a morphism with kernel q."""
    Q, qfn = quotient_set(alg.carrier, q)
    cls = qfn.mapping
    table = {}
    for (a, b), c in alg.mult.items():
        table[(cls[a], cls[b])] = cls[c]
    try:
        quot = FinAlgebra(alg.monad, Q, mult=table)
    except ValueError:
        return False
    return is_morphism(cls, alg, quot)


def _scope_semigroups() -> list[FinAlgebra]:
    """The members of ``small_semigroups`` with at most SEMIGROUP_SCOPE elements."""
    return [a for a in small_semigroups(SEMIGROUP_SCOPE) if len(a.carrier) <= SEMIGROUP_SCOPE]


def check_congruence_characterisations() -> CheckResult:
    """Agreement of the three congruence-ordering criteria: the bounded
    direct definition, the quotient-construction kernel, and shallow
    compatibility, on every preorder of every semigroup in scope."""
    t0 = time.perf_counter()
    algs = _scope_semigroups()
    cases = disagreements = congruences = 0
    for alg in algs:
        for q in _all_preorders(alg.carrier):
            cases += 1
            v1 = _bounded_quotient_compatibility(alg, q)
            v2 = _kernel_of_quotient_verdict(alg, q)
            v3 = is_congruence_ordering(alg, q)
            if not (v1 == v2 == v3):
                disagreements += 1
            if v3:
                congruences += 1
    detail = (
        f"every preorder of the {len(algs)} semigroups of at most {SEMIGROUP_SCOPE} "
        f"elements: {cases} preorders, {congruences} congruences, "
        f"{disagreements} disagreements"
    )
    return CheckResult(
        "congruence-characterisations", disagreements == 0, detail, time.perf_counter() - t0
    )


def _scope_recognizers():
    """Every recognizer over ``TERMINALITY_LETTERS`` whose letters generate
    a semigroup in scope, with every accepting set: assignments in
    ``itertools.product`` order, accepting sets by bitmask.  A recognizer
    whose letters generate a proper subalgebra is isomorphic to one over a
    smaller member, so none is left out."""
    alphabet = SortedOrderedSet({SORT_WORD: list(TERMINALITY_LETTERS)})
    for alg in _scope_semigroups():
        elems = list(alg.carrier)
        for images in itertools.product(elems, repeat=len(TERMINALITY_LETTERS)):
            if len(subalgebra_generated(alg, images).algebra.carrier) < len(elems):
                continue
            assignment = dict(zip(TERMINALITY_LETTERS, images))
            for mask in range(2 ** len(elems)):
                accepting = [e for i, e in enumerate(elems) if mask >> i & 1]
                yield Recognizer(alphabet, alg, assignment, accepting)


def check_terminality() -> CheckResult:
    """Factorisation onto the syntactic algebra exists, is the syntactic
    morphism, and keeps the language, for every recognizer in scope.  The
    letters generate the recognizer's algebra, so each element is the value
    of a word: agreeing on the elements is agreeing on every word."""
    t0 = time.perf_counter()
    cases = failures = 0
    for rec in _scope_recognizers():
        cases += 1
        try:
            syn = syntactic_algebra(rec)
            rho = factor_to_syntactic(rec, syn)
        except Exception:
            failures += 1
            continue
        if not rho.is_surjective() or not is_morphism(rho.fn, rec.algebra, syn.syn_algebra):
            failures += 1
            continue
        if any(rho(b) != syn.syn_morphism(b) for b in rec.algebra.carrier):
            failures += 1
            continue
        if any((rho(b) in syn.accepting) != (b in rec.accepting) for b in rec.algebra.carrier):
            failures += 1
    detail = (
        f"every recognizer over {TERMINALITY_LETTERS} onto a semigroup of at most "
        f"{SEMIGROUP_SCOPE} elements: {cases} recognizers, {failures} failures"
    )
    return CheckResult("terminality", failures == 0, detail, time.perf_counter() - t0)


# -- syntactic constants and decompositions -----------------------------------------------


def corpus_languages() -> dict[str, tuple[str, Optional[str]]]:
    """The four-language decomposition corpus: regex and optional alphabet."""
    return {
        "contains-aa": ("(a|b)*aa(a|b)*", None),
        "even-length-unary": ("(aa)+", None),
        "ends-ab": ("(a|b)*ab", None),
        "b-then-a": ("b*a*", None),
    }


def check_syntactic_constants() -> CheckResult:
    t0 = time.perf_counter()
    lib = identity_library()
    problems = []
    syn_aa = syntactic_algebra(dfa_to_recognizer(parse_regex("(a|b)*aa(a|b)*")))
    if syn_aa.size() != 5:
        problems.append(f"contains-aa size {syn_aa.size()} != 5")
    ok, _ = satisfies_all(syn_aa.syn_algebra, lib["APERIODIC"])
    if not ok:
        problems.append("contains-aa not aperiodic")
    syn_p = syntactic_algebra(dfa_to_recognizer(parse_regex("(aa)+")))
    if syn_p.size() != 2:
        problems.append(f"(aa)+ size {syn_p.size()} != 2")
    ok, fail = satisfies_all(syn_p.syn_algebra, lib["APERIODIC"])
    if ok:
        problems.append("(aa)+ satisfies aperiodicity")
    else:
        _, beta = fail
        if beta.get("x") != syn_p.letter_map["a"]:
            problems.append(f"witness {beta} is not the letter class of a")
    return CheckResult(
        "syntactic-constants", not problems, "; ".join(problems) or "sizes 5 and 2, witnesses match",
        time.perf_counter() - t0,
    )


def _up_sets(carrier: SortedOrderedSet) -> list[frozenset]:
    """Every upward-closed subset of ``carrier``, once each, in the order of
    the first subset (in ``itertools.product`` order of membership bits)
    whose upward closure it is."""
    elems = list(carrier)
    masks = itertools.product((0, 1), repeat=len(elems))
    return list(dict.fromkeys(upward_closure(carrier, itertools.compress(elems, m)) for m in masks))


def check_decomposition() -> CheckResult:
    """Derivative decompositions agree with direct membership on all words of
    length at most ``DECOMPOSITION_WORD_LENGTH``, for every upward-closed
    target of each corpus language."""
    t0 = time.perf_counter()
    failures = checked = targets = 0
    for name, (rx, alphabet) in corpus_languages().items():
        dfa = parse_regex(rx, alphabet)
        syn = syntactic_algebra(dfa_to_recognizer(dfa))
        words = [Word(w) for w in words_up_to(dfa.alphabet, DECOMPOSITION_WORD_LENGTH)]
        for t in _up_sets(syn.syn_algebra.carrier):
            targets += 1
            dec = decompose_as_derivatives(syn, t)
            for word in words:
                checked += 1
                if dec.matches(word) != (syn.syn_value(word) in t):
                    failures += 1
    return CheckResult(
        "derivative-decomposition",
        failures == 0,
        f"every up-set of the {len(corpus_languages())} corpus languages, words to length "
        f"{DECOMPOSITION_WORD_LENGTH}: {targets} targets, {checked} membership "
        f"comparisons, {failures} failures",
        time.perf_counter() - t0,
    )


# -- the dual-decider corpus ------------------------------------------------------------


def dual_decider_corpus() -> list[tuple[str, str, Optional[str], bool, Optional[int]]]:
    """(name, regex, alphabet, expected-definable, expected minimal rank)."""
    return [
        ("universal-ab", "(a|b)+", None, True, 0),
        ("contains-a", "(a|b)*a(a|b)*", None, True, 1),
        ("contains-b", "(a|b)*b(a|b)*", None, True, 1),
        ("only-a", "a+", "ab", True, 1),
        ("uniform", "a+|b+", None, True, 1),
        ("universal-unary", "a+", None, True, 0),
        ("unary-len-ge-2", "aa+", None, True, 2),
        ("unary-len-ge-3", "aaa+", None, True, 2),
        ("unary-len-ge-6", "aaaaaa+", None, True, 3),
        ("even-length", "(aa)+", None, False, None),
        ("odd-length", "a(aa)*", None, False, None),
        ("multiple-of-3", "(aaa)+", None, False, None),
    ]


def check_dual_deciders() -> CheckResult:
    """On the regression corpus, the aperiodicity verdict must equal the
    rank-sweep verdict with no inconclusive flags and the recorded minimal
    witnessing ranks must be stable."""
    t0 = time.perf_counter()
    problems = []
    for name, rx, alphabet, want_def, want_rank in dual_decider_corpus():
        v = fo_definable(parse_regex(rx, alphabet), rank_bound=DUAL_DECIDER_RANK)
        if v.definable != want_def:
            problems.append(f"{name}: definable={v.definable}, expected {want_def}")
        if v.inconclusive_rank:
            problems.append(f"{name}: inconclusive rank flag")
        if v.definable != (v.witness_rank is not None):
            problems.append(f"{name}: deciders disagree")
        if v.witness_rank != want_rank:
            problems.append(f"{name}: rank {v.witness_rank}, expected {want_rank}")
    return CheckResult(
        "dual-decider-agreement",
        not problems,
        "; ".join(problems) or "12 languages, verdicts and minimal ranks stable",
        time.perf_counter() - t0,
    )


def check_theory_constants() -> CheckResult:
    t0 = time.perf_counter()
    problems = []
    th0 = theory_algebra("ab", 0)
    th1 = theory_algebra("ab", 1)
    if th0.size() != 1:
        problems.append(f"rank-0 classes {th0.size()} != 1")
    if th1.size() != 3:
        problems.append(f"rank-1 classes {th1.size()} != 3")
    for th in (th0, th1):
        for i, ri in th.reps.items():
            for j, rj in th.reps.items():
                if th.algebra.mult[(i, j)] != th.classify(ri + rj):
                    problems.append(f"table ({i},{j}) mismatch at rank {th.rank}")
    return CheckResult(
        "theory-constants", not problems,
        "; ".join(problems) or "1 class at rank 0 and 3 at rank 1; table matches",
        time.perf_counter() - t0,
    )


# -- Wilke algebras -----------------------------------------------------------------------


def _letter_a_algebra(infinite: list, mix: dict, omega: dict, leq=()) -> tuple[FinAlgebra, dict]:
    """A Wilke algebra over letters a and b whose finite sort records
    whether an a occurred (h absorbs n), with the given infinite sort, its
    order ``leq``, ``mix`` and ``omega``, and the letter a sent to h."""
    carrier = SortedOrderedSet({SORT_FIN: ["n", "h"], SORT_INF: infinite}, leq)
    dot = {(x, y): "h" if "h" in (x, y) else "n" for x in "nh" for y in "nh"}
    return wilke_algebra(carrier, dot, mix, omega), {"a": "h", "b": "n"}


def finitely_many_a() -> tuple[FinAlgebra, dict]:
    """Accepts omega-words with finitely many a (over letters a, b)."""
    mix = {(x, e): e for x in "nh" for e in ("fin", "inf")}
    return _letter_a_algebra(["fin", "inf"], mix, {"n": "fin", "h": "inf"})


def exists_a() -> tuple[FinAlgebra, dict]:
    """Accepts omega-words containing at least one a."""
    mix = {("n", "no"): "no", ("n", "yes"): "yes", ("h", "no"): "yes", ("h", "yes"): "yes"}
    return _letter_a_algebra(["no", "yes"], mix, {"n": "no", "h": "yes"})


def ordered_finitely_many_a() -> tuple[FinAlgebra, dict]:
    """The finitely-many-a algebra with the infinite sort ordered (the
    rejecting value below the accepting one), exercising monotone tables."""
    mix = {(x, e): e for x in "nh" for e in ("fin", "inf")}
    return _letter_a_algebra(["inf", "fin"], mix, {"n": "fin", "h": "inf"}, [("inf", "fin")])


def check_wilke_invariance() -> CheckResult:
    """Ultimately periodic evaluation must not depend on the representation:
    (u,v), (uv,v), (u,vv) and rotations all evaluate alike, for every (u, v)
    in ``WILKE_SCOPE``."""
    t0 = time.perf_counter()
    letters, max_u, max_v = WILKE_SCOPE
    prefixes = [()] + list(words_up_to(letters, max_u))
    periods = list(words_up_to(letters, max_v))
    failures = 0
    for alg, beta in (finitely_many_a(), exists_a(), ordered_finitely_many_a()):
        for u in prefixes:
            for v in periods:
                base = eval_upword(alg, u, v, beta)
                rot = v[1:] + v[:1]
                variants = [
                    eval_upword(alg, u + v, v, beta),
                    eval_upword(alg, u, v + v, beta),
                    eval_upword(alg, u + v[:1], rot, beta),
                ]
                if any(x != base for x in variants):
                    failures += 1
    pairs = len(prefixes) * len(periods)
    return CheckResult(
        "wilke-invariance",
        failures == 0,
        f"every u.v^w over {letters} with |u| <= {max_u} and 1 <= |v| <= {max_v}: "
        f"3 algebras x {pairs} pairs, {failures} failures",
        time.perf_counter() - t0,
    )


# -- covers and Mod closure ------------------------------------------------------------


def cover_corpus() -> dict[str, FinAlgebra]:
    out = {}
    for name, (rx, alphabet) in corpus_languages().items():
        out[name] = syntactic_algebra(
            dfa_to_recognizer(parse_regex(rx, alphabet))
        ).syn_algebra
    for n in (2, 3):
        carrier = SortedOrderedSet({SORT_WORD: list(range(n))})
        out[f"cyclic-{n}"] = word_algebra(
            carrier, {(a, b): (a + b) % n for a in range(n) for b in range(n)}
        )
    return out


def check_canonical_covers() -> CheckResult:
    """Each algebra of ``cover_corpus``, and the Wilke algebras
    ``finitely_many_a`` and ``exists_a``, has a canonical cover whose map is
    onto and whose pairing evaluation agrees with the plain one
    (``verify_cover_evaluation``) on every free element over its elements
    up to size ``COVER_SIZE`` (``Monad.free_elements``).  The package holds
    no tree algebra; tree covers are checked by the tests."""
    t0 = time.perf_counter()
    problems = []
    algebras = cover_corpus()
    algebras["finitely-many-a"] = finitely_many_a()[0]
    algebras["exists-a"] = exists_a()[0]
    for name, alg in algebras.items():
        try:
            cov = canonical_cover(alg)
        except Exception as exc:
            problems.append(f"{name}: {exc}")
            continue
        if not cov.mu.is_surjective():
            problems.append(f"{name}: cover map not surjective")
        pools = {s: alg.elements(s) for s in alg.carrier.sorts}
        if not verify_cover_evaluation(cov, alg.monad.free_elements(pools, COVER_SIZE)):
            problems.append(f"{name}: cover evaluation mismatch")
    return CheckResult(
        "canonical-covers", not problems, "; ".join(problems) or
        f"{len(algebras)} algebras covered and verified",
        time.perf_counter() - t0,
    )


def _semigroup_tables(n: int):
    """All associative tables on range(n), as element-indexed dicts, in
    ``itertools.product`` order over the row-major cells.

    The cells are filled in that order, each with 0..n-1 in turn, and a
    partial table is dropped as soon as a triple whose four products are
    all filled breaks associativity: no completion of it is associative.
    Each triple is tested once, when the last of its four cells is filled,
    so a complete table that survives is associative."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    t = [0] * (n * n)  # t[a n + b] is the product of a and b

    def associative_through(k: int) -> bool:
        # the triples whose four cells lie in 0..k, cell k among them
        for a in range(n):
            for b in range(n):
                ab = a * n + b
                if ab > k:
                    return True
                for c in range(n):
                    bc = b * n + c
                    if bc > k:
                        break
                    left, right = t[ab] * n + c, a * n + t[bc]
                    if left <= k and right <= k and k in (ab, bc, left, right):
                        if t[left] != t[right]:
                            return False
        return True

    def fill(k: int):
        if k == len(t):
            yield dict(zip(cells, t))
            return
        for v in range(n):
            t[k] = v
            if associative_through(k):
                yield from fill(k + 1)

    return fill(0)


def _canonical_form(n: int, table: dict) -> tuple:
    best = None
    for perm in itertools.permutations(range(n)):
        # renumber arguments consistently with the permutation
        relab = tuple(
            perm[table[(pa, pb)]]
            for pa in sorted(range(n), key=lambda x: perm[x])
            for pb in sorted(range(n), key=lambda x: perm[x])
        )
        if best is None or relab < best:
            best = relab
    return best


def small_semigroups(max_size: int = 3) -> list[FinAlgebra]:
    """All semigroups of size up to max_size up to isomorphism, plus a few
    four-element members (cyclic, a nilpotent chain, a product)."""
    out = []
    for n in range(1, max_size + 1):
        seen = set()
        for table in _semigroup_tables(n):
            key = _canonical_form(n, table)
            if key in seen:
                continue
            seen.add(key)
            carrier = SortedOrderedSet({SORT_WORD: list(range(n))})
            out.append(word_algebra(carrier, table))
    c4 = SortedOrderedSet({SORT_WORD: list(range(4))})
    out.append(word_algebra(c4, {(a, b): (a + b) % 4 for a in range(4) for b in range(4)}))
    out.append(
        word_algebra(
            c4,
            {(a, b): min(a + b + 2, 3) for a in range(4) for b in range(4)},
        )
    )
    z2 = next(
        a
        for a in out
        if len(a.carrier) == 2
        and any(a.mult[(x, x)] != x and a.mult[(a.mult[(x, x)], x)] == x for x in a.carrier)
    )
    out.append(product([z2, z2]))
    return out


def _all_preorders(carrier: SortedOrderedSet):
    """Every preorder on ``carrier`` that relates only elements of one sort,
    once each, in the order of the first subset of the same-sort pairs
    (read as a binary number) that generates it.

    Each subset's relation is closed as successor bitmasks over the
    carrier's numbering; a ``Preorder`` is built from those rows only for a
    closure not met before."""
    sorts = list(map(carrier.sort_of, carrier))
    steps = [(i, 1 << j) for i, s in enumerate(sorts) for j, t in enumerate(sorts) if i != j and s == t]
    reflexive = [1 << i for i in range(len(sorts))]
    seen = set()
    for mask in range(2 ** len(steps)):
        succ = reflexive[:]
        for k, (i, bit) in enumerate(steps):
            if mask >> k & 1:
                succ[i] |= bit
        key = tuple(_transitive_closure(succ))
        if key not in seen:
            seen.add(key)
            yield Preorder._from_rows(carrier, succ)


def _product_problems(p: FinAlgebra) -> list[str]:
    """One problem for each element of the word algebra ``p`` that fails
    x^w x = x^w.

    The identity involves x alone, so a subalgebra satisfies it iff each of
    its members does, and the cyclic subalgebra of x does iff x does: its
    members are powers of x and share x's idempotent power.  So the
    elements decide the identity for every subalgebra of ``p``."""
    problems = []
    for x in p.carrier:
        e = idempotent_power(p, x)
        if p.mult[(e, x)] != e:
            problems.append("cyclic subalgebra of product not aperiodic")
    return problems


def check_mod_closure() -> CheckResult:
    """Mod(APERIODIC) over the enumerated small semigroups is closed under
    quotients and under subalgebras of binary products, exhaustively at this
    size.  Aperiodicity involves x alone, so checking each element of a
    product decides it for every subalgebra of that product: no subalgebra
    is sampled or skipped."""
    t0 = time.perf_counter()
    lib = identity_library()["APERIODIC"]
    algs = small_semigroups()
    aperiodic = [a for a in algs if satisfies_all(a, lib)[0]]
    problems = []
    for a in aperiodic:
        for q in _all_preorders(a.carrier):
            try:
                quot, _ = quotient_algebra(a, q)
            except NotCongruence:
                continue
            if not satisfies_all(quot, lib)[0]:
                problems.append(
                    f"quotient of aperiodic not aperiodic ({len(a.carrier)})"
                )
    for i, a in enumerate(aperiodic):
        for b in aperiodic[i:]:
            problems += _product_problems(product([a, b]))
    detail = (
        "; ".join(problems)
        or f"{len(aperiodic)} aperiodic members of {len(algs)}; closure holds"
    )
    return CheckResult("mod-closure", not problems, detail, time.perf_counter() - t0)


# -- the full battery -----------------------------------------------------------------


def run_all() -> list[CheckResult]:
    return [
        check()
        for check in (
            check_monad_laws, check_congruence_characterisations, check_terminality,
            check_syntactic_constants, check_decomposition, check_dual_deciders,
            check_theory_constants, check_wilke_invariance, check_canonical_covers,
            check_mod_closure,
        )
    ]
