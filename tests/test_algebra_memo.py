"""What a syntactic algebra derives from its algebra and generators alone is
memoised on the algebra: results built on one shared algebra, in any
order, equal the builds on fresh copies of it."""

import gc
import itertools
import weakref

from emalg import algebra
from emalg.algebra import (
    FinAlgebra,
    Recognizer,
    is_congruence_ordering,
    quotient_algebra,
    subalgebra_generated,
    word_algebra,
)
from emalg.automata import dfa_to_recognizer, parse_regex
from emalg.core import Preorder, SortedOrderedSet, upward_closure
from emalg.lawsuite import (
    _all_preorders,
    _scope_recognizers,
    finitely_many_a,
    ordered_finitely_many_a,
    small_semigroups,
)
from emalg.logic import fo_definable, is_definable_algebra
from emalg.monads import SORT_FIN, SORT_WORD
from emalg.syntactic import _generators, _step_arrays, saturate_all, syntactic_algebra
from tests._reference import is_order_extending
from tests.test_algebra import bool_tree_algebra
from tests.test_generator_steps import all_upsets


def fresh(alg: FinAlgebra) -> FinAlgebra:
    """A new algebra with ``alg``'s carrier and tables, built from labels."""
    return FinAlgebra(
        alg.monad, alg.carrier, mult=alg.mult, dot=alg.dot, mix=alg.mix, omega=alg.omega, comp=alg.comp
    )


def on(alg: FinAlgebra, rec: Recognizer) -> Recognizer:
    return Recognizer(rec.alphabet, alg, rec.assignment, rec.accepting)


def described(syn) -> tuple:
    """Carrier, order, tables, accepting set, letter map and witnesses of a
    syntactic result, with its image algebra's carrier and order."""

    def algebra_of(alg):
        carrier = tuple(tuple(alg.elements(s)) for s in alg.carrier.sorts)
        tables = tuple(tuple(t.items()) for t in alg.tables.values())
        return carrier, alg.carrier.leq_pairs(), tables

    return (
        algebra_of(syn.syn_algebra),
        algebra_of(syn.image.algebra),
        syn.accepting,
        syn.letter_map,
        tuple(syn.image.witnesses.items()),
        syn.preorder.pairs(),
    )


def upset_recognizers(alg: FinAlgebra, alphabet: SortedOrderedSet, beta: dict):
    for sort in alg.carrier.sorts:
        for accepting in sorted(all_upsets(alg, sort), key=lambda u: sorted(map(repr, u))):
            yield Recognizer(alphabet, alg, beta, accepting)


def recognizer_families():
    """Three lists of recognizers, each over algebras shared within it."""
    yield list(_scope_recognizers())
    alg, beta = finitely_many_a()
    yield list(upset_recognizers(alg, SortedOrderedSet({SORT_FIN: ["a", "b"]}), beta))
    alg = bool_tree_algebra(2, with_var_slots=True)
    alphabet = SortedOrderedSet({0: ["c", "d"], 1: ["u"], 2: ["b"]})
    beta = {"c": (0, False), "d": (0, True), "u": (1, False), "b": (2, False)}
    yield list(upset_recognizers(alg, alphabet, beta))


def test_shared_algebras_give_the_fresh_builds_in_either_order():
    count = 0
    for forward, backward in zip(recognizer_families(), recognizer_families()):
        want = [described(syntactic_algebra(on(fresh(rec.algebra), rec))) for rec in forward]
        assert [described(syntactic_algebra(rec)) for rec in forward] == want
        assert [described(syntactic_algebra(rec)) for rec in reversed(backward)] == want[::-1]
        count += len(want)
        assert len({id(rec.algebra) for rec in forward}) < len(forward)
    assert count > 400


def test_a_mutated_witness_map_does_not_reach_the_next_call():
    alg, beta = finitely_many_a()
    rec = Recognizer(SortedOrderedSet({SORT_FIN: ["a", "b"]}), alg, beta, frozenset({"fin"}))
    first = syntactic_algebra(rec)
    want = dict(first.image.witnesses)
    first.image.witnesses.clear()
    second = syntactic_algebra(rec)
    assert second.image.witnesses == want
    assert second.image.algebra is first.image.algebra
    sub = subalgebra_generated(alg, ["h"])
    sub.witnesses["h"] = None
    assert subalgebra_generated(alg, ["h"]).witnesses["h"] is not None


def test_an_algebra_held_by_a_weak_reference_is_collected():
    alg, beta = finitely_many_a()
    rec = Recognizer(SortedOrderedSet({SORT_FIN: ["a", "b"]}), alg, beta, frozenset({"fin"}))
    syntactic_algebra(rec)
    held = weakref.ref(alg)
    del alg, rec
    gc.collect()
    assert held() is None


def test_an_algebra_is_freed_with_its_last_reference():
    # the memo holds no reference back to its algebra, so no cycle is left
    # for the collector
    makes = (lambda: finitely_many_a()[0], lambda: dfa_to_recognizer(parse_regex("(a|b)*ab")).algebra)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for make in makes:
            alg = make()
            for gens in ([alg.carrier._by_index[0]], list(alg.carrier)):
                subalgebra_generated(alg, gens)
            _step_arrays(alg, _generators(alg))
            saturate_all(alg)
            held = weakref.ref(alg)
            del alg
            assert held() is None
    finally:
        if enabled:
            gc.enable()


def test_an_algebra_is_freed_with_its_last_reference_after_a_walk():
    # the fibres that the compatibility walk memoises hold the tables, not
    # the algebra: ordered carriers walked at construction, and preorders
    # walked on discrete ones, bare tree slots included
    makes = (
        lambda: finitely_many_a()[0],
        lambda: dfa_to_recognizer(parse_regex("(a|b)*ab")).algebra,
        lambda: bool_tree_algebra(2, with_var_slots=True),
        lambda: ordered_finitely_many_a()[0],
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        for make in makes:
            alg = make()
            for q in itertools.islice(_all_preorders(alg.carrier), 40):
                if is_order_extending(q):
                    is_congruence_ordering(alg, q)
            assert any(key[0] is algebra._fibres.__wrapped__ for key in alg._memo)
            held = weakref.ref(alg)
            del alg
            assert held() is None
    finally:
        if enabled:
            gc.enable()
    alg = ordered_finitely_many_a()[0]  # walked for monotonicity when built
    held = weakref.ref(alg)
    del alg
    gc.collect()
    assert held() is None


def test_an_all_singleton_quotient_under_another_order_gets_its_own_results():
    # the max semilattice on {0, 1}, discrete, and the copy that
    # ``quotient_algebra`` makes under 0 <= 1
    alg = word_algebra(
        SortedOrderedSet({SORT_WORD: [0, 1]}), {(a, b): max(a, b) for a in (0, 1) for b in (0, 1)}
    )
    alphabet = SortedOrderedSet({SORT_WORD: ["a", "b"]})
    rec = Recognizer(alphabet, alg, {"a": 0, "b": 1}, frozenset({1}))
    before = described(syntactic_algebra(rec))
    gens, steps = _generators(alg), _step_arrays(alg, _generators(alg))
    quot, _ = quotient_algebra(alg, Preorder(alg.carrier, [(0, 1)]))
    assert quot.carrier.leq_pairs() != alg.carrier.leq_pairs()
    assert subalgebra_generated(quot, [0, 1]).algebra.carrier.leq_pairs() == quot.carrier.leq_pairs()
    assert _generators(quot) == gens and _step_arrays(quot, gens) is not steps
    ordered = on(quot, rec)
    assert described(syntactic_algebra(ordered)) == described(syntactic_algebra(on(fresh(quot), rec)))
    assert described(syntactic_algebra(rec)) == before


def test_definable_algebras_close_each_algebra_once(monkeypatch):
    def reference(alg):
        C = list(alg.carrier)
        alphabet, assignment = SortedOrderedSet({SORT_WORD: C}), {c: c for c in C}
        return all(
            fo_definable(Recognizer(alphabet, fresh(alg), assignment, upward_closure(alg.carrier, {a}))).definable
            for a in alg.carrier
        )

    algs = small_semigroups()
    want = [reference(alg) for alg in algs]
    closures = []
    closure = algebra._closure
    monkeypatch.setattr(algebra, "_closure", lambda alg, start: closures.append(alg) or closure(alg, start))
    assert [is_definable_algebra(alg) for alg in algs] == want
    assert closures == algs
    assert 0 < sum(want) < len(want)
