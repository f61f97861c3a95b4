"""Evaluation over element indices against the label evaluator of
``tests/_reference.py``: values of every free element up to a declared
size, ``satisfies`` verdicts and first counterexamples, and the texts of
``MissingTableEntry`` and ``SortMismatch``, on algebras of all three
kinds.  The library's computations read the integer tables only: they
decode no label view, and the evaluator's set-up lives on its algebra."""

import gc
import weakref

from emalg import algebra, profinite
from emalg.algebra import MissingTableEntry, eval_element, restrict_sorts
from emalg.algio import parse_algebra
from emalg.automata import dfa_to_recognizer, parse_regex
from emalg.lawsuite import cover_corpus, exists_a, finitely_many_a, ordered_finitely_many_a
from emalg.logic import fo_definable
from emalg.monads import SORT_FIN, SortMismatch, Word
from emalg.profinite import identity_library, parse_inequalities
from emalg.syntactic import syntactic_algebra
from tests import _reference
from tests.test_algebra import bool_tree_algebra, zmod
from tests.test_algebra_tables import diagonal_bare_slot_algebra, ordered_bool_tree_algebra
from tests.test_cli import CHECK_AND_COVER_FILES, CHECK_INEQUALITIES
from tests.test_generator_steps import count_cap_omega, family

#: The free elements evaluated: every one of at most this size.
FREE_SIZE = 3


def _algebras():
    """(name, algebra): the word algebras of the cover corpus, omega
    algebras with both sorts and with the finite sort alone, and tree
    algebras with and without bare-slot entries."""
    yield from cover_corpus().items()
    yield "finitely-many-a", finitely_many_a()[0]
    yield "exists-a", exists_a()[0]
    yield "ordered-finitely-many-a", ordered_finitely_many_a()[0]
    yield "finitely-many-a-fin", restrict_sorts(finitely_many_a()[0], {SORT_FIN})
    yield "count-cap-2", count_cap_omega(2)
    yield "bool-tree-3-var-slots", bool_tree_algebra(3, with_var_slots=True)
    yield "bool-tree-2", bool_tree_algebra()
    yield "ordered-bool-tree", ordered_bool_tree_algebra()
    yield "diagonal-bare-slot", diagonal_bare_slot_algebra()


def _outcome(fn, *args):
    """What ``fn(*args)`` gives: its value, or the type and text of the
    evaluation error it raises."""
    try:
        return fn(*args)
    except (MissingTableEntry, SortMismatch) as exc:
        return type(exc).__name__, str(exc)


def test_values_and_errors_are_the_label_evaluators():
    kinds, errors = set(), {}
    for name, alg in _algebras():
        elems = list(alg.carrier)
        ident = {e: e for e in elems}
        shifted = dict(zip(elems, elems[1:] + elems[:1]))  # crosses sorts
        pools = {s: alg.elements(s) for s in alg.carrier.sorts}
        for t in alg.monad.free_elements(pools, FREE_SIZE):
            for beta in (ident, shifted):
                got = _outcome(eval_element, alg, beta, t)
                assert got == _outcome(_reference.eval_element, alg, beta, t), (name, t)
                if isinstance(got, tuple) and got[0] in ("MissingTableEntry", "SortMismatch"):
                    errors[got[0]] = errors.get(got[0], 0) + 1
        kinds.add(alg.kind)
    assert kinds == {"word", "omega", "tree"}
    assert errors.keys() == {"MissingTableEntry", "SortMismatch"}


def test_powers_and_tree_terms_are_the_label_evaluators():
    for name, alg in _algebras():
        for e in alg.carrier:
            assert _outcome(profinite.idempotent_power, alg, e) == _outcome(
                _reference.idempotent_power, alg, e
            ), (name, e)
        for b in alg.elements(1) if alg.kind == "tree" else ():
            for c in alg.carrier:
                term = profinite.TreeTerm(profinite.TermVar("b"), (profinite.TermVar("c"),))
                beta = {"b": b, "c": c}
                assert _outcome(profinite.eval_term, alg, beta, term) == _outcome(
                    _reference.eval_term, alg, beta, term
                ), (name, b, c)


def _inequalities(text: str) -> list:
    """The inequalities a ``check`` argument names: a library set or one
    parsed inequality."""
    return identity_library().get(text) or parse_inequalities(text)


def test_satisfies_is_the_label_satisfies():
    cases = []
    for text in CHECK_AND_COVER_FILES.values():
        alg = parse_algebra(text)
        cases += [(alg, ineq) for arg in CHECK_INEQUALITIES for ineq in _inequalities(arg)]
    library = [ineq for ineqs in identity_library().values() for ineq in ineqs]
    cases += [(alg, ineq) for _, alg in _algebras() for ineq in library]
    failed = 0
    for alg, ineq in cases:
        got = _outcome(profinite.satisfies, alg, ineq)
        assert got == _outcome(_reference.satisfies, alg, ineq), (alg, str(ineq))
        failed += got[0] is False
    assert failed > 10


def test_fo_definable_decodes_no_label_view():
    for language in ("(aa)*", family("a", 2), "(a|b)*ab"):
        rec = dfa_to_recognizer(parse_regex(language))
        syn = syntactic_algebra(rec)
        fo_definable(rec)
        fo_definable(syn)
        for alg in (rec.algebra, syn.syn_algebra):
            assert not {"_labelled", "tables"} & set(vars(alg)), language


def _reaches(start, target, depth: int) -> bool:
    """Whether ``target`` is among the objects that ``start`` refers to,
    directly or through at most ``depth`` further steps."""
    layer, seen = [start], set()
    for _ in range(depth + 1):
        layer = [o for x in layer for o in gc.get_referents(x) if id(o) not in seen]
        if any(o is target for o in layer):
            return True
        seen.update(map(id, layer))
    return False


def test_the_evaluator_context_is_one_memo_entry_freed_with_its_algebra():
    alg = zmod(5)
    for x in range(5):
        eval_element(alg, {"x": x}, Word(("x",) * 3))
    profinite.satisfies_all(alg, identity_library()["APERIODIC"])
    contexts = [v for k, v in alg._memo.items() if k[0] is algebra._evaluator.__wrapped__]
    assert len(contexts) == 1
    assert not _reaches(contexts[0], alg, 3)
    gone = weakref.ref(alg)
    del alg, contexts
    gc.collect()
    assert gone() is None
