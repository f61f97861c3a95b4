"""Contexts as free elements with one hole: the pin of the saturated
witnesses, the one hole of every context the package builds, and
composition, which is the monad's ``flat``, checking the inner context's
sort against the outer hole."""

import hashlib

import pytest

from emalg.automata import dfa_to_recognizer, parse_regex
from emalg.lawsuite import corpus_languages
from emalg.monads import HOLE, OMEGA_UP, SORT_WORD, WORD, SortMismatch, parse_tree, tree_monad
from emalg.syntactic import (
    _generators,
    _witnessed_steps,
    context_compose,
    context_to_str,
    decompose_as_derivatives,
    saturate_all,
    syntactic_algebra,
)
from tests._contexts import OmegaContext, TreeContext, WordContext
from tests.test_algebra_tables import _recognizers
from tests.test_generator_steps import all_upsets
from tests.test_signature import _step_algebras
from tests.test_syntactic import _refinement_cases

# -- the saturated witnesses ---------------------------------------------------------


def _saturation_text(alg) -> str:
    """Each context function's sorts and witness, in saturation order."""
    return "\n".join(
        f"{source} {target} {context_to_str(f.witness, repr)}"
        for (source, target), fns in saturate_all(alg).items()
        for f in fns
    )


def _saturated_algebras():
    """Every algebra of the refinement cases, then the algebra, image and
    syntactic algebra of each omega and tree recognizer."""
    yield from dict.fromkeys(alg for alg, _, _ in _refinement_cases())
    for rec in _recognizers():
        syn = syntactic_algebra(rec)
        yield from (rec.algebra, syn.image.algebra, syn.syn_algebra)


SATURATION_PIN = "a6d3b3786f099ce78cc15a20854ce5f12758281c03101ad6a87d6c7e932ee1bd"


def test_saturated_witnesses_are_pinned():
    text = "\n".join(_saturation_text(alg) for alg in _saturated_algebras())
    assert text.count("\n") + 1 == 258 + 288
    assert hashlib.sha256(text.encode()).hexdigest() == SATURATION_PIN


# -- one hole ----------------------------------------------------------------------


def _built_contexts():
    """(monad, context) for every context the package builds: the step
    witnesses over every element and over the generators, the saturated
    witnesses, and the clauses of every decomposition of the corpus."""
    for alg in _step_algebras():
        for generators in (None, _generators(alg)):
            for *_, witness in _witnessed_steps(alg, generators):
                yield alg.monad, witness
    for alg in _saturated_algebras():
        for fns in saturate_all(alg).values():
            for f in fns:
                yield alg.monad, f.witness
    for rx, alphabet in corpus_languages().values():
        syn = syntactic_algebra(dfa_to_recognizer(parse_regex(rx, alphabet)))
        for target in all_upsets(syn.syn_algebra, SORT_WORD):
            for _, ctxs in decompose_as_derivatives(syn, target).clauses:
                for ctx in ctxs:
                    yield WORD, ctx


def test_every_built_context_has_one_hole_and_a_sort():
    kinds = set()
    for monad, ctx in _built_contexts():
        assert [a for a, _ in monad.labels(ctx)].count(HOLE) == 1, ctx
        monad.element_sort(ctx)
        kinds.add(monad.kind)
    assert kinds == {"word", "omega", "tree"}


# -- composition is flat -----------------------------------------------------------


def test_a_tree_context_takes_an_inner_context_of_its_hole_sort_only():
    trees = tree_monad()
    outer = TreeContext(parse_tree("b(_(x0,x1))", allow_hole=True))
    wide = TreeContext(parse_tree("u(_(x0,x1))", allow_hole=True))
    assert context_to_str(context_compose(trees, outer, wide)) == "b(u(_(x0,x1)))"
    # an inner context of sort 1 in a hole of sort 2 would leave b(u(_(x0)))
    # claiming sort 2 with one variable
    narrow = TreeContext(parse_tree("u(_(x0))", allow_hole=True))
    with pytest.raises(SortMismatch):
        context_compose(trees, outer, narrow)


def test_a_tree_with_a_node_past_the_arity_cap_is_no_element():
    """A binary node below a root of sort 0 is past the cap of a monad whose
    sorts stop at 1, wherever it sits."""
    unary = tree_monad(1)
    wide = parse_tree("b(c,c)")
    hole = TreeContext(parse_tree("u(_)", allow_hole=True))
    assert tree_monad(2).element_sort(wide) == 0
    for t in (wide, parse_tree("u(b(c,c))"), parse_tree("u(u(b(x0,c)))")):
        with pytest.raises(SortMismatch, match="2 children exceeds arity cap 1"):
            unary.element_sort(t)
    with pytest.raises(SortMismatch):
        context_compose(unary, wide, hole)
    with pytest.raises(SortMismatch):
        context_compose(unary, hole, wide)


def test_an_omega_context_takes_an_inner_context_of_its_hole_sort_only():
    finite_hole = OmegaContext(("h", HOLE))
    loop = OmegaContext(("n",), (HOLE,))
    infinite_hole = OmegaContext(("h",), None, HOLE)
    with pytest.raises(SortMismatch):
        context_compose(OMEGA_UP, finite_hole, loop)
    with pytest.raises(SortMismatch):
        context_compose(OMEGA_UP, loop, infinite_hole)
    with pytest.raises(SortMismatch):
        context_compose(OMEGA_UP, infinite_hole, finite_hole)
    assert context_to_str(context_compose(OMEGA_UP, infinite_hole, loop)) == "[h,n]([_])^w"
    assert context_to_str(context_compose(OMEGA_UP, loop, finite_hole)) == "[n]([h,_])^w"


def test_contexts_of_two_instances_do_not_compose():
    word = WordContext(("x",), ())
    infinite = OmegaContext(("x",), None, HOLE)
    tree = TreeContext(parse_tree("u(_)", allow_hole=True))
    trees = tree_monad()
    for monad, outer, inner in (
        (WORD, word, infinite),
        (WORD, infinite, word),
        (WORD, word, tree),
        (OMEGA_UP, tree, word),
        (trees, tree, word),
        (trees, infinite, tree),
    ):
        with pytest.raises(SortMismatch):
            context_compose(monad, outer, inner)
    # a word context and a finite omega context are the same word, so they
    # compose under either monad
    finite = OmegaContext(("x", HOLE))
    assert finite == word
    assert context_compose(WORD, word, finite) == context_compose(OMEGA_UP, word, finite)
