"""Algebraic language theory toolkit: syntactic ordered algebras for finite
words, ultimately periodic omega-words and finite ranked trees; profinite
inequalities; rank-stratified first-order theory algebras; and the
cross-validation harness tying aperiodicity to first-order definability."""

from .algebra import (
    FinAlgebra,
    Morphism,
    Recognizer,
    check_algebra_laws,
    eval_element,
    eval_upword,
    is_congruence_ordering,
    is_morphism,
    product,
    quotient_algebra,
    restrict_sorts,
    subalgebra_generated,
    tree_algebra,
    wilke_algebra,
    word_algebra,
)
from .automata import Dfa, dfa_to_recognizer, parse_regex
from .core import Preorder, SortedFunction, SortedOrderedSet, factor_through, kernel
from .logic import ef_equiv, fo_definable, is_definable_algebra, theory_algebra
from .monads import OMEGA_UP, WORD, parse_element, serialize, tree_monad
from .profinite import (
    eval_term,
    identity_library,
    mod_filter,
    parse_inequalities,
    parse_term,
    satisfies,
)
from .syntactic import (
    decompose_as_derivatives,
    factor_to_syntactic,
    syntactic_algebra,
    syntactic_preorder,
)
from .varieties import canonical_cover, divides, generated_membership

__version__ = "0.1.0"

__all__ = [
    "FinAlgebra", "Morphism", "Recognizer", "check_algebra_laws",
    "eval_element", "eval_upword", "is_congruence_ordering", "is_morphism",
    "product", "quotient_algebra", "restrict_sorts", "subalgebra_generated",
    "tree_algebra", "wilke_algebra", "word_algebra",
    "Dfa", "dfa_to_recognizer", "parse_regex",
    "Preorder", "SortedFunction", "SortedOrderedSet", "factor_through", "kernel",
    "ef_equiv", "fo_definable", "is_definable_algebra", "theory_algebra",
    "OMEGA_UP", "WORD", "parse_element", "serialize", "tree_monad",
    "eval_term", "identity_library", "mod_filter", "parse_inequalities",
    "parse_term", "satisfies",
    "decompose_as_derivatives", "factor_to_syntactic", "syntactic_algebra",
    "syntactic_preorder",
    "canonical_cover", "divides", "generated_membership",
]
