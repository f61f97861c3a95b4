import random

import pytest

from emalg.algebra import morphism, word_algebra
from emalg.automata import dfa_to_recognizer, parse_regex
from emalg.core import SortedOrderedSet
from emalg.lawsuite import finitely_many_a
from emalg.monads import SORT_WORD, SortMismatch
from emalg.profinite import (
    MAX_VARS,
    InfPow,
    Inequality,
    OmegaPow,
    TermSeq,
    TermVar,
    TreeTerm,
    eval_term,
    idempotent_power,
    identity_library,
    mod_filter,
    parse_inequalities,
    parse_term,
    satisfies,
    satisfies_all,
    term_to_str,
)
from emalg.syntactic import syntactic_algebra


def zmod(n):
    carrier = SortedOrderedSet({SORT_WORD: list(range(n))})
    return word_algebra(
        carrier, {(a, b): (a + b) % n for a in range(n) for b in range(n)}
    )


def test_parse_and_serialize():
    t = parse_term("x^w x")
    assert t == TermSeq((OmegaPow(TermVar("x")), TermVar("x")))
    assert term_to_str(t) == "x^w x"
    nested = parse_term("(x y)^w z")
    assert term_to_str(nested) == "(x y)^w z"
    assert parse_term(term_to_str(nested)) == nested
    with pytest.raises(ValueError):
        parse_term("x <=")
    with pytest.raises(ValueError):
        parse_term("(x")


def test_identity_sugar():
    both = parse_inequalities("x y = y x")
    assert len(both) == 2
    assert str(both[0]) == "x y <= y x"
    assert str(both[1]) == "y x <= x y"
    single = parse_inequalities("x^w x <= x^w")
    assert len(single) == 1


def test_library_round_trips():
    for name, ineqs in identity_library().items():
        for iq in ineqs:
            assert str(parse_inequalities(str(iq))[0]) == str(iq)


def test_idempotent_power():
    z3 = zmod(3)
    assert idempotent_power(z3, 1) == 0
    assert idempotent_power(z3, 0) == 0
    z2 = zmod(2)
    assert idempotent_power(z2, 1) == 0
    syn = syntactic_algebra(dfa_to_recognizer(parse_regex("(a|b)*aa(a|b)*")))
    a_cls = syn.letter_map["a"]
    aa = syn.syn_algebra.mult[(a_cls, a_cls)]
    assert eval_term(syn.syn_algebra, {"x": a_cls}, parse_term("x^w")) == aa
    # idempotents are their own limit
    for e in syn.syn_algebra.carrier:
        if syn.syn_algebra.mult[(e, e)] == e:
            assert idempotent_power(syn.syn_algebra, e) == e


def test_satisfies_and_witness():
    z2 = zmod(2)
    ok, beta = satisfies(z2, parse_inequalities("x^w x <= x^w")[0])
    assert not ok and beta == {"x": 1}
    one = word_algebra(SortedOrderedSet({SORT_WORD: ["u"]}), {("u", "u"): "u"})
    for text in ["x^w x <= x^w", "x y <= y x", "x <= y"]:
        assert satisfies(one, parse_inequalities(text)[0])[0]
    syn = syntactic_algebra(dfa_to_recognizer(parse_regex("(a|b)*aa(a|b)*")))
    assert satisfies_all(syn.syn_algebra, identity_library()["APERIODIC"])[0]


def test_satisfies_reflexive_and_var_bound():
    z3 = zmod(3)
    assert satisfies(z3, parse_inequalities("x <= x")[0])[0]
    many = Inequality(
        TermSeq(tuple(TermVar(f"v{i}") for i in range(5))), TermVar("v0")
    )
    with pytest.raises(ValueError):
        satisfies(z3, many)


def test_the_assignment_bound_is_four_variables():
    z2 = zmod(2)
    assert MAX_VARS == 4
    assert satisfies(z2, parse_inequalities("x y z u <= u z y x")[0])[0]
    with pytest.raises(ValueError, match="^5 variables exceed the assignment bound 4$"):
        satisfies_all(z2, parse_inequalities("x y z u v <= v"))


def test_mod_filter():
    z2 = zmod(2)
    syn = syntactic_algebra(dfa_to_recognizer(parse_regex("(a|b)*aa(a|b)*"))).syn_algebra
    lib = identity_library()
    assert mod_filter([z2, syn], []) == [z2, syn]
    assert mod_filter([z2, syn], lib["APERIODIC"]) == [syn]
    assert mod_filter([z2, syn], parse_inequalities("x <= x")) == [z2, syn]
    assert not satisfies_all(syn, lib["COMMUTATIVE"])[0]


def test_idempotent_library_on_left_zero():
    carrier = SortedOrderedSet({SORT_WORD: ["p", "q"]})
    left_zero = word_algebra(
        carrier, {(a, b): a for a in ("p", "q") for b in ("p", "q")}
    )
    assert satisfies_all(left_zero, identity_library()["IDEMPOTENT"])[0]
    assert not satisfies_all(left_zero, identity_library()["COMMUTATIVE"])[0]


def _rand_term(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return TermVar(rng.choice("xyz"))
    if rng.random() < 0.3:
        return OmegaPow(_rand_term(rng, depth - 1))
    return TermSeq(tuple(_rand_term(rng, depth - 1) for _ in range(rng.randint(2, 3))))


def test_eval_commutes_with_morphisms():
    z4 = zmod(4)
    z2 = zmod(2)
    phi = morphism(z4, z2, {0: 0, 1: 1, 2: 0, 3: 1})
    rng = random.Random(6)
    for _ in range(300):
        t = _rand_term(rng)
        beta = {v: rng.randrange(4) for v in "xyz"}
        lhs = phi(eval_term(z4, beta, t))
        rhs = eval_term(z2, {v: phi(b) for v, b in beta.items()}, t)
        assert lhs == rhs


def test_eval_monotone_in_assignment():
    chain = word_algebra(
        SortedOrderedSet.chain([0, 1]),
        {(a, b): max(a, b) for a in (0, 1) for b in (0, 1)},
    )
    rng = random.Random(7)
    for _ in range(200):
        t = _rand_term(rng)
        beta = {v: rng.choice([0, 1]) for v in "xyz"}
        beta2 = {v: max(b, rng.choice([0, 1])) for v, b in beta.items()}
        assert chain.carrier.leq(eval_term(chain, beta, t), eval_term(chain, beta2, t))


def test_omega_pow_output_is_idempotent_power():
    rng = random.Random(8)
    from tests._samplers import rand_transformation_algebra

    for _ in range(50):
        alg = rand_transformation_algebra(rng, max_carrier=8)
        for v in alg.carrier:
            e = idempotent_power(alg, v)
            assert alg.mult[(e, e)] == e
            p = v
            powers = {v}
            while True:
                p = alg.mult[(p, v)]
                if p in powers:
                    break
                powers.add(p)
            assert e in powers


def test_inf_pow_and_omega_terms():
    alg, beta_letters = finitely_many_a()
    val = eval_term(alg, {"x": "h"}, InfPow(TermVar("x")))
    assert val == "inf"
    val = eval_term(alg, {"x": "n"}, InfPow(TermVar("x")))
    assert val == "fin"
    mixed = TermSeq((TermVar("x"), InfPow(TermVar("y"))))
    assert eval_term(alg, {"x": "h", "y": "n"}, mixed) == "fin"
    with pytest.raises(SortMismatch):
        eval_term(alg, {"x": "h", "y": "n"}, TermSeq((InfPow(TermVar("y")), TermVar("x"))))


def test_tree_terms():
    from tests.test_algebra import bool_tree_algebra

    alg = bool_tree_algebra()
    t = TreeTerm(TermVar("f"), (TermVar("u"), TermVar("v")))
    beta = {"f": (2, False), "u": (0, True), "v": (0, False)}
    assert eval_term(alg, beta, t) == (0, True)
    # unary composition chain and its idempotent power
    seq = parse_term("g g g")
    assert eval_term(alg, {"g": (1, False)}, seq) == (1, False)
    assert eval_term(alg, {"g": (1, True)}, parse_term("g^w")) == (1, True)


def test_identity_library_returns_fresh_lists():
    """The inequalities are parsed once, but a caller that edits its copy
    of the library leaves the next call's unchanged."""
    first = identity_library()
    kept = {name: list(ineqs) for name, ineqs in first.items()}
    first["APERIODIC"].clear()
    first["COMMUTATIVE"].append(first["IDEMPOTENT"][0])
    del first["IDEMPOTENT"]
    again = identity_library()
    assert again == kept
    assert again["APERIODIC"] is not first["APERIODIC"]
