"""The syntactic preorder over generator steps, its certificate, and the
quotient built after one compatibility walk."""

import contextlib
import dataclasses
import io
import json
import random

import pytest

from emalg import algebra, cli, syntactic
from emalg.algebra import (
    VAR,
    FinAlgebra,
    _walk_rows,
    is_congruence_ordering,
    quotient_algebra,
    subalgebra_generated,
    wilke_algebra,
)
from emalg.automata import Dfa, dfa_to_recognizer, parse_regex, words_up_to
from emalg.cli import EXIT_INTERNAL, EXIT_OK
from emalg.core import Preorder, SortedOrderedSet, _members, _rows_of, quotient_set, upward_closure
from emalg.lawsuite import corpus_languages, ordered_finitely_many_a
from emalg.monads import SORT_FIN, SORT_INF, SORT_WORD, Word
from emalg.syntactic import (
    _generators,
    _one_step_functions,
    decompose_as_derivatives,
    syntactic_algebra,
    syntactic_preorder,
)
from tests._contexts import sides
from tests._reference import entries, separation_layers
from tests._samplers import rand_preorder, rand_transformation_algebra
from tests.test_syntactic import _refinement_cases


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def incompatibility(alg, rel):
    """The library's compatibility walk over the relation ``rel``, a set of
    pairs."""
    return _walk_rows(alg, _rows_of(alg.carrier, rel))


def family(letter: str, k: int) -> str:
    """(a|b)*<letter>(a|b){k}, spelt out."""
    return "(a|b)*" + letter + "(a|b)" * k


def image(rx: str, alphabet=None):
    rec = dfa_to_recognizer(parse_regex(rx, alphabet))
    B = subalgebra_generated(rec.algebra, rec.assignment.values()).algebra
    return rec, B, frozenset(p for p in rec.accepting if p in B.carrier)


def count_cap_omega(cap: int) -> FinAlgebra:
    """Omega-words over a, b: the number of a, capped at ``cap``, and
    infinite once the period holds an a.  Finite values f<n>, infinite
    values i<n> and i-inf."""

    def add(x, y):
        return "inf" if "inf" in (x, y) else min(x + y, cap)

    fin = list(range(cap + 1))
    inf = fin + ["inf"]
    f = {v: f"f{v}" for v in fin}
    i = {v: f"i{v}" for v in inf}
    carrier = SortedOrderedSet({SORT_FIN: list(f.values()), SORT_INF: list(i.values())})
    dot = {(f[x], f[y]): f[add(x, y)] for x in fin for y in fin}
    mix = {(f[x], i[e]): i[add(x, e)] for x in fin for e in inf}
    omega = {f[x]: i[0 if x == 0 else "inf"] for x in fin}
    return wilke_algebra(carrier, dot, mix, omega)


def element_step_preorder(alg, P, sort) -> frozenset:
    """The syntactic preorder over every element step: the same-sort pairs
    that the element-step layers never reach."""
    _, layer = separation_layers(alg, frozenset(P), sort)
    pairs = [
        (a, b)
        for zeta in alg.carrier.sorts
        for a in alg.elements(zeta)
        for b in alg.elements(zeta)
        if (a, b) not in layer
    ]
    return Preorder(alg.carrier, pairs).pairs()


def all_upsets(alg, sort):
    es = alg.elements(sort)
    return {
        upward_closure(alg.carrier, [e for j, e in enumerate(es) if mask >> j & 1])
        for mask in range(1 << len(es))
    }


# -- generators --------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_suffix_family_is_generated_by_its_two_letters(k):
    for letter in "ab":
        rec, B, _ = image(family(letter, k))
        gens = _generators(B)
        assert sorted(gens) == sorted(rec.assignment.values())
        assert len(subalgebra_generated(B, gens).algebra.carrier) == len(B.carrier)


def test_generators_generate_the_finite_sort_of_an_omega_algebra():
    for cap in (1, 2, 3):
        alg = count_cap_omega(cap)
        gens = _generators(alg)
        assert gens == ("f0", "f1")
        closed = subalgebra_generated(alg, gens).algebra
        assert closed.elements(SORT_FIN) == alg.elements(SORT_FIN)


def test_trees_keep_the_element_steps():
    from tests.test_algebra import bool_tree_algebra

    alg = bool_tree_algebra()
    assert _generators(alg) is None
    assert _one_step_functions(alg, _generators(alg)) == _one_step_functions(alg)


def test_word_generator_steps_are_two_per_generator():
    _, B, _ = image(family("a", 3))
    assert len(_one_step_functions(B)) == 2 * len(B.carrier)
    assert len(_one_step_functions(B, _generators(B))) == 4


# -- the preorder both ways ------------------------------------------------------------


def test_generator_steps_give_the_element_step_preorder():
    checked = set()
    for alg, P, sort in _refinement_cases():
        assert syntactic_preorder(alg, P, sort).pairs() == element_step_preorder(alg, P, sort)
        checked.add(alg.kind)
    assert checked == {"word", "omega", "tree"}


def test_every_upset_of_the_count_cap_omega_algebras_gives_the_same_preorder():
    cases = 0
    for cap in (1, 2, 3):
        alg = count_cap_omega(cap)
        for sort in alg.carrier.sorts:
            for P in all_upsets(alg, sort):
                got = syntactic_preorder(alg, P, sort).pairs()
                assert got == element_step_preorder(alg, P, sort), (cap, sorted(P), sort)
                cases += 1
    assert cases == 84


# -- Pin's ordered syntactic monoid as an oracle -------------------------------------


def state_inclusion(dfa) -> set:
    """(p, q) such that every word, the empty one included, that leads p
    into an accepting state leads q there too: the greatest relation inside
    "p accepting implies q accepting" that the letters preserve."""
    states = range(dfa.n_states)
    rel = {(p, q) for p in states for q in states if p not in dfa.accepting or q in dfa.accepting}
    changed = True
    while changed:
        changed = False
        for p, q in list(rel):
            if any((dfa.trans[(p, c)], dfa.trans[(q, c)]) not in rel for c in dfa.alphabet):
                rel.discard((p, q))
                changed = True
    return rel


def pin_preorder(syn, dfa) -> set:
    """u <= v iff q.u is below q.v in the state inclusion order for every
    state q, each element read as the word its witness spells."""
    rec = syn.recognizer
    letter_of = {}
    for c in rec.alphabet:
        letter_of.setdefault(rec.assignment[c], c)

    def run(q, x):
        for g in syn.image.witnesses[x].labels:
            q = dfa.trans[(q, letter_of[g])]
        return q

    below = state_inclusion(dfa)
    B = syn.image.algebra
    moves = {x: [run(q, x) for q in range(dfa.n_states)] for x in B.carrier}
    return {
        (u, v)
        for u in B.carrier
        for v in B.carrier
        if all(pair in below for pair in zip(moves[u], moves[v]))
    }


LANGUAGES = [(family(x, k), None) for k in (1, 2, 3, 4) for x in "ab"] + list(
    corpus_languages().values()
)


@pytest.mark.parametrize("rx, alphabet", LANGUAGES)
def test_syntactic_preorder_is_pins_ordered_syntactic_monoid(rx, alphabet):
    dfa = parse_regex(rx, alphabet)
    syn = syntactic_algebra(dfa_to_recognizer(dfa))
    B = syn.image.algebra
    P = frozenset(p for p in syn.recognizer.accepting if p in B.carrier)
    oracle = pin_preorder(syn, dfa)
    assert syntactic_preorder(B, P, SORT_WORD).pairs() == oracle
    assert syn.preorder.pairs() == oracle


# -- the certificate ---------------------------------------------------------------------


def _drop_last_generator(monkeypatch):
    found = syntactic._generators

    def fewer(alg):
        return found(alg)[:-1]

    monkeypatch.setattr(syntactic, "_generators", fewer)


def test_a_missing_generator_exits_with_the_internal_code(monkeypatch):
    _drop_last_generator(monkeypatch)
    code, out = run_cli("syn", "(ab)+")
    assert code == EXIT_INTERNAL
    assert "indicates a bug" in json.loads(out)["error"]


def test_a_missing_generator_that_separates_nothing_changes_nothing(monkeypatch):
    # over the steps of a alone, (a|b)*aa(a|b)* still gets its preorder;
    # the certificate accepts it, as maximality says it must
    code, expected = run_cli("syn", "(a|b)*aa(a|b)*")
    _drop_last_generator(monkeypatch)
    assert run_cli("syn", "(a|b)*aa(a|b)*") == (code, expected)
    assert code == EXIT_OK


def _total_preorder(alg, accepting, sort):
    """Compatible with every table: it relates any two elements of a sort."""
    es = alg.carrier.elements
    return Preorder(alg.carrier, [(a, b) for s in alg.carrier.sorts for a in es(s) for b in es(s)])


def test_a_preorder_leaving_the_accepting_set_exits_with_the_internal_code(monkeypatch):
    # the total preorder passes the compatibility walk; only the check that
    # no pair leads out of the accepting set stops it
    monkeypatch.setattr(syntactic, "syntactic_preorder", _total_preorder)
    code, out = run_cli("syn", "(ab)+")
    assert code == EXIT_INTERNAL
    report = json.loads(out)
    assert "accepted element to a rejected one" in report["error"]
    assert len(report["witness"]) == 2


# -- the trusted quotient ------------------------------------------------------------------


def congruences():
    """(algebra, congruence ordering): the syntactic preorders of the
    refinement fixtures, the compatible random preorders of random
    transformation semigroups, and an ordered omega fixture's own order."""
    for alg, P, sort in _refinement_cases():
        yield alg, syntactic_preorder(alg, P, sort)
    rng = random.Random(11)
    for _ in range(200):
        alg = rand_transformation_algebra(rng)
        q = rand_preorder(rng, alg.carrier)
        if is_congruence_ordering(alg, q):
            yield alg, q
    alg, _ = ordered_finitely_many_a()
    yield alg, Preorder(alg.carrier, alg.carrier.leq_pairs())


def _image(f, args: tuple) -> tuple:
    """``args`` relabelled by the mapping ``f``; bare slots stay bare."""
    return tuple([VAR if a is VAR else f[a] for a in args])


def validated_quotient(alg, q) -> FinAlgebra:
    """The quotient built through ``FinAlgebra`` from label tables, with
    every check."""
    Q, qfn = quotient_set(alg.carrier, q)
    cls = qfn.mapping
    tables: dict = {op: {} for op in ("mult", "dot", "mix", "omega", "comp")}
    for op, args, v in entries(alg):
        key = _image(cls, args)
        key = key[0] if op == "omega" else (key[0], key[1:]) if op == "comp" else key
        tables[op][key] = cls[v]
    return FinAlgebra(alg.monad, Q, **tables)


def test_the_trusted_quotient_is_the_validated_quotient():
    count = nontrivial = 0
    for alg, q in congruences():
        quot, _ = quotient_algebra(alg, q)
        ref = validated_quotient(alg, q)
        assert type(quot) is FinAlgebra and quot.monad is ref.monad
        for s in ref.carrier.sorts:
            assert quot.carrier.elements(s) == ref.carrier.elements(s)
        assert quot.carrier.leq_pairs() == ref.carrier.leq_pairs()
        for op in ("mult", "dot", "mix", "omega", "comp"):  # entry order included
            assert list(getattr(quot, op).items()) == list(getattr(ref, op).items())
        assert incompatibility(quot, quot.carrier.leq_pairs()) is None
        count += 1
        nontrivial += not quot.carrier.is_trivially_ordered()
    assert count >= 239 and nontrivial >= 57


def _count_walks(monkeypatch) -> list:
    """Record the relation, as a set of pairs, of every compatibility walk
    (``_walk_rows``) that is not over a discrete relation."""
    walks = []
    walk = algebra._walk_rows

    def counted(alg, up):
        if any(row != 1 << i for i, row in enumerate(up)):
            es = alg.carrier._by_index
            walks.append(frozenset((es[i], es[j]) for i, row in enumerate(up) for j in _members(row)))
        return walk(alg, up)

    monkeypatch.setattr(algebra, "_walk_rows", counted)
    return walks


@pytest.mark.parametrize("rx", ["(a|b)*aa(a|b)*", "(a|b)*ab", "b*a*", family("a", 3)])
def test_one_syntactic_algebra_makes_one_compatibility_walk(monkeypatch, rx):
    rec = dfa_to_recognizer(parse_regex(rx))
    walks = _count_walks(monkeypatch)
    syn = syntactic_algebra(rec)
    assert walks == [syn.preorder.pairs()]
    assert not syn.syn_algebra.carrier.is_trivially_ordered()


def test_one_quotient_makes_one_compatibility_walk(monkeypatch):
    walks = _count_walks(monkeypatch)
    for alg, q in congruences():
        del walks[:]
        quotient_algebra(alg, q)
        assert len(walks) == any(a != b for a, b in q.pairs())


def _count_calls(monkeypatch, module, name) -> list:
    """Record the arguments of every call of ``module.name``."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "rx", [family("a", k) for k in range(1, 5)] + ["(a|b)*aa(a|b)*", "(a|b)*ab", "b*a*", "(ab)+"]
)
def test_a_dfa_recognizer_is_its_own_image_and_syntactic_algebra(monkeypatch, rx):
    # the transition semigroup of a minimal automaton is the syntactic
    # semigroup: the image is the recognizer's algebra, the quotient shares
    # its integer tables, and one compatibility walk certifies the preorder
    rec = dfa_to_recognizer(parse_regex(rx))
    builds = _count_calls(monkeypatch, algebra, "_build")
    walks = _count_calls(monkeypatch, algebra, "_walk_rows")
    syn = syntactic_algebra(rec)
    assert builds == [] and len(walks) == 1
    assert syn.image.algebra is rec.algebra
    assert syn.syn_algebra._coded is rec.algebra._coded
    assert syn.syn_algebra.carrier.leq_pairs() == syn.preorder.pairs()


def test_a_subalgebra_on_the_whole_carrier_is_the_algebra_itself():
    for alg, _ in congruences():
        assert subalgebra_generated(alg, alg.carrier).algebra is alg
    rec = dfa_to_recognizer(parse_regex(family("b", 2)))
    sub = subalgebra_generated(rec.algebra, [rec.assignment["a"]])
    assert len(sub.algebra.carrier) < len(rec.algebra.carrier)


# -- derivative decompositions -----------------------------------------------------------


def _mod_3_with_b_twice_a() -> Dfa:
    """Words whose weight, 1 per a and 2 per b, is 0 mod 3: b acts as aa,
    so the letter images (a, b) are not the generators (a) of the image."""
    trans = {(q, c): (q + w) % 3 for q in range(3) for c, w in (("a", 1), ("b", 2))}
    return Dfa(("a", "b"), 3, 0, frozenset([0]), trans)


@pytest.mark.parametrize("dfa, searches", [(parse_regex(family("a", 3)), 1), (_mod_3_with_b_twice_a(), 2)])
def test_decompose_walks_the_preorder_layers_when_the_letters_generate(monkeypatch, dfa, searches):
    # one pair search when the generators are the letter images; the
    # contexts are those of a search of decompose's own
    calls = _count_calls(monkeypatch, syntactic, "_pair_depths")
    syn = syntactic_algebra(dfa_to_recognizer(dfa))
    dec = decompose_as_derivatives(syn, syn.accepting)
    assert len(calls) == searches
    plain = dataclasses.replace(syn, preorder=Preorder(syn.preorder.carrier, syn.preorder.pairs()))
    assert decompose_as_derivatives(plain, syn.accepting).clauses == dec.clauses
    assert len(calls) == searches + 1


@pytest.mark.parametrize("rx, alphabet", list(corpus_languages().values()))
def test_matches_is_plugging_the_word_into_each_context(rx, alphabet):
    dfa = parse_regex(rx, alphabet)
    syn = syntactic_algebra(dfa_to_recognizer(dfa))
    rec = syn.recognizer
    for target in all_upsets(syn.syn_algebra, SORT_WORD):
        dec = decompose_as_derivatives(syn, target)
        for w in words_up_to(dfa.alphabet, 5):
            plugged = any(
                all(rec.accepts(Word(left + w + right)) for left, right in map(sides, ctxs))
                for _, ctxs in dec.clauses
            )
            assert dec.matches(Word(w)) == plugged
