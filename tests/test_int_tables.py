"""The integer view of an algebra's tables: the compatibility walk, the
quotient classes and the witness closure read element indices, and agree
exactly with the label-keyed references in ``tests._reference``; reports
and construction messages are pinned, and the word pipeline decodes no
label view."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings

from emalg import cli
from emalg.algebra import (
    VAR,
    FinAlgebra,
    _closure,
    _places,
    product,
    restrict_sorts,
    word_algebra,
)
from emalg.automata import dfa_to_recognizer, parse_regex
from emalg.core import (
    CarrierBoundExceeded,
    Preorder,
    SortedOrderedSet,
    _transitive_closure,
    is_upward_closed,
    quotient_set,
    upward_closure,
)
from emalg.lawsuite import _all_preorders, exists_a, finitely_many_a
from emalg.monads import OMEGA_UP, SORT_FIN, serialize
from emalg.syntactic import decompose_as_derivatives, syntactic_algebra, syntactic_preorder
from tests import _reference
from tests._samplers import rand_preorder, rand_transformation_algebra
from tests.test_algebra import bool_tree_algebra
from tests.test_algebra_tables import (
    _ordered_tree_tables,
    _ordered_wilke_tables,
    diagonal_bare_slot_algebra,
    ordered_bool_tree_algebra,
)
from tests.test_generator_steps import (
    all_upsets,
    congruences,
    count_cap_omega,
    family,
    incompatibility,
    run_cli,
)
from tests.test_word_oracles import LETTERS, _expressions, text

# -- pins recorded before the tables were numbered ---------------------------------------

K4_REPORTS_PIN = "db7062c6d61c78a738022facd0528f041bbe7957433ca9f942b45634915f5a33"


def test_syn_and_decompose_reports_at_k4_are_pinned():
    digest = hashlib.sha256()
    for letter in "ab":
        for command in ("syn", "decompose"):
            code, out = run_cli(command, family(letter, 4))
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == K4_REPORTS_PIN


def _word_chain():
    """A chain x <= y <= z under a constant table, lowered at three keys."""
    chain = SortedOrderedSet.chain(["x", "y", "z"])
    mult = {(a, b): "z" for a in "xyz" for b in "xyz"}
    mult.update({("y", "x"): "x", ("x", "z"): "y", ("z", "z"): "x"})
    return word_algebra(chain, mult)


def _wilke(**lowered):
    carrier, dot, mix, omega = _ordered_wilke_tables()
    tables = {"dot": dot, "mix": mix, "omega": omega}
    for op, changes in lowered.items():
        tables[op].update(changes)
    return FinAlgebra(OMEGA_UP, carrier, **tables)


def _tree(with_var_slots, changes):
    monad, carrier, comp = _ordered_tree_tables(with_var_slots)
    comp.update(changes)
    return FinAlgebra(monad, carrier, comp=comp)


def _flagged(changes):
    alg = ordered_bool_tree_algebra()
    return FinAlgebra(alg.monad, alg.carrier, comp={**alg.comp, **changes})


NOT_MONOTONE = [
    # the tables of tests/test_algebra_tables.py, lowered as there
    lambda: word_algebra(
        SortedOrderedSet.chain(["lo", "hi"]),
        {("lo", "lo"): "hi", ("lo", "hi"): "hi", ("hi", "lo"): "lo", ("hi", "hi"): "hi"},
    ),
    lambda: _wilke(dot={("hi", "lo"): "lo"}),
    lambda: _wilke(mix={("lo", "ihi"): "ilo"}),
    lambda: _wilke(omega={"hi": "ilo"}),
    lambda: _tree(False, {("U", ("C",)): "c"}),
    lambda: _tree(False, {("B", ("c", "u")): "u"}),
    lambda: _tree(True, {("B", (VAR, "c")): "u"}),
    lambda: _tree(True, {("B", ("C", VAR)): "u"}),
    # several violations: the first in table order, position order and
    # up-set order is reported
    _word_chain,
    lambda: _wilke(dot={("hi", "lo"): "lo"}, omega={"hi": "ilo"}),
    lambda: _wilke(mix={("hi", "ilo"): "ilo", ("lo", "ihi"): "ilo"}),
    lambda: _flagged({((2, False), ((0, True), (0, True))): (0, False)}),
    lambda: _flagged({((1, True), ((1, True),)): (1, False), ((2, True), ((0, True), (0, False))): (0, False)}),
    lambda: _flagged({((2, True), (VAR, (0, True))): (1, False)}),
]

NOT_MONOTONE_MESSAGES = [
    "mult not monotone at ('lo', 'lo') vs ('hi', 'lo')",
    "dot not monotone at ('lo', 'lo') vs ('hi', 'lo')",
    "mix not monotone at ('lo', 'ilo') vs ('lo', 'ihi')",
    "omega not monotone at ('lo',) vs ('hi',)",
    "comp not monotone at ('u', 'C') vs ('U', 'C')",
    "comp not monotone at ('b', 'c', 'u') vs ('B', 'c', 'u')",
    "comp not monotone at ('b', None, 'c') vs ('B', None, 'c')",
    "comp not monotone at ('b', 'C', None) vs ('B', 'C', None)",
    "mult not monotone at ('x', 'x') vs ('y', 'x')",
    "dot not monotone at ('lo', 'lo') vs ('hi', 'lo')",
    "mix not monotone at ('lo', 'ilo') vs ('hi', 'ilo')",
    "comp not monotone at ((2, False), (0, False), (0, True)) vs ((2, False), (0, True), (0, True))",
    "comp not monotone at ((1, False), (1, True)) vs ((1, True), (1, True))",
    "comp not monotone at ((2, False), None, (0, True)) vs ((2, True), None, (0, True))",
]


def test_not_monotone_messages_are_pinned():
    messages = []
    for make in NOT_MONOTONE:
        with pytest.raises(ValueError, match="not monotone") as info:
            make()
        messages.append(str(info.value))
    assert messages == NOT_MONOTONE_MESSAGES


# -- the walk and the classes against the references -------------------------------------


def _negated_bare_slots():
    """bool_tree_algebra(2, with_var_slots=True) with the flag of every
    bare-slot entry negated: under the flag order only those entries are
    out of order."""
    alg = bool_tree_algebra(2, with_var_slots=True)
    comp = {
        (a, slots): (v[0], not v[1]) if VAR in slots else v
        for (a, slots), v in alg.comp.items()
    }
    return FinAlgebra(alg.monad, alg.carrier, comp=comp)


def _flags_on_bare_slots_only():
    """bool_tree_algebra(2, with_var_slots=True) with the flag of every
    entry without a bare slot cleared: such an entry's value depends on
    its arguments' sorts alone, so every violation of a preorder lies in
    an entry with a bare slot."""
    alg = bool_tree_algebra(2, with_var_slots=True)
    comp = {(a, slots): v if VAR in slots else (v[0], False) for (a, slots), v in alg.comp.items()}
    return FinAlgebra(alg.monad, alg.carrier, comp=comp)


def _cases():
    """(algebra, preorder): the congruences of ``congruences()``, each also
    with one pair added; random preorders of random transformation
    semigroups, compatible or not; the syntactic preorders of every up-set
    of the count-cap omega algebras and random preorders on them; and every
    preorder of the ordered and bare-slot tree fixtures."""
    rng = random.Random(5)
    for alg, q in congruences():
        yield alg, q
        C = alg.carrier
        sort = rng.choice([s for s in C.sorts if C.elements(s)])
        a, b = rng.choice(C.elements(sort)), rng.choice(C.elements(sort))
        yield alg, Preorder(C, q.pairs() | {(a, b)})
    for _ in range(200):
        alg = rand_transformation_algebra(rng)
        yield alg, rand_preorder(rng, alg.carrier)
    for cap in (1, 2, 3):
        alg = count_cap_omega(cap)
        for sort in alg.carrier.sorts:
            for P in all_upsets(alg, sort):
                yield alg, syntactic_preorder(alg, P, sort)
        for _ in range(30):
            yield alg, rand_preorder(rng, alg.carrier, extra_pairs=4)
    for alg in (
        bool_tree_algebra(2, with_var_slots=True),
        ordered_bool_tree_algebra(),
        diagonal_bare_slot_algebra(),
        _negated_bare_slots(),
        _flags_on_bare_slots_only(),
    ):
        for q in _all_preorders(alg.carrier):
            yield alg, q


def test_the_int_walk_returns_the_reference_witness():
    found = compatible = bare = 0
    for alg, q in _cases():
        for rel in (q.pairs(), alg.carrier.leq_pairs()):
            got = incompatibility(alg, rel)
            assert got == _reference.incompatibility(alg, rel), (alg, q)
            if got is None:
                compatible += 1
            else:
                found += 1
                bare += VAR in got[1]
    # witnesses, bare-slot witnesses and compatible relations all occur
    assert found > 300 and bare > 5 and compatible > 300


def _preorder_with_classes(rng, alg) -> Preorder:
    """The carrier order and a few random same-sort pairs, each taken both
    ways at random, so that classes form."""
    C = alg.carrier
    pairs = list(C.leq_pairs())
    for _ in range(rng.randint(1, 5)):
        es = C.elements(rng.choice([s for s in C.sorts if C.elements(s)]))
        a, b = rng.choice(es), rng.choice(es)
        pairs += [(a, b), (b, a)] if rng.random() < 0.5 else [(a, b)]
    return Preorder(C, pairs)


def _preorders_with_classes():
    """(algebra, preorder) with a class of two or more elements: random
    preorders of random transformation semigroups and of the count-cap
    omega algebras, and every such preorder of the bare-slot tree
    fixtures."""
    rng = random.Random(17)
    cases = []
    for _ in range(600):
        alg = rand_transformation_algebra(rng, max_carrier=8)
        cases.append((alg, _preorder_with_classes(rng, alg)))
    for cap in (2, 3):
        alg = count_cap_omega(cap)
        cases += [(alg, _preorder_with_classes(rng, alg)) for _ in range(100)]
    for alg in (
        bool_tree_algebra(2, with_var_slots=True),
        diagonal_bare_slot_algebra(),
        _negated_bare_slots(),
        _flags_on_bare_slots_only(),
    ):
        cases += [(alg, q) for q in _all_preorders(alg.carrier)]
    for alg, q in cases:
        if any(a != b and q.holds(b, a) for a, b in q.pairs()):
            yield alg, q


def test_the_walk_is_the_reference_walk_across_classes():
    # the walk raises one argument at a time, and must still find every
    # violation that reaches a class above through a class-mate
    found = compatible = bare = 0
    for alg, q in _preorders_with_classes():
        got = incompatibility(alg, q.pairs())
        assert got == _reference.incompatibility(alg, q.pairs()), (alg, q)
        if got is None:
            compatible += 1
        else:
            found += 1
            bare += VAR in got[1]
    assert found > 300 and compatible > 150 and bare >= 3


def test_quotient_classes_are_the_reference_classes():
    count = 0
    for alg, q in _cases():
        if not _reference.is_order_extending(q):
            continue
        Q, qfn = quotient_set(alg.carrier, q)
        ref, ref_fn = _reference.quotient_set(alg.carrier, q)
        assert Q.sorts == ref.sorts
        for s in ref.sorts:
            assert Q.elements(s) == ref.elements(s)
        assert Q.leq_pairs() == ref.leq_pairs()
        assert qfn.mapping == ref_fn.mapping
        count += 1
    assert count > 500


def test_the_closure_is_the_reference_closure():
    rng = random.Random(3)
    for _ in range(300):
        elems = list(range(rng.randint(1, 9)))
        pairs = {(rng.choice(elems), rng.choice(elems)) for _ in range(rng.randint(0, 12))}
        rows = [sum({1 << b for a2, b in pairs if a2 == a}) for a in elems]
        closed = _transitive_closure(rows)
        got = {(a, b) for a in elems for b in elems if closed[a] >> b & 1}
        assert got == _reference.transitive_closure(pairs)
    assert _transitive_closure([]) == []


# -- the carrier's numbering and the stored rows -----------------------------------------


def _rows_from_pairs(C, pairs) -> list:
    """Row i: the bitmask of the positions, in ``list(C)``, of the elements
    that the i-th element is related to by ``pairs``."""
    position = {e: i for i, e in enumerate(C)}
    rows = [0] * len(position)
    for a, b in pairs:
        rows[position[a]] |= 1 << position[b]
    return rows


def test_the_stored_rows_are_the_rows_of_the_pairs():
    count = 0
    for alg, q in _cases():
        C = alg.carrier
        assert C._by_index == list(C)
        assert C._index == {e: i for i, e in enumerate(C)}
        assert C._rows == _rows_from_pairs(C, C.leq_pairs())
        assert q._rows == _rows_from_pairs(q.carrier, q.pairs())
        # the pairs are the reflexive, transitive relation the rows close to
        for rel, elems in ((C.leq_pairs(), C), (q.pairs(), q.carrier)):
            assert {(e, e) for e in elems} <= rel
            assert _reference.transitive_closure(rel) == rel
        count += 1
    assert count > 1000


def test_the_int_tables_use_the_carriers_numbering():
    algs = {id(alg): alg for alg, _ in _cases()}  # each algebra once
    for alg in algs.values():
        index, n = alg.carrier._index, len(alg.carrier)
        assert index == {e: i for i, e in enumerate(alg.carrier)}
        for op, args, value in _reference.entries(alg):
            bare = tuple(k for k, a in enumerate(args) if a is VAR)
            code = sum(index[a] * n**k for k, a in enumerate(args) if a is not VAR)
            assert alg._coded[(op, len(args), bare)][code] == index[value]
    assert len(algs) > 150


def test_upward_closure_is_the_pairwise_definition():
    rng = random.Random(7)
    closed = 0
    for alg, _ in itertools.islice(_cases(), 0, None, 3):
        C = alg.carrier
        elems = list(C)
        for _ in range(3):
            X = set(rng.sample(elems, rng.randint(0, len(elems))))
            up = frozenset(b for a, b in C.leq_pairs() if a in X)
            assert upward_closure(C, X) == up
            assert is_upward_closed(C, X) == (up == X)
            closed += up == X
    assert closed > 50


# -- the integer tables ------------------------------------------------------------------


def test_the_walk_builds_no_label_view():
    """The walk reads the integer tables: a product, built from them, keeps
    its label tables undecoded through its construction's walk and another."""
    for alg in (product([bool_tree_algebra(with_var_slots=True)]), product([ordered_bool_tree_algebra()])):
        assert not {"_labelled", "tables"} & set(vars(alg))
        assert incompatibility(alg, alg.carrier.leq_pairs()) is None
        assert not {"_labelled", "tables"} & set(vars(alg))
    assert not product([ordered_bool_tree_algebra()]).carrier.is_trivially_ordered()


def test_the_word_pipeline_decodes_no_label_view(monkeypatch):
    """From the recognizer to the reports, ``syn`` and ``decompose`` read
    the integer tables only: a DFA recognizer's algebra, built from
    integers, is never decoded to labels."""
    language = family("a", 4)
    rec = dfa_to_recognizer(parse_regex(language))
    syn = syntactic_algebra(rec)
    decompose_as_derivatives(syn, syn.accepting)
    recognizers = [rec]

    def build(dfa):
        recognizers.append(dfa_to_recognizer(dfa))
        return recognizers[-1]

    monkeypatch.setattr(cli, "dfa_to_recognizer", build)
    for command in ("syn", "decompose"):
        assert run_cli(command, language)[0] == 0
    assert len(recognizers) == 3
    for rec in recognizers:
        assert not {"_labelled", "tables"} & set(vars(rec.algebra))


def _same_closure(alg, gens):
    """The witness closure of ``gens`` and the label closure of the
    reference: the same elements in the same order, with the same
    witnesses."""
    start = {g: alg.monad.sing(g, alg.carrier.sort_of(g)) for g in gens}
    got, want = _closure(alg, start), _reference.closure(alg, start)
    assert list(got) == list(want)
    assert [serialize(w, repr) for w in got.values()] == [serialize(w, repr) for w in want.values()]


def _closure_cases():
    """(algebra, generator lists): the suffix family's recognizers from
    their letters and from single elements, and omega and tree algebras,
    bare slots included, from every element and every pair of them."""
    for letter in "ab":
        for k in range(1, 5):
            rec = dfa_to_recognizer(parse_regex(family(letter, k)))
            elems = list(rec.algebra.carrier)
            yield rec.algebra, [list(rec.assignment.values())] + [[e] for e in elems[::5]]
    small = [finitely_many_a()[0], exists_a()[0], restrict_sorts(finitely_many_a()[0], {SORT_FIN})]
    small += [count_cap_omega(cap) for cap in (1, 2, 3)]
    small += [bool_tree_algebra(2, with_var_slots=True), ordered_bool_tree_algebra()]
    small.append(diagonal_bare_slot_algebra())
    for alg in small:
        elems = list(alg.carrier)
        yield alg, [[e] for e in elems] + [list(pair) for pair in itertools.combinations(elems, 2)]


def test_the_witness_closure_is_the_label_closure():
    closures = 0
    for alg, gen_lists in _closure_cases():
        for gens in gen_lists:
            _same_closure(alg, gens)
            closures += 1
    assert closures > 200


@settings(max_examples=100, deadline=None)
@given(_expressions())
def test_the_witness_closure_is_the_label_closure_on_drawn_regexes(e):
    try:
        rec = dfa_to_recognizer(parse_regex(text(e), LETTERS))
    except CarrierBoundExceeded:
        return
    _same_closure(rec.algebra, list(rec.assignment.values()))


def test_the_view_codes_every_entry_under_its_place():
    """A bare slot counts as digit 0, and its entry sits in the table of
    its place, as ``_places`` lists it."""
    for alg in (
        ordered_bool_tree_algebra(),
        diagonal_bare_slot_algebra(),
        count_cap_omega(2),
        rand_transformation_algebra(random.Random(2)),
    ):
        index, n, coded = alg.carrier._index, len(alg.carrier), 0
        for op, args, value in _reference.entries(alg):
            bare = tuple(k for k, a in enumerate(args) if a is VAR)
            code = sum(index[a] * n**k for k, a in enumerate(args) if a is not VAR)
            assert alg._coded[(op, len(args), bare)][code] == index[value]
            coded += 1
        assert coded == sum(map(len, alg._coded.values()))
        # the places, worked out from the labels: every pattern of bare
        # slots but the all-bare one of the unit law
        assert _places(alg) == sorted(
            {
                (op, len(args), tuple(k for k, a in enumerate(args) if a is VAR))
                for op, args, _ in _reference.entries(alg)
                if args.count(VAR) < len(args) - 1 or op != "comp"
            }
        )

