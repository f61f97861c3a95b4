"""The compatibility walk's yes/no step (``algebra._violated``), which
compares whole table fibres with one big-integer test per element and
argument position, against the label-keyed reference walk
(``tests._reference.incompatibility``): it finds a violation exactly when
the reference does, and the witness that the walk then searches for is
the reference's."""

import random

from emalg.algebra import (
    FinAlgebra,
    _columns,
    _fibres,
    _first_violation,
    _sort_runs,
    _violated,
    _walk_rows,
    is_congruence_ordering,
    word_algebra,
)
from emalg.automata import dfa_to_recognizer, parse_regex
from emalg.core import SortedOrderedSet, _members, _rows_of
from emalg.lawsuite import _all_preorders, ordered_finitely_many_a, small_semigroups
from emalg.syntactic import syntactic_algebra, syntactic_preorder
from tests import _reference
from tests._samplers import rand_preorder, rand_transformation_algebra
from tests.test_algebra import bool_tree_algebra
from tests.test_algebra_tables import diagonal_bare_slot_algebra, ordered_bool_tree_algebra
from tests.test_generator_steps import all_upsets, count_cap_omega, family
from tests.test_int_tables import _negated_bare_slots


def violated(alg, rel) -> bool:
    """The yes/no step over the relation ``rel``, a set of pairs."""
    up = _rows_of(alg.carrier, rel)
    return _violated(alg, up, [_members(u & ~(1 << i)) for i, u in enumerate(up)])


def assert_agrees(cases) -> tuple:
    """Each (algebra, relation) of ``cases`` gets the reference's answer;
    the counts of violated and compatible cases."""
    found = compatible = 0
    for alg, rel in cases:
        want = _reference.incompatibility(alg, rel) is not None
        assert violated(alg, rel) == want, (alg, sorted(rel, key=repr))
        found += want
        compatible += not want
    return found, compatible


def test_every_preorder_of_the_small_semigroups():
    cases = [(alg, q.pairs()) for alg in small_semigroups() for q in _all_preorders(alg.carrier)]
    found, compatible = assert_agrees(cases)
    assert len(cases) == 1782 and found > 1000 and compatible > 400


def test_random_transformation_algebras_under_random_preorders():
    rng = random.Random(29)
    cases = []
    for _ in range(300):
        alg = rand_transformation_algebra(rng, max_carrier=12)
        cases.append((alg, rand_preorder(rng, alg.carrier, extra_pairs=5).pairs()))
    found, compatible = assert_agrees(cases)
    assert found > 100 and compatible > 30


def test_the_ordered_omega_and_tree_fixtures_under_every_preorder():
    # tree algebras without and with bare slots; the bare-slot entries take
    # the walk over the whole product of up-sets
    algs = [
        ordered_finitely_many_a()[0],
        bool_tree_algebra(2),
        bool_tree_algebra(2, with_var_slots=True),
        ordered_bool_tree_algebra(),
        diagonal_bare_slot_algebra(),
        _negated_bare_slots(),
    ]
    for alg in algs:
        cases = [(alg, q.pairs()) for q in _all_preorders(alg.carrier)]
        found, compatible = assert_agrees(cases + [(alg, alg.carrier.leq_pairs())])
        assert found and compatible, alg


def test_a_carrier_past_64_elements_spans_blocks_of_more_than_8_bytes():
    alg = count_cap_omega(40)  # 41 finite and 42 infinite elements
    assert len(alg.carrier) > 64
    rng = random.Random(31)
    cases = [(alg, syntactic_preorder(alg, P, sort).pairs()) for sort, P in _upsets(rng, alg, 12)]
    cases += [(alg, rand_preorder(rng, alg.carrier, extra_pairs=3).pairs()) for _ in range(40)]
    # pairs among the last elements only, whose bits lie past the first 8
    # bytes of a block
    tail = alg.carrier._by_index[64:]
    for _ in range(20):
        a, b = rng.sample(tail, 2)
        cases.append((alg, {(e, e) for e in alg.carrier} | {(a, b)}))
    found, compatible = assert_agrees(cases)
    assert found > 40 and compatible >= 12


def _upsets(rng, alg, count: int) -> list:
    """``count`` (sort, subset) pairs of ``alg``, drawn from ``rng``; on a
    discrete carrier every subset is an up-set."""
    sorts = alg.carrier.sorts
    pool = [(s, frozenset(alg.elements(s)[: rng.randint(1, len(alg.elements(s)))])) for s in sorts]
    pool += [(s, frozenset(rng.sample(alg.elements(s), 3))) for s in sorts for _ in range(count)]
    return pool[:count]


def _one_entry_mutants(alg, rng, count: int):
    """Copies of ``alg`` with one table entry sent to another element of its
    value's sort, rebuilt from labels."""
    tables = {"mult": alg.mult, "dot": alg.dot, "mix": alg.mix, "omega": alg.omega, "comp": alg.comp}
    keys = [(op, key) for op, table in tables.items() for key in table]
    for op, key in rng.sample(keys, min(count, len(keys))):
        value = tables[op][key]
        mutated = {o: dict(t) for o, t in tables.items()}
        mutated[op][key] = rng.choice([e for e in alg.elements(alg.carrier.sort_of(value)) if e != value])
        yield FinAlgebra(alg.monad, alg.carrier, **mutated)


def test_one_entry_mutants_get_the_reference_witness():
    # a congruence of a discrete algebra, then one entry changed: the walk
    # finds the reference's witness, and the yes/no step its existence
    rng = random.Random(37)
    syn = syntactic_algebra(dfa_to_recognizer(parse_regex(family("a", 2))))
    bases = [(syn.image.algebra, syn.preorder)]
    omega = count_cap_omega(31)  # 65 elements
    bases += [(omega, syntactic_preorder(omega, P, sort)) for sort, P in _upsets(rng, omega, 2)]
    tree = bool_tree_algebra(2, with_var_slots=True)
    bases += [(tree, syntactic_preorder(tree, P, 0)) for P in all_upsets(tree, 0) if P]
    found = compatible = 0
    for alg, q in bases:
        assert is_congruence_ordering(alg, q)
        rel = q.pairs()
        for mutant in _one_entry_mutants(alg, rng, 12 if alg is omega else 40):
            want = _reference.incompatibility(mutant, rel)
            assert _walk_rows(mutant, _rows_of(mutant.carrier, rel)) == want
            assert violated(mutant, rel) == (want is not None)
            found += want is not None
            compatible += want is None
    assert found > 40 and compatible > 10


def test_the_fibres_are_the_memoised_transposed_columns():
    # one fibre per element of each position's run: its row of the
    # transposed columns, and the one-hot code of those values
    for alg in (count_cap_omega(3), bool_tree_algebra(2, with_var_slots=True)):
        fibres = _fibres(alg)
        assert _fibres(alg) is fibres
        n, runs = len(alg.carrier), _sort_runs(alg.carrier)
        want = []
        for op, sorts, result in alg.monad.signature:
            if result in runs:
                pools = [runs.get(s, ()) for s in sorts]
                want += [(pool, list(zip(*_columns(alg, op, sorts, i, pools)))) for i, pool in enumerate(pools)]
        assert [(run, [values for values, _ in by_element]) for run, by_element in fibres] == want
        block = (n + 7) // 8 * 8
        for run, by_element in fibres:
            assert len(by_element) == len(run)
            for values, code in by_element:
                assert code == sum(1 << (k * block + v) for k, v in enumerate(values))


def _dense_cases():
    """x.y = max(x, y) on 64 elements under dense relations: the chain
    order (the algebra's own, checked at construction), the total
    preorder, a coarsening of the chain into classes of 8 and a seeded
    random total preorder; then one-entry mutants of it under the chain
    order and the coarsening."""
    rng = random.Random(41)
    elems = range(64)
    table = {(x, y): max(x, y) for x in elems for y in elems}
    chain = word_algebra(SortedOrderedSet.chain(elems), table)
    flat = word_algebra(SortedOrderedSet({0: elems}), table)
    rank = [rng.randrange(6) for _ in elems]
    below = {
        "chain": lambda x, y: x <= y,
        "total": lambda x, y: True,
        "classes": lambda x, y: x // 8 <= y // 8,
        "random": lambda x, y: rank[x] <= rank[y],
    }
    rels = {name: {(x, y) for x in elems for y in elems if leq(x, y)} for name, leq in below.items()}
    yield chain, rels["chain"]
    yield from ((flat, rel) for rel in rels.values())
    for name in ("chain", "classes"):
        yield from ((mutant, rels[name]) for mutant in _one_entry_mutants(flat, rng, 2))


def test_dense_relations_on_64_elements_get_the_reference_witness():
    found = compatible = 0
    for alg, rel in _dense_cases():
        up = _rows_of(alg.carrier, rel)
        above = [_members(u & ~(1 << i)) for i, u in enumerate(up)]
        want = _reference.incompatibility(alg, rel)
        assert _walk_rows(alg, up) == want
        assert _violated(alg, up, above) == (_first_violation(alg, up, above) is not None)
        found += want is not None
        compatible += want is None
    assert found >= 3 and compatible >= 3
