import itertools

import pytest
from hypothesis import given, strategies as st

from emalg import monads
from emalg.lawsuite import MONAD_LAW_SCOPE, _by_sort
from emalg.monads import (
    HOLE,
    MAX_TREE_SIZE,
    OMEGA_UP,
    SORT_FIN,
    SORT_INF,
    SORT_WORD,
    WORD,
    MixedWord,
    Node,
    Tree,
    UPWord,
    Var,
    Word,
    parse_element,
    parse_tree,
    parse_upword,
    serialize,
    tree_monad,
)

TREE2 = tree_monad(2)


def test_sing():
    assert WORD.sing("a", SORT_WORD) == Word(("a",))
    assert TREE2.sing("b", 2) == Tree(Node("b", (Var(0), Var(1))), 2)
    assert OMEGA_UP.sing("a", SORT_FIN) == Word(("a",))
    assert OMEGA_UP.sing("e", SORT_INF) == MixedWord((), "e")


def test_sing_arity_out_of_range():
    with pytest.raises(Exception):
        TREE2.sing("b", 3)


def test_map_identity_and_relabel():
    t = Word(("a", "a"))
    assert WORD.map(lambda a, s: a, t) == t
    assert WORD.map(lambda a, s: "b", t) == Word(("b", "b"))
    tree = parse_tree("b(c,x0)")
    mapped = TREE2.map(lambda a, s: a.upper(), tree)
    assert mapped == Tree(Node("B", (Node("C"), Var(0))), 1)



def test_map_calls_its_function_with_each_label_and_its_sort():
    calls = []

    def tag(a, s):
        calls.append((a, s))
        return (a, s)

    cases = [
        (WORD, Word(("a", "b")), [("a", SORT_WORD), ("b", SORT_WORD)]),
        (OMEGA_UP, Word(("a",)), [("a", SORT_FIN)]),
        (OMEGA_UP, MixedWord(("a",), "e"), [("a", SORT_FIN), ("e", SORT_INF)]),
        (OMEGA_UP, UPWord(("a",), ("b",)), [("a", SORT_FIN), ("b", SORT_FIN)]),
        (TREE2, parse_tree("b(u(c),x0)"), [("b", 2), ("u", 1), ("c", 0)]),
    ]
    for monad, t, expected in cases:
        calls.clear()
        mapped = monad.map(tag, t)
        assert sorted(calls) == sorted(expected), (monad, t)
        assert monad.element_sort(mapped) == monad.element_sort(t)
        # functoriality: mapping twice is mapping the composite
        twice = monad.map(lambda a, s: a + "!", monad.map(lambda a, s: a.upper(), t))
        assert twice == monad.map(lambda a, s: a.upper() + "!", t)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[a]", "expected '(' before the period"),
        ("[a](b)^w", "expected '['"),
        ("[a]([])^w", "empty word literal"),
        ("[a]([b])", "expected ')^w' after the period"),
        ("[a]([b]", "expected ')^w' after the period"),
        ("[a]([b])^w c", "trailing input ['c']"),
        ("[_]([b])^w", "hole not allowed here"),
        ("[a]([_])^w", "hole not allowed here"),
        ("[a]([b,", "unterminated '['"),
    ],
)
def test_parse_upword_names_what_is_malformed(text, message):
    with pytest.raises(ValueError) as err:
        parse_upword(text)
    assert str(err.value) == message

def test_flat_word_concatenation():
    t = Word((Word(("a", "b")), Word(("c",))))
    assert WORD.flat(t) == Word(("a", "b", "c"))


def test_flat_sing_unit():
    for monad, elem in [
        (WORD, Word(("a", "b"))),
        (OMEGA_UP, UPWord(("a",), ("b",))),
        (TREE2, parse_tree("b(c,d)")),
    ]:
        s = monad.sing(elem, monad.element_sort(elem))
        assert monad.flat(s) == elem


def test_flat_tree_substitution():
    # outer node labelled b(x0,x1) with children labelled c and d
    inner = TREE2.sing("b", 2)
    outer = Tree(
        Node(inner, (Node(TREE2.sing("c", 0)), Node(TREE2.sing("d", 0)))), 0
    )
    assert TREE2.flat(outer) == parse_tree("b(c,d)")


def test_flat_omega_absorption():
    # a finite run of words followed by an already-infinite element
    outer = MixedWord((Word(("a",)),), UPWord((), ("b", "a")))
    flat = OMEGA_UP.flat(outer)
    assert flat == UPWord(("a",), ("b", "a")) == UPWord((), ("a", "b"))
    outer2 = MixedWord((Word(("a", "b")),), MixedWord(("a",), "e"))
    assert OMEGA_UP.flat(outer2) == MixedWord(("a", "b", "a"), "e")


def test_upword_normal_form():
    assert UPWord((), ("a", "b", "a", "b")) == UPWord((), ("a", "b"))
    assert UPWord(("a",), ("b", "a")) == UPWord((), ("a", "b"))
    assert UPWord(("a", "b"), ("a", "b")) == UPWord((), ("a", "b"))


@given(
    st.lists(st.sampled_from("ab"), max_size=4),
    st.lists(st.sampled_from("ab"), min_size=1, max_size=4),
)
def test_upword_invariance(u, v):
    u, v = tuple(u), tuple(v)
    base = UPWord(u, v)
    assert UPWord(u + v, v) == base
    assert UPWord(u, v + v) == base
    assert UPWord(u + v[:1], v[1:] + v[:1]) == base


def test_tree_linearity_enforced():
    with pytest.raises(ValueError):
        Tree(Node("b", (Var(0), Var(0))), 1)
    with pytest.raises(ValueError):
        Tree(Node("b", (Var(2), Var(0))), 2)  # x2 exceeds sort
    with pytest.raises(ValueError):
        Tree(Var(0), 1)  # root must be a symbol
    with pytest.raises(ValueError):
        Tree(Node("u", [Node("b", [Var(0), Var(0)])]), 1)  # below the root
    with pytest.raises(ValueError):
        parse_tree("b(x0,x0)")


def test_parsing_round_trips():
    for text in ["[a,b,a]", "[a]([b,a])^w", "[]([b])^w", "b(c,x0)", "c"]:
        for monad in (WORD, OMEGA_UP, TREE2):
            try:
                elem = parse_element(text, monad)
            except ValueError:
                continue
            assert parse_element(serialize(elem), monad) == elem


def test_every_enumerated_element_round_trips():
    # mixed words ([a]e) and trees that drop their highest variables
    # (c:2) included
    for monad, base, size, _ in MONAD_LAW_SCOPE:
        for t in monad.free_elements(base, size):
            assert parse_element(serialize(t), monad) == t
    assert serialize(MixedWord(("a",), "e")) == "[a]e"
    assert parse_element("[]e", OMEGA_UP) == MixedWord((), "e")
    assert serialize(Tree(Node("u", (Var(0),)), 2)) == "u(x0):2"
    assert parse_element("b(x1, c) : 2", TREE2) == Tree(Node("b", (Var(1), Node("c"))), 2)


@pytest.mark.parametrize(
    "text", ["[a]e f", "[a]:2", "[(]", ",", "b(,)", ":2", "c:", "b(x1,c):1"]
)
def test_malformed_literals_are_rejected(text):
    with pytest.raises(ValueError):
        parse_element(text, OMEGA_UP if text.startswith("[") else TREE2)


def test_parse_word_whitespace():
    assert parse_element(" [ a , b ] ", WORD) == Word(("a", "b"))
    with pytest.raises(ValueError):
        parse_element("[]", WORD)
    with pytest.raises(ValueError):
        parse_element("[a,b", WORD)


def test_parse_upword_normalises():
    assert parse_upword("[a]([b,a])^w") == UPWord((), ("a", "b"))


def test_parse_tree_sort_inference():
    assert parse_tree("b(x1,x0)").sort == 2
    assert parse_tree("b(c,d)").sort == 0
    with pytest.raises(ValueError):
        parse_tree("x0")


def test_hole_token():
    t = parse_tree("b(_,c)", allow_hole=True)
    assert t.root.children[0].label is HOLE
    with pytest.raises(ValueError):
        parse_tree("b(_,c)")


def _levels(monad, base, sizes):
    """The label pools of the level after ``len(sizes)`` levels of elements
    up to those sizes, the first over ``base``."""
    pools = base
    for size in sizes:
        pools = _by_sort(monad, monad.free_elements(pools, size))
    return pools


def test_monad_laws_randomized():
    """The three laws on every element up to size 3 and every three-level
    element up to sizes 2, 1, 2, over one label of some sorts where the
    battery's scope has two."""
    cases = [
        (WORD, {SORT_WORD: list("ab")}),
        (OMEGA_UP, {SORT_FIN: list("ab"), SORT_INF: ["e"]}),
        (TREE2, {0: ["c"], 1: ["u"], 2: ["b"]}),
    ]
    for monad, base in cases:
        for t in monad.free_elements(base, 3):
            assert monad.flat(monad.sing(t, monad.element_sort(t))) == t
            assert monad.flat(monad.map(lambda a, s: monad.sing(a, s), t)) == t
        sorts = set()
        for big in monad.free_elements(_levels(monad, base, (2, 1)), 2):
            sorts.add(monad.element_sort(big))
            assert monad.flat(monad.flat(big)) == monad.flat(
                monad.map(lambda w, s: monad.flat(w), big)
            )
        assert sorts == set(monad.sorts)


def _rename(node, image):
    """``node`` with each variable x_i renamed x_image[i]."""
    if isinstance(node, Var):
        return Var(image[node.index])
    return Node(node.label, tuple(_rename(c, image) for c in node.children))


def test_tree_elements_are_every_linear_tree():
    """Up to 3 nodes and the arity cap: the brute force of
    tests/test_law_axioms lists each shape with its variables in order, and
    every injective renaming into a sort at least their number gives the
    trees whose variables come in any order, some dropped."""
    from tests.test_law_axioms import _trees

    want = set()
    for t, _ in _trees({"c": (0, 1), "u": (1, 1), "b": (2, 1)}, 3, 2):
        for k in range(t.sort, 3):
            for image in itertools.permutations(range(k), t.sort):
                want.add(Tree(_rename(t.root, image), k))
    got = list(TREE2.free_elements({0: ["c"], 1: ["u"], 2: ["b"]}, 3))
    assert len(got) == len(set(got))
    assert set(got) == want
    assert parse_tree("b(x1,x0)") in want and parse_tree("u(x1)") in want
    assert Tree(Node("u", (Var(0),)), 2) in want  # x1 dropped


def test_word_and_omega_elements_are_every_element_once():
    runs = [u for n in range(3) for u in itertools.product("ab", repeat=n)]
    words = list(WORD.free_elements({SORT_WORD: ["a", "b"]}, 2))
    assert words == [Word(u) for u in runs[1:]]
    got = list(OMEGA_UP.free_elements({SORT_FIN: ["a", "b"], SORT_INF: ["e"]}, 2))
    assert len(got) == len(set(got))
    assert set(got) == (
        set(words)
        | {UPWord(u, v) for u in runs for v in runs[1:]}
        | {MixedWord(u, "e") for u in runs}
    )


def test_tree_flat_preserves_linearity_and_sort():
    level1 = _levels(TREE2, {0: ["c"], 1: ["u"], 2: ["b"]}, (2,))
    sorts = set()
    for big in TREE2.free_elements(level1, 2):
        sorts.add(big.sort)
        flat = TREE2.flat(big)
        assert flat.sort == big.sort  # linearity: test_trusted_trees_pass_the_public_checks
    assert sorts == {0, 1, 2}


def _recheck(t):
    """Rebuild ``t`` through the checking public constructors."""

    def go(n):
        if isinstance(n, Var):
            return Var(n.index)
        return Node(n.label, tuple(go(c) for c in n.children))

    rebuilt = Tree(go(t.root), t.sort)
    assert rebuilt == t
    return t


def test_trusted_trees_pass_the_public_checks():
    base = {0: ["c", "d"], 1: ["u"], 2: ["b"]}
    for t in TREE2.free_elements(base, 3):
        _recheck(t)
        _recheck(TREE2.sing(t, t.sort))
        _recheck(TREE2.flat(TREE2.sing(t, t.sort)))
        _recheck(TREE2.map(lambda a, s: a * 2, t))
        _recheck(TREE2.flat(TREE2.map(lambda a, s: TREE2.sing(a, s), t)))
    level1 = _levels(TREE2, base, (2,))
    level2 = _levels(TREE2, level1, (1,))
    for pools in (level1, level2):
        for p in pools.values():
            for x in p:
                _recheck(x)
    for big in TREE2.free_elements(level2, 2):
        _recheck(big)
        _recheck(TREE2.flat(TREE2.flat(big)))
        _recheck(TREE2.flat(TREE2.map(lambda w, s: _recheck(TREE2.flat(w)), big)))


def _chain(label, depth, leaf):
    node = leaf
    for _ in range(depth):
        node = Node(label, (node,))
    return node


def _count_nodes(n):
    return 0 if isinstance(n, Var) else 1 + sum(_count_nodes(c) for c in n.children)


def test_flat_counts_every_node_against_the_cap(monkeypatch):
    # outer node labelled by a 3-node unary context, its child by a 4-node
    # ground tree: the flattened tree has exactly 7 nodes
    ctx = Tree(_chain("u", 3, Var(0)), 1)
    ground = Tree(_chain("u", 3, Node("c")), 0)
    outer = Tree(Node(ctx, (Node(ground),)), 0)
    monkeypatch.setattr(monads, "MAX_TREE_SIZE", 7)
    assert _count_nodes(TREE2.flat(outer).root) == 7
    monkeypatch.setattr(monads, "MAX_TREE_SIZE", 6)
    with pytest.raises(ValueError, match="exceeds 6 nodes"):
        TREE2.flat(outer)


def test_flat_raises_past_max_tree_size():
    # 100 nested copies of a 100-node unary context over one leaf
    ctx = Tree(_chain("u", 100, Var(0)), 1)
    outer = Tree(_chain(ctx, 100, Node(TREE2.sing("c", 0))), 0)
    assert 100 * 100 + 1 > MAX_TREE_SIZE
    with pytest.raises(ValueError, match=f"exceeds {MAX_TREE_SIZE} nodes"):
        TREE2.flat(outer)
