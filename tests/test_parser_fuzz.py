"""The parsers on arbitrary text: each returns a result or raises its
declared error, never another exception.

The draws are arbitrary text, lines made of each format's own words mixed
with arbitrary tokens (so that more of them get past the first line), and
deeply nested groups.  Algebra files are also drawn whole, from word,
omega and tree algebras, and with one line corrupted; on those draws and
on token lines the reader must agree with the line-by-line reader of
``tests/_reference.py``, carrier, integer tables and errors included.  The profile in
``conftest.py`` derandomizes them."""

from hypothesis import given, settings, strategies as st

from emalg.algebra import VAR, FinAlgebra, _encode
from emalg.algio import ParseError, parse_algebra, parse_dfa_file
from emalg.automata import Dfa, RegexSyntaxError, dfa_to_recognizer, parse_regex
from emalg.core import CarrierBoundExceeded
from emalg.profinite import OmegaPow, TermSeq, TermVar, parse_term
from emalg.syntactic import syntactic_algebra
from tests import _reference
from tests.test_algebra_tables import _small_algebras

EXAMPLES = settings(max_examples=200, deadline=None)


def lines(words: list[str]):
    """Texts of up to 8 lines, each of up to 6 tokens: words of the format
    or arbitrary short text."""
    token = st.one_of(st.sampled_from(words), st.text(min_size=1, max_size=3))
    return st.lists(st.lists(token, max_size=6).map(" ".join), max_size=8).map("\n".join)


def nested(opening: str, closing: str):
    """Arbitrary short text inside up to 3,000 levels of brackets, or after
    as many postfix operators."""
    depth = st.integers(0, 3000)
    inner = st.text(max_size=4)
    return st.one_of(
        st.tuples(depth, inner).map(lambda t: opening * t[0] + t[1] + closing * t[0]),
        st.tuples(inner, depth, st.sampled_from("*+?")).map(lambda t: t[0] + t[2] * t[1]),
    )


def _line_count(text: str) -> int:
    return len(text.splitlines())


ALGEBRA_WORDS = [
    "kind", "word", "omega", "tree", "elems", "leq", "dot", "mix", "comp",
    "_", "0", "1", "2", "inf", "w", "a", "b", "e", "#",
]
DFA_WORDS = ["alphabet", "states", "start", "accept", "trans", "0", "1", "2", "-1", "a", "b", "#"]


def algebra_text(alg) -> str:
    """``alg`` in the algebra file format, element i named e<i>, its order
    as its leq pairs and its tables in their entry order."""
    names = {e: f"e{i}" for i, e in enumerate(alg.carrier)}
    sort_of = alg.carrier.sort_of
    lines = [f"kind {alg.kind}"]
    lines += [f"elems {s} " + " ".join(names[e] for e in alg.elements(s)) for s in alg.carrier.sorts]
    pairs = sorted((alg.carrier._index[a], alg.carrier._index[b]) for a, b in alg.carrier.leq_pairs() if a != b)
    lines += [f"leq {sort_of(alg.carrier._by_index[i])} e{i} e{j}" for i, j in pairs]
    for op, table in alg.tables.items():
        head = "dot" if op == "mult" else op
        for args, value in table.items():
            lines.append(" ".join([head, *("_" if a is VAR else names[a] for a in args), names[value]]))
    return "\n".join(lines) + "\n"


def _file_algebras() -> list:
    """Word, omega and tree algebras, ordered and not, with and without
    bare comp slots, and transition semigroups and syntactic algebras of a
    few regexes."""
    algs = list(_small_algebras())
    for rx in ("(a|b)*ab", "a(a|b)*", "(ab)*a", "(a|b)*a(a|b)(a|b)(a|b)"):
        rec = dfa_to_recognizer(parse_regex(rx))
        algs += [rec.algebra, syntactic_algebra(rec).syn_algebra]
    return algs


FILES = [algebra_text(alg) for alg in _file_algebras()]
FILE_WORDS = ALGEBRA_WORDS + ["e0", "e1", "e2", "e3", "e9", "e99"]


def _with_one_line_corrupted(text: str, at: int, how: int, tokens: list, place: int) -> str:
    """``text`` with one line after the kind line, picked by ``at``,
    dropped, set to ``tokens``, repeated, with its token ``place``
    replaced by the first of ``tokens``, or with ``tokens`` after its
    head."""
    lines = text.splitlines()
    i = 1 + at % (len(lines) - 1)
    line = lines[i].split()
    if how == 0:
        new = []
    elif how == 1:
        new = [" ".join(tokens)]
    elif how == 2:
        new = [lines[i], lines[i]]
    elif how == 3:
        line[place % len(line)] = tokens[0] if tokens else ""
        new = [" ".join(line)]
    else:
        new = [" ".join(line[:1] + tokens)]
    return "\n".join(lines[:i] + new + lines[i + 1:]) + "\n"


def algebra_files():
    """The texts of ``FILES``, whole or with one line corrupted."""
    token = st.one_of(st.sampled_from(FILE_WORDS), st.text(min_size=1, max_size=3))
    corrupted = st.builds(
        _with_one_line_corrupted,
        st.sampled_from(FILES),
        st.integers(0, 10**6),
        st.integers(0, 4),
        st.lists(token, max_size=6),
        st.integers(0, 10),
    )
    return st.one_of(st.sampled_from(FILES), corrupted)


def _read(parse, text: str):
    """What ``parse`` makes of ``text``: the kind, the monad's arity cap, the
    carrier and the integer tables as lists of entries, place by place in
    their order; or the exception's type, text and line."""
    try:
        alg = parse(text)
    except (ParseError, CarrierBoundExceeded) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    places = [(place, list(table.items())) for place, table in alg._coded.items()]
    return alg.kind, getattr(alg.monad, "max_arity", None), alg.carrier, places


def test_the_algebra_files_include_every_kind_ordered_and_not():
    # the files that the reader oracle starts from are valid, of all three
    # kinds, with orders, bare comp slots and a 30-element word table
    algs = [parse_algebra(text) for text in FILES]
    assert {alg.kind for alg in algs} == {"word", "omega", "tree"}
    assert any(not alg.carrier.is_trivially_ordered() for alg in algs if alg.kind == "word")
    assert any(any(place[2] for place in alg._coded) for alg in algs)
    assert max(len(alg.carrier) for alg in algs) == 30


@EXAMPLES
@given(st.one_of(st.text(), st.text(alphabet="ab()|*+?{}"), nested("(", ")")))
def test_parse_regex_returns_a_dfa_or_a_syntax_error(text):
    try:
        dfa = parse_regex(text)
    except RegexSyntaxError as exc:
        assert 0 <= exc.pos <= len(text)
    else:
        assert isinstance(dfa, Dfa)


@EXAMPLES
@given(st.text(alphabet="abc()|*+?", max_size=12), st.text(alphabet="abc", max_size=4))
def test_parse_regex_over_an_alphabet_keeps_it_or_raises_a_syntax_error(text, alphabet):
    # an alphabet that names a letter twice, or misses a literal, is an
    # error; an accepted one is the DFA's alphabet as given
    try:
        dfa = parse_regex(text, alphabet)
    except RegexSyntaxError as exc:
        assert 0 <= exc.pos <= len(text)
    else:
        assert dfa.alphabet == tuple(alphabet)
        assert len(set(alphabet)) == len(alphabet)
        assert set(text) - set("()|*+?") <= set(alphabet)


@EXAMPLES
@given(
    st.one_of(
        st.text(),
        lines(ALGEBRA_WORDS),
        st.tuples(st.sampled_from(["word", "omega", "tree"]), lines(ALGEBRA_WORDS)).map(
            lambda t: f"kind {t[0]}\n{t[1]}"
        ),
    )
)
def test_parse_algebra_returns_an_algebra_or_a_line_numbered_error(text):
    try:
        alg = parse_algebra(text)
    except ParseError as exc:
        assert 0 <= exc.line_no <= _line_count(text)
    except CarrierBoundExceeded:
        pass
    else:
        assert isinstance(alg, FinAlgebra)


@EXAMPLES
@given(
    st.one_of(
        algebra_files(),
        st.tuples(st.sampled_from(["word", "omega", "tree"]), lines(FILE_WORDS)).map(
            lambda t: f"kind {t[0]}\n{t[1]}"
        ),
    )
)
def test_parse_algebra_agrees_with_the_line_by_line_reader(text):
    # whole files of every kind, files with one line corrupted and token
    # lines: the same kind, carrier and integer tables in entry order, or
    # the same error on the same line
    assert _read(parse_algebra, text) == _read(_reference.parse_algebra, text)


def _coded(encode, carrier, tables):
    """``encode``'s integer tables, place by place with their entries in
    order, or its exception's type and text."""
    try:
        return [(place, list(table.items())) for place, table in encode(carrier, tables).items()]
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _label_tables(alg) -> dict:
    return {op: dict(table) for op, table in alg.tables.items()}


@EXAMPLES
@given(
    st.sampled_from(range(len(FILES))),
    st.integers(0, 10**6),
    st.sampled_from(["junk", None, ("e",)]),
    st.integers(0, 4),
)
def test_encode_agrees_with_the_entry_by_entry_coding(which, at, junk, how):
    # one entry of a corpus algebra's label tables gets a foreign value or
    # argument (VAR among them, a bare slot where none may be), a wrong
    # number of arguments or an unhashable value, or a comp entry with two
    # bare slots is added: the coding, or its error, is the reference's,
    # the first bad entry named
    alg = parse_algebra(FILES[which])
    tables = _label_tables(alg)
    entries = [(op, args) for op, table in tables.items() for args in table]
    op, args = entries[at % len(entries)]
    table = tables[op]
    if how == 0:
        table[args] = junk
    elif how == 1:
        value = table.pop(args)
        table[(*args[:-1], junk)] = value
    elif how == 2:
        table[args[:1]] = table[args]
    elif how == 3:
        tables["comp"][(alg.carrier._by_index[0], VAR, VAR)] = alg.carrier._by_index[0]
    else:
        table[args] = [1]
    assert _coded(_encode, alg.carrier, tables) == _coded(_reference.encode, alg.carrier, tables)
    whole = _label_tables(alg)
    assert _coded(_encode, alg.carrier, whole) == _coded(_reference.encode, alg.carrier, whole)


@EXAMPLES
@given(st.one_of(st.text(), lines(DFA_WORDS)))
def test_parse_dfa_file_returns_a_dfa_or_a_line_numbered_error(text):
    try:
        dfa = parse_dfa_file(text)
    except ParseError as exc:
        assert 0 <= exc.line_no <= _line_count(text)
    else:
        assert isinstance(dfa, Dfa)


@EXAMPLES
@given(st.one_of(st.text(), st.text(alphabet="xyz()^w<= "), nested("(", ")")))
def test_parse_term_returns_a_term_or_a_value_error(text):
    try:
        term = parse_term(text)
    except ValueError:
        pass
    else:
        assert isinstance(term, (TermVar, TermSeq, OmegaPow))
