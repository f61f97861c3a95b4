"""Line-based file formats: algebras and DFAs.

Algebra files ('#' comments, blank lines ignored):

    kind word|omega|tree
    elems <sort> e1 e2 ...
    leq <sort> ei ej      (ei and ej of that sort)
    dot ei ej ek          (word and omega; a word algebra's product)
    mix ei ej ek          (omega)
    omega ei ej           (omega)
    comp a s1 .. sn r     (tree, n >= 1; a slot may be '_' for a bare variable)

Word algebras live at sort 0; omega algebras use sorts '1' and 'inf'
(spelled 'inf', 'w' or '2'); tree algebras use arities as sorts.  The
reflexive-transitive closure of the leq lines is taken.  Tables must be
total or the file is rejected, and so is a line of a table that the kind
does not have; errors carry line numbers.  A word product that is not
associative, and omega tables that break one of Wilke's axioms, are
rejected too, naming the first failed axiom.  An ``elems`` line that takes
a sort past the carrier cap raises ``CarrierBoundExceeded`` at once,
whatever errors later lines hold, and so does an ``elems`` line of a tree
sort above ``MAX_TREE_ARITY``.
"""

from __future__ import annotations

from .algebra import VAR, FinAlgebra, _associative, _axiom_violations, wilke_algebra
from .core import CarrierBoundExceeded, SortedOrderedSet, _check_sort_size
from .monads import SORT_FIN, SORT_INF, SORT_WORD, TreeMonad, WordMonad


#: The table lines of each kind (a word algebra spells its product ``dot``).
_TABLES = {"word": ("dot",), "omega": ("dot", "mix", "omega"), "tree": ("comp",)}
#: Each table line's argument count (None: at least 2) and its usage.
_TABLE_ARGS = {
    "dot": (3, "dot takes three elements"),
    "mix": (3, "mix takes three elements"),
    "omega": (2, "omega takes two elements"),
    "comp": (None, "comp takes: head slots... result"),
}
#: The largest sort a tree-algebra file may declare.  The tree monad of
#: arity cap m has a comp shape for every slot tuple with sum at most m,
#: about 4^m of them: 24,309 at 8, built in about 0.1 s.
MAX_TREE_ARITY = 8


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _lines(text: str):
    """Each line's number and tokens, up to its first '#'; blank lines are
    left out."""
    for i, raw in enumerate(text.splitlines(), start=1):
        toks = (raw.partition("#")[0] if "#" in raw else raw).split()
        if toks:
            yield i, toks


def _parse_sort(tok: str, kind: str, line_no: int) -> int:
    if kind == "omega" and tok in ("inf", "w"):
        return SORT_INF
    try:
        s = int(tok)
    except ValueError:
        raise ParseError(line_no, f"bad sort {tok!r}") from None
    if kind == "word" and s != SORT_WORD:
        raise ParseError(line_no, "word algebras live at sort 0")
    if kind == "omega" and s not in (SORT_FIN, SORT_INF):
        raise ParseError(line_no, "omega algebras use sorts 1 and inf")
    if s < 0:
        raise ParseError(line_no, "sorts are non-negative")
    return s


def _unknown(head: str, names: list, sort_of: dict, line_no: int) -> None:
    """Raise at the first of ``names`` that no elems line declared."""
    for a in names:
        if a not in sort_of:
            raise ParseError(line_no, f"{head} mentions unknown element {a!r}")


def parse_algebra(text: str) -> FinAlgebra:
    """The algebra of an algebra file, or the error of its first bad line.

    A line of a binary table of the kind (dot, mix), nearly every line of
    a file, is tested first: three tokens after its head, each a declared
    element, is one entry.  Any other line, and a table line that fails
    that test, goes through the checks of its directive in order, so an
    error is the one of the first bad line whatever line it is."""
    kind = None
    elems: dict[int, list[str]] = {}
    leq_pairs: list[tuple[str, str]] = []
    tables: dict[str, dict] = {op: {} for op in _TABLE_ARGS}
    binary: dict[str, dict] = {}  # the kind's dot and mix tables, once it is read
    sort_of: dict[str, int] = {}  # each element's sort, from its elems line

    for line_no, toks in _lines(text):
        table = binary.get(toks[0])
        if table is not None and len(toks) == 4:
            _, a, b, v = toks
            if a in sort_of and b in sort_of and v in sort_of:
                table[a, b] = v
                continue
        head, args = toks[0], toks[1:]
        if head == "kind":
            if kind is not None:
                raise ParseError(line_no, "duplicate kind line")
            if len(args) != 1 or args[0] not in ("word", "omega", "tree"):
                raise ParseError(line_no, "kind must be word, omega or tree")
            kind = args[0]
            binary = {op: tables[op] for op in _TABLES[kind] if op in ("dot", "mix")}
        elif kind is None:
            raise ParseError(line_no, "kind line must come first")
        elif head == "elems":
            if not args:
                raise ParseError(line_no, "elems needs a sort")
            s = _parse_sort(args[0], kind, line_no)
            if kind == "tree" and s > MAX_TREE_ARITY:
                raise CarrierBoundExceeded(
                    f"tree sort {s} exceeds the arity cap {MAX_TREE_ARITY}"
                )
            for e in args[1:]:
                if e in sort_of:
                    raise ParseError(line_no, f"element {e!r} declared twice")
                sort_of[e] = s
            elems.setdefault(s, []).extend(args[1:])
            _check_sort_size(s, len(elems[s]))  # fail at the line past the cap
        elif head == "leq":
            if len(args) != 3:
                raise ParseError(line_no, "leq takes: sort a b")
            s = _parse_sort(args[0], kind, line_no)
            _unknown(head, args[1:], sort_of, line_no)
            for a in args[1:]:
                if sort_of[a] != s:
                    raise ParseError(line_no, f"leq element {a!r} is not of sort {args[0]}")
            leq_pairs.append((args[1], args[2]))
        elif head in _TABLE_ARGS:
            if head not in _TABLES[kind]:
                raise ParseError(line_no, f"{kind} algebras have no {head} table")
            n, usage = _TABLE_ARGS[head]
            if (len(args) != n) if n else (len(args) < 2):
                raise ParseError(line_no, usage)
            if head == "comp":
                _unknown(head, [a for a in args if a != "_"], sort_of, line_no)
                key = (args[0], tuple(VAR if a == "_" else a for a in args[1:-1]))
            else:
                _unknown(head, args, sort_of, line_no)
                key = args[0] if head == "omega" else (args[0], args[1])
            tables[head][key] = args[-1]
        else:
            raise ParseError(line_no, f"unknown directive {head!r}")

    if kind is None:
        raise ParseError(0, "missing kind line")
    try:
        carrier = SortedOrderedSet(elems, leq_pairs)
        if kind == "word":
            alg = FinAlgebra(WordMonad(), carrier, mult=tables["dot"])
            if not _associative(alg):
                raise ValueError(f"associativity violated: {next(_axiom_violations(alg))}")
            return alg
        if kind == "omega":
            return wilke_algebra(carrier, tables["dot"], tables["mix"], tables["omega"])
        max_arity = max(elems, default=0)
        return FinAlgebra(TreeMonad(max_arity), carrier, comp=tables["comp"])
    except ValueError as exc:
        raise ParseError(0, str(exc)) from exc


def load_algebra(path: str) -> FinAlgebra:
    with open(path, encoding="utf-8") as fh:
        return parse_algebra(fh.read())


# -- DFA files ------------------------------------------------------------------
#
#   alphabet a b
#   states 3
#   start 0
#   accept 2
#   trans <state> <letter> <state>
#
# States are integers in 0..states-1.  Totality over states x alphabet is
# validated.  Each directive but trans is given once, the alphabet names
# each letter once, each (state, letter) has one trans line, and each trans
# letter must be in the alphabet.

#: Each DFA directive's least and greatest argument count (None: no most),
#: and its usage.
_DFA_ARGS = {
    "alphabet": (1, None, "alphabet takes one or more letters"),
    "states": (1, 1, "states takes one count"),
    "start": (1, 1, "start takes one state"),
    "accept": (0, None, "accept takes states"),
    "trans": (3, 3, "trans takes: state letter state"),
}


def dfa_to_text(dfa) -> str:
    lines = ["alphabet " + " ".join(str(c) for c in dfa.alphabet)]
    lines.append(f"states {dfa.n_states}")
    lines.append(f"start {dfa.start}")
    lines.append("accept " + " ".join(str(q) for q in sorted(dfa.accepting)))
    for q in range(dfa.n_states):
        for c in dfa.alphabet:
            lines.append(f"trans {q} {c} {dfa.trans[(q, c)]}")
    return "\n".join(lines) + "\n"


def _parse_int(tok: str, what: str, line_no: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(line_no, f"bad {what} {tok!r}") from None


def parse_dfa_file(text: str):
    from .automata import Dfa

    alphabet: list[str] = []
    n_states = None
    start = None
    accept: set[int] = set()
    trans: dict = {}
    named: list[tuple[int, int]] = []  # (line, state), checked against the count
    letters: list[tuple[int, str]] = []  # (line, letter), checked against the alphabet
    seen: set[str] = set()

    def states(toks: list[str], line_no: int) -> list[int]:
        qs = [_parse_int(t, "state", line_no) for t in toks]
        named.extend((line_no, q) for q in qs)
        return qs

    for line_no, toks in _lines(text):
        head, args = toks[0], toks[1:]
        if head not in _DFA_ARGS:
            raise ParseError(line_no, f"unknown directive {head!r}")
        least, most, usage = _DFA_ARGS[head]
        if len(args) < least or (most is not None and len(args) > most):
            raise ParseError(line_no, usage)
        if head in seen and head != "trans":
            raise ParseError(line_no, f"duplicate {head} line")
        seen.add(head)
        if head == "alphabet":
            if len(set(args)) < len(args):
                raise ParseError(line_no, "alphabet names a letter twice")
            alphabet = list(args)
        elif head == "states":
            n_states = _parse_int(args[0], "state count", line_no)
            if n_states < 1:
                raise ParseError(line_no, "states must be at least 1")
        elif head == "start":
            (start,) = states(args, line_no)
        elif head == "accept":
            accept = set(states(args, line_no))
        else:
            q, r = states([args[0], args[2]], line_no)
            if (q, args[1]) in trans:
                raise ParseError(line_no, f"duplicate transition for state {q}, letter {args[1]!r}")
            trans[(q, args[1])] = r
            letters.append((line_no, args[1]))
    if n_states is None or start is None or not alphabet:
        raise ParseError(0, "alphabet, states and start are required")
    for line_no, q in named:
        if not 0 <= q < n_states:
            raise ParseError(line_no, f"state {q} is outside 0..{n_states - 1}")
    for line_no, c in letters:
        if c not in alphabet:
            raise ParseError(line_no, f"letter {c!r} is not in the alphabet")
    for q in range(n_states):
        for c in alphabet:
            if (q, c) not in trans:
                raise ParseError(0, f"missing transition for state {q}, letter {c!r}")
    return Dfa(tuple(alphabet), n_states, start, frozenset(accept), trans)
