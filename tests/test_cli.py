import io
import functools
import hashlib
import itertools
import json
import contextlib
import os
import pathlib
import subprocess
import sys

import pytest

from emalg import cli, logic, syntactic, varieties
from emalg.algebra import is_congruence_ordering
from emalg.automata import dfa_to_recognizer, parse_regex
from emalg.cli import EXIT_BOUND, EXIT_INPUT, EXIT_INTERNAL, EXIT_NEGATIVE, EXIT_OK, main
from emalg.core import NoFactorisation, Preorder
from emalg.lawsuite import corpus_languages
from emalg.syntactic import syntactic_algebra


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_decide_exit_codes():
    code, out = run_cli("decide", "fo", "(a|b)*aa(a|b)*")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["verdict"]["definable"] is True
    assert list(report) == ["command", "verdict", "evidence", "timing_ms"]

    code, out = run_cli("decide", "fo", "(aa)+")
    assert code == EXIT_NEGATIVE
    report = json.loads(out)
    assert report["evidence"]["counterexample"]["inequality"] == "x^w x <= x^w"


def test_check_command(tmp_path):
    alg = tmp_path / "triv.alg"
    alg.write_text("kind word\nelems 0 u\ndot u u u\n")
    code, out = run_cli("check", str(alg), "x^w x = x^w")
    assert code == EXIT_OK
    z2 = tmp_path / "z2.alg"
    z2.write_text(
        "kind word\nelems 0 e a\ndot e e e\ndot e a a\ndot a e a\ndot a a e\n"
    )
    code, out = run_cli("check", str(z2), "APERIODIC")
    assert code == EXIT_NEGATIVE
    assert json.loads(out)["evidence"]["counterexample"]["assignment"] == {"x": "a"}


def test_syn_command_and_stability():
    code1, out1 = run_cli("syn", "(a|b)*aa(a|b)*")
    code2, out2 = run_cli("syn", "(a|b)*aa(a|b)*")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2  # byte-stable reports
    report = json.loads(out1)
    assert report["verdict"]["size"] == 5


def test_syn_accepts_dfa_files(tmp_path):
    f = tmp_path / "even.dfa"
    f.write_text(
        "alphabet a\nstates 2\nstart 0\naccept 0\n"
        "trans 0 a 1\ntrans 1 a 0\n"
    )
    code, out = run_cli("syn", str(f))
    assert code == EXIT_OK
    assert json.loads(out)["verdict"]["size"] == 2


def test_theory_command():
    code, out = run_cli("theory", "1", "ab")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["verdict"]["classes"] == 3
    code, _ = run_cli("theory", "2", "ab")
    assert code == EXIT_BOUND


def test_check_rejects_an_inequality_past_the_assignment_bound(tmp_path):
    alg = tmp_path / "triv.alg"
    alg.write_text("kind word\nelems 0 u\ndot u u u\n")
    code, out = run_cli("check", str(alg), "x y z u v <= v")
    assert code == EXIT_INPUT
    assert json.loads(out) == {"command": "check", "error": "5 variables exceed the assignment bound 4"}


def test_theory_at_rank_1_completes_to_the_class_guard():
    # the rank-1 classes over k letters are the 2^k - 1 nonempty letter sets
    code, out = run_cli("theory", "1", "abcdefghi")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"]["classes"] == 511
    code, out = run_cli("theory", "1", "abcdefghij")
    assert code == EXIT_BOUND
    assert json.loads(out) == {"command": "theory", "error": "more than 512 classes at rank 1"}


# theory over one and two letters interleaved with two-letter and unary
# decisions, in one process
THEORY_AND_DECIDE = [
    ["decide", "fo", "(a|b)*aa(a|b)*"],
    ["theory", "0", "a"],
    ["theory", "1", "a"],
    ["decide", "fo", "aaaaaa+"],
    ["theory", "2", "ab"],
    ["decide", "fo", "(a|b)*ab"],
    ["theory", "2", "a"],
    ["theory", "0", "ab"],
    ["theory", "1", "ba"],
    ["decide", "fo", "(aa)+"],
    ["theory", "3", "a"],
    ["theory", "2", "ba"],
    ["theory", "1", "ab"],
    ["decide", "fo", "b(a|b)*"],
    ["theory", "4", "a"],
    ["theory", "0", "ba"],
    ["theory", "5", "a"],
    ["decide", "fo", "aaa+"],
]

THEORY_AND_DECIDE_PIN = "a408a9559e074f3261178eab56c802728a7c62bbdd69cb8d1fbffaf002d50a14"


def _theory_and_decide_digest() -> str:
    digest = hashlib.sha256()
    for argv in THEORY_AND_DECIDE:
        code, out = run_cli(*argv)
        digest.update(f"{code}\n{out}".encode())
    return digest.hexdigest()


def test_theory_and_decide_reports_are_pinned_cold_and_warm():
    logic._theory_outcome.cache_clear()
    assert _theory_and_decide_digest() == THEORY_AND_DECIDE_PIN
    assert _theory_and_decide_digest() == THEORY_AND_DECIDE_PIN


# the "(k+1)-th letter from the end is x" family and a few classics, whose
# syn and decompose reports depend on the syntactic preorder and on the
# separating contexts
SYN_AND_DECOMPOSE_LANGUAGES = [
    f"(a|b)*{x}" + "(a|b)" * k for x in "ab" for k in range(4)
] + ["(a|b)*aa(a|b)*", "(ab)+", "(aa)+", "(a|b|c)*abc(a|b|c)*"]

SYN_AND_DECOMPOSE_PIN = "b13a53cff0058b680ae1357223c6d2c3f5987c3272dbf6820dac77377d3489f6"


def test_syn_and_decompose_reports_are_pinned():
    digest = hashlib.sha256()
    for language in SYN_AND_DECOMPOSE_LANGUAGES:
        for command in ("syn", "decompose"):
            code, out = run_cli(command, language)
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == SYN_AND_DECOMPOSE_PIN


def test_the_syn_table_is_sorted_as_its_label_text():
    # the report sorts the table by per-element ranks; the order must be the
    # order of the texts repr(((a, b), a b)), which rests on the elements'
    # reprs being prefix-free
    languages = [("(a|b)*" + x + "(a|b)" * k, None) for x in "ab" for k in range(1, 5)]
    languages += list(corpus_languages().values())
    for rx, alphabet in languages:
        syn = syntactic_algebra(dfa_to_recognizer(parse_regex(rx, alphabet)))
        alg = syn.syn_algebra
        reprs = [repr(e) for e in alg.carrier]
        assert not any(r != s and s.startswith(r) for r in reprs for s in reprs)
        name = {e: f"e{i}" for i, e in enumerate(alg.carrier)}
        by_text = sorted((repr(((a, b), c)), f"{name[a]} {name[b]}") for (a, b), c in alg.mult.items())
        assert list(cli._dump_syntactic(syn)["table"]) == [key for _, key in by_text], rx


def test_decompose_command():
    code, out = run_cli("decompose", "(a|b)*aa(a|b)*", "--target", "K")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["evidence"]["verified_up_to_length_6"] is True


def test_an_unknown_target_is_an_argument_error_with_no_line_number():
    code, out = run_cli("decompose", "(a|b)*a", "--target", "e9")
    assert code == EXIT_INPUT
    assert json.loads(out)["error"] == "--target names unknown element 'e9'"


def test_decide_takes_no_logic_but_fo():
    # argparse's choices refuse it before any command runs
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        main(["decide", "mso", "(a|b)*a"])
    assert exc.value.code == 2


@pytest.mark.parametrize("drop", ["context", "clause"])
def test_a_broken_decomposition_fails_its_verification(monkeypatch, drop):
    # without one context of its first clause, or without that clause, the
    # decomposition disagrees with the language on a word of at most 6
    # letters, and the command says so
    decompose = cli.decompose_as_derivatives

    def broken(syn, target):
        dec = decompose(syn, target)
        (a, ctxs), *rest = dec.clauses
        clauses = [(a, ctxs[1:])] + rest if drop == "context" else rest
        return syntactic.DerivativeDecomposition(dec.syn, dec.target, clauses)

    monkeypatch.setattr(cli, "decompose_as_derivatives", broken)
    code, out = run_cli("decompose", "(a|b)*aa(a|b)*")
    report = json.loads(out)
    assert code == EXIT_NEGATIVE
    assert report["verdict"]["verified"] is False
    assert report["evidence"]["verified_up_to_length_6"] is False


EPSILON_WARNING = "regex matched the empty word; language taken over nonempty words"


@pytest.mark.parametrize(
    "command", [["syn"], ["decide", "fo"], ["decompose"]], ids=["syn", "decide", "decompose"]
)
def test_a_regex_matching_the_empty_word_is_warned_about(command):
    code, out = run_cli(*command, "a*")
    assert code == EXIT_OK
    assert json.loads(out)["evidence"]["warning"] == EPSILON_WARNING
    _, out = run_cli(*command, "a+")
    assert "warning" not in json.loads(out)["evidence"]


def test_cover_command(tmp_path):
    z2 = tmp_path / "z2.alg"
    z2.write_text(
        "kind word\nelems 0 e a\ndot e e e\ndot e a a\ndot a e a\ndot a a e\n"
    )
    code, out = run_cli("cover", str(z2))
    assert code == EXIT_OK
    assert json.loads(out)["evidence"]["surjection_verified"] is True


def test_a_failed_cover_map_check_is_an_internal_error(tmp_path, monkeypatch):
    # the cover map's order check reports a pair: a fault of the code, not
    # of the file, so the exit code is the internal one, as for every other
    # failed check of that map
    z2 = tmp_path / "z2.alg"
    z2.write_text("kind word\nelems 0 e a\ndot e e e\ndot e a a\ndot a e a\ndot a a e\n")
    monkeypatch.setattr(varieties, "_unordered", lambda rows, up, image: (0, 0))
    code, out = run_cli("cover", str(z2))
    assert code == EXIT_INTERNAL
    assert json.loads(out)["error"] == "cover map is not monotone; bug"


def test_input_errors():
    code, out = run_cli("decide", "fo", "(a")
    assert code == EXIT_INPUT
    code, out = run_cli("check", "/nonexistent/file.alg", "APERIODIC")
    assert code == EXIT_INPUT


@pytest.mark.parametrize("argv", [("check", "{}", "APERIODIC"), ("cover", "{}")])
def test_an_unreadable_path_is_an_input_error(tmp_path, argv):
    # a directory is no algebra file: the error is reported, not raised
    with pytest.raises(OSError) as opening:
        open(tmp_path, encoding="utf-8")
    code, out = run_cli(*(a.format(tmp_path) for a in argv))
    assert code == EXIT_INPUT
    assert json.loads(out) == {"command": argv[0], "error": str(opening.value)}


def test_timing_flag():
    _, out = run_cli("--timing", "syn", "(aa)+")
    assert json.loads(out)["timing_ms"] is not None
    _, out = run_cli("syn", "(aa)+")
    assert json.loads(out)["timing_ms"] is None


@functools.lru_cache(maxsize=None)
def _laws(*argv):
    """``emalg laws`` at its one configuration, run once per argument list."""
    return run_cli(*argv)


def test_laws_smoke():
    code, out = _laws("laws", "--seed", "1")
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l.startswith("PASS") or l.startswith("FAIL")]
    assert len(lines) == 10
    assert all(l.startswith("PASS") for l in lines)


def _laws_report(out: str) -> str:
    """The JSON report of ``emalg laws``, after its per-check lines."""
    return out[out.index("{"):]


# The report of ``emalg laws --seed 0`` without --timing.  It changed once,
# when canonical-covers took in the two Wilke algebras: the earlier report,
# with "6 algebras covered and verified" made "8 ...", hashes to this.
LAWS_SEED0_REPORT_SHA256 = "430d0d82ba741684ae5767946c4bd6bac1efed3792e00448e68115bd272ac06d"


def test_laws_report_without_timing_is_pinned():
    code, out = _laws("laws", "--seed", "0")
    assert code == EXIT_OK
    report = _laws_report(out)
    assert hashlib.sha256(report.encode()).hexdigest() == LAWS_SEED0_REPORT_SHA256
    assert all(list(e) == ["ok", "detail"] for e in json.loads(report)["evidence"].values())


def test_laws_seed_is_only_echoed():
    """Every check enumerates a declared scope: the seed reaches the
    verdict and nothing else."""
    reports = [_laws_report(_laws("laws", "--seed", seed)[1]) for seed in ("0", "1")]
    verdicts = [json.loads(r)["verdict"] for r in reports]
    assert verdicts == [{"ok": True, "seed": 0}, {"ok": True, "seed": 1}]
    evidence = [r[r.index('"evidence"'):] for r in reports]
    assert evidence[0] == evidence[1]


def test_laws_timing_gives_each_check_its_milliseconds():
    code, out = _laws("--timing", "laws", "--seed", "0")
    assert code == EXIT_OK
    report = json.loads(_laws_report(out))
    assert len(report["evidence"]) == 10
    for entry in report["evidence"].values():
        assert list(entry) == ["ok", "detail", "ms"]
        assert entry["ms"] >= 0


def test_carrier_cap_exits_with_the_bound_code(tmp_path):
    # the syntactic algebra of (a|b)*a(a|b){5} has 126 elements, past the cap
    code, out = run_cli("syn", "(a|b)*a" + "(a|b)" * 5)
    assert code == EXIT_BOUND
    assert json.loads(out) == {"command": "syn", "error": "sort 0 has 126 elements, cap is 64"}
    big = tmp_path / "big.alg"
    big.write_text("kind word\nelems 0 " + " ".join(f"e{i}" for i in range(65)) + "\n")
    code, out = run_cli("check", str(big), "APERIODIC")
    assert code == EXIT_BOUND
    assert json.loads(out)["error"] == "sort 0 has 65 elements, cap is 64"
    # a tree sort above the arity cap would build about 4^m comp shapes
    tall = tmp_path / "tall.alg"
    tall.write_text("kind tree\nelems 0 c\nelems 12 a\n")
    code, out = run_cli("check", str(tall), "APERIODIC")
    assert code == EXIT_BOUND
    assert json.loads(out) == {"command": "check", "error": "tree sort 12 exceeds the arity cap 8"}


def _incompatible_preorder(alg, accepting, sort):
    """Stands in for a broken syntactic preorder: the first single pair
    whose preorder is not compatible with the products."""
    for x, y in itertools.product(alg.carrier, repeat=2):
        q = Preorder(alg.carrier, [(x, y)])
        if not is_congruence_ordering(alg, q):
            return q
    raise RuntimeError("every one-pair preorder is compatible")


def test_an_incompatible_syntactic_preorder_exits_with_the_internal_code(monkeypatch):
    monkeypatch.setattr(syntactic, "syntactic_preorder", _incompatible_preorder)
    code, out = run_cli("syn", "(a|b)*aa(a|b)*")
    assert code == EXIT_INTERNAL
    report = json.loads(out)
    assert list(report) == ["command", "error"]  # this failure has no witness
    assert report["command"] == "syn"
    assert "indicates a bug" in report["error"]


@pytest.mark.parametrize(
    "exc, expected",
    [
        (AssertionError("the two deciders disagree"), {"error": "the two deciders disagree"}),
        (AssertionError(), {"error": "AssertionError"}),
        (NoFactorisation(("e0", "e1")), {"error": "kernel violation at pair ('e0', 'e1')", "witness": ["e0", "e1"]}),
    ],
)
def test_internal_inconsistencies_report_their_witness(monkeypatch, exc, expected):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "fo_definable", fail)
    code, out = run_cli("decide", "fo", "(aa)+")
    assert code == EXIT_INTERNAL
    assert json.loads(out) == {"command": "decide", **expected}


# one algebra file per instance, for the check and cover reports
CHECK_AND_COVER_FILES = {
    "word.alg": """kind word
elems 0 z e g
leq 0 z e
leq 0 z g
dot z z z
dot z e z
dot z g z
dot e z z
dot e e e
dot e g g
dot g z z
dot g e g
dot g g e
""",
    "omega.alg": """kind omega
elems 1 n h
elems inf no yes
leq 1 n h
leq inf no yes
dot n n n
dot n h h
dot h n h
dot h h h
mix n no no
mix n yes yes
mix h no yes
mix h yes yes
omega n no
omega h yes
""",
    "tree.alg": """kind tree
elems 0 c d
elems 1 u v
comp u c c
comp u d c
comp u u u
comp u v u
comp v c d
comp v d d
comp v u v
comp v v v
comp u _ u
""",
}

CHECK_INEQUALITIES = ["APERIODIC", "COMMUTATIVE", "IDEMPOTENT", "x y x <= x", "x^w <= x", "x y = y x"]

CHECK_AND_COVER_PIN = "e648571e2b99cdf9fff18d0a3bc56ed1e1fd3702edff1c677cc32c1efd6746e7"


def test_check_and_cover_reports_are_pinned(tmp_path):
    digest = hashlib.sha256()
    for name, text in CHECK_AND_COVER_FILES.items():
        path = tmp_path / name
        path.write_text(text)
        runs = [("check", str(path), ineq) for ineq in CHECK_INEQUALITIES]
        for argv in runs + [("cover", str(path))]:
            code, out = run_cli(*argv)
            digest.update(f"{name} {argv[2:]}\n{code}\n{out}".encode())
    assert digest.hexdigest() == CHECK_AND_COVER_PIN


def test_a_repetition_count_is_an_input_error():
    code, out = run_cli("syn", "(a|b)*a(a|b){4}")
    assert code == EXIT_INPUT
    assert json.loads(out) == {"command": "syn", "error": "regex error at position 12: unexpected '{'"}


def test_an_explicit_alphabet_must_name_each_letter_once_and_cover_the_regex():
    code, out = run_cli("decide", "fo", "ab", "--alphabet", "a")
    assert code == EXIT_INPUT
    assert json.loads(out) == {
        "command": "decide", "error": "regex error at position 1: letter 'b' is not in the alphabet"
    }
    code, out = run_cli("syn", "a", "--alphabet", "aa")
    assert code == EXIT_INPUT
    assert json.loads(out) == {"command": "syn", "error": "regex error at position 0: alphabet names a letter twice"}


def test_negative_ranks_are_input_errors():
    code, out = run_cli("theory", "-1", "ab")
    assert code == EXIT_INPUT
    assert json.loads(out) == {"command": "theory", "error": "rank -1 is negative"}
    code, out = run_cli("decide", "fo", "a*", "--rank-bound", "-1")
    assert code == EXIT_INPUT
    assert json.loads(out) == {"command": "decide", "error": "rank bound -1 is negative"}


def _run_capturing(*argv):
    """(exit code, stdout, stderr) of one call, a usage error included, with
    the timing field masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    if '"timing_ms"' in text:
        report = json.loads(text)
        report["timing_ms"] = report["timing_ms"] is not None
        text = json.dumps(report)
    return code, text, err.getvalue()


SHARED_PARSER_CALLS = [
    ("syn", "(aa)+"),
    ("synn", "(aa)+"),
    ("--timing", "syn", "(aa)+"),
    ("decide", "fo", "(a"),
    ("theory", "1", "ab"),
    ("theory", "one", "ab"),
    ("syn", "(aa)+"),
]


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_one_parser_serves_every_call_as_fresh_ones_do(fresh_parser, monkeypatch):
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    shared = [_run_capturing(*argv) for argv in SHARED_PARSER_CALLS]
    assert len(builds) == 1
    monkeypatch.setattr(cli, "_parser", build)
    fresh = [_run_capturing(*argv) for argv in SHARED_PARSER_CALLS]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 2, 0, 2, 0]


def test_python_dash_m_runs_the_cli_from_a_checkout(tmp_path):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "emalg", "theory", "1", "ab"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"]["classes"] == 3
