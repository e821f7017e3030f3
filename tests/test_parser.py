"""Front-end tests: lexer, parser, canonical printer, and the evaluator."""

import dataclasses
import hashlib
import json
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opttriage.minic import (
    Diagnostic,
    ParseError,
    SourceUnit,
    parse_unit,
)
from opttriage.minic import ast as A
from opttriage.minic.analyze import build_function_unit, classify_operator
from opttriage.minic.lexer import KEYWORDS, RESERVED_UNSUPPORTED, tokenize
from opttriage.minic.parser import Parser, split_functions
from opttriage.minic.printer import BIN_PREC, expr_text, function_text
from opttriage.synthgen import GenConfig, generate

from conftest import DATA, parse_ast, parse_one
from reference_lexer import reference_tokenize


# ---------------------------------------------------------------------- lexer


def test_tokenize_strips_comments():
    toks = tokenize("a /* x */ + b // tail\n- c")
    assert [t for k, t in zip(toks.kinds, toks.texts) if k != "eof"] == ["a", "+", "b", "-", "c"]


def test_tokenize_numbers():
    toks = tokenize("12 1.5 2.0f 1e3 0.5F")
    values = [v for k, v in zip(toks.kinds, toks.values) if k != "eof"]
    assert values == [12, 1.5, 2.0, 1000.0, 0.5]
    assert isinstance(values[0], int)
    assert all(isinstance(v, float) for v in values[1:])


def test_tokenize_number_and_operator_edges():
    toks = tokenize("1e+3 2E-2f 1e+ x->y .5 1.f 0012 3.e2 a_1b")
    assert list(zip(toks.kinds, toks.texts, toks.values)) == [
        ("num", "1e+3", 1000.0), ("num", "2E-2f", 0.02), ("num", "1", 1),
        ("ident", "e", None), ("punct", "+", None), ("ident", "x", None),
        ("punct", "->", None), ("ident", "y", None), ("num", ".5", 0.5),
        ("num", "1.f", 1.0), ("num", "0012", 12), ("num", "3.e2", 300.0),
        ("ident", "a_1b", None), ("eof", "", None),
    ]


def test_tokenize_two_char_operators():
    toks = tokenize("<= >= == != && || += -= *= /= %= ++ --")
    texts = [t for k, t in zip(toks.kinds, toks.texts) if k != "eof"]
    assert texts == "<= >= == != && || += -= *= /= %= ++ --".split()


def test_tokenize_rejects_strings():
    toks = tokenize('printf("hi")')
    assert toks.kinds == ["ident", "punct", "error", "punct", "eof"]
    assert list(zip(*toks))[2] == ("error", "string and character literals are not supported", 7, None)


_LEX_PIECES = (
    "<= >= == != && || += -= *= /= %= ++ -- -> - + * / % < > = ! ? : ; , ( ) [ ] { } & | ^ ~ .".split()
    + sorted(KEYWORDS | RESERVED_UNSUPPORTED)
    + ["x", "_a1", "e", "E", "f", "F", "\u00e9", "@", "$", "#", "`", "\\", "\u00b2", "\u0663"]
    + ['"', "'", '"s"', "'c'", '"a\\"b"', "//", "/*", "*/", "// note\n", "/* note */"]
    + [" ", "\t", "\n", "\r", "\r\n", "\v", "\f", "\x1c"]
)
_NUMBERS = st.from_regex(r"(\d{1,4}(\.\d{0,3})?|\.\d{1,3})([eE][+-]?\d{1,3})?[fF]?", fullmatch=True)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from(_LEX_PIECES) | _NUMBERS | st.characters(), max_size=60
    ).map("".join)
)
@example(" ".join(_LEX_PIECES) + " 1e+3 2E-2f 1e+ .5 1.f 0012 3.e2 1.5.2 12abc /* open")
@example("".join(_LEX_PIECES))
def test_token_stream_matches_reference_lexer(text):
    tokens = tokenize(text)
    want = reference_tokenize(text)
    assert list(zip(*tokens)) == [tuple(t) for t in want]
    assert [type(v) for v in tokens.values] == [type(t.value) for t in want]  # 1 is not 1.0


# --------------------------------------------------------------------- parser


def test_golden_function_shape(shortest_paths_fn):
    fn = shortest_paths_fn
    assert fn.name == "floyd_warshall"
    assert [p.name for p in fn.params] == ["n", "path"]
    assert fn.params[1].extents == ("N", "N")
    assert len(fn.loop_nests) == 1
    assert fn.loop_nests[0].depth == 3
    assert fn.bound_symbols == ("N",)


def test_for_header_canonical_form():
    fn = parse_one("void f(int n) { for (int i = 0; i < n; i++) { } }")
    nest = fn.loop_nests[0]
    assert nest.depth == 1
    assert nest.trip_counts[0].symbolic


def test_compound_assignment_desugars():
    fn = parse_ast("void f(int n, float a[N]) { for (int i = 0; i < n; i++) a[i] += 2.0; }")
    text = function_text(fn)
    assert "a[i] = a[i] + 2.0" in text


def test_increment_statement_desugars():
    fn = parse_ast("void f(int n) { int k; k = 0; for (int i = 0; i < n; i++) k++; }")
    assert "k = k + 1" in function_text(fn)


@pytest.mark.parametrize(
    "body,construct",
    [
        ("while (n) { n = n - 1; }", "while"),
        ("do { n = n - 1; } while (n);", "do"),
        ("int *p;", "pointer"),
        ("g(n);", "call"),
        ("int a[4];", "local array"),
        ("for (int i = n; i > 0; i--) { }", "loop condition"),
        ("goto done; done: n = 0;", "goto"),
    ],
)
def test_unsupported_constructs_are_named(body, construct):
    unit = SourceUnit("x.c", "void f(int n) { %s }" % body)
    units, diagnostics = parse_unit(unit)
    assert units == []
    assert len(diagnostics) >= 1
    assert construct in diagnostics[0].message


def test_strict_mode_raises():
    unit = SourceUnit("x.c", "void f(int n) { while (n) { n = n - 1; } }")
    with pytest.raises(ParseError):
        parse_unit(unit, strict=True)


def test_recovery_keeps_later_functions():
    text = (
        "void bad(int n) { while (n) { n = n - 1; } }\n"
        "void good(int n, float a[N]) { for (int i = 0; i < n; i++) a[i] = 0.0; }\n"
    )
    units, diagnostics = parse_unit(SourceUnit("x.c", text))
    assert [u.name for u in units] == ["good"]
    assert len(diagnostics) == 1
    assert diagnostics[0].function == "bad"


def test_duplicate_function_names_quarantine_second():
    text = "void f(int n) { }\nvoid f(int n) { }\n"
    units, diagnostics = parse_unit(SourceUnit("x.c", text))
    assert len(units) == 1
    assert any("duplicate" in d.message for d in diagnostics)


def test_split_functions_counts_braces():
    text = "void a(int n) { if (n > 0) { n = 1; } }  void b(int n) { }"
    chunks = split_functions(tokenize(text))
    assert len(chunks) == 2


def test_diagnostic_carries_position():
    unit = SourceUnit("x.c", "void f(int n) {\n  while (n) { n = n - 1; }\n}")
    _, diagnostics = parse_unit(unit)
    d = diagnostics[0]
    assert isinstance(d, Diagnostic)
    assert d.line == 2
    assert "x.c" in d.render()


NON_ASCII_BODIES = {
    "superscript-digit": "  x = \u00b2;\n",  # int("²") used to raise ValueError
    "arabic-digit": "  x = \u0663;\n",  # used to lex as the integer 3
    "identifier": "  int \u00e9;\n",  # used to parse
}


@pytest.mark.parametrize("body", NON_ASCII_BODIES.values(), ids=NON_ASCII_BODIES.keys())
def test_non_ascii_character_quarantines_only_its_function(body):
    text = (
        "void before(int n) { n = 1; }\n"
        "void bad(int x) {\n" + body + "}\n"
        "void after(int n) { n = 2; }\n"
    )
    units, diagnostics = parse_unit(SourceUnit("x.c", text))
    assert [u.name for u in units] == ["before", "after"]
    assert len(diagnostics) == 1
    assert diagnostics[0].message == f"unexpected character {body.strip()[-2]!r}"
    assert (diagnostics[0].line, diagnostics[0].col) == (3, len(body) - 2)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_unit(SourceUnit("x.c", text), strict=True)


@pytest.mark.parametrize("literal", ["'{'", '"}{"', "'\\''", '"{ unterminated'])
def test_literal_quarantines_only_its_function(literal):
    text = "void f(int n) {\n  n = %s;\n}\nvoid g(int n) { n = 1; }\n" % literal
    units, diagnostics = parse_unit(SourceUnit("x.c", text))
    assert [u.name for u in units] == ["g"]
    assert [(d.line, d.col, d.message) for d in diagnostics] == [
        (2, 7, "string and character literals are not supported")
    ]


BIG = "1" + "0" * 400  # too large even for a float
OUT_OF_RANGE_LITERALS = {
    "loop-bound": "  for (int i = 0; i < %s; i++) a[i] = 0.0;\n" % BIG,
    "loop-bound-past-int-max": "  for (int i = 0; i <= 4000000000; i++) a[i] = 0.0;\n",
    "loop-step": "  for (int i = 0; i < n; i += 2147483648) a[i] = 0.0;\n",
    "header-subscript": "  for (int i = 0; i < a[2147483648]; i++) a[i] = 0.0;\n",
    "statement": "  n = n + 2147483648;\n",
    "negated": "  n = -2147483648;\n",
    "subscript": "  a[4000000000] = 1.0;\n",
    "condition": "  if (n < %s) n = 1;\n" % BIG,
    "return": "  return;\n  n = 2147483648;\n",
}


@pytest.mark.parametrize(
    "body", OUT_OF_RANGE_LITERALS.values(), ids=OUT_OF_RANGE_LITERALS.keys()
)
def test_integer_literal_out_of_int_range_quarantines_only_its_function(body):
    text = (
        "void before(int n) { n = 1; }\n"
        "void bad(int n, float a[N]) {\n" + body + "}\n"
        "void after(int n) { n = 2; }\n"
    )
    units, diagnostics = parse_unit(SourceUnit("x.c", text))
    assert [u.name for u in units] == ["before", "after"]
    assert [(d.line, d.col, d.function, d.message) for d in diagnostics] == [
        (2, 1, "bad", "unsupported construct: integer literal out of int range")
    ]
    with pytest.raises(ParseError, match="integer literal out of int range"):
        parse_unit(SourceUnit("x.c", text), strict=True)


def test_integer_literal_out_of_int_range_in_parameter_extent():
    units, diagnostics = parse_unit("void f(float a[2147483648]) { }\nvoid g(int n) { }\n")
    assert [u.name for u in units] == ["g"]
    assert [d.message for d in diagnostics] == [
        "unsupported construct: integer literal out of int range"
    ]


def test_integer_literal_at_int_max_is_accepted():
    (unit,), _ = parse_unit(
        "void f(int n, float a[2147483647]) {\n"
        "  for (int i = 0; i < 2147483647; i++) a[i] = a[2147483647 - 1] + 2147483647;\n"
        "}",
        strict=True,
    )
    assert unit.min_extent == 2147483647


NESTING_DEPTH = 1000
DEEP_BODIES = {
    "parentheses": "  n = " + "(" * NESTING_DEPTH + "n" + ")" * NESTING_DEPTH + ";\n",
    "if": "  " + "if (n) " * NESTING_DEPTH + "n = 1;\n",
    "block": "  " + "{" * NESTING_DEPTH + "n = 1;" + "}" * NESTING_DEPTH + "\n",
    "for": "  " + "for (int i = 0; i < n; i++) " * NESTING_DEPTH + "n = 1;\n",
    "unary": "  n = " + "- " * NESTING_DEPTH + "n;\n",
    "binary-chain": "  n = " + " + ".join(["n"] * NESTING_DEPTH) + ";\n",
}


@pytest.mark.parametrize("body", DEEP_BODIES.values(), ids=DEEP_BODIES.keys())
def test_deep_nesting_is_one_diagnostic(body):
    text = "void deep(int n) {\n" + body + "}\nvoid next(int n) { n = 1; }\n"
    units, diagnostics = parse_unit(SourceUnit("x.c", text))
    assert [u.name for u in units] == ["next"]
    assert len(diagnostics) == 1
    limit = Parser.MAX_NESTING
    assert diagnostics[0].message == (
        f"unsupported construct: nesting deeper than {limit} levels"
    )
    assert diagnostics[0].function == "deep"
    assert diagnostics[0].line == 2
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_unit(SourceUnit("x.c", text), strict=True)


def test_nesting_up_to_the_limit_parses():
    depth = Parser.MAX_NESTING - 2  # the body block and the statement's expression
    text = "void f(int n) { n = " + "(" * depth + "n" + ")" * depth + "; }"
    units, diagnostics = parse_unit(SourceUnit("x.c", text))
    assert [u.name for u in units] == ["f"] and not diagnostics


def test_sequential_constructs_do_not_add_up_to_nesting():
    statement = (
        "{ n = 1; } if (n) n = 2; for (int i = 0; i < n; i++) n = 3; "
        "n = (n) + -n * !n; n = n ? n : n; n = a[n];"
    )
    text = "void f(int n, int a[N]) { %s }" % (statement * (Parser.MAX_NESTING + 1))
    units, diagnostics = parse_unit(SourceUnit("x.c", text))
    assert [u.name for u in units] == ["f"] and not diagnostics


_FUZZ_ALPHABET = list("(){}[];,+-*/%<>=!?:&|^~.'\"@#_ \t\r\n\u00b2\u0663")
_FUZZ_ALPHABET += list(string.ascii_letters + string.digits)
_FUZZ_WORDS = ["void ", "int ", "float ", "for ", "if ", "else ", "return ", "while ", "/*", "*/"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FUZZ_ALPHABET + _FUZZ_WORDS), max_size=80).map("".join))
def test_non_strict_parse_never_raises(text):
    units, diagnostics = parse_unit(SourceUnit("fuzz.c", text))
    for d in diagnostics:
        assert d.line >= 1 and d.col >= 1


# ------------------------------------------------------------------- analyzer

_OPERANDS = st.sampled_from(
    [A.Name("x"), A.Name("y"), A.Name("n"), A.Num(1), A.Num(1.0), A.Num(2), A.Num(0.5)]
)


def _compound(children):
    return st.one_of(
        st.builds(A.Unary, st.sampled_from(["-", "!"]), children),
        st.builds(A.Binary, st.sampled_from(sorted(BIN_PREC)), children, children),
        st.builds(A.Ternary, children, children, children),
        st.builds(lambda sub: A.Index(A.Name("a"), (sub,)), children),
        st.builds(lambda e, op: A.Binary(op, e, e), children, st.sampled_from(["+", "*", "<"])),
    )


_EXPRS = st.recursive(_OPERANDS, _compound, max_leaves=14)


def _reference_counts(statements) -> tuple[int, int, int]:
    """(logical, arith, branches) of statements, each a list of expressions:
    within a statement an operator node counts once per distinct
    expr_text, the rule the analyzer has always stated."""
    counts = {"logical": 0, "arith": 0, "branch": 0}

    def walk(e, seen):
        if isinstance(e, A.Index):
            children = e.subs
        elif isinstance(e, A.Unary):
            children = (e.operand,)
        elif isinstance(e, A.Binary):
            children = (e.left, e.right)
        elif isinstance(e, A.Ternary):
            children = (e.cond, e.then, e.orelse)
        else:
            return
        if not isinstance(e, A.Index) and expr_text(e) not in seen:
            seen.add(expr_text(e))
            counts["branch" if isinstance(e, A.Ternary) else classify_operator(e.op)] += 1
        for child in children:
            walk(child, seen)

    for exprs in statements:
        seen: set = set()
        for e in exprs:
            walk(e, seen)
    return counts["logical"], counts["arith"], counts["branch"]


_X_TIMES_ONE = A.Binary("*", A.Name("x"), A.Num(1))
_X_TIMES_ONE_F = A.Binary("*", A.Name("x"), A.Num(1.0))
_NESTED_TERNARY = A.Ternary(
    A.Name("x"), A.Ternary(A.Name("y"), A.Num(1), A.Num(2)), A.Ternary(A.Name("y"), A.Num(1), A.Num(2))
)
_NEG_SUM = A.Unary("-", A.Binary("+", A.Name("x"), A.Name("y")))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_EXPRS, min_size=1, max_size=3), min_size=1, max_size=4))
@example([[_X_TIMES_ONE, _X_TIMES_ONE_F, A.Binary("+", _X_TIMES_ONE, _X_TIMES_ONE_F)]])
@example([[_NESTED_TERNARY, A.Ternary(_NESTED_TERNARY, _NESTED_TERNARY, A.Name("n"))]])
@example([[_NEG_SUM, A.Binary("-", _NEG_SUM, A.Binary("+", A.Name("x"), A.Name("y")))], [_NEG_SUM]])
def test_statement_counts_dedup_by_canonical_text(statements):
    """Each inner list is one statement: an if whose condition is the first
    expression and whose body assigns the rest, or a bare assignment. The
    same statements count once outside and once inside a loop."""
    body = []
    counted = []
    for exprs in statements:
        cond, *values = exprs
        body.append(A.If(cond, A.Block(tuple(A.Assign(A.Name("x"), v) for v in values))))
        counted.append([cond])
        counted.extend([A.Name("x"), v] for v in values)
    loop = A.For("i", A.Num(0), "<", A.Name("n"), A.Num(1), A.Block(tuple(body)))
    fn = A.Function(
        "f", "void", (A.ParamDecl("n", "int"), A.ParamDecl("a", "float", ("N",))), A.Block((*body, loop))
    )
    unit = build_function_unit(fn)
    logical, arith, branches = _reference_counts(counted)
    branches += len(statements)  # one per if statement
    want = (logical, arith, branches)
    assert unit.nonloop_counts.as_tuple()[:3] == want
    assert unit.loop_nests[0].body_counts.as_tuple()[:3] == want


# -------------------------------------------------------------------- printer


def test_printer_minimal_parentheses():
    fn = parse_ast(
        "void f(int n, float a[N]) { a[0] = (1.0 + 2.0) * 3.0; a[1] = 1.0 + 2.0 * 3.0; }"
    )
    text = function_text(fn)
    assert "(1.0 + 2.0) * 3.0" in text
    assert "a[1] = 1.0 + 2.0 * 3.0" in text


def test_printer_fixed_point(shortest_paths_source):
    fn = parse_ast(shortest_paths_source)
    once = function_text(fn)
    again = function_text(parse_ast(once))
    assert once == again


def test_printer_round_trip_preserves_ast(shortest_paths_source):
    fn = parse_ast(shortest_paths_source)
    reparsed = parse_ast(function_text(fn))
    assert reparsed.body == fn.body
    assert reparsed.params == fn.params


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(st.sampled_from(["-", "!"]), max_size=3), _EXPRS), min_size=1, max_size=4
    )
)
@example([(["-", "-"], A.Name("n"))])
@example([(["-"], A.Unary("-", A.Binary("-", A.Name("x"), A.Unary("-", A.Name("y")))))])
def test_printed_function_reparses_to_the_same_tree(chains):
    """parse ∘ function_text is the identity, also where unary operators
    meet: each assigned expression sits under a chain of them."""
    items = []
    for ops, e in chains:
        for op in ops:
            e = A.Unary(op, e)
        items.append(A.Assign(A.Name("x"), e))
    params = (A.ParamDecl("n", "int"), A.ParamDecl("a", "float", ("N",)))
    fn = A.Function("f", "void", params, A.Block(tuple(items)))
    reparsed = parse_ast(function_text(fn))
    assert (reparsed.params, reparsed.body) == (fn.params, fn.body)


def test_printer_separates_adjacent_minus_signs():
    fn = parse_ast("void f(int n) { n = - -n; n = -(-n - 1); }")
    assert "n = - -n;" in function_text(fn)
    assert "n = -(-n - 1);" in function_text(fn)


def test_expr_text_ternary_nesting():
    e = A.Ternary(
        A.Binary("<", A.Name("a"), A.Name("b")),
        A.Name("a"),
        A.Ternary(A.Binary("<", A.Name("b"), A.Name("c")), A.Name("b"), A.Name("c")),
    )
    assert expr_text(e) == "a < b ? a : (b < c ? b : c)"


# ------------------------------------------------------ golden front-end output

# Recorded before the tokenizer was rewritten; any change to a FunctionUnit
# field (bound_symbols and min_extent included), a diagnostic message or a
# diagnostic line or column changes one of these digests.
GOLDEN_UNITS_SHA256 = "db782410d37f95d4b0f4284b3ae5ae88f563bcbb96e9b9b06b82d0f2e885d987"
GOLDEN_DIAGNOSTICS_SHA256 = "b88e4a5fea382d4b90198131e586edd5209cc646c78b890b491bbaa2dd4f327d"
GOLDEN_TOKENS_SHA256 = "a60b11b8a7d32e96319a40dd6c4ece2d5203f28955d2fffb6907d332af743ead"

BROKEN_SOURCES = [
    ("comment.c", "void f(int n) {\n  n = 1; /* never closed\n}\n"),
    ("comment_tab.c", "void f(int n) {\n\t\t/* open\n}\n"),
    ("string.c", 'void f(int n) {\n\tn = "x";\n}\n'),
    ("char.c", "void f(int n) {\n  n = 'a';\n}\n"),
    ("stray.c", "void f(int n) {\n  n = n @ 1;\n}\n"),
    ("tabs.c", "void f(int n) {\n\t\twhile (n) {\n\t\t\tn = n - 1;\n\t\t}\n}\n"),
    ("tab_mid.c", "void f(int n) {\n\tint\ta[4];\n}\n"),
    ("crlf.c", "void f(int n) {\r\n  n = 1;\r\n\tg(n);\r\n}\r\n"),
    ("crlf_lex.c", "void f(int n) {\r\n\r\n  n = n $ 2;\r\n}\r\n"),
    ("crlf_only.c", "void f(int n) {\r  n = 1;\r  while (n) { }\r}\r"),
    ("eof_block.c", "void f(int n) {\n  n = 1;"),
    ("eof_expr.c", "void f(int n) { n = "),
    ("eof_header.c", "void f(int n)"),
    ("eof_comment.c", "void f(int n) { }\n/*"),
    ("empty_after.c", "void f(int n) { }\n\n\n}"),
    (
        "later.c",
        "void ok(int n) { }\n\nvoid g(int n) {\n  int x;\n  x = n;\n"
        "  for (int i = n; i > 0; i--) { }\n}\n\n"
        "void h(int n, float a[N]) {\n  for (int i = 0; i < n; i += 0) a[i] = 0.0;\n}\n\n"
        "void ok(int n) { }\n",
    ),
    (
        "later_mixed.c",
        "void a(int n) { }\nint b(int n) {\n  return sizeof(n);\n}\n"
        "void c(int n) {\n  struct s;\n}\nfloat d(float x) {\n    x = x . y;\n}\n"
        "void e(int n) {\n  n = &n;\n}\nvoid f(int n) {\n  n = 1.5.2;\n}\n"
        "double g(int n) { }\nint x;\nvoid h(int n);\nvoid i(float *p) { }\n"
        "void j(int n, float m[2][3][4]) { }\nvoid k(int n) { for (float t = 0; t < 1; t++) { } }\n"
        "void l(int n, float a[N]) {\n  for (int i = 0; i < n; i = j + 1) a[i] = 1e3f;\n}\n",
    ),
    ("numbers.c", "void f(int n) {\n  n = 1e+;\n}\nvoid g(int n) {\n  n = 12abc;\n}\n"),
]


def _golden_sources():
    sources = list(generate(GenConfig(seed=1, n_functions=500)))
    for path in sorted(DATA.glob("*.c")):
        sources.append(SourceUnit(path.name, path.read_text(encoding="utf-8")))
    return sources


def _golden_units():
    units = []
    for source in _golden_sources():
        fns, _ = parse_unit(source, strict=True)
        units.extend(dataclasses.asdict(fn) for fn in fns)
    return units


def _golden_renders():
    lines = []
    for path, text in BROKEN_SOURCES:
        _, diagnostics = parse_unit(SourceUnit(path, text))
        lines.extend(d.render() for d in diagnostics)
        with pytest.raises(ParseError) as info:
            parse_unit(SourceUnit(path, text), strict=True)
        lines.append(str(info.value))
    return lines


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_function_units_are_golden():
    units = _golden_units()
    assert len(units) == 500 + 9
    text = json.dumps(units, sort_keys=True, separators=(",", ":"))
    assert _sha256(text) == GOLDEN_UNITS_SHA256


def test_token_streams_are_golden():
    texts = [source.text for source in _golden_sources()]
    texts.extend(text for _, text in BROKEN_SOURCES)
    lines = []
    for text in texts:
        tokens = tokenize(text)
        if "error" in tokens.kinds:
            continue
        lines.extend(f"{kind} {t} {offset} {value!r}" for kind, t, offset, value in zip(*tokens))
    assert _sha256("\n".join(lines)) == GOLDEN_TOKENS_SHA256


def test_diagnostics_are_golden():
    lines = _golden_renders()
    assert len(lines) > 2 * len(BROKEN_SOURCES)
    assert _sha256("\n".join(lines)) == GOLDEN_DIAGNOSTICS_SHA256
