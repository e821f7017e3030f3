"""Tokenizer for the supported C subset.

Sources are ASCII: any other character is reported as unexpected.
"""

import re
import string
from itertools import accumulate, compress
from typing import NamedTuple, Optional, Union

KEYWORDS = frozenset({"void", "int", "float", "for", "if", "else", "return"})

# Recognized so the parser can name the construct in its diagnostic instead of
# reporting a generic bad token.
RESERVED_UNSUPPORTED = frozenset(
    {
        "while",
        "do",
        "goto",
        "switch",
        "case",
        "default",
        "break",
        "continue",
        "struct",
        "union",
        "enum",
        "typedef",
        "static",
        "extern",
        "const",
        "volatile",
        "unsigned",
        "signed",
        "long",
        "short",
        "double",
        "char",
        "sizeof",
    }
)

_PUNCT = "<= >= == != && || += -= *= /= %= ++ -- -> - + * / % < > = ! ? : ; , ( ) [ ] { } & | ^ ~ .".split()

# One capturing alternation, so `split` returns the gaps between lexemes
# (whitespace only: no alternative starts at a whitespace character) and
# the lexemes in turn. Where two alternatives can match at one position
# the earlier wins: comments before "/", numbers before ".".
_TOKEN_RE = re.compile(
    r"""(
      [A-Za-z_]\w*
    | (?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?[fF]?
    | //[^\n]*|/\*.*?\*/|/\*
    | """
    + "|".join(re.escape(p) for p in _PUNCT if len(p) == 2)
    + "|["
    + re.escape("".join(p for p in _PUNCT if len(p) == 1))
    + r"""]
    | "(?:\\.|[^"\\\n])*"?|'(?:\\.|[^'\\\n])*'?  # to its closing quote or line end
    | [^ \t\r\n\f\v]
    )""",
    re.ASCII | re.DOTALL | re.VERBOSE,
)

# Kind of a lexeme by its whole text, else by its first character, else
# "error": quotes, stray characters and the unterminated comment "/*" (a
# closed one is at least "/**/"), which _resolve_errors words.
_KIND_OF_TEXT = {p: "punct" for p in _PUNCT} | {w: "kw" for w in KEYWORDS | RESERVED_UNSUPPORTED}
_KIND_OF_TEXT["/*"] = "error"
_KIND_OF_FIRST = dict.fromkeys(string.ascii_letters + "_", "ident")
_KIND_OF_FIRST |= dict.fromkeys(string.digits + ".", "num")
_KIND_OF_FIRST["/"] = "comment"  # "/" and "/=" are punctuation by whole text


class Tokens(NamedTuple):
    """Token i is (kind, text, offset, value) = (kinds[i], texts[i], offsets[i],
    values[i]): kind is "ident" | "num" | "kw" | "punct" | "error" | "eof", text
    the lexeme or an error's message, value a "num"'s number; "eof" is last."""

    kinds: list[str]
    texts: list[str]
    offsets: list[int]
    values: list[Optional[Union[int, float]]]


def tokenize(text: str) -> Tokens:
    """Split source text into tokens, skipping whitespace and comments.

    A character that starts no token becomes an "error" token and lexing
    goes on, so the parser can quarantine just the function around it; an
    unterminated comment ends the stream.
    """
    parts = _TOKEN_RE.split(text)  # gap, lexeme, gap, ..., lexeme, gap
    texts = parts[1::2]
    offsets = list(accumulate(map(len, parts)))[::2]  # each lexeme's start, then len(text)
    kinds = [_KIND_OF_TEXT.get(t) or _KIND_OF_FIRST.get(t[0], "error") for t in texts]
    if "comment" in kinds:
        keep = [k != "comment" for k in kinds]
        keep.append(True)  # the end offset
        kinds, texts, offsets = (list(compress(c, keep)) for c in (kinds, texts, offsets))
    if "error" in kinds:
        _resolve_errors(kinds, texts, offsets)
    kinds.append("eof")
    texts.append("")
    values = [_number(t) if k == "num" else None for k, t in zip(kinds, texts)]
    return Tokens(kinds, texts, offsets, values)


def _number(lexeme: str) -> Union[int, float]:
    return int(lexeme) if lexeme.isdigit() else float(lexeme.rstrip("fF"))


def _resolve_errors(kinds: list[str], texts: list[str], offsets: list[int]) -> None:
    """In place, give each error token its message and end the stream at an
    unterminated comment, keeping the end offset last."""
    for i in [i for i, kind in enumerate(kinds) if kind == "error"]:
        lexeme = texts[i]
        if lexeme == "/*":
            texts[i] = "unterminated comment"
            del kinds[i + 1 :], texts[i + 1 :], offsets[i + 1 : -1]
            return
        if lexeme[0] in "\"'":
            texts[i] = "string and character literals are not supported"
        else:
            texts[i] = f"unexpected character {lexeme!r}"
