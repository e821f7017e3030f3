"""The tokenizer as it was before the token stream became parallel lists,
kept as a test oracle: one `finditer` match per lexeme, whitespace included,
and one `Token` NamedTuple per token.

`opttriage.minic.lexer.tokenize` must give the same (kind, text, offset,
value) sequence on any text.
"""

import re
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

_WORDS = KEYWORDS | RESERVED_UNSUPPORTED

# One alternative per token class, tried in order at each position; the last
# one matches any single character, so the matches tile the whole text.
_TOKEN_RE = re.compile(
    r"""
      (?P<skip>[ \t\r\n\f\v]+|//[^\n]*|/\*.*?\*/)
    | (?P<open_comment>/\*)
    | (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?[fF]?)
    | (?P<word>[A-Za-z_]\w*)
    | (?P<punct><=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|\+\+|--|->|[-+*/%<>=!?:;,()\[\]{}&|^~.])
    | (?P<quote>"(?:\\.|[^"\\\n])*"?|'(?:\\.|[^'\\\n])*'?)  # to its closing quote or line end
    | (?P<other>.)
    """,
    re.ASCII | re.DOTALL | re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "ident" | "num" | "kw" | "punct" | "error" | "eof"
    text: str  # the lexeme; for "error" the message
    offset: int
    value: Optional[Union[int, float]] = None  # for "num"


def reference_tokenize(text: str) -> list[Token]:
    """Split source text into tokens, skipping whitespace and comments.

    A character that starts no token becomes an "error" token and lexing
    goes on, so the parser can quarantine just the function around it; an
    unterminated comment ends the stream.
    """
    toks: list[Token] = []
    append = toks.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        lexeme = m.group()
        if kind == "word":
            append(Token("kw" if lexeme in _WORDS else "ident", lexeme, m.start()))
        elif kind == "punct":
            append(Token("punct", lexeme, m.start()))
        elif kind == "num":
            value = int(lexeme) if lexeme.isdigit() else float(lexeme.rstrip("fF"))
            append(Token("num", lexeme, m.start(), value))
        elif kind == "open_comment":
            append(Token("error", "unterminated comment", m.start()))
            break
        elif kind == "quote":
            append(Token("error", "string and character literals are not supported", m.start()))
        else:
            append(Token("error", f"unexpected character {lexeme!r}", m.start()))
    append(Token("eof", "", len(text)))
    return toks
