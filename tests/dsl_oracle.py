"""The session tokenizer as it was before it became one ``finditer`` pass:
a ``match`` at each position, with the column carried along token by token.
The reference of ``test_dsl_tokenize_differential.py``."""

import re

from localquiver.dsl import ParseError, Token

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<arrowsym>->)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*'*)"
    r"|(?P<int>\d+)"
    r"|(?P<sym>[{}\[\]():;,=^*+\-/])"
)


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            if kind == "arrowsym":
                tokens.append(Token("sym", "->", line, col))
            else:
                tokens.append(Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens
