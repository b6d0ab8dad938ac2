"""Line/column-tracking tokenizer shared by the small text grammars."""
from __future__ import annotations

from ._record import record


class ParseError(ValueError):
    """Syntax error carrying a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@record
class Token:
    kind: str  # "name" | "string" | "punct" | "end"
    text: str
    line: int
    column: int


_PUNCT_CHARS = set("(),|&!~=")


def tokenize(text: str, extra_name_chars: str = "") -> list[Token]:
    """Split `text` into names, quoted strings and punctuation.

    Names are alphanumeric/underscore runs, optionally extended with
    `extra_name_chars` (the lineage grammar admits ids like ``R:0``).
    ``:-`` is a single token; any other character is rejected.
    """
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        start_line, start_col = line, col
        if ch in "'\"":
            j = i + 1
            while j < n and text[j] != ch:
                if text[j] == "\n":
                    raise ParseError("unterminated string", start_line, start_col)
                j += 1
            if j >= n:
                raise ParseError("unterminated string", start_line, start_col)
            tokens.append(Token("string", text[i + 1 : j], start_line, start_col))
            advance(j + 1 - i)
            continue
        if ch == ":" and i + 1 < n and text[i + 1] == "-" and ":" not in extra_name_chars:
            tokens.append(Token("punct", ":-", start_line, start_col))
            advance(2)
            continue
        if ch.isalnum() or ch == "_" or ch in extra_name_chars:
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_" or text[j] in extra_name_chars):
                j += 1
            tokens.append(Token("name", text[i:j], start_line, start_col))
            advance(j - i)
            continue
        if ch in _PUNCT_CHARS:
            tokens.append(Token("punct", ch, start_line, start_col))
            advance(1)
            continue
        raise ParseError(f"unknown token {ch!r}", start_line, start_col)

    tokens.append(Token("end", "", line, col))
    return tokens


class TokenStream:
    """Cursor over a token list with grammar-error helpers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def take(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "end":
            self._pos += 1
        return tok

    def peek_punct(self, text: str) -> bool:
        tok = self.current
        return tok.kind == "punct" and tok.text == text

    def accept_punct(self, text: str) -> bool:
        if self.peek_punct(text):
            self._pos += 1
            return True
        return False

    def expect_punct(self, text: str) -> Token:
        tok = self.current
        if tok.kind != "punct" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {self._describe(tok)}", tok.line, tok.column)
        return self.take()

    def expect_name(self, what: str = "name") -> Token:
        tok = self.current
        if tok.kind != "name":
            raise ParseError(f"expected {what}, found {self._describe(tok)}", tok.line, tok.column)
        return self.take()

    def expect_end(self) -> None:
        tok = self.current
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing {self._describe(tok)}", tok.line, tok.column)

    @staticmethod
    def _describe(tok: Token) -> str:
        return "end of input" if tok.kind == "end" else repr(tok.text)
