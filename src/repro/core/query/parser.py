"""Recursive-descent parser for the object query language.

Grammar (keywords case-insensitive)::

    query      := condition EOF
    condition  := and_expr ('or' and_expr)*
    and_expr   := not_expr ('and' not_expr)*
    not_expr   := 'not' not_expr | primary
    primary    := '(' condition ')' | comparison
    comparison := operand ( op operand
                          | 'is' ['not'] 'null'
                          | ['not'] 'in' '(' literal (',' literal)* ')'
                          | ['not'] 'like' STRING )
    operand    := 'count' '(' IDENT ')'
                | ('min'|'max'|'sum'|'avg') '(' IDENT '.' IDENT ')'
                | IDENT '.' IDENT
                | IDENT
                | literal
    literal    := STRING | NUMBER | 'true' | 'false' | 'null'
"""

from __future__ import annotations

from typing import List

from repro.errors import QuerySyntaxError
from repro.core.query.ast import (
    OrderTerm,
    QAggregate,
    QAnd,
    QAttr,
    QCompare,
    QCount,
    QIn,
    QIsNull,
    QLike,
    QLiteral,
    QNot,
    QOr,
    QueryNode,
    QueryStatement,
)
from repro.core.query.lexer import Token, tokenize

__all__ = ["parse_query"]


#: Deepest ``not`` / parenthesis nesting a condition may have. The
#: parser (and every walk of the tree it builds) recurses once per level;
#: a query past this is refused as a syntax error, not by the
#: interpreter's recursion limit.
MAX_NESTING = 64


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._index = 0
        self._depth = 0

    # -- token helpers -----------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str, value=None) -> Token:
        token = self._peek()
        if token.kind != kind or (value is not None and token.value != value):
            wanted = value if value is not None else kind
            raise QuerySyntaxError(
                f"expected {wanted!r}, found {token.value!r}",
                position=token.position,
            )
        return self._advance()

    def _at_keyword(self, word: str) -> bool:
        token = self._peek()
        return token.kind == "KEYWORD" and token.value == word

    # -- grammar ---------------------------------------------------------------

    def parse(self) -> QueryNode:
        node = self._condition()
        token = self._peek()
        if token.kind != "EOF":
            raise QuerySyntaxError(
                f"unexpected trailing input {token.value!r}",
                position=token.position,
            )
        return node

    def _condition(self) -> QueryNode:
        parts = [self._and_expr()]
        while self._at_keyword("or"):
            self._advance()
            parts.append(self._and_expr())
        return parts[0] if len(parts) == 1 else QOr(parts)

    def _and_expr(self) -> QueryNode:
        parts = [self._not_expr()]
        while self._at_keyword("and"):
            self._advance()
            parts.append(self._not_expr())
        return parts[0] if len(parts) == 1 else QAnd(parts)

    def _nested(self, parse) -> QueryNode:
        """``parse()`` one level further down; refuses past MAX_NESTING."""
        token = self._advance()
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise QuerySyntaxError(
                f"condition nested more than {MAX_NESTING} levels deep",
                position=token.position,
            )
        node = parse()
        self._depth -= 1
        return node

    def _not_expr(self) -> QueryNode:
        if self._at_keyword("not"):
            return QNot(self._nested(self._not_expr))
        return self._primary()

    def _primary(self) -> QueryNode:
        if self._peek().kind == "LPAREN":
            node = self._nested(self._condition)
            self._expect("RPAREN")
            return node
        return self._comparison()

    def _comparison(self) -> QueryNode:
        left = self._operand()
        token = self._peek()
        if token.kind == "OP":
            self._advance()
            right = self._operand()
            return QCompare(token.value, left, right)
        if self._at_keyword("is"):
            self._advance()
            negated = False
            if self._at_keyword("not"):
                self._advance()
                negated = True
            self._expect("KEYWORD", "null")
            return QIsNull(left, negated)
        negated = False
        if self._at_keyword("not"):
            self._advance()
            negated = True
            token = self._peek()
            if not (
                token.kind == "KEYWORD" and token.value in ("in", "like")
            ):
                raise QuerySyntaxError(
                    "'not' after an operand must introduce 'in' or 'like'",
                    position=token.position,
                )
        if self._at_keyword("in"):
            self._advance()
            return QIn(left, self._literal_list(), negated)
        if self._at_keyword("like"):
            self._advance()
            pattern = self._expect("STRING")
            return QLike(left, pattern.value, negated)
        raise QuerySyntaxError(
            f"expected a comparison operator, found {token.value!r}",
            position=token.position,
        )

    def _literal_list(self):
        self._expect("LPAREN")
        values = [self._literal_value()]
        while self._peek().kind == "COMMA":
            self._advance()
            values.append(self._literal_value())
        self._expect("RPAREN")
        return values

    def _literal_value(self):
        token = self._peek()
        if token.kind in ("STRING", "NUMBER"):
            self._advance()
            return token.value
        if token.kind == "KEYWORD" and token.value in ("true", "false", "null"):
            self._advance()
            return {"true": True, "false": False, "null": None}[token.value]
        raise QuerySyntaxError(
            f"expected a literal, found {token.value!r}",
            position=token.position,
        )

    def _operand(self) -> QueryNode:
        token = self._peek()
        if token.kind == "STRING" or token.kind == "NUMBER":
            self._advance()
            return QLiteral(token.value)
        if token.kind == "KEYWORD":
            if token.value == "true":
                self._advance()
                return QLiteral(True)
            if token.value == "false":
                self._advance()
                return QLiteral(False)
            if token.value == "null":
                self._advance()
                return QLiteral(None)
            if token.value == "count":
                self._advance()
                self._expect("LPAREN")
                node_token = self._expect("IDENT")
                self._expect("RPAREN")
                return QCount(node_token.value)
            if token.value in ("min", "max", "sum", "avg"):
                func = token.value
                self._advance()
                self._expect("LPAREN")
                node_token = self._expect("IDENT")
                self._expect("DOT")
                attr_token = self._expect("IDENT")
                self._expect("RPAREN")
                return QAggregate(func, node_token.value, attr_token.value)
        if token.kind == "IDENT":
            self._advance()
            if self._peek().kind == "DOT":
                self._advance()
                attr_token = self._expect("IDENT")
                return QAttr(token.value, attr_token.value)
            return QAttr(None, token.value)
        raise QuerySyntaxError(
            f"expected an operand, found {token.value!r}",
            position=token.position,
        )


def parse_query(text: str) -> QueryNode:
    """Parse a bare condition into an AST; raise on syntax errors."""
    return _Parser(tokenize(text)).parse()


def parse_statement(text: str) -> QueryStatement:
    """Parse a full statement::

        condition ['order' 'by' term (',' term)*] ['limit' NUMBER]
        term := operand ['asc' | 'desc']

    Order-by operands may be pivot attributes, component attributes,
    ``count(NODE)``, or aggregates; limits must be positive integers.
    """
    parser = _Parser(tokenize(text))
    condition = parser._condition()
    order_terms: List[OrderTerm] = []
    if parser._at_keyword("order"):
        parser._advance()
        parser._expect("KEYWORD", "by")
        while True:
            operand = parser._operand()
            if isinstance(operand, QLiteral):
                raise QuerySyntaxError(
                    "order by needs an attribute, count, or aggregate"
                )
            descending = False
            if parser._at_keyword("asc"):
                parser._advance()
            elif parser._at_keyword("desc"):
                parser._advance()
                descending = True
            order_terms.append(OrderTerm(operand, descending))
            if parser._peek().kind == "COMMA":
                parser._advance()
                continue
            break
    limit = None
    if parser._at_keyword("limit"):
        parser._advance()
        token = parser._expect("NUMBER")
        if not isinstance(token.value, int) or token.value < 0:
            raise QuerySyntaxError(
                f"limit must be a non-negative integer, got {token.value!r}",
                position=token.position,
            )
        limit = token.value
    trailing = parser._peek()
    if trailing.kind != "EOF":
        raise QuerySyntaxError(
            f"unexpected trailing input {trailing.value!r}",
            position=trailing.position,
        )
    return QueryStatement(condition, order_terms, limit)
