"""The session front end as it was, kept as the reference of the
differential tests.

``tokenize`` is the tokenizer before it became one ``finditer`` pass: a
``match`` at each position, with the column carried along token by token
(``test_dsl_tokenize_differential.py``).  ``Parser`` and ``_prescan_field``
are the parser before its blocks shared one reader per grammar shape: each
block writes out its header, keys, item lists and closing brace by hand
(``test_dsl_parse_differential.py``).  A ValueError raised while building a
block is reported at the block's name with its own text, as in the package.
"""

import re

from localquiver.deform import FamilySpec
from localquiver.dsl import (COMMAND_NAMES, AlgebraBlock, Command, FamilyBlock,
                             ParseError, QuiverBlock, RepBlock, SessionFile,
                             Token)
from localquiver.extcalc import Representation, check_representation
from localquiver.ncalg import NCPoly, Presentation
from localquiver.quiver import DimVector, Quiver, STAR_MARKER
from localquiver.scalars import Field, LiteralGrammar, QQ

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


def _prescan_field(tokens: list[Token], declared: Field | None) -> Field:
    """Fix the session field before parsing: cyclotomic declarations in rep
    blocks must agree with each other and with the externally given field."""
    fields = set()
    for k, tok in enumerate(tokens):
        if tok.kind == "id" and tok.text == "cyclo":
            if k + 2 < len(tokens) and tokens[k + 1].text == ":" \
                    and tokens[k + 2].kind == "int":
                order = tokens[k + 2]
                try:
                    fields.add(Field.from_label(f"cyclo:{order.text}"))
                except ValueError as exc:
                    raise ParseError(str(exc), order.line, order.col) from None
    if len(fields) > 1:
        raise ParseError(
            f"inconsistent cyclotomic orders {sorted(f.order for f in fields)} "
            "in one session", 1, 1)
    if fields:
        session = fields.pop()
        if declared is not None and declared != session and not declared.is_rational:
            raise ParseError(
                f"session declares {session.label()} but {declared.label()} "
                "was requested", 1, 1)
        return session
    return declared if declared is not None else QQ


class Parser:
    def __init__(self, tokens: list[Token], field: Field):
        self.tokens = tokens
        self.pos = 0
        self.field = field

    # ---- token plumbing -------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        shown = tok.text or "end of input"
        raise ParseError(f"{message}, got {shown!r}", tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            self.error(f"expected {text!r}")
        return self.next()

    def expect_id(self) -> Token:
        tok = self.peek()
        if tok.kind != "id":
            self.error("expected an identifier")
        return self.next()

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            self.error("expected an integer")
        self.next()
        return int(tok.text)

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def lookahead(self) -> str:
        """The next token's text: with next() and error(), the cursor of
        LiteralGrammar."""
        return self.tokens[self.pos].text

    # ---- declared-name validation ---------------------------------------
    def check_declared_id(self, tok: Token, what: str, allow_e: bool = False):
        name = tok.text
        if name.endswith(STAR_MARKER):
            self.error(
                f"{what} id {name!r} uses the reserved doubling marker", tok)
        if name in ("zeta", "invertible"):
            self.error(f"{what} id cannot be the reserved word {name!r}", tok)
        if not allow_e and name.startswith("e_"):
            self.error(
                f"{what} id {name!r} collides with idempotent syntax", tok)

    # ---- session ---------------------------------------------------------
    def parse_session(self) -> SessionFile:
        session = SessionFile(self.field)
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "quiver":
                self.parse_quiver(session)
            elif tok.text == "algebra":
                self.parse_algebra(session)
            elif tok.text == "rep":
                self.parse_rep(session)
            elif tok.text == "family":
                self.parse_family(session)
            elif tok.kind == "id" and tok.text in COMMAND_NAMES:
                self.parse_command(session)
            else:
                self.error("expected a block keyword or command")
        return session

    def _unique(self, session: SessionFile, name_tok: Token):
        name = name_tok.text
        taken = (set(session.quivers) | set(session.algebras)
                 | set(session.reps) | set(session.families))
        if name in taken:
            self.error(f"name {name!r} is already declared", name_tok)
        return name

    def parse_quiver(self, session: SessionFile):
        self.expect("quiver")
        name_tok = self.expect_id()
        self.check_declared_id(name_tok, "quiver", allow_e=True)
        name = self._unique(session, name_tok)
        self.expect("{")
        self.expect("vertices")
        self.expect(":")
        vertices = []
        while not self.at(";"):
            tok = self.expect_id()
            self.check_declared_id(tok, "vertex", allow_e=True)
            vertices.append(tok.text)
            if self.at(","):
                self.next()
        self.expect(";")
        self.expect("arrows")
        self.expect(":")
        arrows = []
        while not self.at("}") and not self.at(";"):
            a_tok = self.expect_id()
            self.check_declared_id(a_tok, "arrow")
            self.expect(":")
            tail = self.expect_id().text
            self.expect("->")
            head = self.expect_id().text
            if tail not in vertices:
                self.error(f"unknown vertex {tail!r}", a_tok)
            if head not in vertices:
                self.error(f"unknown vertex {head!r}", a_tok)
            arrows.append((a_tok.text, head, tail))
            if self.at(","):
                self.next()
        if self.at(";"):
            self.next()
        self.expect("}")
        try:
            quiver = Quiver(vertices, arrows)
        except ValueError as exc:
            raise ParseError(str(exc), name_tok.line, name_tok.col) from None
        session.quivers[name] = quiver
        session.blocks.append(QuiverBlock(name, quiver))

    def parse_algebra(self, session: SessionFile):
        self.expect("algebra")
        name_tok = self.expect_id()
        name = self._unique(session, name_tok)
        self.expect("over")
        q_tok = self.expect_id()
        if q_tok.text not in session.quivers:
            self.error(f"unknown quiver {q_tok.text!r}", q_tok)
        quiver = session.quivers[q_tok.text]
        self.expect("{")
        self.expect("relations")
        self.expect(":")
        relations = []
        polys = LiteralGrammar(self, self.field,
                               NCPoly.unit(quiver, self.field).scale,
                               lambda: self.parse_poly_atom(quiver))
        while not self.at("invertible"):
            if self.at(";"):
                self.next()
                continue
            relations.append(polys.sum())
            if not self.at("invertible"):
                self.expect(";")
        self.expect("invertible")
        self.expect(":")
        invertible = []
        while not self.at(";"):
            tok = self.expect_id()
            if not quiver.has_arrow(tok.text):
                self.error(f"unknown arrow {tok.text!r}", tok)
            invertible.append(tok.text)
            if self.at(","):
                self.next()
        self.expect(";")
        self.expect("flavor")
        self.expect(":")
        flavor_tok = self.expect_id()
        if flavor_tok.text not in ("graded", "complete"):
            self.error("flavor must be 'graded' or 'complete'", flavor_tok)
        if self.at(";"):
            self.next()
        self.expect("}")
        try:
            pres = Presentation(quiver, relations, invertible=invertible,
                                flavor=flavor_tok.text, field=self.field)
        except ValueError as exc:
            raise ParseError(str(exc), name_tok.line, name_tok.col) from None
        session.algebras[name] = pres
        session.blocks.append(AlgebraBlock(
            name, q_tok.text, relations, invertible, flavor_tok.text))

    def parse_rep(self, session: SessionFile):
        self.expect("rep")
        name_tok = self.expect_id()
        name = self._unique(session, name_tok)
        self.expect("of")
        a_tok = self.expect_id()
        if a_tok.text not in session.algebras:
            self.error(f"unknown algebra {a_tok.text!r}", a_tok)
        pres = session.algebras[a_tok.text]
        self.expect("{")
        self.expect("dim")
        self.expect(":")
        dims = {}
        while not self.at(";"):
            v_tok = self.expect_id()
            if not pres.quiver.has_vertex(v_tok.text):
                self.error(f"unknown vertex {v_tok.text!r}", v_tok)
            if v_tok.text in dims:
                self.error(f"vertex {v_tok.text!r} given twice", v_tok)
            self.expect("=")
            dims[v_tok.text] = self.expect_int()
            if self.at(","):
                self.next()
        self.expect(";")
        matrices = {}
        field_tag = None
        while True:
            tok = self.peek()
            if tok.text == "field":
                self.next()
                self.expect(":")
                if self.at("q"):
                    self.next()
                    field_tag = "q"
                elif self.at("cyclo"):
                    self.next()
                    self.expect(":")
                    order = self.expect_int()
                    field_tag = f"cyclo:{order}"
                else:
                    self.error("field must be 'q' or 'cyclo:m'")
                if self.at(";"):
                    self.next()
                break
            a2 = self.expect_id()
            if not pres.quiver.has_arrow(a2.text):
                self.error(f"unknown arrow {a2.text!r}", a2)
            if a2.text in matrices:
                self.error(f"matrix for arrow {a2.text!r} given twice", a2)
            self.expect("=")
            matrices[a2.text] = self.parse_matrix()
            if self.at(";"):
                self.next()
        self.expect("}")
        rep_field = Field.from_label(field_tag)
        if not rep_field.is_rational and rep_field != self.field:
            self.error(f"rep field {field_tag} differs from the session field "
                       f"{self.field.label()}", name_tok)
        try:
            alpha = DimVector(pres.quiver, dims)
            rep = Representation(pres, alpha, matrices, field=self.field,
                                 name=name)
        except ValueError as exc:
            raise ParseError(str(exc), name_tok.line, name_tok.col) from None
        result = check_representation(rep)
        if not result:
            self.error("not a representation: " + "; ".join(result.failures),
                       name_tok)
        session.reps[name] = rep
        texts = {arrow: [[str(x) for x in row] for row in mat]
                 for arrow, mat in matrices.items()}
        session.blocks.append(RepBlock(name, a_tok.text, dims, texts,
                                       field_tag))

    def parse_matrix(self) -> list:
        """``[row, ...]``; ``[]`` is a matrix with no rows."""
        rows = self._bracketed(self.parse_row)
        if len({len(r) for r in rows}) > 1:
            self.error("ill-shaped matrix: rows of different lengths")
        return rows

    def parse_row(self) -> list:
        """``[entry, ...]``; ``[]`` is a row with no entries."""
        # a grammar per row: kept on the parser it would form a reference
        # cycle, and every parse would wait for the cycle collector
        return self._bracketed(LiteralGrammar(self, self.field).sum)

    def _bracketed(self, item) -> list:
        """A bracketed, comma-separated and possibly empty list of items."""
        self.expect("[")
        items = []
        if not self.at("]"):
            items.append(item())
            while self.at(","):
                self.next()
                items.append(item())
        self.expect("]")
        return items

    def parse_family(self, session: SessionFile):
        self.expect("family")
        name_tok = self.expect_id()
        name = self._unique(session, name_tok)
        self.expect("at")
        r_tok = self.expect_id()
        if r_tok.text not in session.reps:
            self.error(f"unknown rep {r_tok.text!r}", r_tok)
        self.expect("{")
        self.expect("pattern")
        self.expect(":")
        pat_tok = self.expect_id()
        if pat_tok.text != "unit":
            self.error("only the 'unit' pattern is supported", pat_tok)
        self.expect(";")
        self.expect("K")
        self.expect(":")
        order = self.expect_int()
        if self.at(";"):
            self.next()
        self.expect("}")
        try:
            fam = FamilySpec.unit_pattern(session.reps[r_tok.text], order)
        except ValueError as exc:
            raise ParseError(str(exc), name_tok.line, name_tok.col) from None
        session.families[name] = fam
        session.blocks.append(FamilyBlock(name, r_tok.text, "unit", order))

    def parse_command(self, session: SessionFile):
        tok = self.expect_id()
        args = []
        while not self.at(";"):
            cur = self.peek()
            if cur.kind == "eof":
                self.error("unterminated command (missing ';')")
            if cur.kind == "int":
                args.append(int(cur.text))
                self.next()
                continue
            ident = self.expect_id().text
            if self.at("^"):
                self.next()
                args.append((ident, self.expect_int()))
            elif self.at("="):
                self.next()
                args.append((ident, "=", self.expect_int()))
            else:
                args.append(ident)
        self.expect(";")
        session.commands.append(Command(tok.text, args, tok.line))

    def parse_poly_atom(self, quiver: Quiver) -> NCPoly:
        """An arrow or idempotent factor of a relation, with a power ``^k``."""
        tok = self.peek()
        if tok.kind != "id":
            self.error("expected a polynomial factor")
        self.next()
        name = tok.text
        if name.startswith("e_"):
            vertex = name[2:]
            if not quiver.has_vertex(vertex):
                self.error(f"unknown vertex {vertex!r} in idempotent", tok)
            base = NCPoly.vertex(quiver, vertex, self.field)
        elif quiver.has_arrow(name):
            base = NCPoly.arrow(quiver, name, self.field)
        else:
            self.error(f"unknown arrow {name!r}", tok)
        if self.at("^"):
            self.next()
            power = self.expect_int()
            if power < 1:
                self.error("power must be >= 1", tok)
            out = base
            for _ in range(power - 1):
                out = out * base
            return out
        return base


def parse(source: str, field: Field | None = None) -> SessionFile:
    tokens = tokenize(source)
    return Parser(tokens, _prescan_field(tokens, field)).parse_session()
