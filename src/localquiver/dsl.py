"""The session description language and its parser.

A session file declares quivers, algebras (relations, invertible arrows,
flavor), representations (dimension vector, matrices, field) and families,
followed by commands.  Example::

    quiver q3 { vertices: v; arrows: X: v -> v, Y: v -> v }
    algebra A over q3 { relations: X*Y - Y*X; invertible: ; flavor: graded }
    rep r of A { dim: v = 1; X = [[2]]; Y = [[3]]; field: q }
    ext1 r r;

Relations and matrix entries follow the literal grammar of
``scalars.LiteralGrammar``: sums of signed products of factors, where a
factor is a parenthesized sum, a rational ``n`` or ``n/d``, or, over a
cyclotomic field, the reserved scalar ``zeta`` or ``zeta^k``.  In relations
a factor may also be an arrow or ``e_v``, the idempotent at vertex v, with
an optional power ``^k``, k >= 1; ``*`` is concatenation.  Relations end
with ``;``.  Every printed scalar and polynomial parses back, so
``parse(print_session(s)) == s``.  A trailing apostrophe on an arrow name
refers to the reversed copy inside a doubled quiver and cannot be declared
directly; ``zeta`` and ``invertible`` are reserved.  ``#`` starts a comment.

Parse errors carry line and column; references are resolved while parsing,
so an unknown name or an ill-shaped matrix is reported at its source
location.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .deform import FamilySpec
from .extcalc import Representation, check_representation
from .ncalg import NCPoly, Presentation
from .quiver import DimVector, Quiver, STAR_MARKER
from .scalars import Field, LiteralGrammar, QQ


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# a character no other group takes is a token of its own, reported as bad
_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<arrowsym>->)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*'*)"
    r"|(?P<int>\d+)"
    r"|(?P<sym>[{}\[\]():;,=^*+\-/])"
    r"|(?P<bad>.)",
    re.S,
)


@dataclass(slots=True)
class Token:
    kind: str  # "id" | "int" | "sym" | "eof"
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    """The tokens of source, each with its 1-based line and column, then an
    "eof" token; a character outside the language is a ParseError there."""
    tokens = []
    line, line_start = 1, 0  # line_start: the offset of the line's first char
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "ws":
            text = m.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rfind("\n") + 1
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}",
                             line, m.start() - line_start + 1)
        elif kind != "comment":
            tokens.append(Token("sym" if kind == "arrowsym" else kind,
                                m.group(), line, m.start() - line_start + 1))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


@dataclass
class QuiverBlock:
    name: str
    quiver: Quiver


@dataclass
class AlgebraBlock:
    name: str
    quiver_name: str
    relations: list
    invertible: list
    flavor: str


@dataclass
class RepBlock:
    name: str
    algebra_name: str
    dims: dict
    matrices: dict  # arrow -> list of rows of scalar strings (canonical)
    field_tag: str


@dataclass
class FamilyBlock:
    name: str
    rep_name: str
    pattern: str
    order: int


@dataclass
class Command:
    name: str
    args: list
    line: int = dc_field(compare=False, default=0)


@dataclass
class SessionFile:
    field: Field
    blocks: list = dc_field(default_factory=list)
    commands: list = dc_field(default_factory=list)
    quivers: dict = dc_field(default_factory=dict)
    algebras: dict = dc_field(default_factory=dict)
    reps: dict = dc_field(default_factory=dict)
    families: dict = dc_field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, SessionFile):
            return NotImplemented
        return (
            self.field == other.field
            and self.blocks == other.blocks
            and self.commands == other.commands
        )


COMMAND_NAMES = (
    "double", "preproj", "ext1", "localquiver", "grideal", "gradable",
    "mincounts", "repideal", "tangent", "deform", "preprojform", "spform",
)


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
            self.error(str(exc), name_tok)
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
            self.error(str(exc), name_tok)
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
            self.error(str(exc), name_tok)
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
            self.error(str(exc), name_tok)
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
    """Parse a session; raises ParseError with line/column on bad input."""
    tokens = tokenize(source)
    session_field = _prescan_field(tokens, field)
    return Parser(tokens, session_field).parse_session()


# ---- canonical printing --------------------------------------------------

def print_session(session: SessionFile) -> str:
    """Canonical text of a session; parsing it back gives an equal session."""
    out = []
    for block in session.blocks:
        if isinstance(block, QuiverBlock):
            q = block.quiver
            arrows = ", ".join(
                f"{a.name}: {a.tail} -> {a.head}" for a in q.arrows)
            out.append(
                f"quiver {block.name} {{ vertices: "
                f"{', '.join(q.vertices)}; arrows: {arrows} }}"
            )
        elif isinstance(block, AlgebraBlock):
            rels = "; ".join(str(r) for r in block.relations)
            inv = ", ".join(block.invertible)
            out.append(
                f"algebra {block.name} over {block.quiver_name} {{\n"
                f"  relations: {rels};\n"
                f"  invertible: {inv};\n"
                f"  flavor: {block.flavor}\n}}"
            )
        elif isinstance(block, RepBlock):
            lines = [f"rep {block.name} of {block.algebra_name} {{"]
            dims = ", ".join(f"{v} = {n}" for v, n in block.dims.items())
            lines.append(f"  dim: {dims};")
            for arrow, mat in block.matrices.items():
                rows = ", ".join(
                    "[" + ", ".join(row) + "]" for row in mat)
                lines.append(f"  {arrow} = [{rows}];")
            lines.append(f"  field: {block.field_tag}")
            lines.append("}")
            out.append("\n".join(lines))
        elif isinstance(block, FamilyBlock):
            out.append(
                f"family {block.name} at {block.rep_name} "
                f"{{ pattern: {block.pattern}; K: {block.order} }}"
            )
    for cmd in session.commands:
        rendered = []
        for arg in cmd.args:
            if isinstance(arg, tuple) and len(arg) == 3:
                rendered.append(f"{arg[0]} = {arg[2]}")
            elif isinstance(arg, tuple):
                rendered.append(f"{arg[0]}^{arg[1]}")
            else:
                rendered.append(str(arg))
        out.append(f"{cmd.name} {' '.join(rendered)};".replace(" ;", ";"))
    return "\n".join(out) + "\n"
