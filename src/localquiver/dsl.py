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


# block keyword -> the word before the block's reference and the session
# table the reference names; a quiver block has none
_BLOCKS = {"quiver": (None, None), "algebra": ("over", "quivers"),
           "rep": ("of", "algebras"), "family": ("at", "reps")}


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

    def accept(self, text: str) -> bool:
        """Whether the next token is text, which is then read."""
        found = self.at(text)
        if found:
            self.pos += 1
        return found

    def lookahead(self) -> str:
        """The next token's text: with next() and error(), the cursor of
        LiteralGrammar."""
        return self.tokens[self.pos].text

    # ---- one reader per grammar shape -------------------------------------
    def declared_id(self, what: str, allow_e: bool = False) -> Token:
        """The identifier that declares a quiver, vertex or arrow."""
        tok = self.expect_id()
        name = tok.text
        if name.endswith(STAR_MARKER):
            self.error(
                f"{what} id {name!r} uses the reserved doubling marker", tok)
        if name in ("zeta", "invertible"):
            self.error(f"{what} id cannot be the reserved word {name!r}", tok)
        if not allow_e and name.startswith("e_"):
            self.error(
                f"{what} id {name!r} collides with idempotent syntax", tok)
        return tok

    def known_id(self, exists, what: str) -> Token:
        """An identifier that exists(name) accepts, else 'unknown <what>'."""
        tok = self.expect_id()
        if not exists(tok.text):
            self.error(f"unknown {what} {tok.text!r}", tok)
        return tok

    def header(self, session: SessionFile, keyword: str):
        """``keyword name [link reference] {``: the name token, which no
        block has declared yet, and the reference's name and value."""
        link, table = _BLOCKS[keyword]
        self.expect(keyword)
        name_tok = (self.declared_id("quiver", allow_e=True) if link is None
                    else self.expect_id())
        if any(name_tok.text in taken for taken in (
                session.quivers, session.algebras, session.reps, session.families)):
            self.error(f"name {name_tok.text!r} is already declared", name_tok)
        ref = value = None
        if link is not None:
            self.expect(link)
            store = getattr(session, table)
            ref = self.known_id(store.__contains__, table[:-1]).text
            value = store[ref]
        self.expect("{")
        return name_tok, ref, value

    def key(self, name: str):
        """``name :``"""
        self.expect(name)
        self.expect(":")

    def items(self, read, end: str) -> list:
        """What read returns, item by item, up to a ';', which is consumed,
        or up to end, which is not; a ',' may follow each item."""
        out = []
        while not self.at(";") and not self.at(end):
            out.append(read())
            self.accept(",")
        self.accept(";")
        return out

    def close(self):
        """An optional ';', then the '}' that ends a block."""
        self.accept(";")
        self.expect("}")

    def build(self, name_tok: Token, make):
        """What make() returns; a ValueError it raises becomes a ParseError at
        the block's name, with the ValueError's own text."""
        try:
            return make()
        except ValueError as exc:
            raise ParseError(str(exc), name_tok.line, name_tok.col) from None

    # ---- session ---------------------------------------------------------
    def parse_session(self) -> SessionFile:
        session = SessionFile(self.field)
        while (tok := self.peek()).kind != "eof":
            if tok.text in _BLOCKS:
                getattr(self, f"parse_{tok.text}")(session)
            elif tok.kind == "id" and tok.text in COMMAND_NAMES:
                self.parse_command(session)
            else:
                self.error("expected a block keyword or command")
        return session

    def parse_quiver(self, session: SessionFile):
        name_tok, _, _ = self.header(session, "quiver")
        self.key("vertices")
        vertices = self.items(
            lambda: self.declared_id("vertex", allow_e=True).text, ";")
        self.key("arrows")
        arrows = self.items(lambda: self.parse_arrow(vertices), "}")
        self.expect("}")
        quiver = self.build(name_tok, lambda: Quiver(vertices, arrows))
        session.quivers[name_tok.text] = quiver
        session.blocks.append(QuiverBlock(name_tok.text, quiver))

    def parse_arrow(self, vertices: list) -> tuple:
        """``name: tail -> head`` as (name, head, tail)."""
        a_tok = self.declared_id("arrow")
        self.expect(":")
        tail = self.expect_id().text
        self.expect("->")
        head = self.expect_id().text
        for end in (tail, head):
            if end not in vertices:
                self.error(f"unknown vertex {end!r}", a_tok)
        return a_tok.text, head, tail

    def parse_algebra(self, session: SessionFile):
        name_tok, q_name, quiver = self.header(session, "algebra")
        self.key("relations")
        relations = []
        polys = LiteralGrammar(self, self.field,
                               NCPoly.unit(quiver, self.field).scale,
                               lambda: self.parse_poly_atom(quiver))
        while not self.at("invertible"):
            if self.accept(";"):
                continue
            relations.append(polys.sum())
            if not self.at("invertible"):
                self.expect(";")
        self.key("invertible")
        invertible = self.items(
            lambda: self.known_id(quiver.has_arrow, "arrow").text, ";")
        self.key("flavor")
        flavor_tok = self.expect_id()
        flavor = flavor_tok.text
        if flavor not in ("graded", "complete"):
            self.error("flavor must be 'graded' or 'complete'", flavor_tok)
        self.close()
        pres = self.build(name_tok, lambda: Presentation(
            quiver, relations, invertible=invertible, flavor=flavor, field=self.field))
        session.algebras[name_tok.text] = pres
        session.blocks.append(AlgebraBlock(
            name_tok.text, q_name, relations, invertible, flavor))

    def parse_rep(self, session: SessionFile):
        name_tok, a_name, pres = self.header(session, "rep")
        quiver = pres.quiver
        self.key("dim")
        dims = {}

        def dim():
            v_tok = self.known_id(quiver.has_vertex, "vertex")
            if v_tok.text in dims:
                self.error(f"vertex {v_tok.text!r} given twice", v_tok)
            self.expect("=")
            dims[v_tok.text] = self.expect_int()

        self.items(dim, ";")
        matrices = {}
        while not self.at("field"):
            a_tok = self.known_id(quiver.has_arrow, "arrow")
            if a_tok.text in matrices:
                self.error(f"matrix for arrow {a_tok.text!r} given twice", a_tok)
            self.expect("=")
            matrices[a_tok.text] = self.parse_matrix()
            self.accept(";")
        self.key("field")
        field_tag = self.peek().text
        if field_tag not in ("q", "cyclo"):
            self.error("field must be 'q' or 'cyclo:m'")
        self.next()
        if field_tag == "cyclo":
            self.expect(":")
            field_tag = f"cyclo:{self.expect_int()}"
        self.close()
        rep = self.build(name_tok, lambda: Representation(
            pres, DimVector(quiver, dims), matrices, field=self.field,
            name=name_tok.text))
        result = check_representation(rep)
        if not result:
            self.error("not a representation: " + "; ".join(result.failures),
                       name_tok)
        session.reps[name_tok.text] = rep
        texts = {arrow: [[str(x) for x in row] for row in mat]
                 for arrow, mat in matrices.items()}
        session.blocks.append(RepBlock(name_tok.text, a_name, dims, texts,
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
            while self.accept(","):
                items.append(item())
        self.expect("]")
        return items

    def parse_family(self, session: SessionFile):
        name_tok, r_name, base = self.header(session, "family")
        self.key("pattern")
        pat_tok = self.expect_id()
        if pat_tok.text != "unit":
            self.error("only the 'unit' pattern is supported", pat_tok)
        self.expect(";")
        self.key("K")
        order = self.expect_int()
        self.close()
        fam = self.build(name_tok, lambda: FamilySpec.unit_pattern(base, order))
        session.families[name_tok.text] = fam
        session.blocks.append(FamilyBlock(name_tok.text, r_name, "unit", order))

    def parse_command(self, session: SessionFile):
        tok = self.expect_id()
        args = []
        while not self.at(";"):
            cur = self.peek()
            if cur.kind == "eof":
                self.error("unterminated command (missing ';')")
            if cur.kind == "int":
                args.append(self.expect_int())
                continue
            ident = self.expect_id().text
            if self.accept("^"):
                args.append((ident, self.expect_int()))
            elif self.accept("="):
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
        power = self.expect_int() if self.accept("^") else 1
        if power < 1:
            self.error("power must be >= 1", tok)
        out = base
        for _ in range(power - 1):
            out = out * base
        return out


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
