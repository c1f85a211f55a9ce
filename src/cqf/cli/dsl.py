"""Line-oriented model definition language.

A model file declares spaces, operators and parameters, then gives the
Hamiltonian, the decay channels, and run options.  Example::

    space cavity fock
    space atom nlevel g e

    op a   = destroy(cavity)
    op sge = transition(atom, g, e)
    op seg = transition(atom, e, g)

    param Delta = 0.5
    param g = 1.5
    param kappa = 1
    param gamma = 1.25
    param nu = 4

    hamiltonian Delta*a'*a + g*(a'*sge + a*seg)
    jump a rate kappa
    jump sge rate gamma
    jump seg rate nu

    order 2
    filter phase
    track a'*a
    tspan 0 20

Expressions support +, -, *, parentheses, the dagger suffix ', the
imaginary unit ``im``, integers, rationals (3/4) and decimals.  Level
labels live in their space declaration and never collide with identifiers.
Spaces must be declared before the first operator; every name must be
declared before use.  All errors carry a line and column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from ..algebra.averages import average_symbol
from ..algebra.qexpr import QExpr, create, destroy, transition
from ..algebra.scalars import I_UNIT, Parameter, ScalarExpr
from ..algebra.spaces import FOCK, NLEVEL, HilbertSpace, ProductSpace, fock, nlevel
from ..cumulant import OrderSpec
from ..errors import DslError
from ..meanfield import ModelDefinition

_PUNCT = {"+", "-", "*", "(", ")", "'", ",", "/", "<", ">", "="}


@dataclass
class Token:
    kind: str          # ident | number | punct | end
    text: str
    line: int
    column: int


def _tokenize_line(text: str, line_no: int) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, line_no, col))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_e = False
            while j < n:
                c = text[j]
                if c.isdigit() or c == ".":
                    j += 1
                elif c in "eE" and not seen_e and j + 1 < n and (
                        text[j + 1].isdigit() or text[j + 1] in "+-"):
                    seen_e = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            tokens.append(Token("number", text[i:j], line_no, col))
            i = j
            continue
        if ch.isalpha() or ch == "_" or ord(ch) > 127:
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_" or ord(text[j]) > 127):
                j += 1
            tokens.append(Token("ident", text[i:j], line_no, col))
            i = j
            continue
        raise DslError(f"unexpected character {ch!r}", line_no, col)
    tokens.append(Token("end", "", line_no, len(text) + 1))
    return tokens


def _number(token: Token) -> Fraction:
    try:
        return Fraction(Decimal(token.text))
    except InvalidOperation:
        raise DslError(f"bad number {token.text!r}", token.line, token.column) from None


@dataclass
class RunOptions:
    order: OrderSpec | None = None
    filter_name: str = "none"
    track: list = field(default_factory=list)
    observables: list = field(default_factory=list)
    initial: dict = field(default_factory=dict)
    tspan: tuple | None = None
    method: str | None = None
    dt: float | None = None
    rtol: float | None = None
    atol: float | None = None
    saveat: int | None = None
    correlation: tuple | None = None
    cutoffs: dict = field(default_factory=dict)
    oracle_state: dict = field(default_factory=dict)
    param_values: dict = field(default_factory=dict)


@dataclass
class ObservableDef:
    name: str
    kind: str                  # expr | mandel_q | temperature
    expr: QExpr | None = None
    mode: QExpr | None = None
    omega: float | None = None


@dataclass
class ParsedModel:
    model: ModelDefinition
    options: RunOptions
    source_order: list = field(default_factory=list)

    def pretty(self) -> str:
        return pretty_print(self)


class _ExprParser:
    """Recursive descent over one line's token list."""

    def __init__(self, tokens: list[Token], scope: "_Scope"):
        self.tokens = tokens
        self.pos = 0
        self.scope = scope

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise DslError(f"expected {text!r}, found {tok.text or 'end of line'!r}",
                           tok.line, tok.column)
        return tok

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    def parse_expr(self):
        value = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self):
        value = self.parse_unary()
        while self.peek().text == "*":
            self.next()
            rhs = self.parse_unary()
            value = _mul(value, rhs, self.peek())
        return value

    def parse_unary(self):
        if self.peek().text == "-":
            tok = self.next()
            return _neg(self.parse_unary(), tok)
        return self.parse_postfix()

    def parse_postfix(self):
        value = self.parse_primary()
        while self.peek().text == "'":
            tok = self.next()
            if not isinstance(value, QExpr):
                raise DslError("dagger applies to operators", tok.line, tok.column)
            value = value.dag()
        return value

    def parse_primary(self):
        tok = self.next()
        if tok.kind == "number":
            value = _number(tok)
            if self.peek().text == "/":
                self.next()
                den = self.next()
                if den.kind != "number":
                    raise DslError("expected a number after '/'", den.line, den.column)
                d = _number(den)
                if d == 0:
                    raise DslError("division by zero", den.line, den.column)
                value = value / d
            return ScalarExpr.number(value)
        if tok.text == "(":
            value = self.parse_expr()
            self.expect(")")
            return value
        if tok.kind == "ident":
            if tok.text == "im":
                return I_UNIT
            return self.scope.lookup(tok)
        raise DslError(f"unexpected {tok.text or 'end of line'!r}",
                       tok.line, tok.column)


def _mul(a, b, tok: Token):
    try:
        return a * b
    except Exception as err:
        raise DslError(str(err), tok.line, tok.column) from None


def _neg(a, tok: Token):
    try:
        return -a
    except Exception as err:
        raise DslError(str(err), tok.line, tok.column) from None


class _Scope:
    def __init__(self):
        self.spaces: list[HilbertSpace] = []
        self.space: ProductSpace | None = None
        self.ops: dict[str, QExpr] = {}
        self.params: dict[str, Parameter] = {}
        self.mode_names: dict[int, str] = {}

    def freeze_space(self, tok: Token) -> ProductSpace:
        if self.space is None:
            if not self.spaces:
                raise DslError("declare at least one space first", tok.line, tok.column)
            self.space = ProductSpace(tuple(self.spaces))
        return self.space

    def mode_name(self, index: int, binding: str) -> str:
        """Display name of a bosonic mode: the first binding declared wins."""
        return self.mode_names.setdefault(index, binding)

    def transition_name(self, space: ProductSpace, index: int) -> str:
        """Canonical display name of a subspace's transition family."""
        nlevel_factors = [k for k, f in enumerate(space.factors)
                          if f.kind == NLEVEL]
        if len(nlevel_factors) == 1:
            return "σ"
        return f"σ{index}"

    def lookup(self, tok: Token):
        if tok.text in self.ops:
            return self.ops[tok.text]
        if tok.text in self.params:
            return ScalarExpr.from_parameter(self.params[tok.text])
        raise DslError(f"undeclared identifier {tok.text!r}", tok.line, tok.column)


def parse_model(text: str) -> ParsedModel:
    scope = _Scope()
    options = RunOptions()
    hamiltonian = None
    jumps: list[QExpr] = []
    rates: list[ScalarExpr] = []
    op_order: list[str] = []
    ham_token = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if tokens[0].kind == "end":
            continue
        head = tokens[0]
        if head.kind != "ident":
            raise DslError("a directive keyword must start the line",
                           head.line, head.column)
        p = _ExprParser(tokens[1:], scope)
        directive = head.text

        if directive == "space":
            if scope.space is not None:
                raise DslError("spaces must be declared before any operator",
                               head.line, head.column)
            name = _ident(p)
            kind = _ident(p)
            if kind == "fock":
                scope.spaces.append(fock(name))
            elif kind == "nlevel":
                labels = []
                ground = None
                while not p.at_end():
                    tok = p.next()
                    if tok.kind not in ("ident", "number"):
                        raise DslError("expected a level label", tok.line, tok.column)
                    if tok.text == "ground" and tok.kind == "ident" and not p.at_end():
                        gtok = p.next()
                        ground = gtok.text
                        break
                    labels.append(tok.text)
                if len(labels) == 1 and labels[0].isdigit():
                    scope.spaces.append(nlevel(name, int(labels[0]), ground))
                else:
                    scope.spaces.append(nlevel(name, labels, ground))
            else:
                raise DslError(f"unknown space kind {kind!r} (fock or nlevel)",
                               head.line, head.column)
            _expect_line_end(p)

        elif directive == "op":
            name = _ident(p)
            p.expect("=")
            fn = _ident(p)
            p.expect("(")
            space = scope.freeze_space(head)
            if fn in ("destroy", "create"):
                space_name = _ident(p)
                p.expect(")")
                maker = destroy if fn == "destroy" else create
                try:
                    index = space.index(space_name)
                except Exception as err:
                    raise DslError(str(err), head.line, head.column) from None
                display = scope.mode_name(index, name)
                scope.ops[name] = _build_op(maker, space, display, space_name,
                                            head)
            elif fn == "transition":
                space_name = _ident(p)
                p.expect(",")
                i_tok = p.next()
                p.expect(",")
                j_tok = p.next()
                p.expect(")")
                try:
                    index = space.index(space_name)
                    display = scope.transition_name(space, index)
                    scope.ops[name] = transition(space, display, i_tok.text,
                                                 j_tok.text, space_name)
                except DslError:
                    raise
                except Exception as err:
                    raise DslError(str(err), head.line, head.column) from None
            else:
                raise DslError(
                    f"unknown operator constructor {fn!r} "
                    "(destroy, create or transition)", head.line, head.column)
            op_order.append(name)
            _expect_line_end(p)

        elif directive == "param":
            name = _ident(p)
            if name in scope.params:
                raise DslError(f"parameter {name!r} declared twice",
                               head.line, head.column)
            scope.params[name] = Parameter(name)
            if p.peek().text == "=":
                p.next()
                value = p.parse_expr()
                if not isinstance(value, ScalarExpr) or not value.is_number:
                    raise DslError("parameter values must be numbers",
                                   head.line, head.column)
                options.param_values[name] = _to_float(value, head)
            _expect_line_end(p)

        elif directive == "hamiltonian":
            scope.freeze_space(head)
            if p.at_end():
                raise DslError("empty hamiltonian", head.line, head.column)
            value = p.parse_expr()
            _expect_line_end(p)
            if not isinstance(value, QExpr):
                raise DslError("the hamiltonian must be an operator expression",
                               head.line, head.column)
            if hamiltonian is not None:
                raise DslError("hamiltonian given twice", head.line, head.column)
            hamiltonian = value
            ham_token = head

        elif directive == "jump":
            scope.freeze_space(head)
            opexpr = p.parse_expr()
            kw = _ident(p)
            if kw != "rate":
                raise DslError("expected 'rate' after the jump operator",
                               head.line, head.column)
            rate = p.parse_expr()
            _expect_line_end(p)
            if not isinstance(opexpr, QExpr):
                raise DslError("jump must be an operator expression",
                               head.line, head.column)
            if isinstance(rate, QExpr):
                raise DslError("rates are c-number expressions",
                               head.line, head.column)
            jumps.append(opexpr)
            rates.append(rate if isinstance(rate, ScalarExpr)
                         else ScalarExpr.number(rate))

        elif directive == "order":
            entries = [int(_number(_number_tok(p)))]
            while p.peek().text == ",":
                p.next()
                entries.append(int(_number(_number_tok(p))))
            _expect_line_end(p)
            options.order = (OrderSpec.of(entries[0]) if len(entries) == 1
                             else OrderSpec.of(tuple(entries)))

        elif directive == "filter":
            name = _ident(p)
            if name not in ("none", "phase"):
                raise DslError(f"unknown filter preset {name!r}", head.line, head.column)
            options.filter_name = name
            _expect_line_end(p)

        elif directive == "track":
            while True:
                value = p.parse_expr()
                if not isinstance(value, QExpr):
                    raise DslError("track entries must be operator products",
                                   head.line, head.column)
                options.track.append(value)
                if p.peek().text != ",":
                    break
                p.next()
            _expect_line_end(p)

        elif directive == "observable":
            name = _ident(p)
            p.expect("=")
            nxt = p.peek()
            if nxt.kind == "ident" and nxt.text in ("mandel_q", "temperature"):
                fn = p.next().text
                p.expect("(")
                mode = p.parse_expr()
                if not isinstance(mode, QExpr):
                    raise DslError("expected a mode operator", nxt.line, nxt.column)
                omega = None
                if fn == "temperature":
                    p.expect(",")
                    omega = _to_float(p.parse_expr(), head)
                p.expect(")")
                _expect_line_end(p)
                options.observables.append(
                    ObservableDef(name, fn, mode=mode, omega=omega))
            else:
                value = p.parse_expr()
                _expect_line_end(p)
                if not isinstance(value, QExpr):
                    raise DslError("observables are operator expressions "
                                   "or builtin calls", head.line, head.column)
                options.observables.append(ObservableDef(name, "expr", expr=value))

        elif directive == "initial":
            p.expect("<")
            value = p.parse_expr()
            p.expect(">")
            p.expect("=")
            number = p.parse_expr()
            _expect_line_end(p)
            if not isinstance(value, QExpr):
                raise DslError("initial values address operator averages",
                               head.line, head.column)
            try:
                sym = average_symbol(value.monomial_ops())
            except Exception as err:
                raise DslError(str(err), head.line, head.column) from None
            options.initial[sym] = _to_float(number, head)

        elif directive == "tspan":
            t0 = float(_signed_number(p))
            t1 = float(_signed_number(p))
            _expect_line_end(p)
            options.tspan = (t0, t1)

        elif directive == "solver":
            method = _ident(p)
            if method not in ("rk4", "rk45"):
                raise DslError(f"unknown method {method!r}", head.line, head.column)
            options.method = method
            _expect_line_end(p)

        elif directive in ("dt", "rtol", "atol"):
            value = float(_signed_number(p))
            _expect_line_end(p)
            setattr(options, directive, value)

        elif directive == "saveat":
            options.saveat = int(_number(_number_tok(p)))
            _expect_line_end(p)

        elif directive == "correlation":
            a_expr = p.parse_expr()
            p.expect(",")
            b_expr = p.parse_expr()
            _expect_line_end(p)
            if not isinstance(a_expr, QExpr) or not isinstance(b_expr, QExpr):
                raise DslError("correlation takes two operator products",
                               head.line, head.column)
            options.correlation = (a_expr, b_expr)

        elif directive == "cutoff":
            name = _ident(p)
            options.cutoffs[name] = int(_number(_number_tok(p)))
            _expect_line_end(p)
            focks = [f.name for f in scope.spaces if f.kind == FOCK]
            if name not in focks:
                raise DslError(
                    f"cutoff expects SPACE N with SPACE one of the model's Fock "
                    f"spaces ({', '.join(focks)}), got '{name} {options.cutoffs[name]}'"
                    f": no Fock space {name!r}", head.line, head.column)

        elif directive == "oracle_state":
            name = _ident(p)
            tok = p.next()
            if tok.kind not in ("ident", "number"):
                raise DslError("expected a level label or occupation number",
                               tok.line, tok.column)
            options.oracle_state[name] = tok.text
            _expect_line_end(p)

        else:
            raise DslError(f"unknown directive {directive!r}", head.line, head.column)

    if hamiltonian is None:
        raise DslError("model has no hamiltonian", len(text.splitlines()) + 1, 1)
    space = scope.freeze_space(ham_token)
    model = ModelDefinition.create(
        space, hamiltonian, jumps, rates,
        parameters=tuple(scope.params[k] for k in sorted(scope.params)),
        operators=tuple((name, scope.ops[name]) for name in op_order),
    )
    return ParsedModel(model, options, op_order)


def _build_op(maker, space, name, space_name, head):
    try:
        return maker(space, name, space_name)
    except Exception as err:
        raise DslError(str(err), head.line, head.column) from None


def _ident(p: _ExprParser) -> str:
    tok = p.next()
    if tok.kind != "ident":
        raise DslError(f"expected a name, found {tok.text or 'end of line'!r}",
                       tok.line, tok.column)
    return tok.text


def _number_tok(p: _ExprParser) -> Token:
    tok = p.next()
    if tok.kind != "number":
        raise DslError(f"expected a number, found {tok.text or 'end of line'!r}",
                       tok.line, tok.column)
    return tok


def _signed_number(p: _ExprParser) -> Fraction:
    sign = 1
    while p.peek().text == "-":
        p.next()
        sign = -sign
    return sign * _number(_number_tok(p))


def _expect_line_end(p: _ExprParser):
    tok = p.peek()
    if tok.kind != "end":
        raise DslError(f"unexpected {tok.text!r} at end of directive",
                       tok.line, tok.column)


def _to_float(value, at: Token) -> float:
    """A real constant expression as a float, else an error at ``at``."""
    if isinstance(value, ScalarExpr) and value.is_number:
        c = value.constant_value()
        if not c.im:
            return float(c.re)
    raise DslError("expected a real number", at.line, at.column)


# -- pretty printing ---------------------------------------------------------


def _dsl_coeff(c) -> str:
    re_part = f"{c.re.numerator}/{c.re.denominator}" if c.re.denominator != 1 \
        else str(c.re.numerator)
    if not c.im:
        return re_part
    im_part = f"{c.im.numerator}/{c.im.denominator}" if c.im.denominator != 1 \
        else str(c.im.numerator)
    if not c.re:
        return f"{im_part}*im"
    sign = "+" if c.im > 0 else "-"
    im_abs = im_part.lstrip("-")
    return f"({re_part} {sign} {im_abs}*im)"


def dsl_scalar(x: ScalarExpr) -> str:
    if x.is_zero:
        return "0"
    parts = []
    for coeff, params, avgs in x.terms:
        if avgs:
            raise DslError("averages cannot appear in a model file", 0, 0)
        factors = []
        for p, conjd, n in params:
            base = p.name
            factors.extend([base] * n)
        body = "*".join(factors)
        coeff_text = _dsl_coeff(coeff)
        if body and coeff_text == "1":
            piece = body
        elif body and coeff_text == "-1":
            piece = "-" + body
        elif body:
            piece = f"{coeff_text}*{body}"
        else:
            piece = coeff_text
        parts.append(piece)
    out = parts[0]
    for piece in parts[1:]:
        out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return out


def dsl_qexpr(x: QExpr, op_names: dict) -> str:
    if x.is_zero:
        return "0"
    parts = []
    for ops, coeff in x.terms:
        names = [op_names[op] for op in ops]
        body = "*".join(names) if names else "1"
        ctext = dsl_scalar(coeff)
        if ctext == "1":
            piece = body
        elif ctext == "-1":
            piece = "-" + body
        elif "+" in ctext or (" - " in ctext):
            piece = f"({ctext})*{body}"
        else:
            piece = f"{ctext}*{body}"
        parts.append(piece)
    out = parts[0]
    for piece in parts[1:]:
        out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return out


def _op_name_table(model: ModelDefinition) -> dict:
    table = {}
    for name, expr in model.operators:
        for ops, _ in expr.terms:
            if len(ops) == 1:
                table.setdefault(ops[0], name)
                table.setdefault(ops[0].adjoint(), name + "'")
    return table


def pretty_print(parsed: ParsedModel) -> str:
    model = parsed.model
    options = parsed.options
    lines = []
    for f in model.space.factors:
        if f.kind == FOCK:
            lines.append(f"space {f.name} fock")
        else:
            ground = "" if f.ground == f.levels[0] else f" ground {f.ground}"
            lines.append(f"space {f.name} nlevel {' '.join(f.levels)}{ground}")
    declared = dict(model.operators)
    for name in parsed.source_order:
        expr = declared[name]
        ops = expr.terms[0][0] if expr.terms and len(expr.terms[0][0]) == 1 else None
        if ops is None:
            continue
        op = ops[0]
        factor = model.space.factors[op.subspace]
        if op.kind == "destroy":
            lines.append(f"op {name} = destroy({factor.name})")
        elif op.kind == "create":
            lines.append(f"op {name} = create({factor.name})")
        else:
            lines.append(f"op {name} = transition({factor.name}, "
                         f"{op.i_label}, {op.j_label})")
    for param in model.parameters:
        if param.name in options.param_values:
            lines.append(f"param {param.name} = {options.param_values[param.name]:.12g}")
        else:
            lines.append(f"param {param.name}")
    table = _op_name_table(model)
    lines.append(f"hamiltonian {dsl_qexpr(model.hamiltonian, table)}")
    for jump, rate in zip(model.jumps, model.rates):
        lines.append(f"jump {dsl_qexpr(jump, table)} rate {dsl_scalar(rate)}")
    if options.order is not None:
        if options.order.uniform is not None:
            lines.append(f"order {options.order.uniform}")
        else:
            lines.append("order " + ",".join(map(str, options.order.per_subspace)))
    if options.filter_name != "none":
        lines.append(f"filter {options.filter_name}")
    for expr in options.track:
        lines.append(f"track {dsl_qexpr(expr, table)}")
    for obs in options.observables:
        if obs.kind == "expr":
            lines.append(f"observable {obs.name} = {dsl_qexpr(obs.expr, table)}")
        elif obs.kind == "mandel_q":
            lines.append(f"observable {obs.name} = mandel_q({dsl_qexpr(obs.mode, table)})")
        else:
            lines.append(f"observable {obs.name} = temperature("
                         f"{dsl_qexpr(obs.mode, table)}, {obs.omega:.12g})")
    for sym, value in sorted(options.initial.items(), key=lambda kv: kv[0].sort_key):
        names = "*".join(table[op] for op in sym.factors)
        lines.append(f"initial <{names}> = {value:.12g}")
    if options.tspan is not None:
        lines.append(f"tspan {options.tspan[0]:.12g} {options.tspan[1]:.12g}")
    if options.method is not None:
        lines.append(f"solver {options.method}")
    for attr in ("dt", "rtol", "atol"):
        value = getattr(options, attr)
        if value is not None:
            lines.append(f"{attr} {value:.12g}")
    if options.saveat is not None:
        lines.append(f"saveat {options.saveat}")
    if options.correlation is not None:
        a_expr, b_expr = options.correlation
        lines.append(f"correlation {dsl_qexpr(a_expr, table)}, "
                     f"{dsl_qexpr(b_expr, table)}")
    for name, value in sorted(options.cutoffs.items()):
        lines.append(f"cutoff {name} {value}")
    for name, value in sorted(options.oracle_state.items()):
        lines.append(f"oracle_state {name} {value}")
    return "\n".join(lines) + "\n"
