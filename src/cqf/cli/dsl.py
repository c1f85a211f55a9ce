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

Expressions support +, -, *, parentheses nested at most ``MAX_NESTING``
deep, the dagger suffix ', the imaginary unit ``im``, integers, rationals
(3/4) and decimals; a term may be a scalar (``w - a'*a``).  Level labels
live in their space declaration and never collide with identifiers.  Spaces
must be declared before the first operator; every name must be declared
once, before use.  Counts (order, saveat, cutoff) are positive integers, an
order vector has one entry per space, and tspan needs t0 < t1.

All errors carry a line and column: a syntax error points at its token,
and whatever the algebra refuses (a space with one level, an unknown
level label) at the directive keyword.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from ..algebra.averages import average_symbol
from ..algebra.operators import TRANSITION
from ..algebra.qexpr import QExpr, create, destroy, transition
from ..algebra.render import join_signed, render_op, scaled
from ..algebra.scalars import I_UNIT, Parameter, ScalarExpr
from ..algebra.spaces import FOCK, NLEVEL, HilbertSpace, ProductSpace, fock, nlevel
from ..completion import filter_by_name
from ..cumulant import OrderSpec
from ..errors import CqfError, DslError
from ..meanfield import ModelDefinition

_PUNCT = {"+", "-", "*", "(", ")", "'", ",", "/", "<", ">", "="}

# Parentheses may nest this deep, well inside the interpreter's recursion limit.
MAX_NESTING = 100


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
        value = Decimal(token.text)
    except InvalidOperation:
        raise DslError(f"bad number {token.text!r}", token.line, token.column) from None
    if not math.isfinite(float(value)):
        raise DslError(f"number {token.text!r} is beyond float range",
                       token.line, token.column)
    if value and not float(value):
        raise DslError(f"number {token.text!r} is below float range",
                       token.line, token.column)
    return Fraction(value)


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


class _ExprParser:
    """Recursive descent over one line's token list."""

    def __init__(self, tokens: list[Token], scope: "_Scope"):
        self.tokens = tokens
        self.pos = 0
        self.scope = scope
        self.depth = 0

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
            value = value * self.parse_unary()
        return value

    def parse_unary(self):
        negate = False
        while self.peek().text == "-":
            self.next()
            negate = not negate
        value = self.parse_postfix()
        return -value if negate else value

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
            if self.depth == MAX_NESTING:
                raise DslError(f"parentheses nest deeper than {MAX_NESTING}",
                               tok.line, tok.column)
            self.depth += 1
            value = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return value
        if tok.kind == "ident":
            if tok.text == "im":
                return I_UNIT
            return self.scope.lookup(tok)
        raise DslError(f"unexpected {tok.text or 'end of line'!r}",
                       tok.line, tok.column)


class _Scope:
    """Everything the lines read so far have declared or given."""

    def __init__(self):
        self.space: ProductSpace | None = None
        self.frozen = False
        self.ops: dict[str, QExpr] = {}
        self.params: dict[str, Parameter] = {}
        self.mode_names: dict[int, str] = {}
        self.options = RunOptions()
        self.hamiltonian: QExpr | None = None
        self.jumps: list[QExpr] = []
        self.rates: list[ScalarExpr] = []

    @property
    def factors(self) -> tuple[HilbertSpace, ...]:
        return self.space.factors if self.space is not None else ()

    def freeze_space(self) -> ProductSpace:
        if self.space is None:
            raise CqfError("declare at least one space first")
        self.frozen = True
        return self.space

    def check_new_name(self, name: str, kind: str):
        """Refuse ``im`` and a name an earlier ``op`` or ``param`` line declared."""
        taken = ("the imaginary unit" if name == "im"
                 else "operator" if name in self.ops
                 else "parameter" if name in self.params else None)
        if taken == kind:
            raise CqfError(f"{kind} {name!r} declared twice")
        if taken:
            raise CqfError(f"{kind} {name!r} clashes with {taken} {name!r}")

    def lookup(self, tok: Token):
        if tok.text in self.ops:
            return self.ops[tok.text]
        if tok.text in self.params:
            return ScalarExpr.from_parameter(self.params[tok.text])
        raise DslError(f"undeclared identifier {tok.text!r}", tok.line, tok.column)


def parse_model(text: str) -> ParsedModel:
    scope = _Scope()
    lines = text.splitlines()
    order_head = None
    for line_no, raw in enumerate(lines, start=1):
        tokens = _tokenize_line(raw, line_no)
        head = tokens[0]
        if head.kind == "end":
            continue
        if head.kind != "ident":
            raise DslError("a directive keyword must start the line",
                           head.line, head.column)
        if head.text == "order":
            order_head = head
        try:
            _read_directive(head.text, _ExprParser(tokens[1:], scope), scope)
        except DslError:
            raise
        except CqfError as err:
            # an error without a location, from the algebra or a directive's
            # own checks, is located at the directive keyword
            raise DslError(str(err), head.line, head.column) from None
    if scope.hamiltonian is None:
        raise DslError("model has no hamiltonian", len(lines) + 1, 1)
    if scope.options.order is not None:
        # spaces may follow the order line, so its length is checked here
        try:
            scope.options.order.for_space(scope.space)
        except CqfError as err:
            raise DslError(str(err), order_head.line, order_head.column) from None
    model = ModelDefinition.create(
        scope.space, scope.hamiltonian, scope.jumps, scope.rates,
        parameters=tuple(scope.params[k] for k in sorted(scope.params)),
        operators=tuple(scope.ops.items()),
    )
    return ParsedModel(model, scope.options)


def _read_directive(directive: str, p: _ExprParser, scope: _Scope):
    """Read one line's directive into ``scope``.

    A syntax error is a DslError at its token; any other CqfError is located
    by ``parse_model`` at the directive keyword.
    """
    options = scope.options

    if directive == "space":
        if scope.frozen:
            raise CqfError("spaces must be declared before any operator")
        name = _ident(p)
        kind = _ident(p)
        if kind == "fock":
            factor = fock(name)
        elif kind == "nlevel":
            labels = []
            ground = None
            while not p.at_end():
                tok = p.next()
                if tok.kind not in ("ident", "number"):
                    raise DslError("expected a level label", tok.line, tok.column)
                if tok.text == "ground" and tok.kind == "ident" and not p.at_end():
                    ground = p.next().text
                    break
                labels.append(tok.text)
            if len(labels) == 1 and labels[0].isdecimal():
                labels = int(labels[0])
            factor = nlevel(name, labels, ground)
        else:
            raise CqfError(f"unknown space kind {kind!r} (fock or nlevel)")
        # the product space refuses a repeated name at the line that repeats it
        scope.space = ProductSpace(scope.factors + (factor,))
        _expect_line_end(p)

    elif directive == "op":
        name = _ident(p)
        p.expect("=")
        fn = _ident(p)
        p.expect("(")
        space = scope.freeze_space()
        if fn not in ("destroy", "create", "transition"):
            raise CqfError(
                f"unknown operator constructor {fn!r} "
                "(destroy, create or transition)")
        space_name = _ident(p)
        if fn == "transition":
            p.expect(",")
            i_tok = p.next()
            p.expect(",")
            j_tok = p.next()
        p.expect(")")
        index = space.index(space_name)
        # display names: σ for the transitions of the only discrete factor,
        # else σ<index>; a mode is named by its first binding
        if fn == "transition":
            nlevels = sum(f.kind == NLEVEL for f in space.factors)
            display = "σ" if nlevels == 1 else f"σ{index}"
            op = transition(space, display, i_tok.text, j_tok.text, space_name)
        else:
            maker = destroy if fn == "destroy" else create
            op = maker(space, scope.mode_names.setdefault(index, name), space_name)
        _expect_line_end(p)
        scope.check_new_name(name, "operator")
        scope.ops[name] = op

    elif directive == "param":
        name = _ident(p)
        scope.check_new_name(name, "parameter")
        scope.params[name] = Parameter(name)
        if p.peek().text == "=":
            p.next()
            value = p.parse_expr()
            if not isinstance(value, ScalarExpr) or not value.is_number:
                raise CqfError("parameter values must be numbers")
            options.param_values[name] = _to_float(value)
        _expect_line_end(p)

    elif directive == "hamiltonian":
        scope.freeze_space()
        if p.at_end():
            raise CqfError("empty hamiltonian")
        value = p.parse_expr()
        _expect_line_end(p)
        value = _operator(value, "the hamiltonian must be an operator expression")
        if scope.hamiltonian is not None:
            raise CqfError("hamiltonian given twice")
        scope.hamiltonian = value

    elif directive == "jump":
        scope.freeze_space()
        jump = p.parse_expr()
        if _ident(p) != "rate":
            raise CqfError("expected 'rate' after the jump operator")
        rate = p.parse_expr()
        _expect_line_end(p)
        scope.jumps.append(_operator(jump, "jump must be an operator expression"))
        if isinstance(rate, QExpr):
            raise CqfError("rates are c-number expressions")
        scope.rates.append(rate)

    elif directive == "order":
        entries = [_count(p)]
        while p.peek().text == ",":
            p.next()
            entries.append(_count(p))
        _expect_line_end(p)
        options.order = OrderSpec.of(entries[0] if len(entries) == 1
                                     else tuple(entries))

    elif directive == "filter":
        name = _ident(p)
        filter_by_name(name)            # refuses an unknown preset
        options.filter_name = name
        _expect_line_end(p)

    elif directive == "track":
        while True:
            options.track.append(_operator(
                p.parse_expr(), "track entries must be operator products"))
            if p.peek().text != ",":
                break
            p.next()
        _expect_line_end(p)

    elif directive == "observable":
        name = _ident(p)
        p.expect("=")
        fn = p.peek()
        if fn.kind == "ident" and fn.text in ("mandel_q", "temperature"):
            p.next()
            p.expect("(")
            mode = p.parse_expr()
            if not isinstance(mode, QExpr):
                raise DslError("expected a mode operator", fn.line, fn.column)
            omega = None
            if fn.text == "temperature":
                p.expect(",")
                omega = _to_float(p.parse_expr())
            p.expect(")")
            _expect_line_end(p)
            options.observables.append(
                ObservableDef(name, fn.text, mode=mode, omega=omega))
        else:
            value = p.parse_expr()
            _expect_line_end(p)
            value = _operator(value, "observables are operator expressions "
                                     "or builtin calls")
            options.observables.append(ObservableDef(name, "expr", expr=value))

    elif directive == "initial":
        p.expect("<")
        value = p.parse_expr()
        p.expect(">")
        p.expect("=")
        number = p.parse_expr()
        _expect_line_end(p)
        value = _operator(value, "initial values address operator averages")
        sym = average_symbol(value.monomial_ops())
        options.initial[sym] = _to_float(number)

    elif directive == "tspan":
        t0 = _signed_number(p)
        t1 = _signed_number(p)
        _expect_line_end(p)
        if not t0 < t1:
            raise CqfError("tspan must satisfy t0 < t1")
        options.tspan = (t0, t1)

    elif directive == "solver":
        method = _ident(p)
        if method not in ("rk4", "rk45"):
            raise CqfError(f"unknown method {method!r}")
        options.method = method
        _expect_line_end(p)

    elif directive in ("dt", "rtol", "atol"):
        # StepperConfig refuses a value that is not positive
        setattr(options, directive, _signed_number(p))
        _expect_line_end(p)

    elif directive == "saveat":
        options.saveat = _count(p)
        _expect_line_end(p)

    elif directive == "correlation":
        a_expr = p.parse_expr()
        p.expect(",")
        b_expr = p.parse_expr()
        _expect_line_end(p)
        what = "correlation takes two operator products"
        options.correlation = (_operator(a_expr, what), _operator(b_expr, what))

    elif directive == "cutoff":
        name = _ident(p)
        count = _number_tok(p)
        value = _number(count)
        _expect_line_end(p)
        focks = [f.name for f in scope.factors if f.kind == FOCK]
        if name not in focks:
            raise CqfError(
                f"cutoff expects SPACE N with SPACE one of the model's Fock "
                f"spaces ({', '.join(focks)}), got '{name} {int(value)}'"
                f": no Fock space {name!r}")
        options.cutoffs[name] = _positive_integer(value, count)

    elif directive == "oracle_state":
        name = _ident(p)
        tok = p.next()
        if tok.kind not in ("ident", "number"):
            raise DslError("expected a level label or occupation number",
                           tok.line, tok.column)
        _expect_line_end(p)
        names = [f.name for f in scope.factors]
        if name not in names:
            raise CqfError(
                f"oracle_state expects SPACE STATE with SPACE one of the "
                f"model's spaces ({', '.join(names)}), got '{name} "
                f"{tok.text}': no space {name!r}")
        factor = scope.space.factors[names.index(name)]
        if factor.kind != FOCK:
            factor.level_index(tok.text)
            options.oracle_state[name] = tok.text
        elif tok.kind != "number" or _number(tok).denominator != 1:
            raise DslError(f"expected a non-negative integer, found "
                           f"{tok.text!r}", tok.line, tok.column)
        else:
            options.oracle_state[name] = int(_number(tok))

    else:
        raise CqfError(f"unknown directive {directive!r}")


# -- argument readers ----------------------------------------------------------


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


def _count(p: _ExprParser) -> int:
    tok = _number_tok(p)
    return _positive_integer(_number(tok), tok)


def _positive_integer(value: Fraction, tok: Token) -> int:
    if value.denominator != 1 or value < 1:
        raise DslError(f"expected a positive integer, found {tok.text!r}",
                       tok.line, tok.column)
    return int(value)


def _signed_number(p: _ExprParser) -> float:
    sign = 1
    while p.peek().text == "-":
        p.next()
        sign = -sign
    return float(sign * _number(_number_tok(p)))


def _operator(value, what: str) -> QExpr:
    """``value`` if it is an operator expression, else the error ``what``."""
    if not isinstance(value, QExpr):
        raise CqfError(what)
    return value


def _expect_line_end(p: _ExprParser):
    tok = p.peek()
    if tok.kind != "end":
        raise DslError(f"unexpected {tok.text!r} at end of directive",
                       tok.line, tok.column)


def _to_float(value) -> float:
    """A real constant expression as a float."""
    if isinstance(value, ScalarExpr) and value.is_number:
        c = value.constant_value()
        if not c.im:
            try:
                return float(c.re)
            except OverflowError:
                raise CqfError("expected a real number within float range") from None
    raise CqfError("expected a real number")


# -- pretty printing ---------------------------------------------------------


def _dsl_coeff(c) -> str:
    if not c.im:
        return str(c.re)
    if not c.re:
        return f"{c.im}*im"
    sign = "+" if c.im > 0 else "-"
    return f"({c.re} {sign} {abs(c.im)}*im)"


def dsl_scalar(x: ScalarExpr) -> str:
    pieces = []
    for coeff, params, avgs in x.terms:
        if avgs:
            raise DslError("averages cannot appear in a model file", 0, 0)
        body = "*".join(p.name for p, _, n in params for _ in range(n))
        pieces.append(scaled(_dsl_coeff(coeff), body))
    return join_signed(pieces)


def dsl_qexpr(x: QExpr, op_names: dict) -> str:
    pieces = []
    for ops, coeff in x.terms:
        body = _op_names(ops, op_names, x.space) or "1"
        ctext = dsl_scalar(coeff)
        pieces.append(scaled(f"({ctext})" if "+" in ctext or " - " in ctext
                             else ctext, body))
    return join_signed(pieces)


def _op_name_table(model: ModelDefinition) -> dict:
    """Names of the fundamental operators, from single-operator declarations
    (a ground projector is declared as a sum, 1 minus the other projectors)."""
    table = {}
    for name, expr in model.operators:
        if len(expr.terms) == 1:
            (op,), _ = expr.terms[0]
            table.setdefault(op, name)
            table.setdefault(op.adjoint(), name + "'")
    return table


def _op_names(ops, table: dict, space: ProductSpace) -> str:
    """The product ``ops`` in declared names; a factor without one is refused
    with the ``op`` line that would name it."""
    names = []
    for op in ops:
        if op not in table:
            raise CqfError(
                f"{render_op(op)} has no name in this model; declare it with "
                f"'{_op_line('NAME', op, space)}' to print the model")
        names.append(table[op])
    return "*".join(names)


def _op_line(name: str, op, space: ProductSpace) -> str:
    """The ``op`` line that declares the fundamental operator ``op``."""
    factor = space.factors[op.subspace]
    if op.kind == TRANSITION:
        return (f"op {name} = transition({factor.name}, {op.i_label}, "
                f"{op.j_label})")
    return f"op {name} = {op.kind}({factor.name})"


def _op_declaration(name: str, expr: QExpr, space: ProductSpace) -> str:
    """The ``op`` line that declares ``expr``."""
    op = expr.terms[-1][0][0]
    if len(expr.terms) > 1:          # a ground projector, 1 - the other projectors
        factor = space.factors[op.subspace]
        return (f"op {name} = transition({factor.name}, {factor.ground}, "
                f"{factor.ground})")
    return _op_line(name, op, space)


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
    for name, expr in model.operators:
        lines.append(_op_declaration(name, expr, model.space))
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
        names = _op_names(sym.factors, table, model.space)
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
