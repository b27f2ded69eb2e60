"""Symbolic expressions in ``x`` and ``lambda`` over the complex numbers.

The expression language is deliberately small: the two variables, complex
literals (``i``, ``pi``, ``e``, decimal numbers), the arithmetic operators
``+ - * / ^`` (with integer exponents only), unary minus, and the function
set ``exp sin cos sqrt log atan``. Trees are immutable; structural equality
and hashing come from the dataclass machinery.

Precedence, tightest first: ``^``, unary ``-``, ``* /``, ``+ -``; binary
operators associate left, chained exponents fold right-associatively into a
single integer.

Evaluation is strict about singular points: dividing by a value of magnitude
below ``1e-300`` raises :class:`~matspectra.errors.PoleError`, and ``log`` or
``sqrt`` applied to exactly ``0`` raises
:class:`~matspectra.errors.DomainError`. :func:`evaluate_array` is the
vectorized companion used by the numeric layers; it lets non-finite values
propagate instead of raising, and callers mask them.

:func:`simplify` is a best-effort normalization, not a canonical form: it
folds constants, applies the 0/1 identities, collects rational sub-expressions
over one common denominator, and cancels factors common to every term. It is
idempotent and pointwise-sound wherever both input and output are defined.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, PoleError

POLE_THRESHOLD = 1e-300
FUNCTIONS = ("exp", "sin", "cos", "sqrt", "log", "atan")


# ---------------------------------------------------------------------------
# Node types
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expression nodes. Supports arithmetic sugar."""

    __slots__ = ()

    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("exponents must be Python ints")
        return Pow(self, exponent)

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True, slots=True)
class Lit(Expr):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int):
            raise TypeError("Pow exponent must be a Python int")


@dataclass(frozen=True, slots=True)
class Call(Expr):
    func: str
    arg: Expr


X = Var("x")
LAM = Var("lambda")
ZERO = Lit(0j)
ONE = Lit(1 + 0j)
I = Lit(1j)


def as_expr(value) -> Expr:
    """Coerce a number (or pass through an Expr) to an expression node."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, complex)):
        return Lit(complex(value))
    raise TypeError(f"cannot treat {type(value).__name__} as an expression")


def smart_pow(base: Expr, exponent: int) -> Expr:
    """``base**exponent`` with the trivial exponents collapsed."""
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    return Pow(base, exponent)


def node_count(e: Expr) -> int:
    """Number of nodes in the tree."""
    stack, count = [e], 0
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, (Add, Sub, Mul, Div)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Neg):
            stack.append(node.arg)
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, Call):
            stack.append(node.arg)
    return count


def mentions(e: Expr, name: str) -> bool:
    """True when the variable ``name`` occurs anywhere in the tree."""
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            if node.name == name:
                return True
        elif isinstance(node, (Add, Sub, Mul, Div)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, (Neg, Call)):
            stack.append(node.arg)
        elif isinstance(node, Pow):
            stack.append(node.base)
    return False


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)

_CONSTANTS = {
    "i": Lit(1j),
    "pi": Lit(complex(math.pi)),
    "e": Lit(complex(math.e)),
}
_VARIABLES = {"x": X, "lambda": LAM}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            self.items.append((match.lastgroup, match.group(), pos))
            pos = match.end()
        self.index = 0

    def peek(self) -> tuple[str, str, int] | None:
        if self.index < len(self.items):
            return self.items[self.index]
        return None

    def next(self) -> tuple[str, str, int] | None:
        item = self.peek()
        if item is not None:
            self.index += 1
        return item

    def expect_op(self, op: str):
        item = self.next()
        if item is None:
            raise ParseError(f"expected {op!r}, found end of input", len(self.text))
        kind, text, pos = item
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text!r}", pos)


def parse(text: str) -> Expr:
    """Parse expression text into a tree.

    Raises :class:`~matspectra.errors.ParseError` with the offending position
    on malformed input.
    """
    tokens = _Tokens(text)
    tree = _parse_sum(tokens)
    trailing = tokens.peek()
    if trailing is not None:
        raise ParseError(f"unexpected trailing input {trailing[1]!r}", trailing[2])
    return tree


def _parse_sum(tokens: _Tokens) -> Expr:
    node = _parse_product(tokens)
    while True:
        item = tokens.peek()
        if item is None or item[0] != "op" or item[1] not in "+-":
            return node
        tokens.next()
        right = _parse_product(tokens)
        node = Add(node, right) if item[1] == "+" else Sub(node, right)


def _parse_product(tokens: _Tokens) -> Expr:
    node = _parse_factor(tokens)
    while True:
        item = tokens.peek()
        if item is None or item[0] != "op" or item[1] not in "*/":
            return node
        tokens.next()
        right = _parse_factor(tokens)
        node = Mul(node, right) if item[1] == "*" else Div(node, right)


def _parse_factor(tokens: _Tokens) -> Expr:
    item = tokens.peek()
    if item is not None and item[0] == "op" and item[1] == "-":
        tokens.next()
        return Neg(_parse_factor(tokens))
    base = _parse_base(tokens)
    exponents = []
    while True:
        item = tokens.peek()
        if item is None or item[0] != "op" or item[1] != "^":
            break
        tokens.next()
        exponents.append(_parse_int_literal(tokens))
    if not exponents:
        return base
    # Chained exponents fold right-associatively: x^a^b == x^(a^b).
    total = exponents[-1]
    for value in reversed(exponents[:-1]):
        total = value ** total
        if not isinstance(total, int):
            raise ParseError("exponent chain is not integral")
    return Pow(base, total)


def _parse_int_literal(tokens: _Tokens) -> int:
    sign = 1
    item = tokens.peek()
    if item is not None and item[0] == "op" and item[1] == "-":
        tokens.next()
        sign = -1
    item = tokens.next()
    if item is None:
        raise ParseError("expected integer exponent, found end of input")
    kind, text, pos = item
    if kind != "num" or not text.isdigit():
        raise ParseError(f"exponent must be an integer literal, found {text!r}", pos)
    return sign * int(text)


def _parse_base(tokens: _Tokens) -> Expr:
    item = tokens.next()
    if item is None:
        raise ParseError("unexpected end of input")
    kind, text, pos = item
    if kind == "num":
        return Lit(complex(float(text)))
    if kind == "name":
        if text in _VARIABLES:
            return _VARIABLES[text]
        if text in _CONSTANTS:
            return _CONSTANTS[text]
        if text in FUNCTIONS:
            tokens.expect_op("(")
            arg = _parse_sum(tokens)
            tokens.expect_op(")")
            return Call(text, arg)
        raise ParseError(f"unknown identifier {text!r}", pos)
    if kind == "op" and text == "(":
        inner = _parse_sum(tokens)
        tokens.expect_op(")")
        return inner
    raise ParseError(f"unexpected token {text!r}", pos)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, x: complex | None = None, lam: complex | None = None) -> complex:
    """Evaluate at scalar points with strict pole/domain checking."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        value = x if e.name == "x" else lam
        if value is None:
            raise ValueError(f"unbound variable {e.name!r}")
        return complex(value)
    if isinstance(e, Add):
        return evaluate(e.left, x, lam) + evaluate(e.right, x, lam)
    if isinstance(e, Sub):
        return evaluate(e.left, x, lam) - evaluate(e.right, x, lam)
    if isinstance(e, Mul):
        return evaluate(e.left, x, lam) * evaluate(e.right, x, lam)
    if isinstance(e, Div):
        denominator = evaluate(e.right, x, lam)
        if abs(denominator) < POLE_THRESHOLD:
            raise PoleError(
                f"division by magnitude {abs(denominator):.3e} below pole threshold")
        return evaluate(e.left, x, lam) / denominator
    if isinstance(e, Neg):
        return -evaluate(e.arg, x, lam)
    if isinstance(e, Pow):
        base = evaluate(e.base, x, lam)
        if e.exponent < 0 and abs(base) < POLE_THRESHOLD:
            raise PoleError(
                f"negative power of magnitude {abs(base):.3e} below pole threshold")
        return base ** e.exponent
    if isinstance(e, Call):
        return _call_scalar(e.func, evaluate(e.arg, x, lam))
    raise TypeError(f"not an expression node: {e!r}")


def _call_scalar(func: str, value: complex) -> complex:
    if func in ("log", "sqrt") and value == 0:
        raise DomainError(f"{func} of exactly 0")
    try:
        if func == "exp":
            return cmath.exp(value)
        if func == "sin":
            return cmath.sin(value)
        if func == "cos":
            return cmath.cos(value)
        if func == "sqrt":
            return cmath.sqrt(value)
        if func == "log":
            return cmath.log(value)
        if func == "atan":
            return cmath.atan(value)
    except ValueError as exc:
        raise DomainError(f"{func} undefined at {value!r}") from exc
    raise TypeError(f"unknown function {func!r}")


_ARRAY_FUNCS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "log": np.log,
    "atan": np.arctan,
}


def evaluate_array(e: Expr, x=None, lam=None) -> np.ndarray:
    """Vectorized evaluation with numpy broadcasting.

    Returns a complex128 array of the broadcast shape of ``x`` and ``lam``
    for every tree, constant ones included. Unlike :func:`evaluate` this is
    not strict: divisions by (near-)zero and domain violations produce
    ``inf``/``nan`` entries that callers mask.
    """
    if lam is None or x is None:
        shape = np.shape(lam if x is None else x)
    else:
        shape = np.broadcast_shapes(np.shape(x), np.shape(lam))
    if isinstance(e, Lit):
        return np.full(shape, e.value, dtype=np.complex128)
    x_arr = None if x is None else np.asarray(x, dtype=np.complex128)
    lam_arr = None if lam is None else np.asarray(lam, dtype=np.complex128)
    with np.errstate(all="ignore"):
        out = _eval_array(e, x_arr, lam_arr)
    if isinstance(out, np.ndarray) and out.shape == shape:
        return out
    return np.full(shape, out, dtype=np.complex128)


def _eval_array(e, x, lam):
    if isinstance(e, Lit):
        return np.complex128(e.value)
    if isinstance(e, Var):
        value = x if e.name == "x" else lam
        if value is None:
            raise ValueError(f"unbound variable {e.name!r}")
        return value
    if isinstance(e, Add):
        return _eval_array(e.left, x, lam) + _eval_array(e.right, x, lam)
    if isinstance(e, Sub):
        return _eval_array(e.left, x, lam) - _eval_array(e.right, x, lam)
    if isinstance(e, Mul):
        return _eval_array(e.left, x, lam) * _eval_array(e.right, x, lam)
    if isinstance(e, Div):
        return _eval_array(e.left, x, lam) / _eval_array(e.right, x, lam)
    if isinstance(e, Neg):
        return -_eval_array(e.arg, x, lam)
    if isinstance(e, Pow):
        return _eval_array(e.base, x, lam) ** e.exponent
    if isinstance(e, Call):
        return _ARRAY_FUNCS[e.func](_eval_array(e.arg, x, lam))
    raise TypeError(f"not an expression node: {e!r}")


def evaluate_jet(e: Expr, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An x-only tree and its first two x-derivatives, sampled at ``x``.

    Forward mode: one walk carries (f, f', f'') up the tree, building no
    derivative tree. ``f`` is :func:`evaluate_array` bit for bit.
    """
    x_arr = np.asarray(x, dtype=np.complex128)
    with np.errstate(all="ignore"):
        jet = _eval_jet(e, x_arr)
    return tuple(np.full(x_arr.shape, part, np.complex128) for part in jet)


# F'(g) and F''(g) of each function F, given g and h = F(g).
_JET_SLOPES = {
    "exp": lambda g, h: (h, h),
    "sin": lambda g, h: (np.cos(g), -h),
    "cos": lambda g, h: (-np.sin(g), -h),
    "sqrt": lambda g, h: (0.5 / h, -0.25 / (h * g)),
    "log": lambda g, h: (1.0 / g, -1.0 / (g * g)),
    "atan": lambda g, h: (1.0 / (1.0 + g * g), -2.0 * g / (1.0 + g * g) ** 2),
}


def _eval_jet(e, x):
    if isinstance(e, Lit):
        return np.complex128(e.value), 0j, 0j
    if isinstance(e, Var):
        if e.name != "x":
            raise ValueError(f"evaluate_jet takes x-only trees, got {e.name!r}")
        return x, 1 + 0j, 0j
    if isinstance(e, Neg):
        return tuple(-part for part in _eval_jet(e.arg, x))
    if isinstance(e, Pow):
        f, f1, f2 = _eval_jet(e.base, x)
        n = e.exponent
        if n == 0:  # skip the terms with a zero factor: 0 * inf at f = 0
            return f**0, 0j, 0j
        if n == 1:
            return f**1, f1, f2
        lower = f ** (n - 1)
        return (f**n, n * lower * f1,
                n * (lower * f2 + (n - 1) * f ** (n - 2) * f1 * f1))
    if isinstance(e, Call):
        g, g1, g2 = _eval_jet(e.arg, x)
        h = _ARRAY_FUNCS[e.func](g)
        slope, curvature = _JET_SLOPES[e.func](g, h)
        return h, slope * g1, slope * g2 + curvature * g1 * g1
    if not isinstance(e, (Add, Sub, Mul, Div)):
        raise TypeError(f"not an expression node: {e!r}")
    f, f1, f2 = _eval_jet(e.left, x)
    g, g1, g2 = _eval_jet(e.right, x)
    if isinstance(e, Add):
        return f + g, f1 + g1, f2 + g2
    if isinstance(e, Sub):
        return f - g, f1 - g1, f2 - g2
    if isinstance(e, Mul):
        return f * g, f1 * g + f * g1, f2 * g + 2.0 * f1 * g1 + f * g2
    h = f / g
    h1 = (f1 - h * g1) / g
    return h, h1, (f2 - 2.0 * h1 * g1 - h * g2) / g


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic derivative with respect to ``var`` ('x' or 'lambda')."""
    if var not in ("x", "lambda"):
        raise ValueError(f"unknown variable {var!r}")
    return _diff(e, var)


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Lit):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Add):
        return Add(_diff(e.left, var), _diff(e.right, var))
    if isinstance(e, Sub):
        return Sub(_diff(e.left, var), _diff(e.right, var))
    if isinstance(e, Neg):
        return Neg(_diff(e.arg, var))
    if isinstance(e, Mul):
        return Add(Mul(_diff(e.left, var), e.right), Mul(e.left, _diff(e.right, var)))
    if isinstance(e, Div):
        numerator = Sub(
            Mul(_diff(e.left, var), e.right), Mul(e.left, _diff(e.right, var)))
        return Div(numerator, Pow(e.right, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return ZERO
        scale = Mul(Lit(complex(e.exponent)), smart_pow(e.base, e.exponent - 1))
        return Mul(scale, _diff(e.base, var))
    if isinstance(e, Call):
        inner = _diff(e.arg, var)
        if e.func == "exp":
            return Mul(e, inner)
        if e.func == "sin":
            return Mul(Call("cos", e.arg), inner)
        if e.func == "cos":
            return Neg(Mul(Call("sin", e.arg), inner))
        if e.func == "sqrt":
            return Div(inner, Mul(Lit(2 + 0j), e))
        if e.func == "log":
            return Div(inner, e.arg)
        if e.func == "atan":
            return Div(inner, Add(ONE, Pow(e.arg, 2)))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def to_text(e: Expr) -> str:
    """Render to text the parser accepts; re-parsing evaluates identically."""
    return _fmt(e, 0)


def _fmt(e: Expr, context: int) -> str:
    text, prec = _fmt_prec(e)
    if prec < context:
        return f"({text})"
    return text


def _fmt_prec(e: Expr) -> tuple[str, int]:
    if isinstance(e, Lit):
        return _fmt_literal(e.value)
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, Add):
        return f"{_fmt(e.left, _PREC_ADD)} + {_fmt(e.right, _PREC_ADD + 1)}", _PREC_ADD
    if isinstance(e, Sub):
        return f"{_fmt(e.left, _PREC_ADD)} - {_fmt(e.right, _PREC_ADD + 1)}", _PREC_ADD
    if isinstance(e, Mul):
        return f"{_fmt(e.left, _PREC_MUL)}*{_fmt(e.right, _PREC_MUL + 1)}", _PREC_MUL
    if isinstance(e, Div):
        return f"{_fmt(e.left, _PREC_MUL)}/{_fmt(e.right, _PREC_MUL + 1)}", _PREC_MUL
    if isinstance(e, Neg):
        return f"-{_fmt(e.arg, _PREC_NEG)}", _PREC_NEG
    if isinstance(e, Pow):
        return f"{_fmt(e.base, _PREC_ATOM)}^{e.exponent}", _PREC_POW
    if isinstance(e, Call):
        return f"{e.func}({_fmt(e.arg, 0)})", _PREC_ATOM
    raise TypeError(f"not an expression node: {e!r}")


def _fmt_real(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot render non-finite literal {value!r}")
    return repr(value)


def _fmt_literal(value: complex) -> tuple[str, int]:
    re_part, im_part = value.real, value.imag
    if im_part == 0:
        text = _fmt_real(re_part)
        return text, (_PREC_NEG if re_part < 0 else _PREC_ATOM)
    if re_part == 0:
        if im_part == 1:
            return "i", _PREC_ATOM
        if im_part == -1:
            return "-i", _PREC_NEG
        return f"{_fmt_real(im_part)}*i", _PREC_MUL
    sign = "-" if im_part < 0 else "+"
    return (
        f"({_fmt_real(re_part)} {sign} {_fmt_real(abs(im_part))}*i)",
        _PREC_ATOM,
    )


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------
#
# Normal form: scalar * product(factor ** exponent) with integer exponents of
# either sign. A factor is an atom (a variable, or a function application
# with a simplified argument) or a composite: a monic multivariate polynomial
# over the atoms, stored as {monomial: coefficient} with each monomial a
# sorted tuple of (atom text, power). Sums combine over the exponent-wise
# minimum of the operands' factorizations, so common parts — shared
# denominators in particular — cancel exactly instead of being multiplied
# against each other, and only the residual sum is ever expanded. Keeping
# factors unexpanded preserves accuracy near their roots (a quotient's pole
# stays a single subtraction instead of a cancellation across expanded cross
# terms) and postpones overflow at large arguments, because a power of a
# factor is evaluated as a power of its value. The deterministic rebuild
# makes the whole procedure idempotent.

_EMPTY_MONO: tuple = ()


class _Bail(Exception):
    """Raised internally when normalization would lose information."""


def simplify(e: Expr) -> Expr:
    """Best-effort normalization; idempotent; pointwise-sound where defined."""
    atoms: dict[str, Expr] = {}
    try:
        product = _to_product(e, atoms)
    except _Bail:
        return e
    return _product_to_expr(product, atoms)


def _finite_poly(poly: dict) -> bool:
    return all(
        math.isfinite(c.real) and math.isfinite(c.imag) for c in poly.values())


_POLY_ONE = {_EMPTY_MONO: 1 + 0j}


def _finite_scalar(value: complex) -> bool:
    return math.isfinite(value.real) and math.isfinite(value.imag)


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, coeff in b.items():
        total = out.get(mono, 0j) + coeff
        if total == 0:
            out.pop(mono, None)
        else:
            out[mono] = total
    return out


def _pscale(a: dict, factor: complex) -> dict:
    if factor == 0:
        return {}
    out = {}
    for mono, coeff in a.items():
        scaled = coeff * factor
        if scaled != 0:
            out[mono] = scaled
    return out


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    powers: dict[str, int] = {}
    for key, power in m1:
        powers[key] = powers.get(key, 0) + power
    for key, power in m2:
        powers[key] = powers.get(key, 0) + power
    return tuple(sorted(powers.items()))


def _pmul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    out: dict[tuple, complex] = {}
    for mono_a, coeff_a in a.items():
        for mono_b, coeff_b in b.items():
            mono = _mono_mul(mono_a, mono_b)
            total = out.get(mono, 0j) + coeff_a * coeff_b
            if total == 0:
                out.pop(mono, None)
            else:
                out[mono] = total
    return out


def _ppow(a: dict, k: int) -> dict:
    result = dict(_POLY_ONE)
    base = a
    while k > 0:
        if k & 1:
            result = _pmul(result, base)
        k >>= 1
        if k:
            base = _pmul(base, base)
    return result


# A product is a pair (scalar, factors) where factors maps a stable text key
# to (payload, exponent). Atom payloads are Expr nodes; composite payloads
# are monic polynomial dicts. The zero product is (0j, {}).

_ZERO_PRODUCT: tuple[complex, dict] = (0j, {})


def _prod_scalar(value: complex) -> tuple[complex, dict]:
    value = complex(value)
    if not _finite_scalar(value):
        raise _Bail
    if value == 0:
        return _ZERO_PRODUCT
    return (value, {})


def _atom_product(node: Expr, atoms: dict[str, Expr]) -> tuple[complex, dict]:
    key = to_text(node)
    atoms[key] = node
    return (1 + 0j, {key: (node, 1)})


def _prod_mul(a: tuple[complex, dict], b: tuple[complex, dict]) -> tuple[complex, dict]:
    scalar = a[0] * b[0]
    if not _finite_scalar(scalar):
        raise _Bail
    if scalar == 0:
        return _ZERO_PRODUCT
    factors = dict(a[1])
    for key, (payload, exp) in b[1].items():
        if key in factors:
            merged = factors[key][1] + exp
            if merged == 0:
                del factors[key]
            else:
                factors[key] = (payload, merged)
        else:
            factors[key] = (payload, exp)
    return (scalar, factors)


def _prod_pow(a: tuple[complex, dict], k: int) -> tuple[complex, dict]:
    if k == 0:
        return (1 + 0j, {})
    scalar, factors = a
    if scalar == 0:
        if k > 0:
            return _ZERO_PRODUCT
        raise _Bail  # inverse of an exact zero
    try:
        powered = scalar**k
    except (OverflowError, ZeroDivisionError):
        raise _Bail from None
    if not _finite_scalar(powered):
        raise _Bail
    return (
        powered,
        {key: (payload, exp * k) for key, (payload, exp) in factors.items()},
    )


def _to_product(e: Expr, atoms: dict[str, Expr]) -> tuple[complex, dict]:
    if isinstance(e, Lit):
        return _prod_scalar(e.value)
    if isinstance(e, Var):
        return _atom_product(e, atoms)
    if isinstance(e, Call):
        arg = simplify(e.arg)
        if isinstance(arg, Lit):
            folded = _try_fold_call(e.func, arg.value)
            if folded is not None:
                return _prod_scalar(folded)
        return _atom_product(Call(e.func, arg), atoms)
    if isinstance(e, (Neg, Add, Sub)):
        # Flatten the whole +/- chain so every summand shares one lattice.
        parts: list[tuple[complex, dict]] = []
        stack: list[tuple[Expr, int]] = [(e, 1)]
        while stack:
            node, sign = stack.pop()
            if isinstance(node, Add):
                stack.append((node.left, sign))
                stack.append((node.right, sign))
            elif isinstance(node, Sub):
                stack.append((node.left, sign))
                stack.append((node.right, -sign))
            elif isinstance(node, Neg):
                stack.append((node.arg, -sign))
            else:
                part = _to_product(node, atoms)
                if sign < 0:
                    part = _prod_mul(part, (-1 + 0j, {}))
                parts.append(part)
        return _prod_add(parts, atoms)
    if isinstance(e, Mul):
        return _prod_mul(_to_product(e.left, atoms), _to_product(e.right, atoms))
    if isinstance(e, Div):
        numerator = _to_product(e.left, atoms)
        return _prod_mul(numerator, _prod_pow(_to_product(e.right, atoms), -1))
    if isinstance(e, Pow):
        return _prod_pow(_to_product(e.base, atoms), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


def _prod_add(parts: list[tuple[complex, dict]], atoms: dict[str, Expr]) -> tuple[complex, dict]:
    parts = [part for part in parts if part[0] != 0]
    if not parts:
        return _ZERO_PRODUCT
    if len(parts) == 1:
        return parts[0]
    payloads: dict[str, object] = {}
    for part in parts:
        for key, (payload, _exp) in part[1].items():
            payloads.setdefault(key, payload)
    common: dict[str, tuple] = {}
    for key, payload in payloads.items():
        low = min(part[1].get(key, (None, 0))[1] for part in parts)
        if low != 0:
            common[key] = (payload, low)
    total: dict[tuple, complex] = {}
    for scalar, factors in parts:
        poly = {_EMPTY_MONO: scalar}
        for key, payload in payloads.items():
            exp = factors[key][1] if key in factors else 0
            residue = exp - (common[key][1] if key in common else 0)
            if residue == 0:
                continue
            if isinstance(payload, dict):
                poly = _pmul(poly, _ppow(payload, residue))
            else:
                poly = _pmul(poly, {((key, residue),): 1 + 0j})
        total = _padd(total, poly)
    return _prod_mul(_poly_to_product(total, atoms), (1 + 0j, common))


def _poly_to_product(poly: dict, atoms: dict[str, Expr]) -> tuple[complex, dict]:
    if not poly:
        return _ZERO_PRODUCT
    if not _finite_poly(poly):
        raise _Bail
    shared: dict[str, int] | None = None
    for mono in poly:
        powers = dict(mono)
        if shared is None:
            shared = powers
        else:
            shared = {
                key: min(power, powers[key])
                for key, power in shared.items()
                if key in powers
            }
        if not shared:
            break
    factors: dict[str, tuple] = {}
    if shared:
        stripped = {}
        for mono, coeff in poly.items():
            kept = tuple(
                (key, power - shared.get(key, 0))
                for key, power in mono
                if power - shared.get(key, 0) > 0
            )
            stripped[kept] = coeff
        poly = stripped
        for key, power in shared.items():
            factors[key] = (atoms[key], power)
    if len(poly) == 1:
        ((mono, coeff),) = poly.items()
        for key, power in mono:
            factors[key] = (atoms[key], power)
        return (coeff, factors)
    lead = min(poly, key=_mono_sort_key)
    lead_coeff = poly[lead]
    monic = _pscale(poly, 1.0 / lead_coeff)
    if not _finite_poly(monic):
        raise _Bail
    # Pin the lead coefficient exactly so a second pass is a no-op.
    monic[lead] = 1 + 0j
    key = "#" + repr(sorted(monic.items()))
    factors[key] = (monic, 1)
    return (lead_coeff, factors)


def _try_fold_call(func: str, value: complex) -> complex | None:
    try:
        folded = _call_scalar(func, value)
    except (DomainError, PoleError, OverflowError, ValueError):
        return None
    if math.isfinite(folded.real) and math.isfinite(folded.imag):
        return folded
    return None


def _mono_sort_key(mono: tuple):
    return (-sum(power for _, power in mono), mono)


def _factor_sort_key(item: tuple[str, tuple]) -> tuple[int, str]:
    key, (payload, _exp) = item
    return (1 if isinstance(payload, dict) else 0, key)


def _product_to_expr(product: tuple[complex, dict], atoms: dict[str, Expr]) -> Expr:
    scalar, factors = product
    if scalar == 0:
        return ZERO
    num_parts: list[Expr] = []
    den_parts: list[Expr] = []
    for key, (payload, exp) in sorted(factors.items(), key=_factor_sort_key):
        base = payload if isinstance(payload, Expr) else _poly_to_expr(payload, atoms)
        if exp > 0:
            num_parts.append(smart_pow(base, exp))
        else:
            den_parts.append(smart_pow(base, -exp))
    if not num_parts:
        numerator: Expr = Lit(scalar)
    else:
        bundle = _balanced(Mul, num_parts)
        if scalar == 1:
            numerator = bundle
        elif scalar == -1:
            numerator = Neg(bundle)
        else:
            numerator = Mul(Lit(scalar), bundle)
    if not den_parts:
        return numerator
    return Div(numerator, _balanced(Mul, den_parts))


def _poly_to_expr(poly: dict, atoms: dict[str, Expr]) -> Expr:
    if not poly:
        return ZERO
    terms = [
        _term_expr(poly[mono], mono, atoms)
        for mono in sorted(poly, key=_mono_sort_key)
    ]
    return _balanced(Add, terms)


def _term_expr(coeff: complex, mono: tuple, atoms: dict[str, Expr]) -> Expr:
    factors = [smart_pow(atoms[key], power) for key, power in mono]
    if not factors:
        return Lit(coeff)
    product = _balanced(Mul, factors)
    if coeff == 1:
        return product
    if coeff == -1:
        return Neg(product)
    return Mul(Lit(coeff), product)


def _balanced(op, items: list[Expr]) -> Expr:
    """Combine items with a balanced binary tree (keeps recursion shallow)."""
    if len(items) == 1:
        return items[0]
    mid = len(items) // 2
    return op(_balanced(op, items[:mid]), _balanced(op, items[mid:]))
