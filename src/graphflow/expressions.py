"""Mobility and kernel formulas, read with :mod:`ast` behind a whitelist.

A formula is ASCII text of decimal literals (``2``, ``.5``, ``3.``,
``1.5E+2``), the variables named at compile time (``r``, ``s`` for
mobilities, ``d`` for kernels), parentheses, unary minus, ``+ - * /`` and the
power ``^`` (or ``**``), which as in Python is right-associative and binds
tighter than unary minus: ``-r^2`` is ``-(r^2)``.  ``min`` and ``max`` take one
or more arguments, ``exp``, ``sqrt`` and ``abs`` exactly one.  Anything else
(literals such as ``0x10``, ``1_0`` or ``1j``, other names, operators or
calls, keyword or starred arguments, nesting deeper than 200 levels) raises
:class:`ExpressionError`.  The syntax tree becomes closures over numpy
operators and ufuncs; nothing is compiled to bytecode or handed to the
interpreter.

The same closures evaluate a formula's value on arrays and, on jet
arguments (:class:`_Jet`), its value with its exact first and second
derivatives in every variable: second-order forward-mode differentiation.
"""

import ast
import functools
import re

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

_MAX_DEPTH = 200  # evaluation recurses once per level, so deep trees would hit the stack
_ALPHABET = re.compile(r"[\w .()+\-*/,]*", re.ASCII)
_LITERAL = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
# operators rather than ufunc calls, so that numpy reuses the formula's temporaries;
# ^ stays np.power, since ** takes fast paths (sqrt for 0.5) that may round differently
_BINARY = {
    ast.Add: lambda x, y: lambda args: x(args) + y(args),
    ast.Sub: lambda x, y: lambda args: x(args) - y(args),
    ast.Mult: lambda x, y: lambda args: x(args) * y(args),
    ast.Div: lambda x, y: lambda args: x(args) / y(args),
    ast.Pow: lambda x, y: lambda args: np.power(x(args), y(args)),
}
# a ufunc of one argument takes exactly one; min and max fold one or more
_FUNCTIONS = {"min": np.minimum, "max": np.maximum, "exp": np.exp, "sqrt": np.sqrt,
              "abs": np.absolute}


class ExpressionError(ValueError):
    """Raised for malformed or disallowed expressions."""


def _zero(x):
    """Whether ``x`` is a derivative known to vanish: the float 0.0, which costs nothing."""
    return isinstance(x, float) and x == 0.0


def _mul(a, b):
    return 0.0 if _zero(a) or _zero(b) else a * b


def _add(a, b):
    return b if _zero(a) else a if _zero(b) else a + b


class _Jet(NDArrayOperatorsMixin):
    """A value ``v`` with its first derivatives ``d``, a list over n variables,
    and its second derivatives ``h``, a dict over the pairs (i, j), i <= j.

    numpy's operators and the ufuncs of ``_JET_RULES`` map jets to the jet of
    their result, and compute its value exactly as they do on arrays.
    """

    def __init__(self, v, d, h):
        self.v, self.d, self.h = v, list(d), h

    @classmethod
    def of(cls, value, n, index=None):
        """The jet of the ``index``-th of ``n`` variables at ``value``, or of a constant."""
        return cls(value, [float(k == index) for k in range(n)],
                   {(i, j): 0.0 for i in range(n) for j in range(i, n)})

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs or ufunc not in _JET_RULES:
            return NotImplemented
        return _JET_RULES[ufunc](*[x if isinstance(x, _Jet) else _Jet.of(x, len(self.d))
                                   for x in inputs])

    def chain(self, v, f1, f2):
        """The jet of f(self), given f, f' and f'' at ``self.v``."""
        d = self.d
        return _Jet(v, [_mul(f1, di) for di in d],
                    {(i, j): _add(_mul(f1, hij), _mul(f2, _mul(d[i], d[j])))
                     for (i, j), hij in self.h.items()})


def _jet_mul(a, b):
    return _Jet(a.v * b.v, [_add(_mul(da, b.v), _mul(a.v, db)) for da, db in zip(a.d, b.d)],
                {(i, j): _add(_add(_mul(a.h[i, j], b.v), _mul(a.v, b.h[i, j])),
                              _add(_mul(a.d[i], b.d[j]), _mul(a.d[j], b.d[i])))
                 for i, j in a.h})


def _jet_div(a, b):
    """a/b as a times the jet of 1/b, with its value computed as a/b."""
    product = _jet_mul(a, b.chain(1.0 / b.v, -1.0 / (b.v * b.v), 2.0 / (b.v * b.v * b.v)))
    return _Jet(a.v / b.v, product.d, product.h)


def _jet_power(u, w):
    v = np.power(u.v, w.v)
    if all(map(_zero, [*w.d, *w.h.values()])):  # a constant exponent
        return u.chain(v, _mul(w.v, np.power(u.v, w.v - 1.0)),
                       _mul(w.v * (w.v - 1.0), np.power(u.v, w.v - 2.0)))
    # u^w = exp(w log u)
    log_u = u.chain(np.log(u.v), 1.0 / u.v, -1.0 / (u.v * u.v))
    return _jet_mul(w, log_u).chain(v, v, v)


def _jet_exp(u):
    v = np.exp(u.v)
    return u.chain(v, v, v)


def _jet_sqrt(u):
    v = np.sqrt(u.v)
    f1 = 0.5 / v
    return u.chain(v, f1, -0.5 * f1 / u.v)


def _jet_select(v, take, a, b):
    """The jet of min or max with value ``v``: b's derivatives where ``take``, else a's."""
    pick = lambda x, y: 0.0 if _zero(x) and _zero(y) else np.where(take, y, x)
    return _Jet(v, map(pick, a.d, b.d), {k: pick(a.h[k], b.h[k]) for k in a.h})


_JET_RULES = {
    np.add: lambda a, b: _Jet(a.v + b.v, map(_add, a.d, b.d),
                              {k: _add(a.h[k], b.h[k]) for k in a.h}),
    np.subtract: lambda a, b: a + -b,  # a + (-b) rounds as a - b
    np.multiply: _jet_mul,
    np.true_divide: _jet_div,
    np.negative: lambda u: u.chain(-u.v, -1.0, 0.0),
    np.power: _jet_power,
    np.exp: _jet_exp,
    np.sqrt: _jet_sqrt,
    # abs follows the branch u or -u that it takes, u at 0
    np.absolute: lambda u: u.chain(np.absolute(u.v), np.where(u.v < 0, -1.0, 1.0), 0.0),
    np.minimum: lambda a, b: _jet_select(np.minimum(a.v, b.v), b.v < a.v, a, b),
    np.maximum: lambda a, b: _jet_select(np.maximum(a.v, b.v), b.v > a.v, a, b),
}


def _closure(node, source, names, depth=0):
    """The function of the argument list that the whitelisted ``node`` computes."""
    if depth > _MAX_DEPTH:
        raise ExpressionError(f"formula nested deeper than {_MAX_DEPTH} levels")
    text = source[node.col_offset:node.end_col_offset]

    def build(child):
        return _closure(child, source, names, depth + 1)

    if isinstance(node, ast.Constant) and _LITERAL.fullmatch(text):
        value = float(text)
        return lambda args: value
    if isinstance(node, ast.Name) and node.id in names:
        index = names.index(node.id)
        return lambda args: args[index]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = build(node.operand)
        return lambda args: -operand(args)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](build(node.left), build(node.right))
    # a call names its function unparenthesized and ends without a trailing comma
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and node.func.col_offset == node.col_offset
            and not text[:-1].rstrip().endswith(",")):
        func = _FUNCTIONS[node.func.id]
        if node.keywords or not node.args or (func.nin == 1 and len(node.args) > 1):
            arity = "one" if func.nin == 1 else "one or more"
            raise ExpressionError(f"{node.func.id} takes {arity} positional argument(s): {text!r}")
        operands = [build(arg) for arg in node.args]
        if func.nin == 1:
            return lambda args: func(operands[0](args))
        return lambda args: functools.reduce(func, [operand(args) for operand in operands])
    raise ExpressionError(f"not allowed in a formula of {list(names)}: {text!r}")


def compile_expression(text, variables):
    """Compile ``text`` into a vectorized function of one array per name in
    ``variables``; its result has the broadcast shape of its arguments.

    The function's ``jet`` attribute evaluates the formula with its exact
    derivatives: ``fn.jet(*args)`` returns ``(value, d, h)``, the value as
    ``fn`` computes it, ``d`` the first derivatives in each variable and ``h``
    the second ones, the Hessian's upper triangle row by row (for ``r, s``:
    ``rr, rs, ss``).  A derivative that vanishes identically is the float 0.0.
    """
    names = tuple(variables)
    source = " ".join(text.split()).replace("^", "**")
    if not _ALPHABET.fullmatch(source):
        raise ExpressionError(f"unexpected character in {text!r}")
    try:
        body = _closure(ast.parse(source, mode="eval").body, source, names)
    except (SyntaxError, RecursionError) as exc:
        raise ExpressionError(f"cannot read {text!r}: {type(exc).__name__}") from None

    def arrays(args):
        if len(args) != len(names):
            raise TypeError(f"expected {len(names)} arguments {names}, got {len(args)}")
        return [np.asarray(a, dtype=float) for a in args]

    def shaped(value, args):
        """``value`` as a float array, broadcast where its shape falls short of the arguments'."""
        value = np.asarray(value, dtype=float)
        if any(a.shape != value.shape for a in args):
            shape = np.broadcast_shapes(value.shape, *(a.shape for a in args))
            value = value if value.shape == shape else np.broadcast_to(value, shape).copy()
        return value

    def fn(*args):
        args = arrays(args)
        return shaped(body(args), args)

    def jet(*args):
        args = arrays(args)
        out = body([_Jet.of(a, len(args), i) for i, a in enumerate(args)])
        if not isinstance(out, _Jet):  # a constant
            out = _Jet.of(out, len(args))
        return shaped(out.v, args), tuple(out.d), tuple(out.h.values())

    fn.jet = jet
    return fn
