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
ufuncs; nothing is compiled to bytecode or handed to the interpreter.
"""

import ast
import re

import numpy as np

_MAX_DEPTH = 200  # evaluation recurses once per level, so deep trees would hit the stack
_ALPHABET = re.compile(r"[\w .()+\-*/,]*", re.ASCII)
_LITERAL = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_BINARY = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide,
           ast.Pow: np.power}
# name -> (function, number of arguments; None for one or more)
_FUNCTIONS = {
    "min": (lambda *a: np.minimum.reduce(np.broadcast_arrays(*a)) if len(a) > 1 else a[0], None),
    "max": (lambda *a: np.maximum.reduce(np.broadcast_arrays(*a)) if len(a) > 1 else a[0], None),
    "exp": (np.exp, 1),
    "sqrt": (np.sqrt, 1),
    "abs": (np.abs, 1),
}


class ExpressionError(ValueError):
    """Raised for malformed or disallowed expressions."""


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
        return lambda args: np.negative(operand(args))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        func, left, right = _BINARY[type(node.op)], build(node.left), build(node.right)
        return lambda args: func(left(args), right(args))
    # a call names its function unparenthesized and ends without a trailing comma
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and node.func.col_offset == node.col_offset
            and not text[:-1].rstrip().endswith(",")):
        func, arity = _FUNCTIONS[node.func.id]
        if node.keywords or not node.args or arity not in (None, len(node.args)):
            raise ExpressionError(f"{node.func.id} takes {arity or 'one or more'} "
                                  f"positional argument(s): {text!r}")
        operands = [build(arg) for arg in node.args]
        return lambda args: func(*[operand(args) for operand in operands])
    raise ExpressionError(f"not allowed in a formula of {list(names)}: {text!r}")


def compile_expression(text, variables):
    """Compile ``text`` into a vectorized function of one array per name in ``variables``."""
    names = tuple(variables)
    source = " ".join(text.split()).replace("^", "**")
    if not _ALPHABET.fullmatch(source):
        raise ExpressionError(f"unexpected character in {text!r}")
    try:
        body = _closure(ast.parse(source, mode="eval").body, source, names)
    except (SyntaxError, RecursionError) as exc:
        raise ExpressionError(f"cannot read {text!r}: {type(exc).__name__}") from None

    def fn(*args):
        if len(args) != len(names):
            raise TypeError(f"expected {len(names)} arguments {names}, got {len(args)}")
        return np.asarray(body([np.asarray(a, dtype=float) for a in args]), dtype=float)

    return fn
