"""Guards over the library's source text.

No module of the library calls ``eval`` or ``exec``.  Mobility and kernel
formulas come from run configurations.  :mod:`graphflow.expressions` reads
them through a whitelist of syntax-tree nodes, so text from a configuration
never reaches the interpreter; this guard keeps a later shortcut through
``eval`` or ``exec`` out of the package.

One link calculus.  Outside ``graph.py`` no function reads the link index
arrays ``link_lo`` and ``link_hi`` or the divergence's runs ``hi_order``,
``hi_div``, ``lo_runs`` and ``hi_runs``, so every gather of link ends goes through
``graph.link_ends`` and every divergence through
``graph.nonlocal_divergence``, and no second copy of either drifts back.
The transport solver's sums into its own slots are the only exceptions.

One predicate per kind of number.  Outside ``graph.py`` no boolean
expression tests ``isinstance(..., bool)`` beside a number type, so every
check of a real number or an integer that refuses ``True`` and ``False``
calls ``graph._is_real`` or ``graph._is_integer``, and no second copy of
either drifts back.
"""

import ast
import io
import pathlib
import tokenize

import graphflow

FORBIDDEN = {"eval", "exec"}
MODULES = sorted(pathlib.Path(graphflow.__file__).parent.rglob("*.py"))
LINK_ARRAYS = {"link_lo", "link_hi", "hi_order", "hi_div", "lo_runs", "hi_runs"}
# (module, function) -> the link arrays it reads
ALLOWED = {
    ("transport.py", "_NewtonSystem.__init__"): {"link_lo", "link_hi"},  # the band pattern
    ("transport.py", "_scatter"): {"link_lo", "link_hi"},  # the bincount index of its sums
}
NUMBER_TYPES = {"numbers.Real", "numbers.Integral", "int", "float"}


def _forbidden_calls(text):
    """Line numbers of calls, plain or as attributes, of a name in FORBIDDEN."""
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(text).readline)
              if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT)]
    return [tok.start[0] for tok, following in zip(tokens, tokens[1:])
            if tok.type == tokenize.NAME and tok.string in FORBIDDEN and following.string == "("]


def _link_array_reads(text):
    """(function, array) of every read of a name in LINK_ARRAYS as an
    attribute, the function named by its dotted path of enclosing functions
    and classes ("" at module level)."""
    reads = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr in LINK_ARRAYS:
            reads.append((scope, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(text), "")
    return reads


def _spelled_out_predicates(text):
    """Line numbers of boolean expressions that test ``isinstance(..., bool)``
    beside an ``isinstance`` of a name in NUMBER_TYPES."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.BoolOp):
            types = {ast.unparse(kind) for call in ast.walk(node)
                     if isinstance(call, ast.Call) and ast.unparse(call.func) == "isinstance"
                     for kind in ast.walk(call.args[1])}
            if "bool" in types and types & NUMBER_TYPES:
                lines.add(node.lineno)
    return sorted(lines)


def test_the_guard_sees_calls_and_not_text():
    assert _forbidden_calls("x = eval('1')\ny = builtins.exec (code)\n") == [1, 2]
    assert _forbidden_calls("np.exp(x)  # eval(x)\nmode = 'eval('\nevaluate(x)\n") == []
    assert {"expressions.py", "config.py", "cli.py"} <= {path.name for path in MODULES}


def test_no_module_calls_eval_or_exec():
    calls = {path.name: _forbidden_calls(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: lines for name, lines in calls.items() if lines} == {}


def test_the_link_guard_sees_gathers_and_divergences_and_not_text():
    text = ("def gather(graph, y):\n"
            "    lo = graph.link_lo  # link_hi\n"
            "    return y[:, lo], np.take(y, graph.link_hi, axis=-1)\n"
            "class Solver:\n"
            "    def step(self, graph, j):\n"
            "        return np.bincount(graph.link_hi, weights=j)\n"
            "def calculus(graph, y, j):\n"
            "    '''link_lo'''\n"
            "    return link_ends(graph, y), nonlocal_divergence(graph, j)\n")
    assert _link_array_reads(text) == [("gather", "link_lo"), ("gather", "link_hi"),
                                       ("Solver.step", "link_hi")]


def test_only_the_graph_gathers_link_ends_and_takes_divergences():
    reads = {(path.name, scope, array) for path in MODULES if path.name != "graph.py"
             for scope, array in _link_array_reads(path.read_text(encoding="utf-8"))}
    assert sorted(read for read in reads if read[2] not in ALLOWED.get(read[:2], ())) == []
    assert {read[:2] for read in reads} == set(ALLOWED)  # no stale exception


def test_the_predicate_guard_sees_spelled_out_predicates_and_not_text():
    text = ("ok = isinstance(x, numbers.Real) and not isinstance(x, bool)\n"
            "if (isinstance(n, bool)\n"
            "        or not isinstance(n, (int, float))):\n"
            "    pass\n"
            "flag = isinstance(x, bool)  # numbers.Integral\n"
            "pair = isinstance(x, (list, tuple)) and all(map(_is_real, x))\n"
            "fine = _is_integer(n) and n >= 1\n")
    assert _spelled_out_predicates(text) == [1, 2]


def test_only_the_graph_spells_out_the_number_predicates():
    found = {path.name: _spelled_out_predicates(path.read_text(encoding="utf-8"))
             for path in MODULES}
    # graph.py writes out the two predicates, _is_real and _is_integer
    assert {name: len(lines) for name, lines in found.items() if lines} == {"graph.py": 2}
