"""No module of the library calls ``eval`` or ``exec``.

Mobility and kernel formulas come from run configurations.
:mod:`graphflow.expressions` reads them through a whitelist of syntax-tree
nodes, so text from a configuration never reaches the interpreter; this guard
keeps a later shortcut through ``eval`` or ``exec`` out of the package.
"""

import io
import pathlib
import tokenize

import graphflow

FORBIDDEN = {"eval", "exec"}
MODULES = sorted(pathlib.Path(graphflow.__file__).parent.rglob("*.py"))


def _forbidden_calls(text):
    """Line numbers of calls, plain or as attributes, of a name in FORBIDDEN."""
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(text).readline)
              if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT)]
    return [tok.start[0] for tok, following in zip(tokens, tokens[1:])
            if tok.type == tokenize.NAME and tok.string in FORBIDDEN and following.string == "("]


def test_the_guard_sees_calls_and_not_text():
    assert _forbidden_calls("x = eval('1')\ny = builtins.exec (code)\n") == [1, 2]
    assert _forbidden_calls("np.exp(x)  # eval(x)\nmode = 'eval('\nevaluate(x)\n") == []
    assert {"expressions.py", "config.py", "cli.py"} <= {path.name for path in MODULES}


def test_no_module_calls_eval_or_exec():
    calls = {path.name: _forbidden_calls(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: lines for name, lines in calls.items() if lines} == {}
