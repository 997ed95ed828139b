"""The README's examples run as written.

The "Library quick start" block runs as Python.  Every ``graphflow`` line
of the "Command line" block runs through ``main_cli`` in a fresh directory
and exits 0, after the files that the block's ``python -c`` snippets and
heredocs write.  So a flag or a key that leaves the program cannot stay in
the README.
"""

import contextlib
import os
import pathlib
import re
import shlex

from graphflow.cli import main_cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading, language):
    """The first fenced ``language`` block of the section under ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"^```{language}\n(.*?)^```", section, re.M | re.S).group(1)


def test_readme_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(_block("## Library quick start", "python"), {})
    g_t, cost, residual = map(float, capsys.readouterr().out.split())
    assert abs(g_t) < 1e-3 and cost > 0 and residual <= 1e-7


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    block = _block("## Command line", "bash")
    snippets = re.findall(r"^python -c '(.*?)'(?: > (\S+))?$", block, re.M | re.S)
    for code, target in snippets:
        with open(target or os.devnull, "w", encoding="utf-8") as handle:
            with contextlib.redirect_stdout(handle):
                exec(code, {})
    heredocs = re.findall(r"^cat > (\S+) <<'(\w+)'\n(.*?)^\2$", block, re.M | re.S)
    for target, _, text in heredocs:
        pathlib.Path(target).write_text(text, encoding="utf-8")
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines() if line.startswith("graphflow ")]
    assert len(snippets) == 2 and len(heredocs) == 1 and len(commands) == 7
    for argv in commands:
        assert main_cli(argv[1:]) == 0, (argv, capsys.readouterr().err)
