"""The README's examples run as written."""
import re
import shlex
from pathlib import Path

from rcsw import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _fences() -> list[tuple[str, str]]:
    """(language, body) of every fenced block in the README."""
    return re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(),
                      flags=re.M | re.S)


def _command_lines() -> list[str]:
    return [line for lang, body in _fences() if not lang
            for line in body.splitlines() if line.startswith("rcsw ")]


def test_readme_examples_run():
    # every python block, in order, in one namespace
    blocks = [body for lang, body in _fences() if lang == "python"]
    assert blocks
    namespace: dict = {}
    for body in blocks:
        exec(compile(body, str(README), "exec"), namespace)
    # every command line parses and validates without running
    argvs = [shlex.split(line)[1:] for line in _command_lines()]
    assert {argv[0] for argv in argvs} == set(cli._COMMANDS)
    parser = cli.build_parser()
    for argv in argvs:
        cli.config_from_args(parser.parse_args(argv))


def test_readme_cost_example_slices_every_row(tmp_path, capsys):
    # the README's `rcsw cost` line, at one instance per point
    line, = [line for line in _command_lines() if line.startswith("rcsw cost ")]
    argv = shlex.split(line)[1:]
    argv[argv.index("--instances") + 1] = "1"
    argv[argv.index("--out") + 1] = str(tmp_path)
    assert cli.main(argv) == 0
    assert "slicing skipped" not in capsys.readouterr().err
    rows = (tmp_path / "cost_rows.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(row.split(",")[6] for row in rows)  # log2_flops_sliced
