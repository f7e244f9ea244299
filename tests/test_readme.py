"""The README's examples run as written."""
import re
import shlex
from pathlib import Path

from rcsw import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run():
    fences = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    # every python block, in order, in one namespace
    blocks = [body for lang, body in fences if lang == "python"]
    assert blocks
    namespace: dict = {}
    for body in blocks:
        exec(compile(body, str(README), "exec"), namespace)
    # every command line parses and validates without running
    lines = [line for lang, body in fences if not lang
             for line in body.splitlines() if line.startswith("rcsw ")]
    argvs = [shlex.split(line)[1:] for line in lines]
    assert {argv[0] for argv in argvs} == set(cli._COMMANDS)
    parser = cli.build_parser()
    for argv in argvs:
        cli.config_from_args(parser.parse_args(argv))
