"""The README states the package's contract, and its examples run.

It must name, in backticks, every name in ``pdc_entanglement.__all__``,
every ``pdc-ent`` subcommand with each of its ``--`` options, and every
exception class of ``errors``, and it must keep the section that the
acceptance suite cites.  Its ``python`` blocks run in order in one
namespace, so a trimmed example cannot go stale.
"""

import re
from pathlib import Path

import pdc_entanglement
from pdc_entanglement import cli, errors

README = Path(__file__).resolve().parents[1] / "README.md"
FENCED = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)


def contract_names():
    """Everything the README must name: (kind, name) pairs."""
    names = [("name in __all__", name) for name in pdc_entanglement.__all__]
    for command, parser in cli._build_parser().commands.items():
        names.append(("subcommand", command))
        for action in parser._actions:
            names += [
                (f"{command} option", option)
                for option in action.option_strings
                if option.startswith("--") and option != "--help"
            ]
    names += [
        ("error class", name)
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
        and value.__module__ == errors.__name__
    ]
    return names


def backticked_tokens(text):
    """The identifiers, subcommands and flags written in inline code spans
    of ``text``; fenced blocks are left out."""
    spans = re.findall(r"`([^`]+)`", FENCED.sub("", text))
    return {token for span in spans for token in re.findall(r"-{0,2}[A-Za-z_][\w-]*", span)}


def test_readme_names_the_contract():
    text = README.read_text(encoding="utf-8")
    named = backticked_tokens(text)
    missing = [f"{kind} {name}" for kind, name in contract_names() if name not in named]
    assert not missing, "README.md does not name: " + ", ".join(missing)
    assert re.search(r"^#+ Tests and acceptance suite$", text, re.M)


def test_readme_examples_run():
    blocks = [code for lang, code in FENCED.findall(README.read_text(encoding="utf-8"))
              if lang == "python"]
    assert len(blocks) >= 2  # the quick start and the array example
    namespace = {}
    for code in blocks:
        exec(compile(code, str(README), "exec"), namespace)
