"""The output manifest is Tier-1's one pin of printed output: every command of
tests/outputs.py prints what tests/outputs.sha256 records, and the command
list reaches every subcommand, assembly kind and worked example."""

import argparse
from collections import Counter

from finvariant import cli
from finvariant.fassembly import EXAMPLES

import outputs


def _keyed(lines):
    """{(command, occurrence): '<code> <stdout sha> <stderr sha>'}, in order;
    a command listed twice keys its second line by occurrence 1."""
    seen, keyed = Counter(), {}
    for line in lines:
        code, out, err, cmd = line.rstrip("\n").split(" ", 3)
        keyed[cmd, seen[cmd]] = f"{code} {out} {err}"
        seen[cmd] += 1
    return keyed


def test_every_command_prints_its_manifest_line():
    want = _keyed(outputs.MANIFEST.read_text(encoding="utf-8").splitlines())
    got = _keyed(outputs.manifest_lines())
    report = [f"changed: {cmd}" for cmd, n in want
              if (cmd, n) in got and got[cmd, n] != want[cmd, n]]
    report += [f"added: {cmd}" for cmd, n in got if (cmd, n) not in want]
    report += [f"missing: {cmd}" for cmd, n in want if (cmd, n) not in got]
    if not report and list(got) != list(want):
        report = ["the commands are in another order"]
    assert not report, ("tests/outputs.sha256 differs from the outputs (after a deliberate "
                        "change, run python tests/outputs.py):\n" + "\n".join(report))


def test_manifest_commands_reach_every_subcommand_kind_and_example():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    words = [cmd.split() for cmd, _ in outputs.commands()]
    assert set(sub.choices) <= {w[0] for w in words}
    assert set(cli._ASSEMBLERS) <= {w[w.index("--kind") + 1] for w in words if "--kind" in w}
    assert set(EXAMPLES) <= {w[1] for w in words if w[0] == "example"}
