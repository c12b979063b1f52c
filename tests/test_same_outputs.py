"""tools/same_outputs.py: a tree compared with itself shows no difference,
and a copy that prints one digit fewer is caught."""

import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, os.path.join(ROOT, "tools"))
import same_outputs  # noqa: E402  (a script directory, not a package)

SMALL = [
    ["gramians", "--model", "{disc}", "--out", "g"],
    ["select", "--model", "{wide}", "--rank", "2", "--no-collocate", "--out", "sel.csv"],
    ["bruteforce", "--model", "{cont}", "--rank", "2", "--out", "bf.csv"],
]


def test_a_tree_matches_itself():
    assert same_outputs.compare(SRC, SRC, SMALL) is None


def test_one_digit_fewer_is_reported(tmp_path):
    change = tmp_path / "src"
    shutil.copytree(SRC, change, ignore=shutil.ignore_patterns("*.pyc"))
    cli = change / "balsel" / "cli.py"
    text = cli.read_text()
    assert text.count('return f"{x:.17g}"') == 1
    cli.write_text(text.replace('return f"{x:.17g}"', 'return f"{x:.16g}"'))
    diff = same_outputs.compare(SRC, str(change), SMALL)
    assert diff.startswith("balsel gramians --model {disc} --out g: "
                           "stdout differs at line 2:\n  parent: residual_c ")
