"""`--format tree` documents of a fixed set of invocations, byte for byte.

The expected outputs live in tests/golden_tree.json, keyed by the argv
joined with spaces.  After a change that is meant to alter an answer,
regenerate them with

    PYTHONPATH=src python tests/test_golden_tree.py

and review the diff of the JSON file.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from levitype.cli import CATALOG, main

GOLDEN = Path(__file__).resolve().parent / "golden_tree.json"

QUARTIC = ("--phi", "2*x2 + abs2(z1)^2", "--n", "2")
QUADRIC = ("--phi", "2*x3 + abs2(z1) - abs2(z2)", "--n", "3")


def _catalog_argv():
    out = []
    for _, n, phi, k_max, cap in CATALOG:
        surface = ("--phi", phi, "--n", str(n))
        search = ("--kmax", str(k_max), "--cap", str(cap))
        out += [("levi",) + surface, ("classify",) + surface,
                ("type",) + surface + search, ("validate",) + surface + search]
    return out


ARGV = _catalog_argv() + [
    ("levi",) + QUADRIC + ("--J-perturb", "1"),
    ("classify",) + QUADRIC + ("--J-perturb", "1"),
    ("type",) + QUADRIC + ("--J-perturb", "1", "--kmax", "4"),
    ("validate",) + QUADRIC + ("--J-perturb", "1", "--kmax", "4"),
    ("validate",) + QUARTIC + ("--J-perturb", "2"),
    ("validate", "--phi", "2*x2 + abs2(z1)", "--n", "2", "--J-perturb", "3",
     "--kmax", "4"),
    ("validate", "--phi", "2*x2 + Re(z1^2)", "--n", "2", "--J-perturb", "5",
     "--kmax", "4"),
    ("validate", "--phi", "2*x2 + abs2(z1)^3", "--n", "2", "--J-perturb", "2",
     "--kmax", "8"),
    ("validate", "--phi", "2*x3 + abs2(z1)^2 + abs2(z2)", "--n", "3",
     "--J-perturb", "1", "--kmax", "6"),
    ("validate", "--phi", "2*x3 + abs2(z1)^2", "--n", "3", "--J-perturb", "4",
     "--kmax", "6"),
    # commutation checked deep: order 11 under J_std, order 7 under a
    # non-standard J
    ("validate", "--phi", "2*x2 + Re(z1^2)", "--n", "2", "--kmax", "12",
     "--cap", "14"),
    ("validate", "--phi", "2*x2 + abs2(z1)^4", "--n", "2", "--kmax", "10",
     "--J-perturb", "1"),
    ("type",) + QUARTIC + ("--strategy", "grid:1/2"),
    ("validate",) + QUARTIC + ("--strategy", "grid:1/2"),
    ("scan",) + QUARTIC + ("--point", "0,0,0,0", "--point", "1/2,0,-1/32,0",
                           "--point", "1,0,-1/2,0"),
    ("scan", "--phi", "2*x2 + abs2(z1)", "--n", "2", "--kmax", "4",
     "--point", "0,0,0,0", "--point", "1,0,-1/2,0"),
    ("catalog",),
]


def tree_output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv) + ["--format", "tree"])
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_invocation(golden):
    assert sorted(golden) == sorted(" ".join(a) for a in ARGV)


@pytest.mark.parametrize("argv", ARGV, ids=" ".join)
def test_tree_output_matches_golden(argv, golden):
    code, out = tree_output(argv)
    assert code == 0
    assert out == golden[" ".join(argv)]


if __name__ == "__main__":
    docs = {}
    for argv in ARGV:
        code, out = tree_output(argv)
        if code != 0:
            sys.exit(f"exit {code}: {' '.join(argv)}")
        docs[" ".join(argv)] = out
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n")
