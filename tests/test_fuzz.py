"""Generated CLI invocations end in a result or a documented exit code.

Runs ``cli.main`` in-process on generated expressions (long chains, deep
nesting, long literals, exponents around the limit), caps, points and
malformed J files.  Every run must return 0, 2, 3 or 4 and raise nothing
(a traceback would surface here as an exception), and a pointwise tree
document must come out the same twice.  Expansion cost is not what
these tests probe (the README states how dense expressions scale), so
compound bases only take small exponents; the large ones go on atoms.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from levitype.cli import main

EXITS = {0: "", 2: "error:", 3: "geometry error:", 4: "cap error:"}
FUZZ = settings(derandomize=True, max_examples=120, deadline=2000,
                database=None)

LITERALS = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 9), st.integers(0, 4)).map(
        lambda t: f"{t[0]}/{t[1]}"),
    st.integers(4000, 5000).map(lambda d: "7" * d),
)
NAMES = st.sampled_from(["x1", "y1", "z1", "x2", "y2", "z2", "x3", "w1"])
BIG_EXPONENTS = st.sampled_from(["64", "65", "10000000", "9" * 5000, "1/2"])


def _compound(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda p: f"{p[0]}+{p[1]}"),
        pair.map(lambda p: f"{p[0]}-{p[1]}"),
        pair.map(lambda p: f"{p[0]}*{p[1]}"),
        children.map(lambda c: f"-{c}"),
        children.map(lambda c: f"({c})"),
        st.tuples(st.sampled_from(["Re", "Im", "conj", "abs2"]),
                  children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, st.integers(0, 3)).map(
            lambda t: f"({t[0]})^{t[1]}"),
    )


ATOMS = st.one_of(
    LITERALS, NAMES,
    st.tuples(NAMES, BIG_EXPONENTS).map(lambda t: f"{t[0]}^{t[1]}"),
)
EXPRESSIONS = st.one_of(
    st.recursive(ATOMS, _compound, max_leaves=12),
    # long flat chains and deep nesting
    st.tuples(st.sampled_from(["+", "-", "*"]), ATOMS,
              st.integers(1, 3000)).map(lambda t: t[0].join([t[1]] * t[2])),
    st.tuples(st.integers(0, 1600), ATOMS).map(lambda t: "-" * t[0] + t[1]),
    st.tuples(st.integers(0, 300), ATOMS).map(
        lambda t: "(" * t[0] + t[1] + ")" * t[0]),
    st.tuples(st.integers(0, 100), ATOMS).map(
        lambda t: "abs2(" * t[0] + t[1] + ")" * t[0]),
    st.text(alphabet="xyz12()+-*^/ Re", max_size=30),
)
# phi through the origin with dphi(0) != 0 half of the time
PHIS = st.one_of(EXPRESSIONS, EXPRESSIONS.map(lambda e: f"2*x2+{e}"))

COORD = st.sampled_from(["0", "1", "-1", "1/2", "1/0", "a", "", "3/4"])
POINTS = st.one_of(st.none(),
                   st.lists(COORD, min_size=3, max_size=5).map(",".join))
CAPS = st.one_of(st.none(), st.integers(-3, 10))

ENTRY = st.one_of(st.sampled_from(["0", "1", "-1", "x1", "-x1", "y1"]),
                  st.integers(-1, 1), st.none(), EXPRESSIONS)
J_DOCUMENTS = st.one_of(
    st.integers(), st.text(max_size=5), st.none(),
    st.lists(st.lists(ENTRY, min_size=3, max_size=5), min_size=3,
             max_size=5),
    st.lists(ENTRY, max_size=4),
    st.just([["0", "-1", "0", "0"], ["1", "0", "0", "0"],
             ["0", "-x1", "0", "-1"], ["-x1", "0", "1", "0"]]),
)


def run(argv):
    """(exit code, stdout, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check(argv):
    """Run argv; returns its standard output."""
    code, out, err = run(argv)
    assert code in EXITS, (code, argv)
    assert err.startswith(EXITS[code]) if code else err == "", (err, argv)
    return out


@FUZZ
@given(st.sampled_from(["levi", "classify"]), PHIS, CAPS, POINTS)
def test_pointwise_commands(command, phi, cap, point):
    argv = [command, f"--phi={phi}", "--n", "2", "--format", "tree"]
    if cap is not None:
        argv += ["--cap", str(cap)]
    if point is not None:
        argv += [f"--point={point}"]
    assert check(argv) == check(argv)


@FUZZ
@given(PHIS, st.integers(2, 4), CAPS)
def test_type_search(phi, k_max, cap):
    argv = ["type", f"--phi={phi}", "--n", "2", "--kmax", str(k_max)]
    if cap is not None:
        argv += ["--cap", str(cap)]
    check(argv)


@FUZZ
@given(J_DOCUMENTS)
def test_structure_files(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "J.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        check(["classify", "--phi=2*x2 + abs2(z1)", "--n", "2",
               "--J", path])
