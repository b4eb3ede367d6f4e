"""Command line front end: spec building, documents, exit codes."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import levitype
from levitype import (CapError, Hypersurface, Q, higher_levi, parse_expression,
                      perturbed_structure)
from levitype.cli import CATALOG, ProblemSpec, main, run_command

ORIGIN = (Q(0), Q(0), Q(0), Q(0))
SPHERE_PHI = "2*x2 + abs2(z1)"
QUARTIC_PHI = "2*x2 + abs2(z1)^2"

# an x1-dependent structure with J(0) = J_std and J^2 = -I exactly
J_ROWS = [["0", "-1", "0", "0"],
          ["1", "0", "0", "0"],
          ["0", "-x1", "0", "-1"],
          ["-x1", "0", "1", "0"]]


def spec_for(command, phi=QUARTIC_PHI, n=2, j="standard", point=ORIGIN,
             cap=10, k_max=6, strategy="exact_staged", points=()):
    return ProblemSpec(n, phi, j, point, cap, k_max, strategy, command,
                       points)


class TestProblemSpec:
    def test_search_commands_enforce_cap(self):
        for command in ("type", "scan", "validate"):
            with pytest.raises(CapError):
                spec_for(command, cap=7, k_max=6)

    def test_pointwise_commands_ignore_k_max(self):
        spec_for("classify", cap=2, k_max=6)
        spec_for("levi", cap=2, k_max=6)


class TestRunCommand:
    def test_document_envelope(self):
        doc = run_command(spec_for("classify", phi=SPHERE_PHI))
        assert doc["tool"] == "levitype"
        assert doc["version"] == "0.1.0" == levitype.__version__
        assert doc["command"] == "classify"
        p = doc["parameters"]
        assert p["n"] == 2 and p["phi"] == SPHERE_PHI
        assert p["J"] == "standard"
        assert p["point"] == ["0", "0", "0", "0"]
        assert p["cap"] == 10 and p["k_max"] == 6
        assert p["strategy"] == "exact_staged"

    def test_classify_sphere(self):
        r = run_command(spec_for("classify", phi=SPHERE_PHI))["result"]
        assert r == {"label": "strictly_pseudoconvex", "positive": 1,
                     "negative": 0, "zero": 0}

    def test_levi_sphere(self):
        r = run_command(spec_for("levi", phi=SPHERE_PHI))["result"]
        assert r["basis_at_zero"] == [["1", "0", "0", "0"]]
        assert r["polar_matrix"] == [[["4", "0"]]]
        assert r["signature"] == {"positive": 1, "negative": 0, "zero": 0}
        assert r["classification"] == "strictly_pseudoconvex"

    def test_levi_with_matrix_structure(self):
        spec = spec_for("levi", phi=SPHERE_PHI, j=("matrix", J_ROWS))
        doc = run_command(spec)
        assert doc["result"]["classification"] == "strictly_pseudoconvex"
        assert doc["parameters"]["J"] == {"matrix": J_ROWS}

    def test_structure_parses_each_distinct_entry_once(self, monkeypatch):
        calls = []

        def counting(text, *args, **kwargs):
            calls.append(text)
            return parse_expression(text, *args, **kwargs)

        monkeypatch.setattr(levitype.cli, "parse_expression", counting)
        j = levitype.cli.build_problem(
            spec_for("levi", phi=SPHERE_PHI, j=("matrix", J_ROWS)))[1]
        seen = list(dict.fromkeys(e for row in J_ROWS for e in row))
        assert calls == [SPHERE_PHI] + seen
        assert [[str(e) for e in row] for row in j.entries] == [
            [str(parse_expression(e, 2, cap=10)) for e in row]
            for row in J_ROWS]

    def test_structure_reports_the_first_bad_entry(self):
        rows = [list(row) for row in J_ROWS]
        rows[1][3], rows[2][0] = "(x1", "x1^y1"
        with pytest.raises(levitype.ParseError) as err:
            run_command(spec_for("levi", phi=SPHERE_PHI, j=("matrix", rows)))
        assert str(err.value) == "expected ')' (at position 3)"

    def test_levi_at_point_is_recentered(self):
        # agrees with scan, which certifies type 2 at this point
        point = (Q(1, 2), Q(0), Q(-1, 32), Q(0))
        r = run_command(spec_for("levi", point=point))["result"]
        assert r["signature"] == {"positive": 1, "negative": 0, "zero": 0}
        assert r["classification"] == "strictly_pseudoconvex"

    def test_type_quartic(self):
        r = run_command(spec_for("type"))["result"]
        assert r["point"] == ["0", "0", "0", "0"]
        assert r["lower_bound"] == 4
        assert r["certified_exact"] is True
        assert r["cap_reached"] is False
        assert r["obstruction"] == ("inconsistent affine system at stage 3 "
                                    "(constraints L^(i,j), i+j=2)")
        comps = [c["expression"] for c in r["witness_disk"]["components"]]
        assert comps == ["x1", "y1", "0", "0"]
        jet = r["witness_field_jet"]
        assert jet["order"] == 2
        assert jet["entries"]["0,0"] == ["1", "0", "0", "0"]
        assert all(v == ["0", "0", "0", "0"]
                   for k, v in jet["entries"].items() if k != "0,0")

    def test_type_directions_strategy_gives_uncertified_bound(self):
        dirs = [(Q(1), Q(0), Q(0), Q(0)), (Q(0), Q(1), Q(0), Q(0))]
        r = run_command(spec_for("type", strategy=("directions", dirs)))
        assert r["result"]["lower_bound"] == 4
        assert r["result"]["certified_exact"] is False
        assert r["parameters"]["strategy"] == "dirs:1,0,0,0;0,1,0,0"

    def test_scan_quartic_semicontinuity(self):
        points = (ORIGIN,
                  (Q(1, 2), Q(0), Q(-1, 32), Q(0)),
                  (Q(1), Q(0), Q(-1, 2), Q(0)))
        doc = run_command(spec_for("scan", point=points[0], points=points))
        reps = doc["result"]["reports"]
        assert [r["lower_bound"] for r in reps] == [4, 2, 2]
        assert reps[1]["point"] == ["1/2", "0", "-1/32", "0"]
        assert doc["parameters"]["point"] == [
            ["0", "0", "0", "0"],
            ["1/2", "0", "-1/32", "0"],
            ["1", "0", "-1/2", "0"],
        ]

    def test_validate_harmonic(self):
        spec = spec_for("validate", phi="2*x2 + Re(z1^2)", cap=12, k_max=8)
        r = run_command(spec)["result"]
        assert r["report"]["lower_bound"] == 8
        assert r["report"]["cap_reached"] is True
        assert r["validation"] == {
            "k": 6,
            "contact_order": 8,
            "realized_order": 6,
            "commutation_order": 7,
            "levi_slots_checked": 21,
            "derivative_matches": 7,
        }

    def test_validate_at_point_reports_the_projected_point(self):
        # validate recenters as type does, and reports the same point
        point = (Q(1, 2), Q(0), Q(-1, 32), Q(0))
        val = run_command(spec_for("validate", point=point))["result"]
        typ = run_command(spec_for("type", point=point))["result"]
        assert val["report"]["point"] == ["1/2", "0", "-1/32", "0"]
        assert val["report"] == typ

    def test_catalog(self):
        doc = run_command(ProblemSpec(0, "", "standard", (), 0, 0,
                                      "exact_staged", "catalog"))
        rows = [(e["name"], e["lower_bound"], e["certified_exact"],
                 e["cap_reached"], e["classification"])
                for e in doc["result"]["entries"]]
        assert rows == [
            ("sphere", 2, True, False, "strictly_pseudoconvex"),
            ("circular quartic", 4, True, False, "levi_flat"),
            ("circular sextic", 6, True, False, "levi_flat"),
            ("harmonic quartic", 8, False, True, "levi_flat"),
            ("flat hyperplane", 4, False, True, "levi_flat"),
            ("indefinite quadric", 4, False, True, "indefinite"),
        ]
        assert [e["phi"] for e in doc["result"]["entries"]] == \
            [row[2] for row in CATALOG]

    def test_unknown_command(self):
        with pytest.raises(ValueError):
            run_command(spec_for("summarize"))


class TestMain:
    def classify_args(self, fmt="text"):
        return ["classify", "--phi", SPHERE_PHI, "--n", "2",
                "--format", fmt]

    def test_classify_text(self, capsys):
        assert main(self.classify_args()) == 0
        out = capsys.readouterr().out
        assert "classification: strictly_pseudoconvex" in out
        assert "signature: +1 -0 0:0" in out

    def test_tree_output_is_the_document(self, capsys):
        assert main(["type", "--phi", QUARTIC_PHI, "--n", "2",
                     "--format", "tree"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == run_command(spec_for("type"))

    def test_tree_output_is_deterministic(self, capsys):
        main(self.classify_args("tree"))
        first = capsys.readouterr().out
        main(self.classify_args("tree"))
        assert capsys.readouterr().out == first

    def test_perturbed_structure_flag(self, capsys):
        assert main(["classify", "--phi", SPHERE_PHI, "--n", "2",
                     "--J-perturb", "3"]) == 0
        assert "strictly_pseudoconvex" in capsys.readouterr().out

    def test_matrix_structure_file(self, capsys, tmp_path):
        path = tmp_path / "J.json"
        path.write_text(json.dumps(J_ROWS))
        assert main(["classify", "--phi", SPHERE_PHI, "--n", "2",
                     "--J", str(path)]) == 0
        assert "strictly_pseudoconvex" in capsys.readouterr().out

    def test_scan_text(self, capsys):
        assert main(["scan", "--phi", QUARTIC_PHI, "--n", "2",
                     "--point", "0,0,0,0", "--point", "1/2,0,-1/32,0",
                     "--point", "1,0,-1/2,0"]) == 0
        out = capsys.readouterr().out
        assert "point: (0, 0, 0, 0)" in out
        assert "point: (1/2, 0, -1/32, 0)" in out
        assert out.count("lower_bound: ") == 3

    def test_validate_text(self, capsys):
        assert main(["validate", "--phi", "2*x2 + Re(z1^2)", "--n", "2",
                     "--kmax", "8"]) == 0
        out = capsys.readouterr().out
        assert "validated: k=6 contact=8 commutation=7" in out
        assert "derivatives=ok" in out

    def test_catalog_text(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "sphere: n=2 phi=2*x2 + abs2(z1) -> type >= 2 (exact); " \
               "strictly_pseudoconvex" in out
        assert "harmonic quartic" in out and "cap k_max=8" in out

    def test_directions_file(self, capsys, tmp_path):
        path = tmp_path / "dirs.txt"
        path.write_text("1,0,0,0\n# tangential only\n0,1,0,0\n")
        assert main(["type", "--phi", QUARTIC_PHI, "--n", "2",
                     "--strategy", f"dirs:{path}", "--format", "tree"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["lower_bound"] == 4
        assert doc["result"]["certified_exact"] is False

    def test_grid_strategy(self, capsys):
        assert main(["type", "--phi", QUARTIC_PHI, "--n", "2",
                     "--strategy", "grid:1/2", "--format", "tree"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["lower_bound"] == 4
        assert doc["result"]["certified_exact"] is False
        assert doc["parameters"]["strategy"] == "grid:1/2"

    def test_grid_step_takes_one_slash(self, capsys):
        # a step is read as a point's coordinate: p or p/q, nothing after q
        for step in ("1/2/3", "1/2/"):
            assert main(["type", "--phi", QUARTIC_PHI, "--n", "2",
                         "--strategy", f"grid:{step}"]) == 2
            assert f"bad grid step {step!r}" in capsys.readouterr().err
        assert main(["type", "--phi", QUARTIC_PHI, "--n", "2",
                     "--point", "1/2/3,0,0,0"]) == 2
        assert "bad rational coordinate '1/2/3'" in capsys.readouterr().err

    def test_usage_errors_exit_2(self, capsys):
        bad = (
            ["classify", "--phi", "x1 $", "--n", "2"],
            ["classify", "--phi", SPHERE_PHI, "--n", "1"],
            ["scan", "--phi", QUARTIC_PHI, "--n", "2"],
            ["type", "--phi", QUARTIC_PHI, "--n", "2", "--point", "1,2,3"],
            ["type", "--phi", QUARTIC_PHI, "--n", "2", "--point", "a,0,0,0"],
            ["type", "--phi", QUARTIC_PHI, "--n", "2",
             "--strategy", "anneal"],
            ["type", "--phi", QUARTIC_PHI, "--n", "2",
             "--strategy", "grid:0"],
            # a step is a rational read as a point's coordinate is
            ["type", "--phi", QUARTIC_PHI, "--n", "2",
             "--strategy", "grid:1/2/3"],
            ["type", "--phi", QUARTIC_PHI, "--n", "2",
             "--strategy", "grid:1/2/"],
            ["type", "--phi", QUARTIC_PHI, "--n", "2",
             "--strategy", "grid:1/0"],
            ["type", "--phi", QUARTIC_PHI, "--n", "2",
             "--point", "1/2/3,0,0,0"],
            ["type", "--phi", QUARTIC_PHI, "--n", "2",
             "--strategy", "dirs:/no/such/file"],
            ["type", "--phi", QUARTIC_PHI, "--n", "2", "--kmax", "1"],
            ["type", "--phi", QUARTIC_PHI, "--n", "2",
             "--strategy", "grid:2"],
            # 4,002 staged searches: refused before the first one
            ["type", "--phi", QUARTIC_PHI, "--n", "2",
             "--strategy", "grid:1/2000"],
            # degrees above parser.MAX_DEGREE: refused before any expansion
            ["levi", "--phi", "2*x2+x1^10000000", "--n", "2"],
            ["levi", "--phi", "(x1+1)^3000", "--n", "2"],
            # numbers above Python's 4,300-digit limit on int()
            ["levi", "--phi", "2*x2+x1^" + "9" * 5000, "--n", "2"],
            ["levi", "--phi", "2*x2+" + "1" * 5000 + "*x1^2", "--n", "2"],
            # nesting above parser.MAX_NESTING
            ["levi", "--phi", "2*x2+" + "(" * 300 + "x1^2" + ")" * 300,
             "--n", "2"],
            # long chains parse flat and reach the degree check
            ["levi", "--phi", "2*x2+" + "-" * 1500 + "x1^65", "--n", "2"],
            ["levi", "--phi", "2*x2+x1^2" + "+x1^2" * 3000 + "+x1^65",
             "--n", "2"],
            ["levi", "--phi", "2*x2+" + "*".join(["x1"] * 3000),
             "--n", "2"],
            ["levi", "--phi", SPHERE_PHI, "--n", "2", "--cap", "-1"],
        )
        for argv in bad:
            assert main(argv) == 2, argv
            assert "error:" in capsys.readouterr().err

    def test_usage_errors_with_files_exit_2(self, capsys, tmp_path):
        not_json = tmp_path / "J.txt"
        not_json.write_text("not json")
        assert main(["classify", "--phi", SPHERE_PHI, "--n", "2",
                     "--J", str(not_json)]) == 2
        wrong_shape = tmp_path / "J3.json"
        wrong_shape.write_text(json.dumps(J_ROWS[:3]))
        assert main(["classify", "--phi", SPHERE_PHI, "--n", "2",
                     "--J", str(wrong_shape)]) == 2
        for rows in (5, [[0, -1, 0, 0], [1, 0, 0, 0],
                         [0, 0, 0, -1], [0, 0, 1, 0]]):
            not_strings = tmp_path / "J5.json"
            not_strings.write_text(json.dumps(rows))
            assert main(["classify", "--phi", SPHERE_PHI, "--n", "2",
                         "--J", str(not_strings)]) == 2
            assert "error:" in capsys.readouterr().err
        empty_dirs = tmp_path / "dirs.txt"
        empty_dirs.write_text("# nothing here\n")
        assert main(["type", "--phi", QUARTIC_PHI, "--n", "2",
                     "--strategy", f"dirs:{empty_dirs}"]) == 2
        capsys.readouterr()

    def test_geometry_errors_exit_3(self, capsys, tmp_path):
        assert main(["classify", "--phi", "abs2(z1)", "--n", "2"]) == 3
        assert "geometry error:" in capsys.readouterr().err
        identity = [["1" if i == j else "0" for j in range(4)]
                    for i in range(4)]
        path = tmp_path / "J.json"
        path.write_text(json.dumps(identity))
        assert main(["classify", "--phi", SPHERE_PHI, "--n", "2",
                     "--J", str(path)]) == 3
        capsys.readouterr()

    def test_cap_overflow_exits_4(self, capsys):
        assert main(["type", "--phi", QUARTIC_PHI, "--n", "2",
                     "--cap", "5", "--kmax", "6"]) == 4
        assert "cap error:" in capsys.readouterr().err


def run_levitype(*argv):
    """``python -m levitype argv`` in a subprocess with a 20 s timeout."""
    src = str(Path(levitype.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "levitype", *argv],
                          capture_output=True, text=True, env=env, timeout=20)


def test_module_entry_point():
    proc = run_levitype("catalog")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("levitype")


def test_far_off_surface_point_ends_quickly():
    # the gradient line from this point meets the surface at no rational t;
    # finding that out must take bounded work and end in a geometry error
    proc = run_levitype("scan", "--phi", QUARTIC_PHI, "--n", "2",
                        "--point", "1000000007,0,0,0")
    assert proc.returncode == 3
    assert proc.stderr.startswith("geometry error:")
    assert "Traceback" not in proc.stderr


def test_high_cap_perturbed_classify_ends_quickly():
    # the Levi form reads the 2-jets only, whatever the cap
    proc = run_levitype("classify", "--phi", QUARTIC_PHI, "--n", "2",
                        "--J-perturb", "3", "--cap", "40")
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr


def test_queries_free_their_tables_without_the_cyclic_collector():
    # word tables, compositions and transport states hold no reference
    # cycle, so memory does not wait for a collection to be returned
    m = Hypersurface(2, parse_expression(QUARTIC_PHI, 2, cap=6))
    j = perturbed_structure(2, 6, 3)
    jet = [(Q(1), Q(-1, 2), Q(0), Q(2)), (Q(0), Q(1), Q(1, 3), Q(0)),
           (Q(2), Q(0), Q(-1), Q(1))]
    gc.collect()
    gc.disable()
    try:
        run_command(spec_for("validate", j=("matrix", J_ROWS)))
        higher_levi(m, j, jet, 1, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()
