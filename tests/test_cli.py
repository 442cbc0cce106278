import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import helpers
import orbitpoly
from orbitpoly import coxeter, polar
from orbitpoly.catalog import CATALOG_NAMES, fixture_dict, write_fixtures
from orbitpoly.cli import main

REPORT_KEYS = {"meta", "verdict", "criteria", "witnesses", "timings"}


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixtures")
    write_fixtures(directory)
    return directory


@pytest.fixture()
def runner():
    return CliRunner()


def _run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def _report(result):
    return json.loads(result.output)


def _group_file(tmp_path, name):
    """A definition file of a catalog group, or of one of tests/helpers.py's 3-d groups."""
    if name in CATALOG_NAMES:
        data = fixture_dict(name)
    else:
        gens = helpers.NON_REFLECTION_GENERATORS.get(name) or helpers.reflection_generators(name)
        data = {"name": name, "dim": 3, "generators": np.array(gens).tolist()}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return path


def test_theorem2_coxeter_group(runner, fixtures):
    result = _run(runner, ["theorem2", "--input", str(fixtures / "b2.json")])
    assert result.exit_code == 0
    report = _report(result)
    assert REPORT_KEYS <= set(report)
    assert report["verdict"] is True
    assert set(report["criteria"]) == {"sp", "peak_i", "coxeter_ii", "local_cone_iii"}
    assert report["meta"]["seed"] == 42
    assert report["meta"]["tolerance"] == 1e-9
    assert report["meta"]["samples"] is None  # theorem2 takes no --samples


def test_theorem2_rotation_group_with_witnesses(runner, fixtures):
    result = _run(runner, ["theorem2", "--input", str(fixtures / "c4.json")])
    assert result.exit_code == 0
    report = _report(result)
    assert report["verdict"] is False
    assert report["witnesses"]  # failing criteria exhibit witnesses


def test_theorem2_reports_the_pairs_checked(runner, fixtures):
    # A true verdict checks every SP pair; a false one stops at its witness.
    report = _report(_run(runner, ["theorem2", "--input", str(fixtures / "b2.json")]))
    n = report["timings"]["sp_pairs_checked"]
    assert report["criteria"]["sp"]["witness"] == f"no counterexample found ({n} pairs)"
    report = _report(_run(runner, ["theorem2", "--input", str(fixtures / "c4.json")]))
    assert set(report["criteria"]["sp"]["witness"]) == {"u", "v"}
    assert report["timings"]["sp_pairs_checked"] >= 1


def test_theorem2_local_cone_states_its_samples(runner, fixtures):
    # A passing local-cone criterion names how many local samples it tried,
    # as sp and peak_i name their pairs and test points.
    report = _report(_run(runner, ["theorem2", "--input", str(fixtures / "b2.json")]))
    assert report["criteria"]["local_cone_iii"] == {
        "passed": True,
        "witness": f"no counterexample found ({coxeter._N_LOCAL_SAMPLES} local samples)",
    }


def test_malformed_json_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = _run(runner, ["theorem2", "--input", str(bad)])
    assert result.exit_code == 1
    assert "malformed JSON" in result.output


def test_nonorthogonal_generator_diagnostic(runner, tmp_path):
    bad = tmp_path / "shear.json"
    bad.write_text(
        json.dumps(
            {"name": "shear", "dim": 2, "generators": [[[1.0, 0.0], [0.5, 1.0]]]}
        )
    )
    result = _run(runner, ["theorem2", "--input", str(bad)])
    assert result.exit_code == 1
    assert "generator 0" in result.output


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": "x", "generators": [[[1.0]]]}',
        '{"dim": null, "generators": [[[1.0]]]}',
        '{"dim": 1e400, "generators": [[[1.0]]]}',
        '{"dim": 1, "generators": 5}',
        '{"dim": 1, "generators": [5]}',
        '{"dim": 1, "generators": [[5]]}',
        '{"dim": 1, "generators": [[[1.0]]], "tolerance": [1]}',
        # Not read as eps_eq = 1.
        '{"dim": 1, "generators": [[[1.0]]], "tolerance": true}',
        "\xff\xfe not UTF-8",
        # Not an integer: neither truncated to 2 nor read as 1.
        '{"dim": 2.5, "generators": [[[1.0, 0.0], [0.0, 1.0]]]}',
        '{"dim": true, "generators": [[[1.0]]]}',
        '{"dim": "1", "generators": [[[1.0]]]}',
    ],
)
def test_malformed_group_file_exit_code(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text.encode("latin-1"))
    result = CliRunner().invoke(main, ["theorem2", "--input", str(bad)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ") and result.output.count("\n") == 1
    assert "Traceback" not in result.output


def test_dimension_cap(runner, tmp_path):
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps({"name": "big", "dim": 7, "generators": []}))
    result = _run(runner, ["theorem2", "--input", str(bad)])
    assert result.exit_code == 1
    assert "dimension" in result.output


def test_missing_input_flag(runner):
    result = _run(runner, ["orbit"])
    assert result.exit_code == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (["theorem2", "--bogus"], "No such option '--bogus'"),
        (["theorem2", "--seed", "x"], "Invalid value for '--seed'"),
        (["nosuch"], "No such command 'nosuch'"),
        (["polar-verify"], "Missing option '--model'"),
        # An option that belongs to another command.
        (["hull", "--input", "g.json", "--model", "so3_standard"], "No such option '--model'"),
        (["theorem2", "--input", "g.json", "--samples", "5"], "No such option '--samples'"),
        (["polar-verify", "--model", "so3_standard", "--input", "g.json"], "No such option '--input'"),
        (["catalog", "--export-off", "x.off"], "No such option '--export-off'"),
        # Options of the top-level group, and no command at all.
        (["--bogus"], "No such option '--bogus'"),
        ([], "missing command"),
    ],
)
def test_usage_error_exit_code(runner, args, message):
    result = _run(runner, args)
    assert result.exit_code == 1
    assert result.output.startswith(f"error: {message}")
    assert result.output.count("\n") == 1


GROUP_OPTIONS = {"--input", "--seed", "--tol", "--out"}


@pytest.mark.parametrize(
    "command, options",
    [
        ("orbit", GROUP_OPTIONS),
        ("hull", GROUP_OPTIONS | {"--export-off"}),
        ("minkowski", GROUP_OPTIONS | {"--export-off"}),
        ("cone", GROUP_OPTIONS),
        ("voronoi-check", GROUP_OPTIONS | {"--samples"}),
        ("coxeter-check", GROUP_OPTIONS),
        ("sp-check", GROUP_OPTIONS),
        ("theorem2", GROUP_OPTIONS),
        ("polar-verify", {"--model", "--seed", "--tol", "--samples", "--out"}),
        ("catalog", {"--seed", "--tol", "--out"}),
    ],
)
def test_help_lists_only_the_command_options(runner, command, options):
    result = _run(runner, [command, "--help"])
    assert result.exit_code == 0
    listed = set(re.findall(r"^  (--[a-z-]+)", result.output, flags=re.MULTILINE))
    assert listed == options | {"--help"}


def test_orbit_and_hull_commands(runner, fixtures):
    result = _run(runner, ["orbit", "--input", str(fixtures / "b2.json")])
    assert result.exit_code == 0
    report = _report(result)
    assert len(report["data"]["points"]) == 8

    result = _run(runner, ["hull", "--input", str(fixtures / "b2.json")])
    report = _report(result)
    assert result.exit_code == 0
    assert len(report["data"]["vertices"]) == 8
    assert report["data"]["affine_dim"] == 2


def test_minkowski_and_sp_check(runner, fixtures):
    result = _run(runner, ["minkowski", "--input", str(fixtures / "a2.json")])
    assert result.exit_code == 0
    result = _run(runner, ["sp-check", "--input", str(fixtures / "a2.json")])
    assert result.exit_code == 0
    assert _report(result)["verdict"] is True
    result = _run(runner, ["sp-check", "--input", str(fixtures / "c3.json")])
    assert result.exit_code == 0  # a false verdict is still a computed verdict


def _count_hulls(monkeypatch):
    from orbitpoly import cones, polytope

    calls = []
    real = polytope.hull

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(polytope, "hull", counted)
    monkeypatch.setattr(cones, "hull", counted)
    return calls


def test_minkowski_builds_only_the_hull_of_the_sum(runner, tmp_path, monkeypatch):
    # A group without root data takes one hull, of the pairwise sums of the
    # summands' orbit points (their hulls' vertices).
    calls = _count_hulls(monkeypatch)
    result = _run(runner, ["minkowski", "--input", str(_group_file(tmp_path, "chiral_o"))])
    assert result.exit_code == 0
    assert len(_report(result)["data"]["vertices"]) == 96
    assert len(calls) == 1


def test_minkowski_on_root_data_builds_no_hull(runner, tmp_path, monkeypatch):
    # On a reflection group the sum is the orbit hull of u + v', read from
    # root data with no hull call.
    calls = _count_hulls(monkeypatch)
    result = _run(runner, ["minkowski", "--input", str(_group_file(tmp_path, "b3"))])
    assert result.exit_code == 0
    assert len(_report(result)["data"]["vertices"]) == 48
    assert len(calls) == 0


def test_cone_command(runner, fixtures):
    result = _run(runner, ["cone", "--input", str(fixtures / "g2.json")])
    report = _report(result)
    assert result.exit_code == 0
    assert len(report["data"]["halfspace_normals"]) == 2
    assert report["data"]["lineality_dim"] == 0


def test_voronoi_and_coxeter_checks(runner, fixtures):
    result = _run(runner, ["voronoi-check", "--input", str(fixtures / "i2_5.json"), "--samples", "200"])
    assert result.exit_code == 0
    assert _report(result)["verdict"] is True
    assert _report(result)["meta"]["samples"] == 200

    result = _run(runner, ["coxeter-check", "--input", str(fixtures / "i2_5.json")])
    report = _report(result)
    assert report["verdict"] is True
    assert report["criteria"]["reflection_generated"]["n_reflections"] == 5

    result = _run(runner, ["coxeter-check", "--input", str(fixtures / "c3.json")])
    assert _report(result)["verdict"] is False


@pytest.mark.parametrize("name", ["f4", "c3"])
def test_coxeter_check_finds_reflections_once(runner, fixtures, tmp_path, monkeypatch, name):
    # The report's reflections and the root data behind its verdict come
    # from one search, which the loaded group keeps.
    from orbitpoly import group

    path = fixtures / "c3.json"
    if name == "f4":
        gens = helpers.reflection_generators("f4")
        path = tmp_path / "f4.json"
        path.write_text(json.dumps({"name": "f4", "dim": 4, "generators": [g.tolist() for g in gens]}))
    searches = []
    search = group._find_reflections
    monkeypatch.setattr(group, "_find_reflections", lambda G, tol: searches.append(G) or search(G, tol))
    report = _report(_run(runner, ["coxeter-check", "--input", str(path)]))
    assert len(searches) == 1
    assert report["criteria"]["reflection_generated"]["n_reflections"] == (24 if name == "f4" else 0)
    assert report["verdict"] is (name == "f4")


def test_off_export(runner, fixtures, tmp_path):
    off = tmp_path / "out.off"
    result = _run(
        runner,
        ["hull", "--input", str(fixtures / "a3.json"), "--export-off", str(off)],
    )
    assert result.exit_code == 0
    lines = off.read_text().splitlines()
    assert lines[0] == "OFF"
    nv, nf, ne = map(int, lines[1].split())
    assert nv == 24 and ne == 0
    assert len(lines) == 2 + nv + nf


def test_off_export_rejected_for_2d(runner, fixtures, tmp_path):
    result = _run(
        runner,
        ["hull", "--input", str(fixtures / "b2.json"), "--export-off", str(tmp_path / "x.off")],
    )
    assert result.exit_code == 1


def test_off_flag_rejected_elsewhere(runner, fixtures, tmp_path):
    result = _run(
        runner,
        ["theorem2", "--input", str(fixtures / "b2.json"), "--export-off", str(tmp_path / "x.off")],
    )
    assert result.exit_code == 1


def test_catalog_lists_and_writes(runner, tmp_path):
    result = _run(runner, ["catalog"])
    assert result.exit_code == 0
    report = _report(result)
    assert set(report["data"]["groups"]) == {"c3", "c4", "a2", "b2", "g2", "i2_5", "a3", "b3"}
    assert report["data"]["models"] == ["hopf_circle", "so3_standard", "sym3_traceless"]

    out_dir = tmp_path / "fix"
    result = _run(runner, ["catalog", "--out", str(out_dir)])
    assert result.exit_code == 0
    written = _report(result)["data"]["files"]
    assert len(written) == 8
    payload = json.loads((out_dir / "b3.json").read_text())
    assert payload["dim"] == 3
    assert isinstance(payload["generators"][0][0][0], str)


@pytest.mark.parametrize(
    "args, target",
    [
        # A report into a directory that does not exist.
        (["theorem2", "--input", "{fx}/a3.json", "--out", "{tmp}/missing/r.json"], "{tmp}/missing/r.json"),
        # An OFF file into a directory that does not exist.
        (["hull", "--input", "{fx}/a3.json", "--export-off", "{tmp}/missing/h.off"], "{tmp}/missing/h.off"),
        # Fixture files into a path that is a file.
        (["catalog", "--out", "{tmp}/file"], "{tmp}/file"),
    ],
    ids=["report", "off", "catalog"],
)
def test_unwritable_output_exit_code(tmp_path, fixtures, args, target):
    (tmp_path / "file").write_text("")
    fill = {"fx": fixtures, "tmp": tmp_path}
    result = CliRunner().invoke(main, [a.format(**fill) for a in args])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"error: cannot write {target.format(**fill)}: ")
    assert result.output.count("\n") == 1


def test_polar_verify_models(runner):
    result = _run(runner, ["polar-verify", "--model", "sym3_traceless", "--samples", "500"])
    assert result.exit_code == 0
    report = _report(result)
    assert report["verdict"] is True
    assert report["criteria"]["weyl_is_coxeter"] is True
    cohomogeneity = report["criteria"]["cohomogeneity"]
    assert cohomogeneity["passed"] is True
    assert (cohomogeneity["details"]["principal_orbit_dim"], cohomogeneity["details"]["candidate_dim"]) == (3, 2)

    result = _run(runner, ["polar-verify", "--model", "hopf_circle", "--samples", "200"])
    report = _report(result)
    assert report["verdict"] is False
    # The right dimension for a section, but the tangents are not orthogonal to it.
    assert report["criteria"]["cohomogeneity"]["passed"] is True
    assert report["criteria"]["cartan_orthogonality"]["max_violation"] > 1e-2
    assert report["criteria"]["minkowski_dimension_obstruction"]["details"]["sp_impossible"]

    result = _run(runner, ["polar-verify", "--model", "nope"])
    assert result.exit_code == 1


def test_polar_verify_samples_is_unread(runner):
    # --samples is accepted and checked, but no check of the battery reads
    # it: the reports are byte-identical and meta.samples is null.
    outputs = []
    for samples in ("1", "500", "100000"):
        result = _run(runner, ["polar-verify", "--model", "so3_standard", "--samples", samples])
        assert result.exit_code == 0
        outputs.append(result.output)
    assert outputs[0] == outputs[1] == outputs[2]
    report = json.loads(outputs[0])
    assert report["meta"]["samples"] is None
    projection = report["criteria"]["projection_matches_weyl_hull"]
    assert projection["n_samples"] == polar._WEYL_HULL_STARTS
    assert projection["details"]["max_gradient_norm"] <= polar._ASCENT_GRADIENT_CUT
    assert set(projection["details"]) == {
        "hull_vertices", "vertex_realization_error", "max_gradient_norm", "ascent_steps", "rows_at_step_cap"
    }


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize("command", ["polar-verify", "voronoi-check"])
def test_nonpositive_samples_rejected(runner, fixtures, monkeypatch, command, samples):
    from orbitpoly import cli

    # Rejected before any work: neither the battery nor the Voronoi check is reached.
    monkeypatch.setattr(cli, "polar", None)
    monkeypatch.setattr(cli, "voronoi_consistency", None)
    if command == "polar-verify":
        target = ["--model", "sym3_traceless"]
    else:
        target = ["--input", str(fixtures / "a3.json")]
    result = _run(runner, [command, *target, "--samples", str(samples)])
    assert result.exit_code == 1
    assert result.output == f"error: --samples must be at least 1, got {samples}\n"


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
@pytest.mark.parametrize("command", ["theorem2", "hull", "polar-verify", "catalog"])
def test_invalid_tol_rejected(runner, fixtures, monkeypatch, command, tol):
    from orbitpoly import cli

    # Rejected before any file, model or catalog entry is read.
    for attribute in ("group_from_json_dict", "polar", "catalog"):
        monkeypatch.setattr(cli, attribute, None)
    target = {
        "theorem2": ["--input", str(fixtures / "a3.json")],
        "hull": ["--input", str(fixtures / "a3.json")],
        "polar-verify": ["--model", "sym3_traceless"],
        "catalog": [],
    }[command]
    result = _run(runner, [command, *target, "--tol", tol])
    assert result.exit_code == 1
    assert result.output == f"error: --tol must be a finite positive number, got {float(tol)}\n"


def test_internal_inconsistency_exit_code(runner, fixtures, monkeypatch):
    from orbitpoly import cli
    from orbitpoly.errors import InconsistentCriteriaError

    def boom(*args, **kwargs):
        raise InconsistentCriteriaError("criteria disagree (forced)")

    monkeypatch.setattr(cli, "sp_equivalence_report", boom)
    result = _run(runner, ["theorem2", "--input", str(fixtures / "b2.json")])
    assert result.exit_code == 2
    assert "criteria disagree" in result.output


@pytest.mark.parametrize(
    "command, attribute",
    [
        ("hull", "hull"),
        ("hull", "orbit_hull"),
        ("minkowski", "minkowski_sum"),
        ("minkowski", "orbit_hull"),
        ("cone", "orbit_cone"),
        ("voronoi-check", "voronoi_consistency"),
        ("sp-check", "sp_check_pair"),
        ("theorem2", "sp_equivalence_report"),
    ],
)
def test_geometry_error_exit_code(runner, fixtures, tmp_path, monkeypatch, command, attribute):
    from orbitpoly import cli, cones
    from orbitpoly.errors import GeometryError

    def boom(*args, **kwargs):
        raise GeometryError("Qhull failed on 4 points (forced)\nQH6154 second line")

    # Qhull (hull, minkowski_sum) runs only on a group without root data.
    if attribute in ("hull", "minkowski_sum"):
        path = _group_file(tmp_path, "chiral_o")
    else:
        path = fixtures / "b2.json"
    monkeypatch.setattr(cones if attribute == "hull" else cli, attribute, boom)
    result = _run(runner, [command, "--input", str(path)])
    assert result.exit_code == 2
    assert result.output == "error: GeometryError: Qhull failed on 4 points (forced)\n"


def test_report_determinism(runner, fixtures, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _run(runner, ["theorem2", "--input", str(fixtures / "g2.json"), "--out", str(a)])
    _run(runner, ["theorem2", "--input", str(fixtures / "g2.json"), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()

    different = _run(
        runner, ["theorem2", "--input", str(fixtures / "g2.json"), "--seed", "7"]
    )
    assert _report(different)["meta"]["seed"] == 7


def test_tol_flag_propagates(runner, fixtures):
    result = _run(
        runner, ["coxeter-check", "--input", str(fixtures / "a2.json"), "--tol", "1e-7"]
    )
    assert _report(result)["meta"]["tolerance"] == 1e-7


@pytest.mark.parametrize("name, order, n_reflections", [("a3", 24, 6), ("b3", 48, 9)])
def test_tol_flag_sets_the_rank_cut(runner, tmp_path, name, order, n_reflections):
    # Each generator turned by 1e-7 (helpers.turned_generators).  At --tol
    # 1e-6, I - g of each reflection is within 1e-7 of rank one, below the
    # rank cut of 10 x 1e-6 read from the tolerance.
    data = fixture_dict(name)
    data["generators"] = helpers.turned_generators(data["generators"])
    path = tmp_path / f"{name}_turned.json"
    path.write_text(json.dumps(data))
    report = _report(_run(runner, ["coxeter-check", "--input", str(path), "--tol", "1e-6"]))
    assert report["verdict"] is True
    criterion = report["criteria"]["reflection_generated"]
    assert (criterion["group_order"], criterion["n_reflections"]) == (order, n_reflections)


def test_coarse_tol_counts_no_rotoreflection_as_a_reflection(runner, tmp_path):
    # C720 x C2: the rotations about z by 2 pi k / 720 and the mirror z -> -z.
    # At --tol 1e-3 the mirror times a rotation by 2 pi / 720 (~8.7e-3) is a
    # distinct element whose I - g is within the rank cut 1e-2 of rank one;
    # it is no involution, so the mirror stays the only reflection.
    rotation = helpers.rot3z(2 * np.pi / 720).tolist()
    data = {"name": "c720_x_mirror", "dim": 3, "generators": [rotation, np.diag([1.0, 1.0, -1.0]).tolist()]}
    path = tmp_path / "c720_x_mirror.json"
    path.write_text(json.dumps(data))
    report = _report(_run(runner, ["coxeter-check", "--input", str(path), "--tol", "1e-3"]))
    criterion = report["criteria"]["reflection_generated"]
    assert (criterion["group_order"], criterion["n_reflections"]) == (1440, 1)
    assert report["verdict"] is False


@pytest.mark.parametrize("tol", ["1e-10", "1e-11"])
@pytest.mark.parametrize("name, facets", [("a3", 14), ("h3", 62)])
def test_fine_tol_keeps_hull_facets(runner, tmp_path, tol, name, facets):
    # At seed 7 the base vectors lie near a mirror.  The facets are the
    # root-data rows g w_k, one per facet whatever the tolerance, so no facet
    # is split into pieces a fine tolerance keeps apart.
    path = _group_file(tmp_path, name)
    report = _report(_run(runner, ["hull", "--input", str(path), "--seed", "7", "--tol", tol]))
    assert len(report["data"]["facet_normals"]) == facets


_COLD_START = textwrap.dedent(
    """
    import json
    import sys

    import orbitpoly
    import orbitpoly.cli

    def run(args):
        try:
            orbitpoly.cli.main(args)
        except SystemExit as exc:
            return exc.code

    out = sys.argv[1]
    codes = [
        run(["catalog", "--out", out]),
        run(["theorem2", "--input", out + "/a2.json", "--out", out + "/theorem2.json"]),
        run(["polar-verify", "--model", "sym3_traceless", "--samples", "100",
             "--out", out + "/polar.json"]),
    ]
    stats_loaded = "scipy.stats" in sys.modules

    import scipy.stats
    from orbitpoly import polar

    try:
        polar.no_such_name
        missing_raises = False
    except AttributeError:
        missing_raises = True
    print(json.dumps({
        "codes": codes,
        "stats_loaded": stats_loaded,
        "tracer_lookup": polar.special_ortho_group is scipy.stats.special_ortho_group,
        "missing_raises": missing_raises,
    }))
    """
)


def _fresh_python(script, *args):
    """Last stdout line, as JSON, of ``script`` run in a fresh interpreter on this checkout."""
    src = str(Path(orbitpoly.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cold_start_leaves_scipy_stats_unloaded(tmp_path):
    # A fresh interpreter: this test process may already hold scipy.stats.
    result = _fresh_python(_COLD_START, tmp_path)
    assert result["codes"] == [0, 0, 0]
    assert not result["stats_loaded"]
    assert result["tracer_lookup"]
    assert result["missing_raises"]
    assert json.loads((tmp_path / "theorem2.json").read_text())["verdict"] is True
    assert json.loads((tmp_path / "polar.json").read_text())["verdict"] is True


_SCIPY_LOADS = textwrap.dedent(
    """
    import json
    import sys

    import orbitpoly.cli

    out = sys.argv[1]
    report = ["--out", out + "/report.json"]
    group = ["--input", out + "/b3.json", *report]
    commands = [
        ["catalog", "--out", out],
        *([name, *group] for name in
          ("theorem2", "sp-check", "cone", "voronoi-check", "coxeter-check", "orbit")),
        ["polar-verify", "--model", "so3_standard", *report],
        ["minkowski", *group],
        ["hull", *group],
        ["minkowski", "--input", out + "/a3.json", *report],
        ["hull", "--input", out + "/c4.json", *report],
    ]
    loaded = []
    for args in commands:
        try:
            orbitpoly.cli.main(args)
        except SystemExit as exc:
            assert exc.code == 0, (args, exc.code)
        loaded.append([args[0], sorted(m for m in ("scipy.optimize", "scipy.spatial")
                                       if m in sys.modules)])
    print(json.dumps(loaded))
    """
)


def test_scipy_loads_only_on_the_commands_that_call_it(tmp_path):
    # Reflection-group verdicts, orbit hulls and Minkowski sums are read
    # from root data: no Qhull or k-d tree, so their processes never import
    # scipy.spatial.  hull on a rotation group calls Qhull and the k-d tree.
    # No command solves an LP, so none imports scipy.optimize.
    loaded = _fresh_python(_SCIPY_LOADS, tmp_path)
    assert loaded == [
        ["catalog", []],
        *([name, []] for name in
          ("theorem2", "sp-check", "cone", "voronoi-check", "coxeter-check", "orbit")),
        ["polar-verify", []],
        ["minkowski", []],
        ["hull", []],
        ["minkowski", []],
        ["hull", ["scipy.spatial"]],
    ]
