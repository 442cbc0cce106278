"""Command-line front end: parse group files, run verdicts, emit JSON reports.

Every report is a JSON object with top-level keys
``{meta, verdict, criteria, witnesses, timings}`` (data-producing commands
add a ``data`` key).  Reports are deterministic: identical configuration,
including the seed, yields byte-identical output, so ``timings`` carries
work counters rather than wall-clock times.

Exit codes: 0 verdict computed (regardless of true/false), 1 input error,
2 internal inconsistency (any orbitpoly error raised after the input has
loaded, reported as a one-line ``error:`` message).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import __version__, catalog, polar
from .cones import orbit_cone, voronoi_consistency
from .coxeter import (
    _jsonable,
    group_reflections,
    is_reflection_generated,
    sp_check_pair,
    sp_equivalence_report,
)
from .errors import InputFormatError, OrbitPolyError
from .group import find_regular, group_from_json_dict, orbit
from .numerics import Tolerance
from .polytope import MAX_AMBIENT_DIM, export_off, hull, minkowski_sum


def _fail(message: str, code: int = 1):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_group(input_path, tol_flag):
    if input_path is None:
        _fail("this command requires --input PATH (a group definition JSON file)")
    try:
        raw = Path(input_path).read_text()
    except OSError as exc:
        _fail(f"cannot read {input_path}: {exc}")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        _fail(f"malformed JSON in {input_path}: {exc}")
    if isinstance(data, dict) and int(data.get("dim", 0)) > MAX_AMBIENT_DIM:
        _fail(f"dimension {data.get('dim')} exceeds the supported maximum of {MAX_AMBIENT_DIM}")
    tol = Tolerance(eps_eq=tol_flag) if tol_flag is not None else None
    try:
        group, effective_tol = group_from_json_dict(data, tol)
    except (InputFormatError, OrbitPolyError, ValueError) as exc:
        _fail(f"{input_path}: {exc}")
    return group, effective_tol


def _meta(command, *, name, seed, tol, samples):
    return {
        "tool": "orbitpoly",
        "version": __version__,
        "command": command,
        "group": name,
        "seed": seed,
        "tolerance": tol.eps_eq,
        "samples": samples,
    }


def _emit(report: dict, out):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is not None:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _finish(report: dict, out, code: int = 0):
    _emit(report, out)
    sys.exit(code)


def _check_tol(ctx, param, value):
    """Reject a --tol that Tolerance refuses while parsing, before any input is read."""
    if value is not None:
        try:
            Tolerance(eps_eq=value)
        except ValueError:
            _fail(f"--tol must be a finite positive number, got {value}")
    return value


def common_options(f):
    f = click.option("--input", "input_path", type=click.Path(), default=None,
                     help="Group definition JSON file.")(f)
    f = click.option("--model", "model_name", default=None,
                     help="Built-in compact-group model name.")(f)
    f = click.option("--seed", default=42, show_default=True, type=int)(f)
    f = click.option("--tol", "tol_flag", default=None, type=float, callback=_check_tol,
                     help="Coordinate equality tolerance (default 1e-9).")(f)
    f = click.option("--samples", default=1000, show_default=True, type=int)(f)
    f = click.option("--out", "out_path", type=click.Path(), default=None,
                     help="Write the JSON report here instead of stdout.")(f)
    f = click.option("--export-off", "off_path", type=click.Path(), default=None,
                     help="Write an OFF file of the computed 3-d hull.")(f)
    return f


def _effective_tol(tol_flag):
    return Tolerance(eps_eq=tol_flag) if tol_flag is not None else Tolerance()


def _reject_off(off_path):
    if off_path is not None:
        _fail("--export-off is only supported by the hull and minkowski commands")


def _require_samples(samples):
    if samples < 1:
        _fail(f"--samples must be at least 1, got {samples}")


class _Main(click.Group):
    """Command group that turns orbitpoly errors into exit code 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except OrbitPolyError as exc:
            # Input errors already exited with code 1 in _load_group.
            lines = str(exc).splitlines()
            _fail(f"{type(exc).__name__}: {lines[0] if lines else ''}", code=2)


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main():
    """Orbit polytopes and the Minkowski semigroup property of their hulls."""


@main.command("orbit")
@common_options
def cmd_orbit(input_path, model_name, seed, tol_flag, samples, out_path, off_path):
    """Orbit of a seeded regular vector under a group from --input."""
    _reject_off(off_path)
    group, tol = _load_group(input_path, tol_flag)
    v = find_regular(group, seed, tol)
    orb = orbit(group, v, tol)
    report = {
        "meta": _meta("orbit", name=group.name, seed=seed, tol=tol, samples=samples),
        "verdict": True,
        "criteria": {},
        "witnesses": {},
        "timings": {"group_order": group.order, "orbit_points": len(orb)},
        "data": {
            "base": v.tolist(),
            "points": orb.points.tolist(),
            "witness_elements": list(orb.point_to_element),
        },
    }
    _finish(report, out_path)


@main.command("hull")
@common_options
def cmd_hull(input_path, model_name, seed, tol_flag, samples, out_path, off_path):
    """Convex hull of the orbit of a seeded regular vector."""
    group, tol = _load_group(input_path, tol_flag)
    v = find_regular(group, seed, tol)
    poly = hull(orbit(group, v, tol).points, tol)
    data = {
        "base": v.tolist(),
        "vertices": poly.vertices.tolist(),
        "facet_normals": poly.facet_normals.tolist(),
        "facet_offsets": poly.facet_offsets.tolist(),
        "affine_dim": poly.affine_dim,
    }
    if off_path is not None:
        if poly.ambient_dim != 3 or poly.affine_dim != 3:
            _fail("--export-off needs a full-dimensional hull in R^3")
        Path(off_path).write_text(export_off(poly, tol))
        data["off_file"] = str(off_path)
    report = {
        "meta": _meta("hull", name=group.name, seed=seed, tol=tol, samples=samples),
        "verdict": True,
        "criteria": {},
        "witnesses": {},
        "timings": {"group_order": group.order, "hull_vertices": poly.n_vertices},
        "data": data,
    }
    _finish(report, out_path)


@main.command("minkowski")
@common_options
def cmd_minkowski(input_path, model_name, seed, tol_flag, samples, out_path, off_path):
    """Minkowski sum of two seeded orbit hulls."""
    group, tol = _load_group(input_path, tol_flag)
    u = find_regular(group, seed, tol)
    v = find_regular(group, seed + 1, tol)
    total = minkowski_sum(
        hull(orbit(group, u, tol).points, tol), hull(orbit(group, v, tol).points, tol), tol
    )
    data = {
        "u": u.tolist(),
        "v": v.tolist(),
        "vertices": total.vertices.tolist(),
        "affine_dim": total.affine_dim,
    }
    if off_path is not None:
        if total.ambient_dim != 3 or total.affine_dim != 3:
            _fail("--export-off needs a full-dimensional hull in R^3")
        Path(off_path).write_text(export_off(total, tol))
        data["off_file"] = str(off_path)
    report = {
        "meta": _meta("minkowski", name=group.name, seed=seed, tol=tol, samples=samples),
        "verdict": True,
        "criteria": {},
        "witnesses": {},
        "timings": {"group_order": group.order, "sum_vertices": total.n_vertices},
        "data": data,
    }
    _finish(report, out_path)


@main.command("cone")
@common_options
def cmd_cone(input_path, model_name, seed, tol_flag, samples, out_path, off_path):
    """Orbit cone (irredundant halfspaces and extreme rays) of a seeded regular vector."""
    _reject_off(off_path)
    group, tol = _load_group(input_path, tol_flag)
    v = find_regular(group, seed, tol)
    cone = orbit_cone(group, v, tol)
    report = {
        "meta": _meta("cone", name=group.name, seed=seed, tol=tol, samples=samples),
        "verdict": True,
        "criteria": {},
        "witnesses": {},
        "timings": {"group_order": group.order, "facets": len(cone.halfspace_normals)},
        "data": {
            "base": v.tolist(),
            "halfspace_normals": cone.halfspace_normals.tolist(),
            "rays": cone.rays.tolist(),
            "lineality_dim": cone.lineality_dim,
        },
    }
    _finish(report, out_path)


@main.command("voronoi-check")
@common_options
def cmd_voronoi(input_path, model_name, seed, tol_flag, samples, out_path, off_path):
    """Nearest-orbit-point vs cone-membership consistency over seeded samples."""
    _reject_off(off_path)
    _require_samples(samples)
    group, tol = _load_group(input_path, tol_flag)
    v = find_regular(group, seed, tol)
    result = voronoi_consistency(group, v, samples, seed, tol)
    report = {
        "meta": _meta("voronoi-check", name=group.name, seed=seed, tol=tol, samples=samples),
        "verdict": result.passed,
        "criteria": {
            "voronoi_consistency": {
                "passed": result.passed,
                "n_samples": result.n_samples,
                "n_points": result.n_points,
            }
        },
        "witnesses": {"violations": list(result.violations[:10])},
        "timings": {"group_order": group.order, "samples_checked": result.n_samples},
    }
    _finish(report, out_path)


@main.command("coxeter-check")
@common_options
def cmd_coxeter(input_path, model_name, seed, tol_flag, samples, out_path, off_path):
    """Is the group generated by its reflections?"""
    _reject_off(off_path)
    group, tol = _load_group(input_path, tol_flag)
    reflections = group_reflections(group, tol)
    verdict = is_reflection_generated(group, tol, reflections)
    report = {
        "meta": _meta("coxeter-check", name=group.name, seed=seed, tol=tol, samples=samples),
        "verdict": verdict,
        "criteria": {
            "reflection_generated": {
                "passed": verdict,
                "n_reflections": len(reflections),
                "group_order": group.order,
            }
        },
        "witnesses": {"reflection_normals": [r.normal.tolist() for r in reflections]},
        "timings": {"group_order": group.order, "reflections": len(reflections)},
    }
    _finish(report, out_path)


@main.command("sp-check")
@common_options
def cmd_sp_check(input_path, model_name, seed, tol_flag, samples, out_path, off_path):
    """Does the sum of two seeded orbit hulls equal some orbit hull?"""
    _reject_off(off_path)
    group, tol = _load_group(input_path, tol_flag)
    u = find_regular(group, seed, tol)
    v = find_regular(group, seed + 1, tol)
    ok, representative = sp_check_pair(group, u, v, tol)
    report = {
        "meta": _meta("sp-check", name=group.name, seed=seed, tol=tol, samples=samples),
        "verdict": ok,
        "criteria": {"sp_pair": {"passed": ok, "u": u.tolist(), "v": v.tolist()}},
        "witnesses": {
            "representative": representative.tolist() if representative is not None else None
        },
        "timings": {"group_order": group.order},
    }
    _finish(report, out_path)


@main.command("theorem2")
@common_options
def cmd_theorem2(input_path, model_name, seed, tol_flag, samples, out_path, off_path):
    """Full semigroup-property verdict: SP plus its three equivalent criteria."""
    _reject_off(off_path)
    group, tol = _load_group(input_path, tol_flag)
    sp_report = sp_equivalence_report(group, seed=seed, tol=tol)
    body = sp_report.to_dict()
    report = {
        "meta": _meta("theorem2", name=group.name, seed=seed, tol=tol, samples=samples),
        "verdict": body["verdict"],
        "criteria": body["criteria"],
        "witnesses": body["witnesses"],
        "timings": {"group_order": group.order, "criteria_run": len(body["criteria"])},
    }
    _finish(report, out_path)


@main.command("polar-verify")
@common_options
def cmd_polar_verify(input_path, model_name, seed, tol_flag, samples, out_path, off_path):
    """Run the polar-structure check battery for a built-in model."""
    _reject_off(off_path)
    _require_samples(samples)
    if model_name is None:
        _fail("polar-verify requires --model NAME")
    tol = _effective_tol(tol_flag)
    try:
        model = polar.get_model(model_name)
    except KeyError as exc:
        _fail(str(exc.args[0]))
    verdict, reports = polar.run_battery(model, samples=samples, seed=seed, tol=tol)
    criteria = {}
    witnesses = {}
    for key, value in reports.items():
        if isinstance(value, polar.PolarCheckReport):
            criteria[key] = value.to_dict()
            if not value.passed:
                witnesses[key] = value.to_dict()
        else:
            criteria[key] = _jsonable(value)
    report = {
        "meta": _meta("polar-verify", name=model.name, seed=seed, tol=tol, samples=samples),
        "verdict": verdict,
        "criteria": criteria,
        "witnesses": witnesses,
        "timings": {"checks_run": len(criteria)},
    }
    _finish(report, out_path)


@main.command("catalog")
@common_options
def cmd_catalog(input_path, model_name, seed, tol_flag, samples, out_path, off_path):
    """List built-in groups and models; with --out DIR, write generator fixtures."""
    _reject_off(off_path)
    tol = _effective_tol(tol_flag)
    data = {
        "groups": {name: catalog.fixture_dict(name)["description"] for name in catalog.CATALOG_NAMES},
        "models": sorted(polar.MODEL_BUILDERS),
    }
    written = None
    if out_path is not None:
        written = catalog.write_fixtures(out_path)
        data["files"] = written
    report = {
        "meta": _meta("catalog", name="catalog", seed=seed, tol=tol, samples=samples),
        "verdict": True,
        "criteria": {},
        "witnesses": {},
        "timings": {"groups": len(catalog.CATALOG_NAMES)},
        "data": data,
    }
    # Fixture files land in --out when it is a directory; the report goes to stdout.
    _finish(report, None if written is not None else out_path)


if __name__ == "__main__":
    main()
