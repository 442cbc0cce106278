"""Command-line front end: parse group files, run verdicts, emit JSON reports.

Every report is a JSON object with top-level keys
``{meta, verdict, criteria, witnesses, timings}`` (data-producing commands
add a ``data`` key).  Reports are deterministic: identical configuration,
including the seed, yields byte-identical output, so ``timings`` carries
work counters rather than wall-clock times.

Each command takes only the options it reads.  Exit codes: 0 verdict
computed (regardless of true/false), 1 input error (including an unknown or
invalid option, and an output path that cannot be written), 2 internal
inconsistency (any orbitpoly error raised after the input has loaded).
Errors are reported as one ``error:`` line.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import __version__, catalog, polar
from .cones import orbit_cone, orbit_hull, voronoi_consistency
from .coxeter import (
    _jsonable,
    group_reflections,
    is_reflection_generated,
    sp_check_pair,
    sp_equivalence_report,
)
from .errors import OrbitPolyError
from .group import find_regular, group_from_json_dict, orbit, root_data
from .numerics import Tolerance
from .polytope import export_off, minkowski_sum


def _fail(message: str, code: int = 1):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_group(input_path, tol):
    try:
        raw = Path(input_path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"cannot read {input_path}: {exc}")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        _fail(f"malformed JSON in {input_path}: {exc}")
    try:
        return group_from_json_dict(data, tol)[0]
    except OrbitPolyError as exc:
        _fail(f"{input_path}: {exc}")


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        _fail(f"cannot write {path}: {exc}")


def _emit(fields: dict, out, *, command, name, seed, tol, samples=None):
    """Write one report: ``meta`` from the invocation, the rest from ``fields``."""
    report = {
        "meta": {
            "tool": "orbitpoly",
            "version": __version__,
            "command": command,
            "group": name,
            "seed": seed,
            "tolerance": tol.eps_eq,
            "samples": samples,
        },
        "verdict": True,
        "criteria": {},
        "witnesses": {},
        **fields,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is not None:
        _write(out, text)
    else:
        click.echo(text, nl=False)


def _parse_tol(ctx, param, value):
    """Parse --tol into a Tolerance before any input is read."""
    if value is None:
        return None
    try:
        return Tolerance(eps_eq=value)
    except ValueError:
        _fail(f"--tol must be a finite positive number, got {value}")


# Largest --samples: voronoi-check holds every sample at once (48 MB in dim 6).
_MAX_SAMPLES = 1_000_000


def _check_samples(ctx, param, value):
    if value < 1:
        _fail(f"--samples must be at least 1, got {value}")
    if value > _MAX_SAMPLES:
        _fail(f"--samples must be at most {_MAX_SAMPLES}, got {value}")
    return value


_INPUT = click.option("--input", "input_path", required=True, type=click.Path(),
                      help="Group definition JSON file.")
_SEED = click.option("--seed", default=42, show_default=True, type=int)
_TOL = click.option("--tol", type=float, callback=_parse_tol,
                    help="Equality tolerance eps_eq (default 1e-9); the rank cut is 10 x eps_eq.")


def _samples(help_text):
    return click.option("--samples", default=1000, show_default=True, type=int,
                        callback=_check_samples, help=f"{help_text} At most {_MAX_SAMPLES}.")


_OUT = click.option("--out", "out_path", type=click.Path(),
                    help="Write the JSON report here instead of stdout.")
_EXPORT_OFF = click.option("--export-off", "off_path", type=click.Path(),
                           help="Write an OFF file of the computed 3-d hull.")


class _Main(click.Group):
    """Command group that maps usage errors to exit code 1 and orbitpoly errors to 2."""

    def parse_args(self, ctx, args):
        # The group's own options are parsed here, before invoke().
        if not args and not ctx.resilient_parsing:
            _fail(f"missing command; try '{ctx.command_path} --help'")
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            _fail(exc.format_message())

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail(exc.format_message())
        except OrbitPolyError as exc:
            # Input errors already exited with code 1 in _load_group.
            lines = str(exc).splitlines()
            _fail(f"{type(exc).__name__}: {lines[0] if lines else ''}", code=2)


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main():
    """Orbit polytopes and the Minkowski semigroup property of their hulls."""


def _group_command(name, *extra_options):
    """Register ``body(group, seed, **extra)`` as a command on a group from --input.

    The group carries the tolerance that --tol or the file set.  The body
    returns the report fields it computes; ``timings.group_order`` and
    ``meta`` are added here.
    """

    def register(body):
        def command(input_path, seed, tol, out_path, **extra):
            group = _load_group(input_path, tol)
            fields = body(group, seed, **extra)
            fields["timings"]["group_order"] = group.order
            _emit(fields, out_path, command=name, name=group.name, seed=seed, tol=group.tol,
                  samples=extra.get("samples"))

        # Applied innermost first, so that --help lists them in this order.
        for option in reversed((_INPUT, _SEED, _TOL, _OUT, *extra_options)):
            command = option(command)
        return main.command(name, help=body.__doc__)(command)

    return register


def _export_off(poly, tol, off_path, data):
    if off_path is not None:
        if poly.ambient_dim != 3 or poly.affine_dim != 3:
            _fail("--export-off needs a full-dimensional hull in R^3")
        _write(off_path, export_off(poly, tol))
        data["off_file"] = str(off_path)


@_group_command("orbit")
def cmd_orbit(group, seed):
    """Orbit of a seeded regular vector under a group from --input."""
    v = find_regular(group, seed)
    orb = orbit(group, v)
    return {
        "timings": {"orbit_points": len(orb)},
        "data": {
            "base": v.tolist(),
            "points": orb.points.tolist(),
            "witness_elements": orb.point_to_element.tolist(),
        },
    }


@_group_command("hull", _EXPORT_OFF)
def cmd_hull(group, seed, off_path):
    """Convex hull of the orbit of a seeded regular vector."""
    v = find_regular(group, seed)
    poly = orbit_hull(group, v)
    data = {
        "base": v.tolist(),
        "vertices": poly.vertices.tolist(),
        "facet_normals": poly.facet_normals.tolist(),
        "facet_offsets": poly.facet_offsets.tolist(),
        "affine_dim": poly.affine_dim,
    }
    _export_off(poly, group.tol, off_path, data)
    return {"timings": {"hull_vertices": poly.n_vertices}, "data": data}


@_group_command("minkowski", _EXPORT_OFF)
def cmd_minkowski(group, seed, off_path):
    """Minkowski sum of two seeded orbit hulls."""
    u = find_regular(group, seed)
    v = find_regular(group, seed + 1)
    # On a reflection group the sum is hull(O_(u+v')) for the v' that the SP check certifies.
    ok, v_prime = sp_check_pair(group, u, v) if root_data(group) is not None else (False, None)
    if ok:
        total = orbit_hull(group, u + v_prime)
    else:
        total = minkowski_sum(orbit(group, u), orbit(group, v), group.tol)
    data = {
        "u": u.tolist(),
        "v": v.tolist(),
        "vertices": total.vertices.tolist(),
        "affine_dim": total.affine_dim,
    }
    _export_off(total, group.tol, off_path, data)
    return {"timings": {"sum_vertices": total.n_vertices}, "data": data}


@_group_command("cone")
def cmd_cone(group, seed):
    """Orbit cone (irredundant halfspaces and extreme rays) of a seeded regular vector."""
    v = find_regular(group, seed)
    cone = orbit_cone(group, v)
    return {
        "timings": {"facets": len(cone.halfspace_normals)},
        "data": {
            "base": v.tolist(),
            "halfspace_normals": cone.halfspace_normals.tolist(),
            "rays": cone.rays.tolist(),
            "lineality_dim": cone.lineality_dim,
        },
    }


@_group_command("voronoi-check", _samples("Seeded Gaussian points to check."))
def cmd_voronoi(group, seed, samples):
    """Nearest-orbit-point vs cone-membership consistency over seeded samples."""
    v = find_regular(group, seed)
    result = voronoi_consistency(group, v, samples, seed)
    return {
        "verdict": result.passed,
        "criteria": {
            "voronoi_consistency": {
                "passed": result.passed,
                "n_samples": result.n_samples,
                "n_points": result.n_points,
                "min_wall_distance": result.min_wall_distance,
            }
        },
        "witnesses": {"violations": list(result.violations[:10])},
        "timings": {"samples_checked": result.n_samples},
    }


@_group_command("coxeter-check")
def cmd_coxeter(group, seed):
    """Is the group generated by its reflections?"""
    reflections = group_reflections(group)
    verdict = is_reflection_generated(group)
    return {
        "verdict": verdict,
        "criteria": {
            "reflection_generated": {
                "passed": verdict,
                "n_reflections": len(reflections),
                "group_order": group.order,
            }
        },
        "witnesses": {"reflection_normals": [r.normal.tolist() for r in reflections]},
        "timings": {"reflections": len(reflections)},
    }


@_group_command("sp-check")
def cmd_sp_check(group, seed):
    """Does the sum of two seeded orbit hulls equal some orbit hull?"""
    u = find_regular(group, seed)
    v = find_regular(group, seed + 1)
    ok, representative = sp_check_pair(group, u, v)
    return {
        "verdict": ok,
        "criteria": {"sp_pair": {"passed": ok, "u": u.tolist(), "v": v.tolist()}},
        "witnesses": {
            "representative": representative.tolist() if representative is not None else None
        },
        "timings": {},
    }


@_group_command("theorem2")
def cmd_theorem2(group, seed):
    """Full semigroup-property verdict: SP plus its three equivalent criteria."""
    body = sp_equivalence_report(group, seed=seed).to_dict()
    return {
        "verdict": body["verdict"],
        "criteria": body["criteria"],
        "witnesses": body["witnesses"],
        "timings": {"criteria_run": len(body["criteria"]), **body["timings"]},
    }


@main.command("polar-verify")
@click.option("--model", "model_name", required=True, help="Built-in compact-group model name.")
@_SEED
@_TOL
@_samples("Accepted and checked but unread: no check of the battery takes a sample count. "
          "Only the Weyl-hull ascent draws group elements, its 4 starts.")
@_OUT
def cmd_polar_verify(model_name, seed, tol, samples, out_path):
    """Run the polar-structure check battery for a built-in model."""
    tol = tol or Tolerance()
    try:
        model = polar.get_model(model_name)
    except KeyError as exc:
        _fail(str(exc.args[0]))
    verdict, reports = polar.run_battery(model, seed=seed, tol=tol)
    criteria = {}
    witnesses = {}
    for key, value in reports.items():
        if isinstance(value, polar.PolarCheckReport):
            criteria[key] = value.to_dict()
            if not value.passed:
                witnesses[key] = value.to_dict()
        else:
            criteria[key] = _jsonable(value)
    fields = {
        "verdict": verdict,
        "criteria": criteria,
        "witnesses": witnesses,
        "timings": {"checks_run": len(criteria)},
    }
    _emit(fields, out_path, command="polar-verify", name=model.name, seed=seed, tol=tol)


@main.command("catalog")
@_SEED
@_TOL
@_OUT
def cmd_catalog(seed, tol, out_path):
    """List built-in groups and models; with --out DIR, write generator fixtures."""
    data = {
        "groups": {name: catalog.fixture_dict(name)["description"] for name in catalog.CATALOG_NAMES},
        "models": sorted(polar.MODEL_BUILDERS),
    }
    if out_path is not None:
        try:
            data["files"] = catalog.write_fixtures(out_path)
        except OSError as exc:
            _fail(f"cannot write {out_path}: {exc}")
    # Fixture files land in --out when it is given; the report goes to stdout.
    _emit({"timings": {"groups": len(catalog.CATALOG_NAMES)}, "data": data}, None,
          command="catalog", name="catalog", seed=seed, tol=tol or Tolerance())


if __name__ == "__main__":
    main()
