"""Group-definition files for a workload, and the known-answer check on them.

Run as a script, this is one benchmark set-up: a fresh process imports
``orbitpoly`` from ``src/``, writes the workload's group files (the catalog
groups through the CLI's ``catalog --out DIR``, the rest from the generator
matrices below) and checks each group's order and reflection count::

    python3 perfbench/fixtures.py --workload orbit_cones --dir .perfbench_out/fx

It exits 0 when every group matches ``workloads.GROUPS`` and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import env
import workloads

GOLDEN = (1 + math.sqrt(5)) / 2


def _reflection(normal):
    import numpy as np

    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    return np.eye(len(n)) - 2.0 * np.outer(n, n)


def generators(name: str):
    """Generator matrices of the groups outside the orbitpoly catalog."""
    import numpy as np

    cycle = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    if name == "a1":
        return [np.array([[-1.0]])]
    if name == "h3":  # simple roots at angles pi/5, pi/3, pi/2
        return [_reflection(r) for r in ([1, 0, 0], [-GOLDEN, 1 / GOLDEN, -1], [0, 0, 1])]
    if name == "d4":
        return [_reflection(r) for r in ([1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 1, 1])]
    if name == "b4":
        return [_reflection(r) for r in ([1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1])]
    if name == "f4":
        return [_reflection(r) for r in ([0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1], [1, -1, -1, -1])]
    if name == "chiral_t":  # rotations of the tetrahedron
        return [cycle, np.diag([1.0, -1.0, -1.0])]
    if name == "chiral_o":  # rotations of the cube
        return [cycle, np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])]
    if name == "minus_i3":
        return [-np.eye(3)]
    raise KeyError(name)


def write(workload: str, directory: Path) -> list[str]:
    """Write the workload's group files; returns the group names written."""
    from orbitpoly.cli import main

    directory.mkdir(parents=True, exist_ok=True)
    names = workloads.groups(workload)
    if any(n in workloads.CATALOG for n in names):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                main.main(args=["catalog", "--out", str(directory)], standalone_mode=True)
            except SystemExit as exc:
                if exc.code not in (0, None):
                    raise RuntimeError(f"orbitpoly catalog exited with {exc.code}") from None
    for name in names:
        if name in workloads.CATALOG:
            continue
        gens = generators(name)
        definition = {
            "name": name,
            "dim": int(gens[0].shape[0]),
            "generators": [[[repr(float(x)) for x in row] for row in g] for g in gens],
        }
        (directory / f"{name}.json").write_text(json.dumps(definition, indent=2) + "\n")
    return names


def check(names: list[str], directory: Path) -> list[str]:
    """Order and reflection count of each group file against the known answer."""
    from orbitpoly.coxeter import group_reflections
    from orbitpoly.group import group_from_json_dict

    problems = []
    for name in names:
        group, tol = group_from_json_dict(json.loads((directory / f"{name}.json").read_text()))
        order, n_reflections, dim = workloads.GROUPS[name]
        got = (group.order, len(group_reflections(group, tol)), group.dim)
        if got != (order, n_reflections, dim):
            problems.append(f"{name}: (order, reflections, dim) = {got}, expected {(order, n_reflections, dim)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.HOME))
    parser.add_argument("--dir", required=True, type=Path)
    args = parser.parse_args(argv)
    env.pin_threads()
    env.use_checkout_src()
    problems = check(write(args.workload, args.dir), args.dir)
    for p in problems:
        print(f"fixture check failed: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
