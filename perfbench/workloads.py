"""Workload definitions: which CLI commands a pass runs, on which inputs.

Every group below is read by the CLI from a definition file written at
set-up (``fixtures.py``), never built through ``catalog.build_group``.
The tables below are the known answers that ``run.py`` checks reports
against.

A workload has *home* commands, the ones it exists to measure, and one
small *probe* for every other end-to-end command metric, so that each
workload reports every metric with a non-zero value.  A probe keeps an
unrelated layer visible at a small input size; it is not the measurement
of that layer.
"""

from __future__ import annotations

from dataclasses import dataclass

# name -> (order, reflection count, dimension).  The reflection groups are
# exactly the rows with a non-zero reflection count.
GROUPS = {
    # catalog groups, written by the CLI's own ``catalog --out DIR``
    "c3": (3, 0, 2),
    "c4": (4, 0, 2),
    "a2": (6, 3, 2),
    "b2": (8, 4, 2),
    "a3": (24, 6, 3),
    "b3": (48, 9, 3),
    # groups outside the catalog, written from fixtures.generators()
    "a1": (2, 1, 1),
    "h3": (120, 15, 3),
    "d4": (192, 12, 4),
    "b4": (384, 16, 4),
    "f4": (1152, 24, 4),
    "chiral_t": (12, 0, 3),
    "chiral_o": (24, 0, 3),
    "minus_i3": (2, 0, 3),
}
CATALOG = ("c3", "c4", "a2", "b2", "g2", "i2_5", "a3", "b3")

# Facet count of the hull of a regular orbit (the omnitruncated polytope),
# for the one group whose hull is run.  On a3 and H3 a regular vector within
# ~1e-3 of a mirror makes the program's facet merge leave coplanar pieces
# apart (H3: 110 or 122 facets instead of 62), on 0.1% and 0.45% of seeds;
# B3 kept its count on every seed tried down to 1e-5 from a mirror.  D4 did
# too, but its hull takes 2.7 s, too long for the passes a run needs.
HULL_FACETS = {"b3": 26}

# polar-verify verdicts of the built-in models.
POLAR_VERDICTS = {"sym3_traceless": True, "so3_standard": True, "hopf_circle": False}


def is_reflection_group(name: str) -> bool:
    return GROUPS[name][1] > 0


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``orbitpoly <cmd> --input <group>.json`` or ``--model``."""

    cmd: str
    target: str                 # group name, or model name for polar-verify
    samples: int | None = None  # --samples, when the command uses it
    seed_offset: int = 0        # added to the workload seed

    @property
    def metric(self) -> str:
        """End-to-end metric that this command's wall time is summed into."""
        if self.cmd == "theorem2":
            return "theorem2_true_s" if is_reflection_group(self.target) else "theorem2_false_s"
        return {
            "sp-check": "sp_check_s",
            "hull": "hull_s",
            "minkowski": "minkowski_s",
            "cone": "cone_s",
            "voronoi-check": "voronoi_s",
            "coxeter-check": "coxeter_s",
            "polar-verify": "polar_s",
        }[self.cmd]

    @property
    def key(self) -> str:
        parts = [self.cmd, self.target]
        if self.samples is not None:
            parts.append(f"n{self.samples}")
        if self.seed_offset:
            parts.append(f"s+{self.seed_offset}")
        return ":".join(parts)

    def args(self, fixture_dir: str, seed: int) -> list[str]:
        if self.cmd == "polar-verify":
            args = [self.cmd, "--model", self.target]
        else:
            args = [self.cmd, "--input", f"{fixture_dir}/{self.target}.json"]
        args += ["--seed", str(seed + self.seed_offset)]
        if self.samples is not None:
            args += ["--samples", str(self.samples)]
        return args


COMMAND_METRICS = (
    "theorem2_true_s",
    "theorem2_false_s",
    "sp_check_s",
    "hull_s",
    "minkowski_s",
    "cone_s",
    "voronoi_s",
    "polar_s",
)

# The smallest input that keeps each command metric non-zero where the
# workload does not measure it.
PROBES = {
    "theorem2_true_s": Command("theorem2", "a1"),
    "theorem2_false_s": Command("theorem2", "minus_i3"),
    "sp_check_s": Command("sp-check", "b2"),
    "hull_s": Command("hull", "b3"),
    "minkowski_s": Command("minkowski", "b3"),
    "cone_s": Command("cone", "a3"),
    "voronoi_s": Command("voronoi-check", "a3"),
    "polar_s": Command("polar-verify", "sym3_traceless", samples=10_000),
}

HOME = {
    # SP verdicts and the hull core.  theorem2 runs the coxeter -> polytope
    # path two ways: reflection groups hit early in the SP candidate scan,
    # rotation controls exhaust every representative.  hull and minkowski
    # are Qhull, facet merge, vertex certification and the LP fallback, with
    # no cone LPs and no SP scan.
    "sp_hulls": [
        *(Command("theorem2", g) for g in ("a2", "b2")),
        *(Command("theorem2", g) for g in ("c3", "c4", "minus_i3")),
        *(Command("sp-check", g) for g in ("a3", "b3")),
        # Four consecutive seeds give the one hull whose count holds on every
        # seed (HULL_FACETS) a total large enough to time steadily.
        *(Command("hull", "b3", seed_offset=k) for k in range(4)),
        *(Command("minkowski", g) for g in ("a3", "b3")),
        # Depending on the seed, a generic chiral sum has 3 or 4 orbits of
        # vertices; four consecutive seeds keep that draw from moving the
        # workload's total.
        *(Command("minkowski", g, seed_offset=k) for g in ("chiral_t", "chiral_o") for k in range(4)),
    ],
    # Orbit cones and the polar battery; never builds an orbit hull outside
    # its probes.  cone and voronoi-check are one HiGHS LP per orbit point
    # plus ray enumeration; coxeter-check on F4 is dominated by closure;
    # polar-verify runs at the roadmap's 10^4 samples and at 10^5.
    "cones_polar": [
        *(Command("cone", g) for g in ("h3", "d4")),
        # Not on D4: its report disagrees with the cones on about 0.2% of
        # seeds (a regular vector within ~2e-4 of a mirror, where the
        # absolute distance-tie tolerance and the cone margin part ways).
        Command("voronoi-check", "h3"),
        *(Command("coxeter-check", g) for g in ("b4", "f4")),
        *(Command("polar-verify", model, samples=n) for model in POLAR_VERDICTS for n in (10_000, 100_000)),
    ],
}


def commands(workload: str) -> list[Command]:
    """Home commands, then one probe for each command metric they leave at zero."""
    home = HOME[workload]
    covered = {c.metric for c in home}
    return home + [PROBES[m] for m in COMMAND_METRICS if m not in covered]


def groups(workload: str) -> list[str]:
    """Group fixtures a workload reads."""
    return sorted({c.target for c in commands(workload) if c.cmd != "polar-verify"})
