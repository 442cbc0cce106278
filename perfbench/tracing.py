"""Span tracer that wraps orbitpoly's layers from outside the program.

Every public function of the traced modules, and the scipy entry points
they call, is replaced by a wrapper in every ``orbitpoly`` module that holds
the name.  Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts
every original back.  Spans live in memory until the run writes them out.

A span is ``[name, start, end, parent, invocation, attrs]``: ``parent`` is
the index of the enclosing span (-1 at the top) and ``invocation`` numbers
the CLI command that caused it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("group", "polytope", "cones", "coxeter", "polar")

# (module, attribute) -> span name, for third-party entry points.  These are
# wrapped per module, so LPs from polytope and from cones count apart.
SCIPY_ENTRY_POINTS = {
    ("polytope", "linprog"): "polytope.linprog",
    ("polytope", "ConvexHull"): "polytope.qhull",
    ("polytope", "HalfspaceIntersection"): "polytope.halfspace_intersection",
    ("cones", "linprog"): "cones.linprog",
    ("polar", "special_ortho_group"): "polar.special_ortho_group.rvs",
}


def _attrs_for(name):
    """Counters recorded from a call's arguments and result, per span name."""
    if name == "polytope.qhull":
        return lambda args, kwargs, result: {"rows": len(result.equations)}
    if name == "polytope.hull":
        return lambda args, kwargs, result: {"facets": len(result.facet_normals)}
    if name == "polytope.minkowski_sum":
        return lambda args, kwargs, result: {
            "points_in": args[0].n_vertices * args[1].n_vertices,
            "vertices_out": result.n_vertices,
        }
    if name == "polytope.linprog":
        # Only the vertex-certification fallback (_within_hull) passes an
        # equality constraint; a feasible answer there removes a candidate.
        return lambda args, kwargs, result: {
            "removed": int(kwargs.get("A_eq") is not None and result.status == 0)
        }
    if name == "cones.cone_from_halfspaces":
        return lambda args, kwargs, result: {"normals_in": len(args[0])}
    if name == "cones.orbit_cone":
        return lambda args, kwargs, result: {"facets": len(result.halfspace_normals)}
    if name == "coxeter.sp_check_pair":
        return lambda args, kwargs, result: {"hit": int(bool(result[0]))}
    return None


class _TracedRvs:
    """Stand-in for a scipy distribution object whose ``rvs`` is traced."""

    def __init__(self, dist, rvs):
        self._dist = dist
        self.rvs = rvs

    def __getattr__(self, attr):
        return getattr(self._dist, attr)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.invocation = -1
        self._sites: list[tuple] = []  # (span name, module, attr, original, wrapper)

    # -- spans -----------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.invocation, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: closed {idx}, top was {popped}")

    def _wrap(self, name, fn):
        attrs = _attrs_for(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if attrs is not None:
                tracer.spans[idx][5] = attrs(args, kwargs, result)
            return result

        return wrapper

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name in every orbitpoly module that holds it."""
        modules = _orbitpoly_modules()
        targets = []  # (span name, original, wrapper, modules to rebind in)
        for short in TRACED_MODULES:
            mod = modules[short]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                targets.append((name, obj, self._wrap(name, obj), list(modules.values())))
        for (short, attr), name in SCIPY_ENTRY_POINTS.items():
            mod = modules[short]
            obj = getattr(mod, attr)
            if hasattr(obj, "rvs"):
                wrapper = _TracedRvs(obj, self._wrap(name, obj.rvs))
            else:
                wrapper = self._wrap(name, obj)
            targets.append((name, obj, wrapper, [mod]))
        for name, original, wrapper, holders in targets:
            for mod in holders:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._sites.append((name, mod, attr, original, wrapper))
        originals = {id(original) for _, original, _, _ in targets}
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    raise RuntimeError(f"tracer missed {mod.__name__}.{attr}")

    def uninstall(self) -> None:
        """Put every original back and check that no wrapper is left."""
        for _, mod, attr, original, _ in self._sites:
            setattr(mod, attr, original)
        wrappers = {id(w) for *_, w in self._sites}
        for mod in _orbitpoly_modules().values():
            for attr, value in vars(mod).items():
                if id(value) in wrappers:
                    raise RuntimeError(f"tracer left a wrapper at {mod.__name__}.{attr}")
        self._sites.clear()

    def rebound(self) -> dict[str, list[str]]:
        """Span name -> the orbitpoly modules whose binding was replaced."""
        out: dict[str, list[str]] = {}
        for name, mod, *_ in self._sites:
            out.setdefault(name, []).append(mod.__name__)
        return out


def _orbitpoly_modules() -> dict:
    mods = {"": sys.modules["orbitpoly"]}
    for name, mod in sys.modules.items():
        if name.startswith("orbitpoly.") and mod is not None:
            mods[name.split(".", 1)[1]] = mod
    return mods


# -- per-layer metrics ---------------------------------------------------------

POLAR_CHECKS = (
    "check_cartan_orthogonality",
    "check_orbits_meet_cartan",
    "check_projection_matches_weyl_hull",
    "check_cartan_slice_is_weyl_orbit",
    "check_slice_support_match",
    "sp_falsify_nonpolar",
    "weyl_is_coxeter",
)

# name -> unit; "count" metrics repeat exactly from pass to pass.
LAYER_METRICS = {
    "group.close_generators.calls": "count",
    "group.close_generators.s": "s",
    "group.orbit.calls": "count",
    "group.orbit.s": "s",
    "group.find_regular.calls": "count",
    "group.find_regular.s": "s",
    "polytope.hull.calls": "count",
    "polytope.hull.self_s": "s",
    "polytope.hull.nested_calls": "count",
    "polytope.hull.facets_out": "count",
    "polytope.qhull.calls": "count",
    "polytope.qhull.s": "s",
    "polytope.qhull.rows": "count",
    "polytope.linprog.calls": "count",
    "polytope.linprog.s": "s",
    "polytope.linprog.removed": "count",
    "polytope.minkowski_sum.calls": "count",
    "polytope.minkowski_sum.s": "s",
    "polytope.minkowski_sum.points_in": "count",
    "polytope.minkowski_sum.vertices_out": "count",
    "polytope.polytope_equal.calls": "count",
    "polytope.polytope_equal.s": "s",
    "polytope.polytope_from_halfspaces.calls": "count",
    "polytope.polytope_from_halfspaces.s": "s",
    "cones.orbit_cone.calls": "count",
    "cones.orbit_cone.s": "s",
    "cones.orbit_cone.normals_in": "count",
    "cones.orbit_cone.facets_out": "count",
    "cones.cone_from_halfspaces.self_s": "s",
    "cones.linprog.calls": "count",
    "cones.linprog.s": "s",
    "cones.voronoi_consistency.calls": "count",
    "cones.voronoi_consistency.s": "s",
    "coxeter.sp_equivalence_report.calls": "count",
    "coxeter.sp_equivalence_report.s": "s",
    "coxeter.sp_check_pair.calls": "count",
    "coxeter.sp_check_pair.self_s": "s",
    "coxeter.sp_check_pair.hits": "count",
    "coxeter.sp_check_pair.misses": "count",
    "coxeter.sp_check_pair.candidates": "count",
    "coxeter.criterion_peak.s": "s",
    "coxeter.criterion_local_cone.calls": "count",
    "coxeter.criterion_local_cone.s": "s",
    "coxeter.is_reflection_generated.s": "s",
    "coxeter.group_reflections.s": "s",
    "polar.run_battery.s": "s",
    **{f"polar.{check}.s": "s" for check in POLAR_CHECKS},
    "cli.invoke.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",  # traced minus untraced pass_s, set by the caller
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over a list of spans (one pass).

    ``<fn>.s`` sums the spans of ``fn`` not nested in another span of ``fn``;
    ``self_s`` is a span's duration minus its direct children's.
    """
    n = len(spans)
    child_time = [0.0] * n
    children = defaultdict(list)
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(i)

    def nested_in_same(i):
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    attr_sum = defaultdict(float)
    nested = defaultdict(int)
    for i, (name, start, end, parent, _, attrs) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]
        if nested_in_same(i):
            nested[name] += 1
        else:
            total[name] += end - start
        for key, value in (attrs or {}).items():
            attr_sum[f"{name}.{key}"] += value

    # Facets and Qhull rows are compared on the same hulls: those that
    # reached Qhull.
    facets_out = sum(
        spans[i][5]["facets"]
        for i in range(n)
        if spans[i][0] == "polytope.hull"
        and any(spans[c][0] == "polytope.qhull" for c in children[i])
    )
    orbit_cone_facets = attr_sum["cones.orbit_cone.facets"]
    normals_in = sum(
        spans[c][5]["normals_in"]
        for i in range(n)
        if spans[i][0] == "cones.orbit_cone"
        for c in children[i]
        if spans[c][0] == "cones.cone_from_halfspaces"
    )
    candidates = sum(
        1
        for i in range(n)
        if spans[i][0] == "coxeter.sp_check_pair"
        for c in children[i]
        if spans[c][0] == "polytope.polytope_equal"
    )
    hits = attr_sum["coxeter.sp_check_pair.hit"]

    out = {}
    for metric in LAYER_METRICS:
        head, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[head]
        elif stat == "s":
            out[metric] = total[head]
        elif stat == "self_s":
            out[metric] = self_s[head]
    out.update(
        {
            "polytope.hull.nested_calls": nested["polytope.hull"],
            "polytope.hull.facets_out": facets_out,
            "polytope.qhull.rows": attr_sum["polytope.qhull.rows"],
            "polytope.linprog.removed": attr_sum["polytope.linprog.removed"],
            "polytope.minkowski_sum.points_in": attr_sum["polytope.minkowski_sum.points_in"],
            "polytope.minkowski_sum.vertices_out": attr_sum["polytope.minkowski_sum.vertices_out"],
            "cones.orbit_cone.normals_in": normals_in,
            "cones.orbit_cone.facets_out": orbit_cone_facets,
            "coxeter.sp_check_pair.hits": hits,
            "coxeter.sp_check_pair.misses": calls["coxeter.sp_check_pair"] - hits,
            "coxeter.sp_check_pair.candidates": candidates,
            "trace.spans": n,
        }
    )
    return out
