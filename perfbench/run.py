"""orbitpoly benchmark: one workload, one closed-loop client, known answers.

    python3 perfbench/run.py --workload sp_hulls --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The run

1. times ``fixtures.py`` in fresh processes (``setup_s``: import orbitpoly,
   write the workload's group files, check their orders and reflection
   counts), several times;
2. drives ``orbitpoly.cli.main`` in-process through click, one command at a
   time, in passes over the workload's command list until ``--seconds`` have
   passed.  Each command gets ``--seed`` (plus a fixed offset) and writes its
   report with ``--out``;
3. checks every report against its known answer and, byte for byte, against
   the same command's report in the first pass.

The run pins itself, and so its set-up processes, to one CPU.  Every time
is wall time scaled to a reference machine speed by the calibration kernel
timed around it on that CPU (``calibrate.py``); the unscaled command times
are in the details.  With ``--trace 0`` the run prints the end-to-end
metrics: per-command medians over passes, summed per metric.  With
``--trace 1`` it spends the first half of the time on untraced passes, then
wraps orbitpoly's layers (``tracing.py``) and prints per-layer medians over
the traced passes, with the tracing overhead.  Reports must not change when
traced.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it has the details: environment, per-command medians,
spreads and failures.  Both, and the spans of a traced run, are also
written under ``.perfbench_out/``.  Without the program's ``src/`` the run
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import env
import workloads

SETUP_REPEATS = 3
MIN_PASSES = 3
SETUP_TIMEOUT_S = 120
OUT_DIR = env.ROOT / ".perfbench_out"

E2E_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    **{m: "s" for m in workloads.COMMAND_METRICS},
    "peak_rss_mb": "MB",
}


def time_setups(workload: str, fixture_dir: Path, kernel) -> list[float]:
    """Speed-scaled times of fresh set-up processes.

    The last process's files are kept for the run.
    """
    script = Path(__file__).resolve().parent / "fixtures.py"
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(fixture_dir, ignore_errors=True)
        before = kernel()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(script), "--workload", workload, "--dir", str(fixture_dir)],
            cwd=env.ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise env.SetupError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append(wall * calibrate.REFERENCE_S / math.sqrt(before * kernel()))
    return times


def known_answer_problem(cmd: workloads.Command, seed: int, report: dict) -> str | None:
    """Why the report contradicts the command's known answer, or None."""
    meta = report["meta"]
    if meta["command"] != cmd.cmd or meta["seed"] != seed + cmd.seed_offset:
        return f"meta {meta['command']}/{meta['seed']} does not match the invocation"
    verdict = report["verdict"]
    if cmd.cmd == "polar-verify":
        expected = workloads.POLAR_VERDICTS[cmd.target]
        return None if verdict is expected else f"verdict {verdict}, expected {expected}"
    order, n_reflections, dim = workloads.GROUPS[cmd.target]
    reflection = n_reflections > 0
    if cmd.cmd == "theorem2":
        return None if verdict is reflection else f"verdict {verdict}, expected {reflection}"
    if cmd.cmd == "sp-check":
        if not reflection:
            raise ValueError(f"no known sp-check answer for {cmd.target}")
        return None if verdict is True else f"verdict {verdict}, expected True"
    if cmd.cmd == "hull":
        got = (len(report["data"]["vertices"]), len(report["data"]["facet_normals"]))
        expected = (order, workloads.HULL_FACETS[cmd.target])
        return None if got == expected else f"(vertices, facets) {got}, expected {expected}"
    if cmd.cmd == "minkowski":
        n = len(report["data"]["vertices"])
        if reflection:
            return None if n == order else f"{n} sum vertices, expected {order}"
        # A group acting freely on the vertices of a generic sum: a multiple.
        return None if n % order == 0 and n > 0 else f"{n} sum vertices, not a multiple of {order}"
    if cmd.cmd == "cone":
        data = report["data"]
        got = (len(data["halfspace_normals"]), len(data["rays"]), data["lineality_dim"])
        expected = (dim, dim, 0) if reflection else None
        if expected is None:
            raise ValueError(f"no known cone answer for {cmd.target}")
        return None if got == expected else f"(facets, rays, lineality) {got}, expected {expected}"
    if cmd.cmd == "voronoi-check":
        ok = verdict is True and report["witnesses"]["violations"] == []
        return None if ok else "Voronoi cells and orbit cones disagree"
    if cmd.cmd == "coxeter-check":
        got = (verdict, report["criteria"]["reflection_generated"]["n_reflections"])
        expected = (reflection, n_reflections)
        return None if got == expected else f"(verdict, reflections) {got}, expected {expected}"
    raise ValueError(f"no known answer for {cmd.cmd}")


class Client:
    """Closed-loop client: sends one command, reads and checks its report."""

    def __init__(self, main, kernel, fixture_dir: Path, report_path: Path, seed: int):
        self.main = main
        self.kernel = kernel
        self.kernel_times: list[float] = []
        self.wall: dict[str, list[float]] = {}
        self.fixture_dir = fixture_dir
        self.report_path = report_path
        self.seed = seed
        self.tracer = None
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[dict] = []

    def _invoke(self, args: list[str]) -> tuple[int | None, str]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                self.main.main(args=args, standalone_mode=True)
            except SystemExit as exc:
                if exc.code is None or isinstance(exc.code, int):
                    return exc.code or 0, err.getvalue()
                return 1, str(exc.code)
            except Exception:  # a traceback is a failed invocation, not a crashed run
                return None, traceback.format_exc()
        return 0, err.getvalue()

    def _calibrate(self) -> float:
        self.kernel_times.append(self.kernel())
        return self.kernel_times[-1]

    def run(self, cmd: workloads.Command) -> float:
        """Invoke one command and check it; returns its speed-scaled time.

        The kernel timed after one command also serves as the one before
        the next, so each command is bracketed by two kernel runs.
        """
        before = self.kernel_times[-1] if self.kernel_times else self._calibrate()
        self.report_path.unlink(missing_ok=True)
        args = cmd.args(str(self.fixture_dir), self.seed) + ["--out", str(self.report_path)]
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.invocation = self.attempted
            span = self.tracer.begin("cli.invoke")
        start = time.perf_counter()
        try:
            code, stderr = self._invoke(args)
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.end(span)
        problem = self._check(cmd, code, stderr)
        if problem is not None:
            self.failures.append({"command": cmd.key, "invocation": self.attempted, "problem": problem})
        self.wall.setdefault(cmd.key, []).append(elapsed)
        return elapsed * calibrate.REFERENCE_S / math.sqrt(before * self._calibrate())

    def _check(self, cmd, code, stderr) -> str | None:
        if code != 0:
            return f"exit {code}: {stderr.strip()[-300:]}"
        if not self.report_path.is_file():
            return "no report written"
        raw = self.report_path.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        first = self.digests.setdefault(cmd.key, digest)
        if digest != first:
            return "report differs from the first pass"
        try:
            return known_answer_problem(cmd, self.seed, json.loads(raw))
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed report: {exc!r}"


def run_pass(client: Client, cmds: list[workloads.Command]) -> dict[str, float]:
    """One pass over the command list: speed-scaled time per command key."""
    return {cmd.key: client.run(cmd) for cmd in cmds}


def run_passes(client, cmds, until: float, minimum: int, layers=None) -> list[dict[str, float]]:
    """Passes until ``until``; a pass starts only if half of it fits.

    With ``layers`` given, the client is traced and each pass's spans are
    appended to it.
    """
    passes = []
    last = 0.0
    while len(passes) < minimum or time.perf_counter() + last / 2 < until:
        began = time.perf_counter()
        if layers is not None:
            client.tracer.spans = []
        passes.append(run_pass(client, cmds))
        if layers is not None:
            layers.append(client.tracer.spans)
        last = time.perf_counter() - began
    return passes


def command_metrics(passes: list[dict[str, float]], cmds: list[workloads.Command]) -> dict[str, float]:
    """Each command's median time over passes, summed into its metric and pass_s.

    A median per command, rather than of whole passes, keeps a burst of
    machine noise during one command from moving the other commands' figures.
    """
    out = dict.fromkeys(workloads.COMMAND_METRICS, 0.0)
    out["pass_s"] = 0.0
    for cmd in cmds:
        median = statistics.median(p[cmd.key] for p in passes)
        out[cmd.metric] = out.get(cmd.metric, 0.0) + median
        out["pass_s"] += median
    return out


def summarize(values: list[float]) -> dict:
    """Median, quartiles and relative spread of per-pass values."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="orbitpoly end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.HOME))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    try:
        env.pin_threads()
        env.pin_cpu()
        env.use_checkout_src()
    except env.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    fixture_dir = run_dir / "fixtures"
    kernel = calibrate.Kernel()
    try:
        setup_times = time_setups(args.workload, fixture_dir, kernel)
    except (env.SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from orbitpoly.cli import main as cli_main

    cmds = workloads.commands(args.workload)
    client = Client(cli_main, kernel, fixture_dir, run_dir / "report.json", args.seed)
    start = time.perf_counter()
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env.describe(),
        "client": "closed loop, 1 client, in-process click CLI",
        "commands": [c.key for c in cmds],
        "setup_s": setup_times,
    }

    if args.trace == 0:
        passes = run_passes(client, cmds, start + args.seconds, MIN_PASSES)
        metrics = command_metrics(passes, cmds)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = E2E_UNITS
    else:
        import tracing

        untraced = run_passes(client, cmds, start + args.seconds / 2, 1)
        tracer = tracing.Tracer()
        tracer.install()
        details["rebound_in"] = tracer.rebound()
        client.tracer = tracer
        layers = []
        try:
            traced = run_passes(client, cmds, start + args.seconds, 1, layers)
        finally:
            client.tracer = None
            tracer.uninstall()
        with open(run_dir / "spans.jsonl", "w") as fh:
            for k, spans in enumerate(layers):
                for span in spans:
                    fh.write(json.dumps([k, *span]) + "\n")
        # Spans have no kernel runs of their own; they are scaled by the
        # run's median kernel time.
        scale = calibrate.REFERENCE_S / statistics.median(client.kernel_times)
        rows = []
        for spans in layers:
            row = tracing.layer_metrics(spans)
            rows.append({k: v * scale if tracing.LAYER_METRICS[k] == "s" else v for k, v in row.items()})
        metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
        metrics["trace.overhead_s"] = (
            command_metrics(traced, cmds)["pass_s"] - command_metrics(untraced, cmds)["pass_s"]
        )
        details["untraced_passes"] = len(untraced)
        details["layers_per_pass"] = rows
        passes = untraced + traced
        units = tracing.LAYER_METRICS

    details["passes"] = len(passes)
    details["command_s"] = {c.key: summarize([p[c.key] for p in passes]) for c in cmds}
    details["command_wall_s"] = {c.key: summarize(client.wall[c.key]) for c in cmds}
    details["kernel_s"] = summarize(client.kernel_times)
    details["failures"] = client.failures[:20]
    result = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len({f["invocation"] for f in client.failures}),
        "metrics": {
            name: {"value": int(metrics[name]) if unit == "count" else metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    (run_dir / "result.json").write_text(json.dumps({"details": details, "result": result}, indent=1) + "\n")
    shutil.rmtree(fixture_dir, ignore_errors=True)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
