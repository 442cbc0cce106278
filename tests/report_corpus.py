"""The committed report corpus: one report per (command, target, seed) case.

Every case runs the command line in process, as ``orbitpoly <command>
--input <target>.json --seed <seed>`` (``--model <target>`` for
``polar-verify``), with every other option at its default.  A case that
exits 0 is stored as its report, ``<command>/<target>-seed<seed>.json``; any
other as ``<command>/<target>-seed<seed>.txt``, holding its exit code and its
``error:`` line.  ``test_report_corpus.py`` regenerates every case and
compares bytes, so a change to any report shows as a failing test and a
diff of the corpus.

The numpy, scipy and BLAS versions that wrote the corpus are stored beside
it in ``VERSIONS.json``, so that a mismatch on another machine can be told
apart from a change of the code.

Rewrite the corpus, after a change that is meant to change reports, with

    PYTHONPATH=src python tests/report_corpus.py
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy
from click.testing import CliRunner

import helpers
from orbitpoly import catalog, polar
from orbitpoly.cli import main

CORPUS_DIR = Path(__file__).parent / "reports"
VERSIONS_FILE = "VERSIONS.json"

GROUP_COMMANDS = (
    "orbit", "hull", "minkowski", "cone", "voronoi-check", "coxeter-check", "sp-check", "theorem2",
)
SEEDS = (1, 7, 42)

# Known failures, kept so that a fix shows as a diff: theorem2 on B4 and F4
# at seed 117, whose regular vector lies about 1.7e-5 off a mirror, exits 2.
EXTRA_GROUPS = ("b4", "f4")
EXTRA_CASES = (("theorem2", "b4", 117), ("theorem2", "f4", 117))

CASES = (
    *((command, name, seed) for command in GROUP_COMMANDS for name in catalog.CATALOG_NAMES for seed in SEEDS),
    *(("polar-verify", model, seed) for model in sorted(polar.MODEL_BUILDERS) for seed in SEEDS),
    *EXTRA_CASES,
)


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _write_groups(directory: Path) -> None:
    catalog.write_fixtures(directory)
    for name in EXTRA_GROUPS:
        generators = [g.tolist() for g in helpers.reflection_generators(name)]
        (directory / f"{name}.json").write_text(json.dumps({"name": name, "dim": 4, "generators": generators}))


def _run(runner: CliRunner, groups: Path, command: str, target: str, seed: int) -> tuple[str, str]:
    """(file name, contents) of one case."""
    source = ["--model", target] if command == "polar-verify" else ["--input", str(groups / f"{target}.json")]
    result = runner.invoke(main, [command, *source, "--seed", str(seed)], catch_exceptions=False)
    stem = f"{command}/{target}-seed{seed}"
    if result.exit_code == 0:
        return f"{stem}.json", result.stdout
    return f"{stem}.txt", f"exit {result.exit_code}\n{result.stderr}"


def generate() -> dict[str, str]:
    """Every case's file name and contents, regenerated."""
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        groups = Path(tmp)
        _write_groups(groups)
        return dict(_run(runner, groups, *case) for case in CASES)


def committed() -> dict[str, str]:
    """Every committed report's file name and contents, without the versions file."""
    return {
        path.relative_to(CORPUS_DIR).as_posix(): path.read_text()
        for path in sorted(CORPUS_DIR.rglob("*"))
        if path.is_file() and path.name != VERSIONS_FILE
    }


def committed_versions() -> dict:
    return json.loads((CORPUS_DIR / VERSIONS_FILE).read_text())


def write() -> None:
    reports = generate()
    shutil.rmtree(CORPUS_DIR, ignore_errors=True)
    for name, text in reports.items():
        path = CORPUS_DIR / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    (CORPUS_DIR / VERSIONS_FILE).write_text(json.dumps(versions(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} reports to {CORPUS_DIR}", file=sys.stderr)


if __name__ == "__main__":
    write()
