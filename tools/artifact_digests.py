"""SHA-256 digests of every CLI artifact on a fixed set of cases.

Runs ``concavelab.cli.main`` in-process on the four committed configs, on
pass 0 of the three benchmark decks, on pass 0 of the known-failure deck,
all at one seed, and on ``FIXED_CASES``, and prints sorted JSON: for each
case its exit code and the SHA-256 of each file it wrote.  Case generation
comes from ``bench/workloads.py``, which is only imported.  Each
``demos/*.py`` runs in a subprocess with the checkout's ``src/`` as
``PYTHONPATH``; the ``demos`` deck records its exit code and the SHA-256 of
its standard output.

A change that should keep behaviour is checked by running this on both
checkouts and comparing the outputs::

    python tools/artifact_digests.py /path/to/parent > before.json
    python tools/artifact_digests.py > after.json
    diff before.json after.json

The optional argument is the root of the checkout to run (default: the
one holding this script); its ``src/`` and ``bench/`` are imported.
``tools/artifact_diff.py`` runs the same cases through :func:`run_cases`
and compares the values in the files that moved; ``tools/exit_census.py``
runs its cases through :func:`run_case`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SEED = 801
LOG = {"kind": "log_schrodinger"}
SWEEP = [0.1, 0.3, 0.5, 0.7, 0.9]
# paths that no deck reaches: quasi-concavity on balls, the radial sampler
FIXED_CASES = {
    f"quasiconcavity-ball{dim}-{kind}": {
        "experiment": "quasiconcavity", "resolution": 201, "seed": SEED,
        "domain": {"kind": "ball", "radius": 1.5, "ambient_dim": dim}, "reaction": reaction,
    }
    for dim in (2, 3)
    for kind, reaction in (("lane_emden", {"kind": "lane_emden", "q": 2.0, "sigma": 1.0}),
                           ("log", LOG))
}
# concavity checks on an interval (one eigenvalue) and on balls (the radial
# chain rule), each with an alpha sweep
FIXED_CASES.update({
    f"concavity-{name}": {
        "experiment": "concavity", "resolution": n, "domain": domain, "reaction": LOG,
        "transforms": [{"kind": "log", "expect": "holds strictly"}], "alphas": SWEEP,
    }
    for name, domain, n in (("interval", {"kind": "interval", "halfwidth": 1.3}, 401),
                            ("ball2", {"kind": "ball", "radius": 1.5, "ambient_dim": 2}, 201),
                            ("ball3", {"kind": "ball", "radius": 1.5, "ambient_dim": 3}, 201))
})
# a box check set off its defaults, and sqrt_log with m the solution's peak,
# so the peak node leaves the check set at the finite endpoint
FIXED_CASES["concavity-box-sqrt-log"] = {
    "experiment": "concavity", "resolution": 61, "reaction": LOG,
    "domain": {"kind": "box", "halfwidths": [1.0, 1.2]},
    "transforms": [{"kind": "sqrt_log", "m": 12.416467071223481, "eps_floor": 0.5,
                    "layer_k": 5},
                   {"kind": "log", "eps_floor": 0.05, "layer_k": 2, "negate": True}],
}
# the 3D check region: an unequal box, sqrt_log with m the solution's peak (so
# the peak leaves its check set at the finite endpoint) and a sweep
FIXED_CASES["concavity-box3"] = {
    "experiment": "concavity", "resolution": 21, "reaction": LOG,
    "domain": {"kind": "box", "halfwidths": [1.0, 1.2, 0.9]},
    "transforms": [{"kind": "log"}, {"kind": "sqrt_log", "m": 69.59506688347507}],
    "alphas": SWEEP,
}
# the 3D product guess of a box log solve at a useful size, on an unequal box
FIXED_CASES["solve-box3"] = {
    "experiment": "solve", "resolution": 41, "reaction": LOG,
    "domain": {"kind": "box", "halfwidths": [1.0, 1.2, 0.9]},
}
# the dispersive sign's product guess: no deck template runs a plain
# dispersive log solve, nor one on an unequal 3D box
FIXED_CASES["solve-dispersive-log-box3"] = {
    "experiment": "solve", "resolution": 21, "reaction": {"kind": "dispersive_log"},
    "domain": {"kind": "box", "halfwidths": [1.0, 1.2, 0.9]},
}
# alpha* at both ends of W0's range, beyond the decks' b in [0.35, 4]: 0.32
# sits just inside the peak cap 1e6, 6.0 just inside MAX_HALFWIDTH
FIXED_CASES["oned-table-wide"] = {
    "experiment": "oned-table", "b_grid": [0.32, 5.0, 5.5, 6.0], "samples_per_unit": 100,
}
# a dispersive run whose log half is trivial on this small square while its
# polynomial half converges: no deck template reaches an unconverged half
FIXED_CASES["dispersive-trivial-log-half"] = {
    "experiment": "dispersive", "resolution": 21, "q": 2.0, "sigma": 60.0,
    "domain": {"kind": "box", "halfwidths": [0.3, 0.3]},
}


def _digests(directory: Path) -> dict:
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def case_dir(work: Path, key: str) -> Path:
    """Where :func:`run_cases` keeps the files of the case (or demo) ``key``."""
    return work / "out" / key


def run_case(cli, case, out: Path) -> int:
    """Exit code of ``cli.main`` on ``case``, its files written to ``out`` and
    its standard output and error discarded."""
    argv = [case.experiment, "--config", str(case.config_path), "--out", str(out)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _run(cli, cases, deck: str, work: Path) -> dict:
    """Exit code and file digests of each case of ``deck``."""
    results = {}
    for case in cases:
        key = f"{deck}/{case.case_id}"
        out = case_dir(work, key)
        results[key] = {"exit": run_case(cli, case, out),
                        "files": _digests(out) if out.is_dir() else {}}
    return results


def _run_demos(root: Path, work: Path) -> dict:
    """Exit code and stdout digest of each demo of ``root``, run from ``work``,
    its standard output kept as the file ``stdout``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    results = {}
    for demo in sorted((root / "demos").glob("*.py")):
        done = subprocess.run([sys.executable, str(demo)], cwd=work, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        key = f"demos/{demo.name}"
        case_dir(work, key).mkdir(parents=True)
        (case_dir(work, key) / "stdout").write_bytes(done.stdout)
        results[key] = {
            "exit": done.returncode, "files": {"stdout": hashlib.sha256(done.stdout).hexdigest()}}
    return results


def run_cases(root: Path, work: Path) -> dict:
    """Run every case of the checkout at ``root``, its configs and artifacts
    kept under ``work``: the report maps ``deck/case_id`` and each demo to
    its exit code and the SHA-256 of each file it wrote."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from concavelab import cli, oned
    import workloads

    refs = workloads.References(oned)
    decks = {"committed": [c for w in workloads.WORKLOADS
                           for c in workloads.committed_cases(w, root / "configs", refs)]}
    for workload in workloads.WORKLOADS:
        decks[workload] = workloads.generate_pass(workload, SEED, 0, refs)
    decks[workloads.KNOWN_FAILURE_KEY] = workloads.generate_known_failures(SEED, 0, refs)
    decks["fixed"] = [workloads.Case(case_id, case_id, cfg["experiment"], cfg)
                      for case_id, cfg in FIXED_CASES.items()]

    report = {}
    for name, cases in decks.items():
        # case ids repeat across decks, so each deck has its own configs
        workloads.write_configs(cases, work / "configs" / name.replace("/", "-"))
        report.update(_run(cli, cases, name, work))
    report.update(_run_demos(root, work))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and bench/ are run")
    root = parser.parse_args(argv).root.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        report = run_cases(root, Path(tmp))
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
