#!/usr/bin/env python3
"""Benchmark of the ``concavelab`` command line.

Run from the repository root:

    python3 bench/run.py --workload box-verify --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one client in one process: a case
calls ``concavelab.cli.main([experiment, "--config", <yaml>, "--out",
<dir>])`` in-process and the next case starts when it returns.  Cases are
generated from ``--seed`` (see ``workloads.py``); the program sees only
the generated YAML files and the committed ``configs/*.yaml``.

Times are wall times put on a fixed machine-speed scale by a probe timed
around each case (see ``calibrate.py``).  ``--trace 0`` measures the
end-to-end metrics.  ``--trace 1`` runs each
pass untraced and then traced over the same cases and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full report, with every case's exit
code, solver status and cause, goes to ``.bench_out/``.  ``radial-branch``
then runs its known-failure deck untimed (``workloads.KNOWN_FAILURE_DECK``)
and records which cases fail and why.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads
from references import artifact_bytes, artifact_digest, check_case, failure_cause
from stats import median, nearest_rank, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread (nproc is 2 on the reference machine): single-threaded
# box solves were both faster and steadier there than with default threads.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import concavelab.cli; print(time.perf_counter() - t0)")
HARD_CAP_S = 120.0  # no new pass starts after this, whatever --seconds says

# Smallest number of passes per workload.  It fixes the case count from
# which the tail percentile is chosen, so the percentile is the same on
# every run and every commit.
MIN_PASSES = {"box-verify": 3, "radial-branch": 10, "oned-exact": 4}

# Templates of the first pass run a second time at the end for the
# determinism check.
REPEATS = {
    "box-verify": ("configs/concavity_square.yaml", "configs/log_path_square.yaml",
                   "solve-le-2d-81", "dispersive-2d-81"),
    "radial-branch": ("configs/converge_eigen_interval.yaml", "branch-fixed-interval-401",
                      "pohozaev-ball3-201"),
    "oned-exact": ("gausson-2d", "oned-table-4"),
}

# Passes of workloads.KNOWN_FAILURE_DECK run after the timed loop of
# `radial-branch`: untimed, outside `attempted` and `failed`, and recorded
# with every case's cause and their `fail_frac`.
KNOWN_FAILURE_PASSES = 5

END_TO_END = [
    ("setup_s", "s"),
    ("case_p50_s", "s"),
    ("case_tail_s", "s"),
    ("cases_per_s", "1/s"),
    ("ok_frac", "1"),
    ("ref_err_max", "1"),
    ("peak_rss_mb", "MB"),
]


@dataclass
class CaseResult:
    case_id: str
    template: str
    experiment: str
    exit_code: int | None
    wall_s: float
    time_s: float  # wall_s on the probe's reference speed scale
    statuses: list[str]
    ok: bool
    cause: str
    checks: list = field(default_factory=list)
    artifact_bytes: int = 0
    digest: str | None = None
    traceback: str | None = None  # of an exception that escaped cli.main

    def record(self) -> dict:
        return {
            "case": self.case_id, "template": self.template, "experiment": self.experiment,
            "exit": self.exit_code, "wall_s": self.wall_s, "time_s": self.time_s,
            "solver_status": self.statuses,
            "ok": self.ok, "cause": self.cause, "artifact_bytes": self.artifact_bytes,
            "checks": [{"name": c.name, "ratio": c.ratio, "passed": c.passed} for c in self.checks],
            "traceback": self.traceback,
        }


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        import calibrate
        import concavelab
        from concavelab import cli, oned, solver

        self.workload = workload
        self.seed = seed
        self.work = work
        self.cli = cli
        self.oned = oned
        self.package_modules = [m for name, m in sorted(sys.modules.items())
                                if m is not None and (name == "concavelab"
                                                      or name.startswith("concavelab."))]
        self.layer_modules = {layer: getattr(concavelab, layer) for layer in tracing.LAYERS}
        self.solver_status = tracing.StatusProbe(solver)
        self._status_undo = self.solver_status.install(self.package_modules)
        self.speed = calibrate.SpeedProbe()
        self.reference_s = calibrate.REFERENCE_S
        for _ in range(5):  # warm-up
            self.speed()
        self._runs = 0

    def close(self) -> None:
        tracing.restore(self._status_undo)

    # -- set-up ----------------------------------------------------------

    def generate(self, pass_index: int, tag: str):
        refs = workloads.References(self.oned)
        cases = []
        if pass_index == 0:
            cases += workloads.committed_cases(self.workload, ROOT / "configs", refs)
        cases += workloads.generate_pass(self.workload, self.seed, pass_index, refs)
        workloads.write_configs(cases, self.work / tag)
        return cases

    def _factor(self, before: float) -> float:
        """Speed-scale factor for work done since the probe that took ``before``."""
        return self.reference_s / (0.5 * (before + self.speed()))

    def setup(self):
        """Set up several times: import the package in fresh interpreters
        and generate the first pass, ``SETUP_REPS`` times each.  Returns the
        first pass and the median import and generation times, on the
        speed scale."""
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        imports, generations, cases = [], [], None
        for rep in range(SETUP_REPS):
            before = self.speed()
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                                  env=env, capture_output=True, text=True, timeout=120,
                                  check=True)
            imports.append(float(proc.stdout.split()[-1]) * self._factor(before))
            before = self.speed()
            t0 = time.perf_counter()
            cases = self.generate(0, f"setup{rep}")
            generations.append((time.perf_counter() - t0) * self._factor(before))
        return cases, median(imports), median(generations)

    # -- one case --------------------------------------------------------

    def run_case(self, case, digest: bool = False, tracer=None) -> CaseResult:
        self._runs += 1
        out = self.work / "out" / f"{self._runs}"
        argv = [case.experiment, "--config", str(case.config_path), "--out", str(out)]
        statuses = self.solver_status.statuses
        statuses.clear()
        gc.collect()
        before = self.speed()
        sink = io.StringIO()
        error = tb = None
        if tracer is not None:
            tracer.begin_case(case.case_id)
        with redirect_stdout(sink), redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # the loop must outlive any case
                code = None
                error = traceback.format_exception_only(type(exc), exc)[-1].strip()
                tb = traceback.format_exc()
            wall = time.perf_counter() - t0
        factor = self._factor(before)
        if tracer is not None:
            tracer.end_case()
        checks = []
        if code == 0:
            checks = check_case(case, out)
            failed = [c.name for c in checks if not c.passed]
            ok = not failed
            cause = "" if ok else "reference check failed: " + ", ".join(failed)
        elif code is None:
            ok, cause = False, f"exception escaped cli.main: {error}"[:200]
        else:
            ok, cause = False, failure_cause(case, out, code, statuses)
        result = CaseResult(case.case_id, case.template, case.experiment, code, wall,
                            wall * factor, list(statuses), ok, cause, checks,
                            artifact_bytes(out), traceback=tb)
        if digest:
            result.digest = artifact_digest(out)
        shutil.rmtree(out, ignore_errors=True)
        return result

    # -- passes ----------------------------------------------------------

    def measure(self, first_pass, seconds: float, tracer=None):
        """Whole passes, as many as end nearest to ``seconds`` and at least
        the workload's minimum.  With a tracer, each pass runs untraced and
        then traced over the same cases."""
        repeat_ids = self._repeat_ids(first_pass)
        results, traced, repeats, cases = [], [], [], first_pass
        min_passes = 1 if tracer is not None else MIN_PASSES[self.workload]
        t_start = time.perf_counter()
        p = 0
        while True:
            for case in cases:
                result = self.run_case(case, digest=case.case_id in repeat_ids)
                results.append(result)
                if case.case_id in repeat_ids:
                    repeats.append((case, result))
            if tracer is not None:
                undo = tracer.install(self.package_modules)
                try:
                    traced += [self.run_case(case, tracer=tracer) for case in cases]
                finally:
                    tracing.restore(undo)
            p += 1
            elapsed = time.perf_counter() - t_start
            # stop at the whole number of passes whose end lies nearest to `seconds`
            if p >= min_passes and elapsed * (p + 0.5) / p >= seconds or elapsed > HARD_CAP_S:
                break
            cases = self.generate(p, f"pass{p}")
        return results, traced, repeats, p

    def _repeat_ids(self, first_pass) -> set[str]:
        names = set(REPEATS[self.workload])
        return {c.case_id for c in first_pass if c.template in names}

    def determinism(self, repeats) -> list[dict]:
        """Run the repeat subset again; a changed artifact digest is a failure."""
        out = []
        for case, first in repeats:
            again = self.run_case(case, digest=True)
            out.append({"case": case.case_id, "template": case.template,
                        "match": again.digest == first.digest})
        return out

    def known_failures(self) -> list[CaseResult]:
        """Run ``KNOWN_FAILURE_PASSES`` passes of the radial templates over
        the whole parameter box, where today's solver fails on part of it."""
        refs = workloads.References(self.oned)
        results = []
        for p in range(KNOWN_FAILURE_PASSES):
            cases = workloads.generate_known_failures(self.seed, p, refs)
            workloads.write_configs(cases, self.work / f"known{p}")
            results += [self.run_case(case) for case in cases]
        return results


def end_to_end(workload: str, results, setup_s: float) -> tuple[dict, int]:
    times = [r.time_s for r in results]
    n_ok = sum(r.ok for r in results)
    ratios = [c.ratio for r in results if r.exit_code == 0 for c in r.checks
              if c.ratio is not None]
    pct = tail_percentile(MIN_PASSES[workload] * len(workloads.DECKS[workload]))
    values = {
        "setup_s": setup_s,
        "case_p50_s": median(times),
        "case_tail_s": nearest_rank(times, pct),
        "cases_per_s": n_ok / sum(times),
        "ok_frac": n_ok / len(results),
        "ref_err_max": max(ratios) if ratios else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, pct


def environment(args, results_count: int, passes: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": THREADS,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cases": results_count,
        "passes": passes,
        "machine": platform.machine(),
    }


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summarize_failures(results) -> list[str]:
    by_cause = {}
    for r in results:
        if not r.ok:
            by_cause.setdefault(r.cause, []).append(r.template)
    lines = []
    for cause, templates in sorted(by_cause.items(), key=lambda kv: -len(kv[1])):
        names = sorted(set(templates))
        lines.append(f"  {len(templates):4d}  {cause}  [{', '.join(names[:4])}"
                     f"{', ...' if len(names) > 4 else ''}]")
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "concavelab" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"bench: no concavelab sources under {SRC} or no configs/; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import concavelab.cli

    if not Path(concavelab.__file__).resolve().is_relative_to(SRC):
        print(f"bench: concavelab imported from {concavelab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    bench = Bench(args.workload, args.seed, work)
    try:
        first_pass, import_s, generate_s = bench.setup()
        setup_s = import_s + generate_s
        tracer = tracing.Tracer(bench.layer_modules) if args.trace else None
        untraced, traced, repeats, passes = bench.measure(first_pass, args.seconds, tracer)
        results = untraced + traced
        determinism = bench.determinism(repeats)
        known = bench.known_failures() if args.workload == "radial-branch" else []
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    mismatches = [d for d in determinism if not d["match"]]
    # a case that exited 0 but fails a reference check gave a wrong answer,
    # timed or not
    bad_checks = [r for r in results + known if r.exit_code == 0 and not r.ok]
    n_fail = sum(not r.ok for r in results)
    failed = min(len(results), n_fail + len(mismatches))
    correct = not bad_checks and not mismatches
    env = environment(args, len(results), passes)
    report = {"env": env, "setup": {"import_s": import_s, "generate_s": generate_s},
              "determinism": determinism, "fail_frac": n_fail / len(results)}
    lines = [f"{args.workload}: seed {args.seed}, {len(results)} cases in {passes} passes, "
             f"{env['blas']} with {THREADS} thread(s)"]

    if args.trace:
        overhead = median([r.time_s for r in traced]) - median([r.time_s for r in untraced])
        metrics, unmeasured = tracing.layer_metrics(
            tracer, sum(r.artifact_bytes for r in traced), overhead)
        report["unmeasured"] = unmeasured
        lines.append(f"  tracing overhead: traced case_p50_s - untraced case_p50_s = "
                     f"{overhead:.6f} s ({len(traced)} traced cases)")
        if unmeasured:
            lines.append(f"  unmeasured (function no longer exported): {', '.join(unmeasured)}")
        tracer.write(out_dir / f"spans_{args.workload}_seed{args.seed}.jsonl")
    else:
        metrics, pct = end_to_end(args.workload, results, setup_s)
        walls = [r.wall_s for r in results]
        report["tail_percentile"] = pct
        report["wall"] = {"case_p50_s": median(walls), "case_tail_s": nearest_rank(walls, pct)}
        lines.append(f"  case_tail_s is the p{pct} nearest-rank case time "
                     f"({len(results)} cases); times are on the probe's reference "
                     f"speed scale (see calibrate.py)")
        lines.append(f"  uncalibrated wall clock: case p50 "
                     f"{median(walls):.4f} s, case p{pct} {nearest_rank(walls, pct):.4f} s, "
                     f"median speed factor {median([r.time_s / r.wall_s for r in results]):.3f}")
    for name, m in metrics.items():
        lines.append(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  fail_frac {n_fail / len(results):.4f} ({n_fail} of {len(results)}); "
                 f"determinism {len(determinism) - len(mismatches)}/{len(determinism)} match")
    lines += summarize_failures(results)
    if known:
        n_known = sum(not r.ok for r in known)
        report["known_failures"] = {"fail_frac": n_known / len(known), "failed": n_known,
                                    "cases": [r.record() for r in known]}
        lines.append(f"  known failures, whole radial parameter box (untimed): fail_frac "
                     f"{n_known / len(known):.4f} ({n_known} of {len(known)})")
        lines += summarize_failures(known)

    report["metrics"] = metrics
    report["cases"] = [r.record() for r in results]
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"report_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print("\n".join(lines))
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
