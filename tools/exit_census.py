"""Exit codes of the CLI over many passes of one benchmark deck.

Runs ``concavelab.cli.main`` in-process on passes ``0 .. N-1`` of a
workload's timed deck at one seed, and for ``radial-branch`` also on the
first ``KNOWN_PASSES`` passes of the known-failure deck, as ``bench/run.py``
does, and prints sorted JSON: the number of cases per deck and the exit
code of every case that did not exit 0.  Case generation comes from
``bench/workloads.py``, which is only imported.  Each pass writes its
configs and artifacts to a temporary directory that is removed after it.
Each case runs through ``artifact_digests.run_case``, as the digests do.

A change that should keep every exit code is checked by running this on
both checkouts and comparing the outputs::

    python tools/exit_census.py /path/to/parent --workload radial-branch \\
        --seed 801 --passes 450 > before.json
    python tools/exit_census.py . --workload radial-branch \\
        --seed 801 --passes 450 > after.json
    diff before.json after.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from artifact_digests import run_case

KNOWN_PASSES = 5


def _nonzero_exits(cli, workloads, cases, work: Path) -> dict:
    """Exit code of each case of ``cases`` that did not exit 0."""
    workloads.write_configs(cases, work / "configs")
    codes = {case.case_id: run_case(cli, case, work / "out" / case.case_id) for case in cases}
    return {case_id: code for case_id, code in codes.items() if code != 0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and bench/ are run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from concavelab import cli, oned
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    refs = workloads.References(oned)
    decks = {args.workload: (lambda p: workloads.generate_pass(args.workload, args.seed, p, refs),
                             args.passes)}
    if args.workload == "radial-branch":
        decks[workloads.KNOWN_FAILURE_KEY] = (
            lambda p: workloads.generate_known_failures(args.seed, p, refs), KNOWN_PASSES)

    report = {"cases": {}, "nonzero": {}}
    for name, (generate, passes) in decks.items():
        report["cases"][name] = 0
        for p in range(passes):
            cases = generate(p)
            report["cases"][name] += len(cases)
            with tempfile.TemporaryDirectory() as tmp:
                for case_id, code in _nonzero_exits(cli, workloads, cases, Path(tmp)).items():
                    report["nonzero"][f"{name}/{case_id}"] = code
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
