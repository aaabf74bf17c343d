"""Checks of one case's artifacts against the references made at set-up,
plus the failure cause and the artifact digest of a case.

Every check with a tolerance reports its error as a multiple of that
tolerance (1.0 sits exactly on the tolerance); ``ref_err_max`` is the
largest of these over a workload.  Verdict checks pass or fail and carry
no ratio.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from workloads import LAMBDA_TOL_REL, Case

REPORT_JSON = {
    "solve": "solve.json",
    "branch": "branch.json",
    "converge-eigen": "converge_eigen.json",
    "converge-log": "converge_log.json",
    "concavity": "concavity.json",
    "quasiconcavity": "quasiconcavity.json",
    "pohozaev": "pohozaev.json",
    "dispersive": "dispersive.json",
    "oned-table": "oned_table.json",
    "tensor-check": "tensor.json",
    "gausson-residual": "gausson.json",
    "energy-bound": "energy_bound.json",
}


@dataclass(frozen=True)
class Check:
    name: str
    ratio: float | None  # error / tolerance; None for verdict checks
    passed: bool


def _ratio_check(name: str, err: float, tol: float, strict: bool = False) -> Check:
    ratio = err / tol if tol > 0 else float("inf")
    return Check(name, ratio, ratio < 1.0 if strict else ratio <= 1.0)


def check_case(case: Case, out_dir: Path) -> list[Check]:
    """Reference checks of a case that exited 0.

    - log problem on intervals and boxes: sup norm against the exact
      tensor product ``prod m(b_i)`` within ``C h^2`` (relative);
    - ``converge-eigen`` on intervals and boxes: lambda1 against the
      closed form, relative tolerance 1e-10;
    - ``concavity``: the log transform verdict is "holds strictly";
    - ``pohozaev``: ``sup u > e^(N/4)`` (ratio threshold / sup, strict);
    - ``energy-bound``: energy <= bound (ratio energy / bound);
    - ``tensor-check``: residual ratio in [3, 5] (a verdict);
    - ``gausson-residual``: residual ratio in [3.5, 4.5] (ratio ``|r - 4| / 0.5``).
    """
    try:
        payload = json.loads((out_dir / REPORT_JSON[case.experiment]).read_text())
        return _checks(case, payload)
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [Check(f"artifact: {type(exc).__name__}: {exc}", None, False)]


def _checks(case: Case, payload: dict) -> list[Check]:
    refs = case.refs
    checks = []
    if "sup_exact" in refs:
        sup = payload["solve"]["sup_norm"] if case.experiment == "concavity" else payload["sup_norm"]
        exact = refs["sup_exact"]
        checks.append(_ratio_check("log_sup", abs(sup - exact), refs["sup_tol_rel"] * exact))
    if "pohozaev_threshold" in refs:
        checks.append(_ratio_check("pohozaev", refs["pohozaev_threshold"], payload["sup_norm"],
                                   strict=True))
    if "lambda1_closed" in refs:
        lam = refs["lambda1_closed"]
        checks.append(_ratio_check("lambda1", abs(payload["lambda1"] - lam), LAMBDA_TOL_REL * lam))
    if case.experiment == "concavity":
        verdicts = [r["verdict"] for r in payload["reports"] if r["transform"] == "log"]
        ok = bool(verdicts) and all(v == "holds strictly" for v in verdicts)
        checks.append(Check("log_verdict", None, ok))
    if case.experiment == "energy-bound":
        checks.append(_ratio_check("energy_bound", payload["energy"], payload["bound"]))
    if case.experiment == "tensor-check":
        # a verdict: the distance of this ratio from 4 jumps between 0 and 0.35
        # as the halfwidths move (3.65-4.01 for (b, 1.6 b)), so as a tolerance
        # ratio it would make ref_err_max follow the draws, not the program
        ratio = payload["residual_ratio"]
        checks.append(Check("tensor_ratio", None, 3.0 <= ratio <= 5.0))
    if case.experiment == "gausson-residual":
        checks.append(_ratio_check("gausson_ratio", abs(payload["ratio"] - 4.0), 0.5))
    return checks


def failure_cause(case: Case, out_dir: Path, code: int, statuses: list[str]) -> str:
    """One line naming why a case did not exit 0: the exit code, any
    non-converged solver status, and the detail its artifacts give."""
    parts = [f"exit {code}"]
    bad = sorted({s for s in statuses if s != "converged"})
    if bad:
        parts.append("solver " + ",".join(bad))
    parts.append(_artifact_detail(case, out_dir))
    return "; ".join(p for p in parts if p)[:200]


def _artifact_detail(case: Case, out_dir: Path) -> str:
    for name in ("failure.json", REPORT_JSON.get(case.experiment, "")):
        path = out_dir / name
        if not name or not path.is_file():
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return f"unreadable {name}"
        if payload.get("error"):
            return str(payload["error"])
        if payload.get("failures"):
            return "; ".join(str(f) for f in payload["failures"][:2])
        if payload.get("status") not in (None, "converged"):
            return f"status {payload['status']}"
        if payload.get("complete") is False:
            points = payload.get("points", len(payload.get("limit_errors")
                                                or payload.get("log_residuals_rel") or ()))
            return f"branch incomplete after {points} points"
        if payload.get("strictly_decreasing") is False:
            return "errors not strictly decreasing"
        if payload.get("passed") is False:
            return f"{case.experiment} check not passed"
        return f"{name} gives no cause"
    return "no report written"


def artifact_files(out_dir: Path) -> list[Path]:
    return sorted(p for p in out_dir.rglob("*") if p.is_file())


def artifact_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in artifact_files(out_dir))


def artifact_digest(out_dir: Path) -> str:
    """SHA-256 over the names and bytes of every artifact of a case."""
    h = hashlib.sha256()
    for path in artifact_files(out_dir):
        h.update(path.relative_to(out_dir).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
