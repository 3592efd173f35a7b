"""Regenerate perfbench/reference.json, the flow workloads' committed references.

    python3 perfbench/make_reference.py

For each flow workload it runs ``flow`` at safety 0.1 (four times smaller
steps than the benchmarked 0.4) and keeps its initial and final profiles,
which the benchmark's accuracy check compares against.  It then runs the
benchmarked scenario and ``report`` once and keeps the dichotomy flags.  Run
it only on a commit whose results are trusted: the references define what
"correct" means for every later run.
"""

from __future__ import annotations

import json
import sys

from run import (BENCH_DIR, FLAG_KEYS, FLOW_WORKLOADS, REFERENCE, cli_argv, flow_scenario,
                 read_json, read_profile, remove_work, spawn, write_scenario)

REFERENCE_SAFETY = 0.1


def run_cli(args: list, log) -> None:
    outcome = spawn(cli_argv(args), log, 3600.0)
    if outcome.code != 0:
        sys.exit(f"{' '.join(map(str, args))} exited {outcome.code}:\n{log.read_text()}")


def profile(out, index: int) -> list:
    return read_profile(out / read_json(out / "report.json")["artifacts"]["snapshots"][index])


def main() -> int:
    work = BENCH_DIR / ".work" / "reference"
    remove_work(work)
    work.mkdir(parents=True)
    workloads = {}
    try:
        for name in FLOW_WORKLOADS:
            ref_out, out = work / f"{name}-ref", work / name
            ref_cfg = write_scenario(work / f"{name}-ref.yaml",
                                     flow_scenario(name, REFERENCE_SAFETY))
            cfg = write_scenario(work / f"{name}.yaml", flow_scenario(name))
            run_cli(["flow", ref_cfg, "--output-dir", ref_out, "--quiet"], work / "ref.log")
            run_cli(["flow", cfg, "--output-dir", out, "--quiet"], work / "flow.log")
            run_cli(["report", out, "--quiet"], work / "report.log")
            reference = profile(ref_out, -1)
            flags = read_json(out / "dichotomy.json")["dichotomy"]
            error = (max(abs(a - b) for a, b in zip(profile(out, -1), reference))
                     / max(map(abs, reference)))
            print(f"{name}: safety 0.4 is {error:.3g} from safety {REFERENCE_SAFETY}")
            workloads[name] = {"safety": REFERENCE_SAFETY, "initial_v": profile(ref_out, 0),
                               "final_v": reference,
                               "flags": {k: flags[k] for k in FLAG_KEYS}}
    finally:
        remove_work(work)
    REFERENCE.write_text(json.dumps({"workloads": workloads}, indent=1) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
