#!/usr/bin/env python3
"""Record bench/reference.json from the current code at seed 0.

    python3 bench/record_reference.py

Runs the serial survey and the stability gate once on the paper's grid
and stores the survey's results fingerprint (with every outcome's status
and rho_r) and the gate's Nyquist/oracle disagreements. Re-record only
when a change is meant to alter results, and say so.
"""

import json
import sys

import run


def main() -> int:
    survey_inputs, _ = run.setup("survey_serial", 0)
    from wlcnoise import survey
    grid = survey.run_sweep(survey_inputs.spec, survey_inputs.ifo, workers=1)
    gate_inputs = run.build_inputs("stability_gate", 0)
    results = run.gate_slice(gate_inputs, gate_inputs.configs, None)
    errors = [r[4] for r in results if r[4] is not None]
    if errors:
        print(f"gate raised {len(errors)} exceptions, first: {errors[0]}", file=sys.stderr)
        return 1
    reference = {
        "rel_tol": run.REL_TOL,
        "environment": run.environment(),
        "survey": run.reference_from_records(run.records_from_grid(grid)),
        "gate": {"configurations": len(gate_inputs.configs),
                 "disagreements": run.gate_disagreements(gate_inputs, results)},
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
