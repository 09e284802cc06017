"""The CI workflow runs the two pytest suites and nothing else.

A check made only in the workflow's shell is a second copy of tier-1 that
drifts from it; a new CLI behaviour gets a tier-1 case instead.
"""

from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"

# each step by what it runs: an action without its version, or a command
STEPS = [
    "actions/checkout",
    "actions/setup-python",
    "python -m pip install -e .[test]",
    "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q "
    "--continue-on-collection-errors --durations=10",
    "python -m pytest -q perfbench",
]


def test_the_workflow_runs_the_two_suites_and_nothing_else():
    (job,) = yaml.safe_load(WORKFLOW.read_text())["jobs"].values()
    assert [step.get("run", step.get("uses", "").split("@")[0])
            for step in job["steps"]] == STEPS
    assert job["timeout-minutes"] == 20
    assert job["env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                          "MKL_NUM_THREADS": "1"}
