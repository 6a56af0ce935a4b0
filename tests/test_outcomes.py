"""The recorded outcomes of a fixed op set hold: each op of outcomes.json,
rerun through the CLI, gives the exit code, statuses, iteration counts,
verdicts and brackets it recorded, and floats within `RTOL` relative.  A
change that moves them on purpose reruns `record_outcomes.py` and lists
the fields it prints."""

import json

import pytest

from record_outcomes import PATH, moved, outcome

OPS = json.loads(PATH.read_text())


def test_the_record_covers_the_readme_and_every_workload():
    names = [op["name"].split("/")[0] for op in OPS]
    assert names.count("readme") == 4
    assert {"scan-n20", "analysis", "run-n400", "logistic-n6"} <= set(names)


@pytest.mark.parametrize("op", OPS, ids=[op["name"] for op in OPS])
def test_the_recorded_outcome_holds(op, tmp_path):
    assert list(moved(op["outcome"], outcome(op["command"], op["config"], tmp_path))) == []
