"""Each verdict kind maps its outcomes to report statuses in one place.

A ``Decision`` of a form search prints PASS for yes, FAIL for no and
INCONCLUSIVE for no-witness.  An obstruction ``Certificate`` prints PASS when
infeasible or trivially feasible, and INCONCLUSIVE when inconclusive.  Any
other outcome raises, rather than print a status that nothing decided.
"""

import pytest

from algforge.algebroid import Certificate
from algforge.forms import NO, NO_WITNESS, YES, Decision
from algforge.reports import FAIL, INCONCLUSIVE, PASS


def test_every_decision_outcome_has_its_status_and_an_unknown_one_raises():
    statuses = {outcome: Decision(outcome).report_status for outcome in (YES, NO, NO_WITNESS)}
    assert statuses == {"yes": PASS, "no": FAIL, "no-witness": INCONCLUSIVE}
    with pytest.raises(KeyError):
        Decision("maybe").report_status


def test_every_certificate_outcome_has_its_status_and_an_unknown_one_raises():
    outcomes = ("infeasible", "trivially-feasible", "inconclusive")
    statuses = {outcome: Certificate(outcome, (0, 1, 2), 3).report_status for outcome in outcomes}
    assert statuses == {"infeasible": PASS, "trivially-feasible": PASS, "inconclusive": INCONCLUSIVE}
    with pytest.raises(KeyError):
        Certificate("feasible", (0, 1, 2), 3).report_status
