"""The 54 reference reports keep their exit codes, classes, check sets,
verdicts and mass scans, and no error moves by more than 1e-6 of its
tolerance (``reference_reports``)."""

import copy
import json

import pytest

from reference_reports import (ERROR_SHIFT, REFERENCE, differences,
                               generate)


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.fixture(scope="module")
def reports():
    return generate()


def test_reports_match_the_reference(reference, reports):
    assert len(reference) == 54
    assert differences(reference, reports) == []


def test_the_comparison_sees_each_kind_of_change(reference):
    key = "identities schwarzschild seed 42"
    cid = "eq_1_7_derivative_chain"
    for change, expected in (
        (lambda r: r[key].update(exit=1), "exit"),
        (lambda r: r[key].update({"class": "generic"}), "class"),
        (lambda r: r[key]["checks"].pop(cid), "check set"),
        (lambda r: r[key]["checks"][cid].update(passed=False), "verdict"),
        (lambda r: r[key]["checks"][cid].update(
            max_rel_error=r[key]["checks"][cid]["max_rel_error"]
            + 2 * ERROR_SHIFT * r[key]["checks"][cid]["tolerance"]), "moved"),
        (lambda r: r["constraints de_sitter_static seed 42"]["mass_scan"]
         ["table"][1].__setitem__(1, 1.0), "mass scan"),
        (lambda r: r["gauge schwarzschild seed 7"].update(verdict="x"),
         "verdict"),
    ):
        changed = copy.deepcopy(reference)
        change(changed)
        found = differences(reference, changed)
        assert len(found) == 1 and expected in found[0], found
