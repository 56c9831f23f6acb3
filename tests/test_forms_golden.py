"""Pinned outputs of the commands built on the forms layer.

`cohomology`, `charclass` and `transgression` apply the differential to
forms of every degree up to 4, through d², the d²-ideal, the bounded
closedness and exactness searches and the Chern–Weil forms.  These sha256
digests of their `--json` bytes and their exit codes were recorded before the
differential was rewritten as a derivation, so any formula for d must
reproduce them exactly.  The four that print a nonzero form were re-pinned
when form witnesses took the text a document's `form` line writes; the forms
themselves did not change.
"""

import hashlib

import pytest

from algforge import cli

FORMS_JSON = {
    "cohomology E0 --form omega21 --max-degree 2": (
        "75b5759f3bacdf9e9e23a09fa243ebdf22963c1d387a88eaff5268488e5a0b53",
        1,
    ),
    "cohomology E0 --form omega21 --max-degree 4": (
        "97c9d84e17fbd9518078a4010170766ae0931eb82c60c28cf2d23e2abb778fe4",
        1,
    ),
    "cohomology plane_forms --form area": (
        "6a0bd98b787ee3698caa6c48a790d0c4c6ee69102ce4e31a45ce2ad3284c923a",
        0,
    ),
    "cohomology plane_forms --form radial": (
        "934c5ce79d7dabfae5431d8d8950fa5d3a7e05ee569d801bc4a6dd2c4d7ebfd5",
        1,
    ),
    "cohomology plane_forms --form grad1": (
        "d2ef3408005482a19596a76348826f48e7d7b36bfe293a458dee8fbc297e942c",
        0,
    ),
    "charclass E0 --connection torsionfree --max-k 3": (
        "7cef36f0fe897ed54f6be8e7af79e624309f02d9c98267dd800a4ed4c29f2264",
        0,
    ),
    "charclass E0 --connection flat --max-k 3": (
        "d01f6b5d329bd9e4884c5772eced002468ceaf0fa46978e46350ee6a9f3a9ac9",
        0,
    ),
    "transgression E0 --c1 flat --c2 torsionfree --k 1": (
        "502d0cf03e38922dcfae9f3d3e136cd6562bdb0503bf227fc131d8c1703bfe9e",
        0,
    ),
    "transgression E0 --c1 flat --c2 torsionfree --k 2": (
        "59c92d345bdaa9c014ac22957b0b2d012da055da39f0e70f665083ecbf4e3a9c",
        0,
    ),
}


@pytest.mark.parametrize("command", sorted(FORMS_JSON))
def test_forms_json_bytes(capsys, command):
    digest, code = FORMS_JSON[command]
    assert cli.main(command.split() + ["--json"]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
