"""Pinned outputs of the commands built on the forms layer.

`cohomology`, `charclass` and `transgression` apply the differential to
forms of every degree up to 4, through d², the d²-ideal, the bounded
closedness and exactness searches and the Chern–Weil forms.  These sha256
digests of their `--json` bytes and their exit codes were recorded before the
differential was rewritten as a derivation, so any formula for d must
reproduce them exactly.
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
        "c153ea72281c3baecb5e5a5537ec2e7f648e261b6c9f178f0d43f9caa7a8d053",
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
        "bb9e998dcfe15e62725346b937e27159aeb829b45c313e17a712b427cfcfe2c3",
        0,
    ),
    "charclass E0 --connection flat --max-k 3": (
        "d01f6b5d329bd9e4884c5772eced002468ceaf0fa46978e46350ee6a9f3a9ac9",
        0,
    ),
    "transgression E0 --c1 flat --c2 torsionfree --k 1": (
        "e3f7c476d354a45af12d35f48a5ec995c75858d11026031a44349dd392e76b53",
        0,
    ),
    "transgression E0 --c1 flat --c2 torsionfree --k 2": (
        "cd192cf13a72382c0d30258d2e024929a99493626ff01a59953b0f6f41dd8dc8",
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
