import gc

import pytest

from golden_cli import BOM_TWINS, CASES, expected, run


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_cli_transcript_is_byte_identical(case):
    try:
        assert run(case) == expected(case.name)
    finally:
        gc.unfreeze()  # each verb freezes the graph it loaded


@pytest.mark.parametrize("bom_case, plain_case", BOM_TWINS)
def test_bom_prefixed_inputs_give_the_plain_transcript(bom_case, plain_case):
    assert expected(bom_case) == expected(plain_case)
