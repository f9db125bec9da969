import gc

import pytest

from golden_cli import CASES, expected, run


@pytest.mark.parametrize("name, args, stdin", CASES, ids=[case[0] for case in CASES])
def test_cli_transcript_is_byte_identical(name, args, stdin):
    try:
        assert run(args, stdin) == expected(name)
    finally:
        gc.unfreeze()  # each verb freezes the graph it loaded
