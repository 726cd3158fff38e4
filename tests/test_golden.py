"""The golden corpus: every recorded CLI command still prints the same bytes.

After an intended output change, rewrite the corpus with
`python tests/golden/regen.py` and review the diff.
"""

import json

import pytest

from golden.regen import CASES, EXPECTED, LIBRARY_CASES, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, monkeypatch):
    source, _args = CASES[name]
    monkeypatch.chdir(source.parent)
    assert run_case(name) == (EXPECTED / name).read_bytes()


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.endswith(".json")))
def test_json_report_is_one_json_dumps_line(name):
    text = (EXPECTED / name).read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text)) + "\n"


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_golden_library_bytes(name):
    assert LIBRARY_CASES[name]() == (EXPECTED / name).read_bytes()


def test_every_expected_file_has_a_case():
    assert sorted(path.name for path in EXPECTED.iterdir()) == sorted([*CASES, *LIBRARY_CASES])
