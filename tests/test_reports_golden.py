"""Byte-for-byte regression of gq reports against stored golden files.

Each command runs `gabrielq.cli.main` in-process; its stdout must equal
`tests/golden/<name>.txt`.  A change that alters report bytes on purpose
regenerates the files with

    PYTHONPATH=src python tests/test_reports_golden.py

and says so in CHANGES.md.
"""
import contextlib
import io
import pathlib
import sys

import pytest

from gabrielq.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")

VERIFY = ["--ring", "R2", "--m", "1", "--samples", "10", "--seed", "42"]

# splits into three pieces, one of dimension 0: the prune loop, the
# dimension-0 peel and the residual sums all run
PIECES_R2 = "(b+c)*(a-1), (b+c)*(b+1), (b+c)*(c+1), (b+c)*(d-1)"

COMMANDS = {
    "saturate_R1": ["saturate", "--ring", "R1", "--m", "1", "x^2*y, x*y^2"],
    "saturate_R2": ["saturate", "--ring", "R2", "--m", "1", "a*b, a*c"],
    "saturate_R3": ["saturate", "--ring", "R3", "--m", "1", "x*z, y*z"],
    "split_R1": ["split", "--ring", "R1", "--m", "1", "x^2, x*y"],
    "split_R2": ["split", "--ring", "R2", "--m", "1", PIECES_R2],
    "saturate_R2_pieces": ["saturate", "--ring", "R2", "--m", "1", PIECES_R2],
    "contract_R2": ["contract", "--ring", "R2", "--m", "1", "b^2, a^2", "--den", "a"],
    "extend_R2": ["extend", "--ring", "R2", "--m", "1", "a"],
    "membership_R2": ["membership", "--ring", "R2", "--m", "1", "b^2/a"],
    "quotient-survey_R2": ["quotient-survey", "--ring", "R2", "--m", "1"],
    "verify_lemma-3.2_R2": ["verify", "lemma-3.2"] + VERIFY,
    "verify_thm-3.4-survey_R2": ["verify", "thm-3.4-survey"] + VERIFY,
    "verify_lemma-1.2_R2": ["verify", "lemma-1.2"] + VERIFY,
    "verify_filter-axioms_R2": ["verify", "filter-axioms"] + VERIFY,
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name):
    code, text = _run(COMMANDS[name])
    assert code == 0
    assert text == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        code, text = _run(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.txt").write_text(text)
