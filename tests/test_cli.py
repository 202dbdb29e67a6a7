"""The gq command-line front end: reports, exit codes, determinism."""
import io
import contextlib
import time

import pytest

from gabrielq.cli import main
from gabrielq.poly import check_deadline


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_membership_negative_R1():
    code, out, _ = run(["membership", "--ring", "R1", "--m", "1", "1/x"])
    assert code == 0
    assert "verdict: False" in out
    assert "conductor.gen[1]: x" in out
    assert "conductor.dim: 1" in out


def test_membership_trivial_element():
    code, out, _ = run(["membership", "--ring", "R1", "--m", "1", "x"])
    assert code == 0
    assert "verdict: True" in out


def test_membership_headline_R2():
    code, out, _ = run(["membership", "--ring", "R2", "--m", "1", "b^2/a"])
    assert code == 0
    assert "verdict: True" in out
    assert "conductor.dim: 0" in out
    assert "in_R: False" in out


def test_unit_command():
    code, out, _ = run(["unit", "--ring", "R1", "--m", "1", "3/2"])
    assert code == 0 and "verdict: True" in out
    code, out, _ = run(["unit", "--ring", "R1", "--m", "1", "x"])
    assert code == 0 and "verdict: False" in out


def test_saturate_command():
    code, out, _ = run(["saturate", "--ring", "R1", "--m", "1", "x^2*y, x*y^2"])
    assert code == 0
    assert "saturation.gen[1]: x*y" in out
    assert "check[1].v1: pass" in out


def test_saturate_m0_is_identity():
    code, out, _ = run(["saturate", "--ring", "R1", "--m", "0", "x + 1"])
    assert code == 0
    assert "saturation.gen[1]: x + 1" in out


def test_saturate_rejects_unit_ideal():
    code, _, err = run(["saturate", "--ring", "R1", "--m", "1", "1"])
    assert code == 2
    assert "error" in err


def test_split_command():
    code, out, _ = run(["split", "--ring", "R1", "--m", "1", "x^2, x*y"])
    assert code == 0
    assert "piece[1].dim: 1" in out
    assert "piece[2].dim: 0" in out


def test_extend_and_contract():
    code, out, _ = run(["extend", "--ring", "R2", "--m", "1", "a"])
    assert code == 0 and "extension.den: a" in out
    code, out, _ = run(
        ["contract", "--ring", "R2", "--m", "1", "b^2, a^2", "--den", "a"]
    )
    assert code == 0
    assert "contraction.gen[1]: a" in out
    assert "contraction.gen[5]: b^2" in out


def test_quotient_survey_R2():
    code, out, _ = run(["quotient-survey", "--ring", "R2", "--m", "1"])
    assert code == 0
    assert "strictly_contains_R: True" in out
    assert "witness: (b^2) / (a)" in out
    assert "converged: True" in out


def test_quotient_survey_R1_is_R():
    code, out, _ = run(["quotient-survey", "--ring", "R1", "--m", "1"])
    assert code == 0
    assert "strictly_contains_R: False" in out


def test_quotient_survey_rounds_zero():
    code, out, _ = run(
        ["quotient-survey", "--ring", "R2", "--m", "1", "--rounds", "0"]
    )
    assert code == 0
    assert "converged: False" in out


def test_verify_exit_zero_and_determinism(tmp_path):
    args = ["verify", "thm-2.5", "--ring", "R1", "--m", "1",
            "--samples", "20", "--seed", "42"]
    code1, out1, _ = run(args + ["--out", str(tmp_path / "a.txt")])
    code2, out2, _ = run(args + ["--out", str(tmp_path / "b.txt")])
    assert code1 == code2 == 0
    assert out1 == out2
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert (tmp_path / "a.txt").read_text() == out1


def test_verify_m_out_of_range():
    code, _, err = run(["verify", "thm-2.5", "--ring", "R1", "--m", "5",
                        "--samples", "5", "--seed", "1"])
    assert code == 2
    assert "error" in err


def test_bad_ring_file():
    code, _, err = run(["membership", "--ring", "NotARing", "--m", "1", "x"])
    assert code == 2


def test_ring_file_with_repeated_variable(tmp_path):
    """Q[x, x] would load with n = 2, so --m 1 would pass for a curve."""
    p = tmp_path / "dup.ring"
    p.write_text("name: D\nvars: x, x\nrelations:\ncertified_prime: true\n")
    code, out, err = run(["membership", "--ring", str(p), "--m", "1", "1/x"])
    assert code == 2 and out == ""
    assert "repeated variable name" in err


def test_bad_fraction():
    code, _, err = run(["membership", "--ring", "R1", "--m", "1", "q + 1"])
    assert code == 2


def test_zero_denominator():
    code, _, err = run(["membership", "--ring", "R3", "--m", "1",
                        "(y^2 - x^3)/(y^2 - x^3)"])
    assert code == 2


def test_time_budget(monkeypatch):
    monkeypatch.setenv("GQ_TIME_BUDGET_SECS", "0")
    code, _, err = run(["verify", "lemma-1.2", "--ring", "R1", "--m", "1",
                        "--samples", "5", "--seed", "1"])
    assert code == 2
    assert "GQ_TIME_BUDGET_SECS" in err


def test_time_budget_bounds_the_computation(monkeypatch):
    # this suite runs for seconds; the deadline is checked once per S-pair
    # inside Buchberger, not only after the suite returns
    monkeypatch.setenv("GQ_TIME_BUDGET_SECS", "0.5")
    start = time.monotonic()
    code, out, err = run(["verify", "thm-2.4", "--ring", "R2", "--m", "1",
                          "--samples", "300", "--seed", "1"])
    elapsed = time.monotonic() - start
    assert code == 2
    assert out == ""
    assert "GQ_TIME_BUDGET_SECS limit of 0.5s" in err
    assert elapsed < 1.5
    check_deadline()  # the deadline, long past, ended with the command


def test_time_budget_bounds_polynomial_powers(monkeypatch):
    # parsing this power runs for seconds of Polynomial multiplication
    # before any Groebner basis is computed (about 5 s unbounded on a
    # 2-vCPU machine, Python 3.11; ^80 took 1-2 s there, too close to the
    # budget for a faster machine)
    monkeypatch.setenv("GQ_TIME_BUDGET_SECS", "0.5")
    start = time.monotonic()
    code, out, err = run(["membership", "--ring", "R1", "--m", "1",
                          "(x + y + 1)^120"])
    elapsed = time.monotonic() - start
    assert code == 2
    assert out == ""
    assert "GQ_TIME_BUDGET_SECS limit of 0.5s" in err
    assert elapsed < 1.5


def test_time_budget_bounds_normal_forms(monkeypatch):
    # parsing c^8000000 is instant, and reducing it modulo P (FractionQ's
    # normal form) takes about eight million steps of the reduction kernel,
    # about 18 s unbounded on a 2-vCPU machine (Python 3.11), nine times the
    # budget, so the budget runs out inside the kernel on a fast machine
    # too (test_groebner checks the kernel's own deadline)
    monkeypatch.setenv("GQ_TIME_BUDGET_SECS", "2")
    start = time.monotonic()
    code, out, err = run(["membership", "--ring", "R2", "--m", "1",
                          "c^8000000"])
    elapsed = time.monotonic() - start
    assert code == 2
    assert out == ""
    assert "command exceeded the GQ_TIME_BUDGET_SECS limit of 2.0s" in err
    assert elapsed < 3.5


@pytest.mark.parametrize("argv", [
    # a witness degree of 10^11: one monomial draw is 10^11 steps
    ["verify", "lemma-1.2", "--ring", "R1", "--m", "1", "--samples", "3",
     "--max-degree", "100000000000"],
    # two million draws over P = 0, where no reduction step checks it
    ["verify", "thm-2.5", "--ring", "R1", "--m", "1", "--samples", "2000000"],
], ids=["lemma-1.2", "thm-2.5"])
def test_time_budget_bounds_sampling(monkeypatch, argv):
    monkeypatch.setenv("GQ_TIME_BUDGET_SECS", "0.5")
    start = time.monotonic()
    code, out, err = run(argv)
    elapsed = time.monotonic() - start
    assert code == 2
    assert out == ""
    assert "GQ_TIME_BUDGET_SECS limit of 0.5s" in err
    assert elapsed < 1.5


@pytest.mark.parametrize("value", ["nan", "-1", "soon"])
def test_invalid_time_budget_is_usage_error(monkeypatch, value):
    monkeypatch.setenv("GQ_TIME_BUDGET_SECS", value)
    code, out, err = run(["membership", "--ring", "R1", "--m", "1", "x"])
    assert code == 2
    assert out == ""
    assert f"GQ_TIME_BUDGET_SECS must be a number of seconds >= 0, got {value!r}" in err


def test_deeply_nested_input_is_a_parse_error():
    text = "(" * 2000 + "a" + ")" * 2000
    code, out, err = run(["membership", "--ring", "R2", "--m", "1", text])
    assert code == 2
    assert out == ""
    assert "position" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--samples", "--rounds", "--max-degree"])
def test_negative_count_is_usage_error(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lemma-2.3", "--ring", "R2", "--m", "1", flag, "-3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be non-negative, got -3" in err
    assert "Traceback" not in err


def test_non_integer_count_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm-2.5", "--ring", "R1", "--m", "1", "--samples", "x"])
    assert exc.value.code == 2
    assert "argument --samples: invalid non_negative_int value: 'x'" in capsys.readouterr().err


def test_verify_zero_samples_is_valid():
    code, out, _ = run(["verify", "thm-2.5", "--ring", "R1", "--m", "1",
                        "--samples", "0", "--seed", "1"])
    assert code == 0
    assert "samples: 0" in out


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite", "--ring", "R1", "--m", "1"])
    assert exc.value.code == 2
