import dataclasses
import hashlib
import json
import math

import pytest

from pseudosim.cli import main
from pseudosim.ensembles import EnsembleSpec
from pseudosim.errors import ContractViolation
from pseudosim.experiments import RECORD_FIELDS, ExperimentConfig, TrialRecord, run_suite
from pseudosim.reports import format_float, parse_json_lines, render, summarize

RECORD = TrialRecord(
    suite="subsumption", trial_index=3, seed=12345678901234567890,
    n=4, k=2, l=2, passed=True,
    min_lower_margin=1.0 / 3.0, min_upper_margin=0.0,
    worst_residual=2.5e-16, notes="",
)


def _sample_records():
    config = ExperimentConfig(suites=("subsumption", "solver-oracle"),
                              ensemble=EnsembleSpec(seed=5), trials=4)
    return run_suite(config)


def test_csv_header_plus_rows():
    out = render([RECORD], "csv")
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == ("suite,trial_index,seed,n,k,l,passed,"
                        "min_lower_margin,min_upper_margin,worst_residual,notes")
    assert lines[1].startswith("subsumption,3,12345678901234567890,4,2,2,true,")


def test_float_formatting_17_digits():
    assert format_float(1.0 / 3.0) == "0.33333333333333331"
    assert float(format_float(2.5e-16)) == 2.5e-16
    row = render([RECORD], "csv").strip().split("\n")[1]
    assert "0.33333333333333331" in row


def test_csv_quotes_notes():
    record = TrialRecord(suite="mp-axioms", trial_index=0, seed=1, n=2, k=2, l=1,
                         passed=False, min_lower_margin=0.0, min_upper_margin=0.0,
                         worst_residual=1.0, notes='rank 1 != target 2, "worse"')
    row = render([record], "csv").strip().split("\n")[1]
    assert row.endswith('"rank 1 != target 2, ""worse"""')


def test_json_lines_round_trip():
    records = _sample_records()
    text = render(records, "json-lines")
    assert parse_json_lines(text) == records
    # a non-finite value reads back too; NaN equals nothing, so compare its text
    odd = dataclasses.replace(RECORD, min_lower_margin=-math.inf, min_upper_margin=math.inf,
                              worst_residual=math.nan)
    odd_text = render([odd], "json-lines")
    back, = parse_json_lines(odd_text)
    assert (back.min_lower_margin, back.min_upper_margin) == (-math.inf, math.inf)
    assert math.isnan(back.worst_residual) and render([back], "json-lines") == odd_text
    for line in (text + odd_text).strip().split("\n"):
        obj = json.loads(line)
        assert list(obj) == ["suite", "trial_index", "seed", "n", "k", "l", "passed",
                             "min_lower_margin", "min_upper_margin", "worst_residual", "notes"]


def test_diagnostics_are_neither_reported_nor_compared():
    # the interlacing diagnostics ride on the record, outside every report
    diagnosed = dataclasses.replace(RECORD, rel_imag=1e-3, route_dev=2.0, zeros=4, hermitian=True,
                                    cond_h=7.0)
    assert diagnosed == RECORD
    for format in ("csv", "json-lines", "table"):
        assert render([diagnosed], format) == render([RECORD], format)
    assert [f.name for f in dataclasses.fields(TrialRecord)][:len(RECORD_FIELDS)] == list(RECORD_FIELDS)


@pytest.mark.parametrize("format, md5", [("json-lines", "6015fb29b853e0a8d95f091da0bed39a"),
                                         ("table", "5f68a007bc6100399c1fd182b7775b09")])
def test_report_digest(tmp_path, format, md5):
    # every suite's first 20 trials at seed 42, byte for byte (numpy 2.4.6;
    # the digest does not depend on the BLAS thread count)
    out = tmp_path / "report.txt"
    assert main(["--trials", "20", "--format", format, "--out", str(out)]) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == md5


def test_json_lines_one_object_per_record():
    records = _sample_records()
    assert len(render(records, "json-lines").strip().split("\n")) == len(records)


def test_table_has_summary_footer():
    out = render(_sample_records(), "table")
    assert "subsumption: 4/4 passed" in out
    assert "solver-oracle: 4/4 passed" in out
    assert "total: 8/8 passed" in out
    assert out.splitlines()[0].startswith("suite")


@pytest.mark.parametrize("field", ["worst_residual", "min_lower_margin", "min_upper_margin"])
@pytest.mark.parametrize("first_nan", [True, False])
def test_summary_keeps_a_nan_wherever_it_stands(field, first_nan):
    values = [math.nan, 1e-16] if first_nan else [1e-16, math.nan]
    records = [dataclasses.replace(RECORD, **{field: value}) for value in values]
    summary = summarize(records)[0]
    assert ("worst residual nan" if field == "worst_residual" else "min margin nan,") in summary


def test_render_of_no_records_is_the_header_alone():
    header = "  ".join(RECORD_FIELDS)
    assert render([], "table") == f"{header}\n\ntotal: 0/0 passed\n"
    assert render([], "csv") == ",".join(RECORD_FIELDS) + "\n"
    assert render([], "json-lines") == ""


def test_unknown_format_rejected():
    with pytest.raises(ContractViolation, match="unknown format 'xml'"):
        render([RECORD], "xml")

