from __future__ import annotations

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import leecodes
from leecodes.cli import RunReport, cli_dispatch

GOLDEN = Path(__file__).parent / "golden"
SVG_NS = "{http://www.w3.org/2000/svg}"


def run_json(capsys, *args) -> dict:
    code = cli_dispatch(["--json", *args])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def run_human(capsys, *args) -> str:
    code = cli_dispatch(list(args))
    assert code == 0
    return capsys.readouterr().out


def _normalized(report: dict) -> dict:
    report = dict(report)
    report["timing_s"] = 0.0
    return report


def test_golden_reports(capsys):
    for name, args in [
        ("sphere_report.json", ["sphere", "--n", "3", "--r", "2"]),
        ("bound_report.json", ["bound", "--n", "3"]),
        ("pi_report.json", ["pi", "--n", "2", "--k", "16"]),
    ]:
        expected = json.loads((GOLDEN / name).read_text())
        got = _normalized(run_json(capsys, *args))
        assert got == expected, name


def test_run_report_round_trip():
    report = RunReport("sphere", {"n": 3, "r": 2}, {"sphere_size": 25}, 0.25)
    again = RunReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert again == report


def test_sphere_human(capsys):
    out = run_human(capsys, "sphere", "--n", "3", "--r", "2")
    assert "25" in out


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(leecodes.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "leecodes", "sphere", "--n", "3", "--r", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert "25" in out.stdout


def test_pi_with_images(capsys):
    data = run_json(capsys, "pi", "--n", "2", "--k", "16", "--images", "1,5")
    assert data["results"]["embedding_number"] == 32


def test_pi_profile_output(capsys):
    data = run_json(
        capsys, "pi", "--n", "2", "--k", "16", "--images", "2,3", "--profile"
    )
    assert len(data["results"]["profile"]["entries"]) == 16


def test_pi_for_explicit_group(capsys):
    data = run_json(capsys, "pi", "--n", "2", "--group", "Z_4xZ_4", "--k", "16")
    assert data["results"]["group"] == "Z_4xZ_4"
    assert data["results"]["pi"] != 29


def test_pi_non_surjective_reports_infinity(capsys):
    data = run_json(capsys, "pi", "--n", "1", "--group", "Z_2xZ_2", "--k", "4")
    assert data["results"]["pi"] == "infinity"


def test_embed2d(capsys):
    data = run_json(capsys, "embed2d", "--k", "13")
    assert data["results"]["images"] == [2, 3]
    assert data["results"]["embedding_number"] == 20
    assert data["results"]["used_fallback"] is False


def test_search_pl_witness(capsys):
    data = run_json(capsys, "search-pl", "--n", "2")
    assert data["results"]["verdict"] == "WITNESS"
    assert data["results"]["witness"] == [[1], [5]]


def test_search_pl_certificate(capsys):
    data = run_json(capsys, "search-pl", "--n", "3")
    assert data["results"]["verdict"] == "NO_WITNESS"
    cert = data["results"]["certificate"]
    assert cert["group"] == "Z_25"
    assert cert["nodes_tested"] == data["results"]["nodes"]


def test_search_pl_sharded_matches(capsys):
    whole = run_json(capsys, "search-pl", "--n", "3")
    assert whole["results"]["verdict"] == "NO_WITNESS"
    assert whole["results"]["certificate"]["statement"] == (
        "no n-tuple over Z_25 is injective on the radius-2 sphere"
    )
    human = run_human(capsys, "search-pl", "--n", "3")
    assert human.startswith("NO_WITNESS for n=3, Z_25 (153 nodes, ")
    nodes = 0
    for i, span in enumerate(["[0, 4)", "[4, 8)", "[8, 12)"]):
        argv = ["search-pl", "--n", "3", "--shards", "3", "--shard-index", str(i)]
        data = run_json(capsys, *argv)
        assert data["results"]["verdict"] == "NO_WITNESS"
        # The certificate and the human line claim only the shard's range.
        assert data["results"]["certificate"]["statement"] == (
            f"no n-tuple over Z_25 whose least entry is a candidate at positions {span} "
            "is injective on the radius-2 sphere"
        )
        assert run_human(capsys, *argv).startswith(
            f"NO_WITNESS for n=3, Z_25, least entry at positions {span} ("
        )
        nodes += data["results"]["nodes"]
    assert nodes == whole["results"]["nodes"]


def test_search_pl_checkpoint_resume(tmp_path, capsys):
    ck = tmp_path / "search.ck"
    data = run_json(
        capsys,
        "search-pl", "--n", "4", "--checkpoint", str(ck), "--node-limit", "200",
    )
    assert data["results"]["verdict"] == "SUSPENDED"
    assert ck.exists()
    data = run_json(capsys, "search-pl", "--n", "4", "--checkpoint", str(ck))
    assert data["results"]["verdict"] == "NO_WITNESS"
    assert not ck.exists()
    reference = run_json(capsys, "search-pl", "--n", "4")
    assert data["results"]["nodes"] == reference["results"]["nodes"]


def test_search_qpl(capsys):
    data = run_json(capsys, "search-qpl", "--n", "3", "--k", "55")
    assert data["results"]["found"] is True
    assert data["results"]["images"] == [1, 5, 21]
    data = run_json(capsys, "search-qpl", "--n", "3", "--k", "25")
    assert data["results"]["found"] is False


def test_verify_bundled(capsys):
    data = run_json(capsys, "verify")
    assert data["results"]["rows"] == 122
    assert data["results"]["coverage_ok"] is True
    assert [f["k"] for f in data["results"]["failures"]] == [100]
    assert len(data["input_digests"]) == 1


def test_verify_custom_csv(tmp_path, capsys):
    path = tmp_path / "table.csv"
    path.write_text("k,phi_e1,phi_e2,phi_e3\n14,1,2,5\n")
    data = run_json(capsys, "verify", "--appendix", str(path))
    assert data["results"]["all_rows_pass"] is True
    assert data["results"]["coverage_ok"] is False  # one row cannot cover 1..6


def test_decode_cli(tmp_path, capsys):
    from leecodes.embeddings import Homomorphism
    from leecodes.groups import cyclic
    from leecodes.qpl import build_code, code_to_json

    code_path = tmp_path / "code.json"
    code = build_code(Homomorphism(cyclic(13), ((2,), (3,))), 2)
    code_path.write_text(json.dumps(code_to_json(code)))
    data = run_json(capsys, "decode", "--code", str(code_path), "--word", "7,3")
    assert data["results"]["codeword"] == [7, 4]
    assert data["results"]["distance"] == 1
    # The documented form for a word with a leading minus sign.
    data = run_json(capsys, "decode", "--code", str(code_path), "--word=-7,-3")
    assert data["results"]["codeword"] == [-7, -4]


def test_json_flag_before_or_after_subcommand(capsys):
    expected = json.loads((GOLDEN / "pi_report.json").read_text())
    for argv in (
        ["--json", "pi", "--n", "2", "--k", "16"],
        ["pi", "--n", "2", "--k", "16", "--json"],
        ["--json", "pi", "--n", "2", "--k", "16", "--json"],
    ):
        assert cli_dispatch(argv) == 0
        assert _normalized(json.loads(capsys.readouterr().out)) == expected
    assert "pi(2, 16) = 29" in run_human(capsys, "pi", "--n", "2", "--k", "16")
    data = json.loads(run_human(capsys, "sphere", "--n", "3", "--r", "2", "--json"))
    assert data["results"]["sphere_size"] == 25


def test_bound_custom_alpha(capsys):
    data = run_json(capsys, "bound", "--n", "2", "--alpha", "1", "--rmax", "50")
    assert data["results"]["threshold_e"] is None


def test_render_cli(tmp_path, capsys):
    out = tmp_path / "grid.svg"
    run_json(
        capsys,
        "render", "--k", "16", "--images", "1,5", "--extent", "3", "--out", str(out),
    )
    root = ET.fromstring(out.read_text())
    texts = root.findall(f"{SVG_NS}text")
    assert len(texts) == 49
    bold = [t for t in texts if t.get("font-weight") == "bold"]
    assert len(bold) == 16  # one highlighted witness per group element
    assert len(root.findall(f"{SVG_NS}polygon")) == 2
    # the grid labels the worked-example values
    labels = {t.text for t in texts}
    assert labels == {str(v) for v in range(16)}


def test_render_extent_zero(tmp_path, capsys):
    out = tmp_path / "origin.svg"
    run_json(
        capsys,
        "render", "--k", "5", "--images", "1,2", "--extent", "0", "--out", str(out),
    )
    root = ET.fromstring(out.read_text())
    assert len(root.findall(f"{SVG_NS}text")) == 1


def test_conjecture_probe(capsys):
    data = run_json(capsys, "conjecture-probe", "--n", "2", "--kmin", "2", "--kmax", "12")
    assert data["results"]["candidates"] == []
    assert len(data["results"]["scanned"]) == 11


def test_budget_refusal_exit_code(capsys):
    code = cli_dispatch(["search-qpl", "--n", "3", "--k", "455", "--budget", "100"])
    assert code == 3
    assert "refused" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["no-such-command"])
    assert exc.value.code == 2


def _refused(capsys, argv) -> str:
    """Run argv, expect a usage refusal, and return the message."""
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: ")
    return captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["pi", "--n", "2", "--group", "Z_2xZ_3"],
        ["embed2d", "--k", "0"],
        ["sphere", "--n", "0", "--r", "2"],
        ["search-qpl", "--n", "3", "--k", "0"],
        ["search-pl", "--n", "3", "--checkpoint", "{tmp}/n4.ck"],  # another search's
        ["decode", "--code", "{tmp}/bad.json", "--word", "1,2"],
        ["decode", "--code", "{tmp}/partial.json", "--word", "1,2"],  # no "group"
        ["search-pl", "--n", "3", "--node-limit", "-5"],
        ["search-pl", "--n", "3", "--node-limit", "0"],
        ["search-pl", "--n", "3", "--checkpoint-every", "0"],
        ["decode", "--code", "{tmp}/list.json", "--word", "1,2"],  # not an object
        ["search-pl", "--n", "3", "--checkpoint", "{tmp}/partial.json"],  # no "n"
        ["search-pl", "--n", "3", "--checkpoint", "{tmp}/int_prefix.json"],
        ["decode", "--code", "{tmp}/int_images.json", "--word", "1,2"],
        # Files that cannot be read or written.
        ["decode", "--code", "{tmp}/nope.json", "--word", "1,2"],
        ["verify", "--appendix", "{tmp}/nope.csv"],
        ["search-pl", "--n", "3", "--checkpoint", "{tmp}"],  # a directory
        ["search-pl", "--n", "3", "--checkpoint", "{tmp}/no/dir/ck", "--checkpoint-every", "1"],
        ["render", "--k", "5", "--images", "1,2", "--extent", "1",
         "--out", "{tmp}/no/dir/x.svg"],
    ],
)
def test_bad_input_exits_with_usage_error(tmp_path, capsys, argv):
    from leecodes.groups import cyclic
    from leecodes.plsearch import backtrack_pl2

    backtrack_pl2(4, cyclic(41), node_limit=10, checkpoint_path=str(tmp_path / "n4.ck"))
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "partial.json").write_text('{"version": 1}')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "int_prefix.json").write_text(
        '{"version": 1, "n": 3, "group_factors": [25], "prefix": 5, "next_pos": 0, "nodes": 0}'
    )
    (tmp_path / "int_images.json").write_text(
        '{"version": 1, "group": [13], "images": 5, "e": 2, "period": 13,'
        ' "covering_radius": 2, "classification": "PERFECT"}'
    )
    _refused(capsys, [a.format(tmp=tmp_path) for a in argv])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pi", "--n", "2", "--k", "24", "--group", "Z_5xZ_5"], "contradicts --group"),
        (["search-pl", "--n", "3", "--k", "24", "--group", "Z_5xZ_5"], "contradicts --group"),
        (["search-pl", "--n", "3", "--shard-index", "1"], "--shard-index requires --shards"),
        (["pi", "--n", "2", "--k", "16", "--images", "1"], "but --n is 2"),
    ],
)
def test_contradictory_arguments_refused(capsys, argv, message):
    assert message in _refused(capsys, argv)
