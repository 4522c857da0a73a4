"""The re-baseline comparator on synthetic outputs."""

import copy
import json
from pathlib import Path

import pytest

from rebaseline import compare_csv, compare_files, compare_reports, main


def _report():
    row = {"name": "quadrature: int M.M'* dV", "residual": 6.839956137877598e-10, "tolerance": 0.001,
           "pass": True, "notes": "convergence estimate 1.234e-10; same-envelope diagonal",
           "inconclusive": False}
    other = dict(row, name="spherical: [L_x, L_y] = i hbar L_z", residual=0.0, notes="hbar = 1")
    return {"metadata": {"suite": "all", "relations": 2, "unexpected_failures": 0}, "results": [row, other]}


CSV = ["x,y,Ex_re,Ex_im", "-8,-8,0.086048558225965896,-0", "-6,-8,0.0037960456526610433,1e-300"]


class TestReports:
    def test_equal_reports_list_nothing(self):
        out = compare_reports(_report(), _report())
        assert (out.rows, out.differences, out.changes) == (2, [], [])

    def test_a_moved_number_is_reported_with_its_relative_change(self):
        new = _report()
        new["results"][0]["residual"] = 6.839950243467381e-10
        new["results"][0]["notes"] = "convergence estimate 1.3e-10; same-envelope diagonal"
        out = compare_reports(_report(), new)
        assert out.differences == []
        assert out.changes == [("quadrature: int M.M'* dV", "residual", 6.839956137877598e-10, 6.839950243467381e-10),
                               ("quadrature: int M.M'* dV", "notes", 1.234e-10, 1.3e-10)]
        text = out.summary("old", "new")
        assert "2 rows, 1 with changed numbers, 2 numbers changed, 0 structural differences" in text
        assert "(relative -8.62e-07)" in text and "largest relative change: 0.0535" in text

    def test_a_flipped_verdict_fails(self):
        for key in ("pass", "inconclusive"):
            new = _report()
            new["results"][1][key] = not new["results"][1][key]
            out = compare_reports(_report(), new)
            assert out.differences == [f"spherical: [L_x, L_y] = i hbar L_z [{key}]: "
                                       f"{not new['results'][1][key]!r} -> {new['results'][1][key]!r}"]

    def test_a_renamed_or_moved_row_fails(self):
        renamed = _report()
        renamed["results"][1]["name"] += " (printed)"
        assert len(compare_reports(_report(), renamed).differences) == 1
        swapped = _report()
        swapped["results"].reverse()
        assert compare_reports(_report(), swapped).differences == ["row names or order: order"]

    def test_changed_metadata_or_note_text_fails(self):
        new = _report()
        new["metadata"]["unexpected_failures"] = 1
        assert compare_reports(_report(), new).differences[0].startswith("metadata: ")
        new = _report()
        new["results"][1]["notes"] = "hbar = 1 (flagged)"
        assert compare_reports(_report(), new).differences == [
            "spherical: [L_x, L_y] = i hbar L_z [notes]: text 'hbar = 1' -> 'hbar = 1 (flagged)'"]


class TestCsv:
    def test_a_changed_header_fails(self):
        out = compare_csv(CSV, ["x,y,Ex_re,Ey_im"] + CSV[1:])
        assert len(out.differences) == 1 and out.differences[0].startswith("header: ")

    def test_moved_numbers_and_signed_zeros_are_reported(self):
        out = compare_csv(CSV, ["x,y,Ex_re,Ex_im", "-8,-8,0.086048558225965910,0", CSV[2]])
        assert out.differences == []
        assert out.changes == [("row 1", "Ex_re", 0.086048558225965896, 0.08604855822596591),
                               ("row 1", "Ex_im", -0.0, 0.0)]

    def test_a_dropped_row_or_cell_fails(self):
        assert compare_csv(CSV, CSV[:2]).differences == ["rows: 2 -> 1"]
        assert len(compare_csv(CSV, CSV[:2] + ["-6,-8,0.0037960456526610433"]).differences) == 1

    def test_leading_comment_lines_are_text_with_numbers(self):
        # expand writes "#" lines above its header
        head = ["# mode N, m=2, k_perp=1, k_z=2", "# partial sums converge once j exceeds 3.3837848631377261"]
        assert compare_csv(head + CSV, head + CSV).differences == []
        out = compare_csv(head + CSV, [head[0], head[1].replace("3.38378", "3.38379")] + CSV)
        assert out.differences == [] and [(row, old) for row, _, old, _ in out.changes] == [
            ("comment 2", 3.3837848631377261)]
        assert compare_csv(head + CSV, head[:1] + CSV).differences == ["comment lines: 2 -> 1"]
        assert len(compare_csv(head + CSV, [head[0], "# mode M"] + CSV).differences) == 1


def test_command_line_exit_codes(tmp_path, capsys):
    old, new, moved = tmp_path / "old.json", tmp_path / "new.json", tmp_path / "moved.json"
    report = _report()
    old.write_text(json.dumps(report))
    new.write_text(json.dumps(report))
    changed = copy.deepcopy(report)
    changed["results"][0]["residual"] *= 2
    moved.write_text(json.dumps(changed))
    assert main([str(old), str(new)]) == 0
    assert main([str(old), str(moved)]) == 0
    assert "(relative +1)" in capsys.readouterr().out
    changed["results"][0]["pass"] = False
    moved.write_text(json.dumps(changed))
    assert main([str(old), str(moved)]) == 1
    assert main([str(old)]) == 2
    csv_old, csv_new = tmp_path / "a.csv", tmp_path / "b.csv"
    csv_old.write_text("\n".join(CSV) + "\n")
    csv_new.write_text("\n".join(CSV) + "\n")
    assert compare_files(csv_old, csv_new).changes == []


@pytest.mark.parametrize("name", ["verify_basis.json", "field_tm_eb.csv"])
def test_a_golden_file_against_itself(name):
    path = Path(__file__).parent / "golden" / name
    out = compare_files(path, path)
    assert out.rows > 0 and out.differences == [] and out.changes == []
