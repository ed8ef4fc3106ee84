"""CLI subcommands, exit codes, and output formats."""

from __future__ import annotations

import pytest

from stlayout import (GeneratorConfig, draw_polyline,
                      generate_random_st_graph, graph_to_text,
                      minimum_split_plan)
from stlayout import cli
from stlayout.cli import cli_main
from conftest import fan


@pytest.fixture
def f1_file(tmp_path, f1):
    p = tmp_path / "f1.txt"
    p.write_text(graph_to_text(f1))
    return str(p)


@pytest.fixture
def tri_file(tmp_path, triangle):
    p = tmp_path / "tri.txt"
    p.write_text(graph_to_text(triangle))
    return str(p)


def test_check_accept(tri_file, capsys):
    assert cli_main(["check", tri_file]) == 0
    assert capsys.readouterr().out == "accept\n"


def test_check_reject(f1_file, capsys):
    assert cli_main(["check", f1_file]) == 1
    assert capsys.readouterr().out == "reject 0 1 2\n"


def test_order(tri_file, capsys):
    assert cli_main(["order", tri_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["1 0", "2 1", "3 2"]


def test_split(f1_file, capsys):
    assert cli_main(["split", f1_file]) == 0
    assert capsys.readouterr().out == "split 0 3\ntotal 1\n"


def test_split_all_transitive(f1_file, capsys):
    assert cli_main(["split", f1_file, "--all-transitive"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("total 2\n")


def test_draw_poly_and_validate(f1_file, tmp_path, capsys):
    assert cli_main(["draw", f1_file, "--mode", "poly"]) == 0
    drawing = capsys.readouterr().out
    assert "bend 0 3 " in drawing
    dpath = tmp_path / "d.txt"
    dpath.write_text(drawing)
    assert cli_main(["validate", f1_file, str(dpath)]) == 0
    assert "planar   ok" in capsys.readouterr().out


def test_draw_straight_rejects(f1_file, capsys):
    assert cli_main(["draw", f1_file, "--mode", "straight"]) == 1
    assert capsys.readouterr().out == "reject 0 1 2\n"


def test_draw_svg(tri_file, tmp_path, capsys):
    svg = tmp_path / "out.svg"
    assert cli_main(["draw", tri_file, "--svg", str(svg)]) == 0
    capsys.readouterr()
    assert svg.read_text().startswith("<svg ")


def test_draw_svg_bad_scale_exit_2(tri_file, tmp_path, capsys):
    svg = tmp_path / "out.svg"
    with pytest.raises(SystemExit) as exc:
        cli_main(["draw", tri_file, "--svg", str(svg), "--scale", "0"])
    assert exc.value.code == 2
    assert "--scale" in capsys.readouterr().err
    assert not svg.exists()


def test_validate_bad_drawing(tri_file, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 0\n1 1 1\n2 2 0\n")  # edge 1->2 goes downward
    assert cli_main(["validate", tri_file, str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_validate_bend_on_non_edge_exit_2(tri_file, tmp_path, capsys):
    for bend in ("bend 7 1 3 3", "bend -3 1 3 3"):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"0 3 0\n1 0 1\n2 1 2\n{bend}\n")
        assert cli_main(["validate", tri_file, str(bad)]) == 2
        assert "GraphFormatError" in capsys.readouterr().err


def test_validate_repeated_drawing_line_exit_2(tri_file, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 3 0\n1 0 1\n2 1 2\n0 9 9\n")
    assert cli_main(["validate", tri_file, str(bad)]) == 2
    assert "line 4: duplicate vertex 0" in capsys.readouterr().err


def test_validate_json_report(tri_file, tmp_path, capsys):
    d = tmp_path / "d.txt"
    assert cli_main(["draw", tri_file, "--mode", "straight"]) == 0
    d.write_text(capsys.readouterr().out)
    assert cli_main(["validate", tri_file, str(d), "--json"]) == 0
    assert '"upward": true' in capsys.readouterr().out


def test_validate_mirrored_drawing_fails_its_face(tri_file, tmp_path,
                                                  capsys):
    # vertex 1 right of s -> t: a planar drawing of the mirrored embedding
    d = tmp_path / "d.txt"
    d.write_text("0 0 0\n1 1 1\n2 0 2\n")
    assert cli_main(["validate", tri_file, str(d)]) == 1
    out = capsys.readouterr().out
    assert "upward   ok\nplanar   FAIL\n" in out
    assert out.endswith("violation: face at vertex 0 between edges 0->1 "
                        "and 0->2: point (1, 1) of its left chain is not "
                        "left of its right chain\n")
    assert cli_main(["validate", tri_file, str(d), "--json"]) == 1
    out = capsys.readouterr().out
    assert '"upward": true' in out and '"planar": false' in out
    assert "face at vertex 0 between edges 0->1 and 0->2" in out


def test_gen_deterministic(capsys):
    assert cli_main(["gen", "--n", "12", "--seed", "7"]) == 0
    a = capsys.readouterr().out
    assert cli_main(["gen", "--n", "12", "--seed", "7"]) == 0
    b = capsys.readouterr().out
    assert a == b
    assert a.startswith("# generated n=12 seed=7 rng=mt19937\n")


def test_gen_output_parses(tmp_path, capsys):
    assert cli_main(["gen", "--n", "9", "--seed", "1"]) == 0
    p = tmp_path / "g.txt"
    p.write_text(capsys.readouterr().out)
    assert cli_main(["check", str(p)]) in (0, 1)


def test_bench_csv(capsys):
    assert cli_main(["bench", "--sizes", "50,100", "--seed", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,edges,splits,bends,width,height,ms_total,ms_validate"
    assert len(lines) == 3
    for n, line in zip((50, 100), lines[1:]):
        g = generate_random_st_graph(GeneratorConfig(n_target=n, seed=2))
        d = draw_polyline(g)
        expected = (n, g.m, len(minimum_split_plan(g).split_edges),
                    len(d.bends), d.width, d.height)
        assert line.split(",")[:6] == list(map(str, expected))


def test_bench_counts_the_splits_and_bends_of_a_fan(monkeypatch, capsys):
    # the seed generator's graphs never need a split; fan(k) needs k - 3
    monkeypatch.setattr(cli, "generate_random_st_graph",
                        lambda cfg: fan(cfg.n_target))
    assert cli_main(["bench", "--sizes", "6,9"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[2:4] for row in rows] == [["3", "3"], ["6", "6"]]


def test_bench_exit_1_when_a_drawing_fails_its_checks(monkeypatch, capsys):
    monkeypatch.setattr(cli, "check_bounds", lambda d, n, mode: n != 100)
    assert cli_main(["bench", "--sizes", "50,100", "--seed", "2"]) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 3
    assert err == "error: the drawing fails its checks for n = 100\n"


def test_missing_file_exit_2(capsys):
    assert cli_main(["check", "/no/such/file"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_file_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("3 0 2\n0: 1 1\n1: 2\n2:\n")
    assert cli_main(["check", str(p)]) == 2
    assert "ParallelEdge" in capsys.readouterr().err


def test_number_that_is_not_ascii_decimal_exit_2(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("3 0 2\n0: 1 +2\n1: 2\n")
    assert cli_main(["check", str(p)]) == 2
    assert capsys.readouterr().err == (
        "GraphFormatError: line 2: numbers must be ASCII decimal integers\n")


def usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_gen_count_below_2_is_usage_error(capsys):
    for n in ("1", "-5"):
        assert "argument --n: must be at least 2" in usage_error(
            ["gen", "--n", n], capsys)


def test_bench_bad_sizes_is_usage_error(capsys):
    for sizes in ("x", "1", "50,1"):
        assert "argument --sizes" in usage_error(
            ["bench", "--sizes", sizes], capsys)


def test_directory_input_exit_2(tmp_path, capsys):
    assert cli_main(["check", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_non_utf8_input_exit_2(tmp_path, capsys):
    # the message names the file and the line, also for either file of
    # validate
    text = "3 0 2\n0: 1 2\n1: 2\n2:\n"
    good = tmp_path / "g.txt"
    good.write_text(text)
    p = tmp_path / "latin1.txt"
    p.write_bytes((text + "# caf\xe9\n").encode("latin-1"))
    drawing = tmp_path / "drawing.txt"
    drawing.write_bytes("0 0 0\n# caf\xe9\n".encode("latin-1"))
    for argv, bad, line in ((["check", str(p)], p, 5),
                            (["validate", str(p), str(good)], p, 5),
                            (["validate", str(good), str(drawing)],
                             drawing, 2)):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"GraphFormatError: {bad}, line {line}: not UTF-8 (")
        assert err.count("\n") == 1


def test_json_successor_that_is_not_an_integer_exit_2(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text('{"n": 3, "s": 0, "t": 2, "succ": [[1, 2], [true], []]}')
    assert cli_main(["check", str(p)]) == 2
    assert capsys.readouterr().err == (
        "GraphFormatError: bad JSON graph: n, s, t and successors must be "
        "integers, got bool\n")


@pytest.mark.parametrize("name,content,err", [
    pytest.param("g.json", '{"n": 3, "s": 0, "t": 2, "succ": [[1, 2], [2]]}',
                 "GraphFormatError: successor lists must cover every vertex",
                 id="json-rows-fewer-than-n"),
    pytest.param("g.txt", "2 0 1\n0: 5\n",
                 "GraphFormatError: successor 5 of 0 out of range",
                 id="successor-out-of-range"),
    pytest.param("g.txt", "2 0 1\n0: 1\n1: 0\n",
                 "MultipleSourcesOrSinks: s has incoming edges",
                 id="s-has-in-edges"),
    pytest.param("g.txt", "3 0 1\n0: 1\n1: 2\n2: 1\n",
                 "MultipleSourcesOrSinks: t has outgoing edges",
                 id="t-has-out-edges"),
    pytest.param("g.txt", "3 0 2\n0: 1\n5: 2\n",
                 "GraphFormatError: vertex id out of range",
                 id="vertex-line-out-of-range"),
])
def test_malformed_graph_exit_2_names_the_fault(tmp_path, capsys, name,
                                                content, err):
    p = tmp_path / name
    p.write_text(content)
    assert cli_main(["check", str(p)]) == 2
    assert capsys.readouterr() == ("", err + "\n")


def test_draw_svg_unwritable_exit_2_prints_nothing(tri_file, tmp_path,
                                                   capsys):
    svg = tmp_path / "missing" / "out.svg"
    assert cli_main(["draw", tri_file, "--svg", str(svg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert not svg.exists()
