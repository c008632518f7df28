import json
from pathlib import Path

from mmp import cli
from mmp.constructions import singleton_disk_instance, theorem2_instance
from mmp.docio import canonical_json, document_of
from mmp.geom import Point
from mmp.matching import PointSet
from mmp.report import analyze
from mmp.svgfig import render_svg

DATA = Path(__file__).parent / "data"

SQUARE = '{"points": [[0,0],[1,0],[1,1],[0,1]]}'


def run_cli(args, capsys, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestMatch:
    def test_square(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "square.json"
        f.write_text(SQUARE)
        code, out, _ = run_cli(["match", "-i", str(f)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["matching"]["pairs"] == [[0, 2], [1, 3]]
        assert rep["piercing"]["verdict"] in ("nonempty", "tangent")
        assert rep["stretch"]["at_witness"]["bounds"]["sqrt2"] is True

    def test_malformed_json_exit_1(self, capsys, monkeypatch):
        code, _, err = run_cli(["match", "-i", "-"], capsys, stdin="{oops", monkeypatch=monkeypatch)
        assert code == 1
        assert "error" in err

    def test_size_cap_exit_2(self, capsys, monkeypatch):
        # six copies of each triangle vertex: the cover optimum has odd
        # cycles, and 18 points are too many to enumerate
        tri = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254037844386]]
        doc = {"points": [p for p in tri for _ in range(6)]}
        code, out, err = run_cli(
            ["match", "-i", "-"], capsys, stdin=json.dumps(doc), monkeypatch=monkeypatch
        )
        assert code == 2
        assert out == "" and "error" in err

    def test_exact_beyond_old_cap(self, capsys, monkeypatch):
        # 18 collinear and 20 grid points: many ties, no odd cycle
        for doc in (
            {"points": [[float(i), 0.0] for i in range(18)]},
            {"points": [[float(i % 5), float(i // 5)] for i in range(20)]},
        ):
            code, out, _ = run_cli(["match", "-i", "-"], capsys, stdin=json.dumps(doc), monkeypatch=monkeypatch)
            assert code == 0
            rep = json.loads(out)
            assert rep["matching"]["method"] == "assignment"
            assert rep["matching"]["is_unique"] is False
            assert rep["invariant_failures"] == []

    def test_equilateral_fixture(self, capsys, monkeypatch):
        from mmp.constructions import equilateral_tightness

        doc = canonical_json(document_of(equilateral_tightness(1.0), "equilateral"))
        code, out, _ = run_cli(["match", "-i", "-"], capsys, stdin=doc, monkeypatch=monkeypatch)
        assert code == 0
        rep = json.loads(out)
        assert rep["piercing"]["verdict"] in ("nonempty", "tangent")
        assert rep["stretch"]["at_witness"]["bounds"]["sqrt2"] is True

    def test_colored_family_instance_empty_triple_is_not_failure(self, capsys, monkeypatch):
        inst = theorem2_instance(0.02)
        doc = canonical_json(document_of(inst.point_set, "thm2"))
        code, out, _ = run_cli(["match", "-i", "-"], capsys, stdin=doc, monkeypatch=monkeypatch)
        assert code == 0
        rep = json.loads(out)
        assert rep["colored"] is True
        assert rep["piercing"]["verdict"] == "empty"
        assert rep["pairwise"]["disjoint_pairs"] == []
        assert rep["invariant_failures"] == []

    def test_forced_invariant_failure_exit_3(self, capsys, monkeypatch):
        import mmp.report as report_mod
        from mmp.piercing import PiercingResult, PiercingVerdict

        def fake_pierce(disks):
            return PiercingResult(verdict=PiercingVerdict.EMPTY, witness=None, depth=1.0)

        monkeypatch.setattr(report_mod, "pierce_disks", fake_pierce)
        code, _, err = run_cli(
            ["match", "-i", "-"], capsys, stdin=SQUARE, monkeypatch=monkeypatch
        )
        assert code == 3
        assert "invariant" in err

    def test_dichotomy_failure_exit_3(self, capsys, monkeypatch):
        import mmp.report as report_mod
        from mmp.classify import CaseLabel, Classification, PairRelation, PairRelationKind

        def fake_classify(segments):
            rel = PairRelation(PairRelationKind.CONVEX_DISJOINT)
            return Classification(CaseLabel.NOT_MAX_SUM, "not-max-sum-compatible", (rel,) * 3, False)

        monkeypatch.setattr(report_mod, "classify_three", fake_classify)
        doc = '{"points": [[0,0],[2,2],[0,2],[2,0],[1,-2],[1,4]]}'
        code, out, err = run_cli(["match", "-i", "-"], capsys, stdin=doc, monkeypatch=monkeypatch)
        assert code == 3
        rep = json.loads(out)
        assert "dichotomy" in rep["invariant_failures"]
        assert rep["checks"]["dichotomy"]["violations"] == 1
        assert "dichotomy" in err


class TestCounterexample:
    def test_thm2_fixture(self, capsys, tmp_path):
        out_file = tmp_path / "thm2.json"
        rep_file = tmp_path / "thm2_report.json"
        code = cli.main(
            [
                "counterexample",
                "thm2",
                "--epsilon",
                "0.02",
                "--out",
                str(out_file),
                "--report",
                str(rep_file),
            ]
        )
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["name"] == "thm2_eps0.02"
        assert len(doc["red"]) == 3 and len(doc["blue"]) == 3
        rep = json.loads(rep_file.read_text())
        assert rep["piercing"]["verdict"] == "empty"

    def test_thm2_threshold_rejected(self, capsys):
        code = cli.main(["counterexample", "thm2", "--epsilon", "0.027"])
        _, err = capsys.readouterr()
        assert code == 1
        assert "epsilon" in err

    def test_thm3_report_is_exact(self, capsys, tmp_path):
        rep_file = tmp_path / "r.json"
        code = cli.main(["counterexample", "thm3", "--n", "9", "--out", str(tmp_path / "d.json"),
                         "--report", str(rep_file)])
        capsys.readouterr()
        assert code == 0
        rep = json.loads(rep_file.read_text())
        assert rep["matching"]["method"] == "assignment"
        assert isinstance(rep["matching"]["is_unique"], bool)
        assert rep["piercing"]["verdict"] == "empty"

    def test_report_failure_exit_3(self, capsys, monkeypatch, tmp_path):
        import mmp.report as report_mod
        from mmp.piercing import PairVerdict

        monkeypatch.setattr(report_mod, "pairwise_intersect", lambda d1, d2: PairVerdict.DISJOINT)
        rep_file = tmp_path / "r.json"
        code = cli.main(["counterexample", "thm2", "--out", str(tmp_path / "d.json"), "--report", str(rep_file)])
        _, err = capsys.readouterr()
        assert code == 3
        rep = json.loads(rep_file.read_text())
        assert "pairwise_disjoint" in rep["invariant_failures"]
        assert rep["checks"]["pairwise_disjoint"]["violations"] == 3
        assert "pairwise_disjoint" in err

    def test_thm3_fixture(self, capsys):
        code = cli.main(["counterexample", "thm3", "--n", "5"])
        out, _ = capsys.readouterr()
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "thm3_n5"
        assert len(doc["red"]) == 5


class TestClassify:
    def test_three_crossing_segments(self, capsys, monkeypatch):
        doc = '{"points": [[0,0],[2,2],[0,2],[2,0],[1,-2],[1,4]]}'
        code, out, _ = run_cli(["classify", "-i", "-"], capsys, stdin=doc, monkeypatch=monkeypatch)
        assert code == 0
        rep = json.loads(out)
        assert rep["label"] == "A"
        assert rep["witness"] is not None

    def test_wrong_size(self, capsys, monkeypatch):
        code, _, err = run_cli(
            ["classify", "-i", "-"], capsys, stdin=SQUARE, monkeypatch=monkeypatch
        )
        assert code == 1

    def test_colored_input_rejected(self, capsys, monkeypatch):
        # the A..J premise holds only for uncolored matchings
        doc = canonical_json(document_of(theorem2_instance(0.02).point_set))
        code, out, err = run_cli(["classify", "-i", "-"], capsys, stdin=doc, monkeypatch=monkeypatch)
        assert code == 1
        assert out == ""
        assert "uncolored" in err


class TestLemmasCmd:
    def test_report_emitted(self, capsys):
        code = cli.main(["lemmas", "--lemma", "lemma1", "--trials", "50", "--seed", "3"])
        out, _ = capsys.readouterr()
        assert code == 0
        rep = json.loads(out)
        assert rep["lemma_id"] == "lemma1"
        assert rep["violations"] == 0

    def test_positive_run_with_violation_exit_3(self, capsys, monkeypatch):
        import dataclasses

        real = cli.run_checker
        monkeypatch.setattr(
            cli, "run_checker", lambda *a, **k: dataclasses.replace(real(*a, **k), violations=1)
        )
        code = cli.main(["lemmas", "--lemma", "lemma1", "--trials", "20", "--seed", "3"])
        out, _ = capsys.readouterr()
        assert code == 3
        assert json.loads(out)["violations"] == 1

    def test_negative_control(self, capsys, monkeypatch):
        import dataclasses

        args = ["lemmas", "--lemma", "lemma1", "--trials", "200", "--seed", "3", "--negative-control"]
        code = cli.main(args)
        out, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["violations"] > 0

        real = cli.run_checker
        monkeypatch.setattr(
            cli, "run_checker", lambda *a, **k: dataclasses.replace(real(*a, **k), violations=0)
        )
        code = cli.main(args)
        capsys.readouterr()
        assert code == 3

    def test_unknown_lemma(self, capsys):
        code = cli.main(["lemmas", "--lemma", "nope", "--trials", "5"])
        _, err = capsys.readouterr()
        assert code == 1

    def test_trials_below_one_rejected(self, capsys):
        for trials in ("0", "-3"):
            code = cli.main(["lemmas", "--lemma", "lemma1", "--trials", trials])
            out, err = capsys.readouterr()
            assert code == 1
            assert out == "" and err.startswith("error:") and "--trials" in err


class TestExperimentCmd:
    def test_small_campaign(self, capsys):
        code = cli.main(["experiment", "--n", "2,3", "--trials", "20", "--seed", "1"])
        out, _ = capsys.readouterr()
        assert code == 0
        rep = json.loads(out)
        assert rep["total_violations"] == 0
        assert rep["per_n"]["3"]["trials"] == 20

    def test_beyond_old_cap_is_exact(self, capsys):
        code = cli.main(["experiment", "--n", "9,12", "--trials", "2", "--seed", "3"])
        out, _ = capsys.readouterr()
        assert code == 0
        rep = json.loads(out)
        assert rep["total_violations"] == 0
        assert rep["per_n"]["12"]["trials"] == 2

    def test_n_below_two_rejected(self, capsys):
        code = cli.main(["experiment", "--n", "2,1", "--trials", "5"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == "" and err.startswith("error:") and "--n" in err

    def test_trials_below_one_rejected(self, capsys):
        code = cli.main(["experiment", "--n", "2", "--trials", "-2"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == "" and err.startswith("error:") and "--trials" in err


class TestSvg:
    def test_byte_identical_runs(self):
        inst = theorem2_instance(0.02)
        rep = analyze(inst.point_set)
        from mmp.matching import Matching

        m = Matching.of(inst.point_set, [tuple(p) for p in rep["matching"]["pairs"]])
        one = render_svg(inst.point_set, m, None)
        two = render_svg(inst.point_set, m, None)
        assert one == two

    def test_family_figure_contents(self):
        inst = theorem2_instance(0.02)
        rep = analyze(inst.point_set)
        from mmp.matching import Matching

        m = Matching.of(inst.point_set, [tuple(p) for p in rep["matching"]["pairs"]])
        svg = render_svg(inst.point_set, m, None)
        assert svg.count('class="pair"') == 3
        assert svg.count('class="disk"') == 3
        assert 'class="witness"' not in svg
        assert svg.count('class="point"') == 6

    def test_singleton_figure_has_witness(self):
        ps = singleton_disk_instance(Point(0, 0), Point(4, 0), Point(0, 4), Point(1, 1))
        rep = analyze(ps)
        from mmp.matching import Matching

        m = Matching.of(ps, [tuple(p) for p in rep["matching"]["pairs"]])
        w = Point(*rep["piercing"]["witness"])
        svg = render_svg(ps, m, w)
        assert 'class="witness"' in svg

    def test_empty_canvas(self):
        svg = render_svg(None)
        assert svg.startswith("<?xml")
        assert "<svg" in svg and "</svg>" in svg

    def test_golden_files(self):
        inst = theorem2_instance(0.02)
        rep = analyze(inst.point_set)
        from mmp.matching import Matching

        m = Matching.of(inst.point_set, [tuple(p) for p in rep["matching"]["pairs"]])
        svg = render_svg(inst.point_set, m, None)
        golden = DATA / "thm2_eps0.02.svg"
        assert svg == golden.read_text(encoding="utf-8")

    def test_cli_svg_with_ellipses(self, capsys, monkeypatch):
        eq = '{"points": [[0,0],[0,0],[1,0],[1,0],[0.5,0.8660254037844386],[0.5,0.8660254037844386]]}'
        code, out, _ = run_cli(
            ["svg", "-i", "-", "--ellipse-factor", "0.5773502691896258"],
            capsys,
            stdin=eq,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out.count('class="ellipse"') == 3


class TestReportDeterminism:
    def test_repeat_runs_identical_except_timing(self):
        ps = PointSet.uncolored([(0, 0), (1, 0), (0.3, 0.9), (0.8, -0.4), (-0.5, 0.2), (0.1, 0.6)])
        r1 = analyze(ps)
        r2 = analyze(ps)
        r1.pop("timing_ms")
        r2.pop("timing_ms")
        assert canonical_json(r1) == canonical_json(r2)
