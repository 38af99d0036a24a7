import json
import random
from pathlib import Path

import pytest

from tagrefine import pipeline
from tagrefine.cli import main
from tagrefine.evaluation import sample_params
from tagrefine.vsim import read_vsim_tsv


@pytest.fixture()
def knowledge_args(fixtures_dir, tmp_path):
    vsim_path = tmp_path / "vsim.tsv"
    rc = main(["mine-vsim", "--corpus", str(fixtures_dir / "corpus.jsonl"),
               "--out", str(vsim_path)])
    assert rc == 0
    return [
        "--vsim", str(vsim_path),
        "--embeddings", str(fixtures_dir / "embeddings.txt"),
        "--hypernyms", str(fixtures_dir / "hypernyms.tsv"),
        "--assertions", str(fixtures_dir / "assertions.tsv"),
        "--coloc", str(fixtures_dir / "coloc.tsv"),
        "--allowlist", str(fixtures_dir / "allowlist.tsv"),
    ]


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


def detection_line(image="i1", box="b1", labels=("snake",), conf=0.5):
    """One detections JSONL line; `json.dumps` escapes a lone surrogate as `\\udXXX`."""
    cands = [{"label": label, "conf": conf} for label in labels]
    return json.dumps({"image": image, "boxes": [{"id": box, "candidates": cands}]})


def repeated_box_line(image="i2"):
    """Two boxes that share the id b1: snake, then cucumber."""
    boxes = [{"id": "b1", "candidates": [{"label": label, "conf": 0.9}]}
             for label in ("snake", "cucumber")]
    return json.dumps({"image": image, "boxes": boxes})


# JSON values that `float` reads as a number but that are not JSON numbers
NON_NUMBER_CONFS = [True, "0.5"]

# a lone surrogate decodes from JSON but cannot be written out as UTF-8
SURROGATE_FIELDS = [{"image": "x\ud800"}, {"box": "b\ud800"},
                    {"labels": ("a", "x\ud800")}]

# ids must be JSON strings: a null, a number or a list is not an id
NON_STRING_IDS = [{"image": None}, {"image": 7}, {"image": ["i2"]}, {"box": 3.5}]


class TestMineVsim:
    def test_writes_sorted_table(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "vsim.tsv"
        rc = main(["mine-vsim", "--corpus", str(fixtures_dir / "corpus.jsonl"),
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines == sorted(lines)
        table = read_vsim_tsv(out)
        assert table.get("green mamba", "snake") == pytest.approx(4.8 / 5.8, abs=1e-6)
        assert "label pairs" in capsys.readouterr().out

    def test_missing_file_exits_2_naming_path(self, tmp_path, capsys):
        rc = main(["mine-vsim", "--corpus", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "o.tsv")])
        assert rc == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_malformed_line_skipped_with_warning(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        good = {"image": "i1", "boxes": [{"id": "b", "candidates": [{"label": "a", "conf": 0.5}]}]}
        corpus.write_text(json.dumps(good) + "\n{broken\n")
        rc = main(["mine-vsim", "--corpus", str(corpus), "--out", str(tmp_path / "o.tsv")])
        assert rc == 0
        assert "1 malformed" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", SURROGATE_FIELDS)
    def test_lone_surrogate_line_skipped(self, tmp_path, capsys, bad):
        corpus = tmp_path / "c.jsonl"
        good = detection_line(image="i1", labels=("a", "b"))
        corpus.write_text(good + "\n" + detection_line(**{"image": "i2", **bad}) + "\n")
        out = tmp_path / "o.tsv"
        rc = main(["mine-vsim", "--corpus", str(corpus), "--out", str(out)])
        assert rc == 0
        assert out.read_text(encoding="utf-8") == "a\tb\t1.000000\n"
        assert "1 malformed" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", NON_STRING_IDS)
    def test_non_string_id_line_skipped(self, tmp_path, capsys, bad):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(detection_line(image="i1", labels=("a", "b")) + "\n"
                          + detection_line(**{"image": "i2", "labels": ("a", "c"), **bad})
                          + "\n")
        out = tmp_path / "o.tsv"
        rc = main(["mine-vsim", "--corpus", str(corpus), "--out", str(out)])
        assert rc == 0
        assert out.read_text(encoding="utf-8") == "a\tb\t1.000000\n"
        assert "1 malformed" in capsys.readouterr().out

    def test_repeated_box_id_line_skipped(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(detection_line(image="i1", labels=("a", "b")) + "\n"
                          + repeated_box_line() + "\n")
        out = tmp_path / "o.tsv"
        rc = main(["mine-vsim", "--corpus", str(corpus), "--out", str(out)])
        assert rc == 0
        assert out.read_text(encoding="utf-8") == "a\tb\t1.000000\n"
        assert "1 malformed" in capsys.readouterr().out

    @pytest.mark.parametrize("conf", NON_NUMBER_CONFS)
    def test_non_number_confidence_line_skipped(self, tmp_path, capsys, conf):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(detection_line(image="i1", labels=("a", "b")) + "\n"
                          + detection_line(image="i2", labels=("a", "c"), conf=conf) + "\n")
        out = tmp_path / "o.tsv"
        rc = main(["mine-vsim", "--corpus", str(corpus), "--out", str(out)])
        assert rc == 0
        assert out.read_text(encoding="utf-8") == "a\tb\t1.000000\n"
        assert "1 malformed" in capsys.readouterr().out

    def test_extreme_confidences_mined_exactly(self, tmp_path):
        # the total of "a" (2e308) exceeds the largest double; the ratio is still exact
        rows = [("i1", {"a": 1e308, "b": 5e-324}), ("i2", {"a": 1e308, "c": 0.5}),
                ("i3", {"b": 5e-324, "c": 5e-324}), ("i4", {"d": 5e-324, "e": 1e-323})]
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(
            json.dumps({"image": image, "boxes": [{"id": "b1", "candidates": [
                {"label": label, "conf": conf} for label, conf in cands.items()]}]}) + "\n"
            for image, cands in rows))
        out = tmp_path / "o.tsv"
        assert main(["mine-vsim", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines() == [
            "a\tb\t0.500000",
            "a\tc\t0.500000",
            "b\tc\t0.000000",
            "d\te\t1.000000",
        ]


class TestRefine:
    def test_fixture_refinement(self, fixtures_dir, tmp_path, knowledge_args):
        out = tmp_path / "refined.jsonl"
        rc = main(["refine", "--detections", str(fixtures_dir / "detections.jsonl"),
                   "--out", str(out), *knowledge_args])
        assert rc == 0
        records = read_jsonl(out)
        assert [r["image"] for r in records] == ["img_001", "img_002", "img_003"]
        img1 = records[0]
        labels = {entry["label"] for entry in img1["labels"]}
        assert "cucumber" not in labels
        assert "snake" in labels
        assert len(img1["labels"]) <= 5

    def test_output_round_trips(self, fixtures_dir, tmp_path, knowledge_args):
        out = tmp_path / "refined.jsonl"
        main(["refine", "--detections", str(fixtures_dir / "detections.jsonl"),
              "--out", str(out), *knowledge_args])
        for record in read_jsonl(out):
            assert set(record) == {"image", "labels", "objective"}
            for entry in record["labels"]:
                assert set(entry) == {"label", "space", "box"}
                assert entry["space"] in ("CL", "XL", "AL")

    def test_visir_star_bounds_visual_labels(self, fixtures_dir, tmp_path, knowledge_args):
        out = tmp_path / "refined.jsonl"
        rc = main(["refine", "--detections", str(fixtures_dir / "detections.jsonl"),
                   "--out", str(out), "--visir-star", *knowledge_args])
        assert rc == 0
        for record in read_jsonl(out):
            n_boxes = {"img_001": 3, "img_002": 5, "img_003": 2}[record["image"]]
            n_visual = sum(1 for e in record["labels"] if e["box"] != "GLOBAL")
            assert n_visual <= int(0.8 * n_boxes)

    def test_empty_detections(self, tmp_path, knowledge_args):
        detections = tmp_path / "empty.jsonl"
        detections.write_text("")
        out = tmp_path / "refined.jsonl"
        rc = main(["refine", "--detections", str(detections), "--out", str(out),
                   *knowledge_args])
        assert rc == 0
        assert out.read_text() == ""

    @pytest.mark.parametrize("bad", SURROGATE_FIELDS)
    def test_lone_surrogate_line_skipped(self, tmp_path, knowledge_args, capsys, bad):
        detections = tmp_path / "d.jsonl"
        detections.write_text(detection_line(image="i1") + "\n"
                              + detection_line(**{"image": "i2", **bad}) + "\n")
        out = tmp_path / "refined.jsonl"
        rc = main(["refine", "--detections", str(detections), "--out", str(out),
                   *knowledge_args])
        assert rc == 0
        assert [r["image"] for r in read_jsonl(out)] == ["i1"]
        assert "1 malformed detection lines skipped" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", NON_STRING_IDS)
    def test_non_string_id_line_skipped(self, tmp_path, knowledge_args, capsys, bad):
        detections = tmp_path / "d.jsonl"
        detections.write_text(detection_line(image="i1") + "\n"
                              + detection_line(**{"image": "i2", **bad}) + "\n")
        out = tmp_path / "refined.jsonl"
        rc = main(["refine", "--detections", str(detections), "--out", str(out),
                   *knowledge_args])
        assert rc == 0
        assert [r["image"] for r in read_jsonl(out)] == ["i1"]
        assert "1 malformed detection lines skipped" in capsys.readouterr().err

    @pytest.mark.parametrize("conf", NON_NUMBER_CONFS)
    def test_non_number_confidence_line_skipped(self, tmp_path, knowledge_args, capsys,
                                                conf):
        detections = tmp_path / "d.jsonl"
        detections.write_text(detection_line(image="i1") + "\n"
                              + detection_line(image="i2", conf=conf) + "\n")
        out = tmp_path / "refined.jsonl"
        rc = main(["refine", "--detections", str(detections), "--out", str(out),
                   *knowledge_args])
        assert rc == 0
        assert [r["image"] for r in read_jsonl(out)] == ["i1"]
        assert "1 malformed detection lines skipped" in capsys.readouterr().err

    def test_repeated_box_id_line_skipped(self, tmp_path, knowledge_args, capsys):
        detections = tmp_path / "d.jsonl"
        detections.write_text(detection_line(image="i1") + "\n" + repeated_box_line() + "\n")
        out = tmp_path / "refined.jsonl"
        rc = main(["refine", "--detections", str(detections), "--out", str(out),
                   *knowledge_args])
        assert rc == 0
        assert [r["image"] for r in read_jsonl(out)] == ["i1"]
        assert "1 malformed detection lines skipped" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--hypernyms", "--detections"])
    def test_non_utf8_input_exits_2_naming_line(self, fixtures_dir, tmp_path,
                                                knowledge_args, capsys, option):
        source = {"--hypernyms": fixtures_dir / "hypernyms.tsv",
                  "--detections": fixtures_dir / "detections.jsonl"}[option]
        bad = tmp_path / source.name
        lines = source.read_bytes().splitlines(keepends=True)
        bad.write_bytes(b"".join(lines[:2]) + b"\xff" + b"".join(lines[2:]))
        argv = ["refine", "--detections", str(fixtures_dir / "detections.jsonl"),
                "--out", str(tmp_path / "o.jsonl"), *knowledge_args]
        argv[argv.index(option) + 1] = str(bad)
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {bad}:3: not valid UTF-8")
        assert "Traceback" not in err

    def test_overflowing_embedding_norm_exits_2(self, fixtures_dir, tmp_path, knowledge_args,
                                                capsys):
        # finite components whose squared norm overflows would make srel NaN
        bad = tmp_path / "embeddings.txt"
        source = (fixtures_dir / "embeddings.txt").read_text(encoding="utf-8")
        bad.write_text(source.replace("snake 1 0 0 0\n", "snake 1e200 0 0 0\n"),
                       encoding="utf-8")
        argv = ["refine", "--detections", str(fixtures_dir / "detections.jsonl"),
                "--out", str(tmp_path / "o.jsonl"), *knowledge_args]
        argv[argv.index("--embeddings") + 1] = str(bad)
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {bad}:3: squared vector norm overflows")
        assert "Traceback" not in err

    def test_budget_none_truncates_to_five(self, fixtures_dir, tmp_path, knowledge_args):
        out = tmp_path / "refined.jsonl"
        rc = main(["refine", "--detections", str(fixtures_dir / "detections.jsonl"),
                   "--out", str(out), "--budget", "none", *knowledge_args])
        assert rc == 0
        for record in read_jsonl(out):
            assert len(record["labels"]) <= 5

    def test_bad_budget_exits_2(self, fixtures_dir, tmp_path, knowledge_args, capsys):
        rc = main(["refine", "--detections", str(fixtures_dir / "detections.jsonl"),
                   "--out", str(tmp_path / "o.jsonl"), "--budget", "0", *knowledge_args])
        assert rc == 2

    def test_config_file_with_flag_override(self, fixtures_dir, tmp_path, knowledge_args):
        config = tmp_path / "run.cfg"
        config.write_text("budget = 2\ntau-s = 0.2  # comment\n")
        out_cfg = tmp_path / "cfg.jsonl"
        rc = main(["refine", "--detections", str(fixtures_dir / "detections.jsonl"),
                   "--out", str(out_cfg), "--config", str(config), *knowledge_args])
        assert rc == 0
        for record in read_jsonl(out_cfg):
            assert len(record["labels"]) <= 2  # config budget applied

        out_flag = tmp_path / "flag.jsonl"
        rc = main(["refine", "--detections", str(fixtures_dir / "detections.jsonl"),
                   "--out", str(out_flag), "--config", str(config),
                   "--budget", "5", *knowledge_args])
        assert rc == 0
        sizes = [len(r["labels"]) for r in read_jsonl(out_flag)]
        assert max(sizes) > 2  # flag wins over config

        out_none = tmp_path / "none.jsonl"
        rc = main(["refine", "--detections", str(fixtures_dir / "detections.jsonl"),
                   "--out", str(out_none), "--config", str(config),
                   "--budget", "none", *knowledge_args])
        assert rc == 0
        sizes = [len(r["labels"]) for r in read_jsonl(out_none)]
        assert 2 < max(sizes) <= 5  # `none` wins over config: no budget, trimmed to 5

    @pytest.mark.parametrize("line, key", [
        ("abstract_cap = 25.0", "abstract_cap"),
        ("budget = 2.5", "budget"),
        ("alpha = abc", "alpha"),
        ("alpha = true", "alpha"),  # a bool is no weight
        ("delta = 0.5.1", "delta"),
        ("visir_star = yes", "visir_star"),
    ])
    def test_config_value_of_wrong_type_exits_2(self, fixtures_dir, tmp_path, knowledge_args,
                                                capsys, line, key):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        rc = main(["refine", "--detections", str(fixtures_dir / "detections.jsonl"),
                   "--out", str(tmp_path / "o.jsonl"), "--config", str(config),
                   *knowledge_args])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("key", ["alpah", "seed"])  # misspelt; no hyperparameter
    def test_unknown_config_key_exits_2(self, fixtures_dir, tmp_path, knowledge_args, capsys,
                                        key):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = 0\nbudget = 2\n")
        out = tmp_path / "o.jsonl"
        rc = main(["refine", "--detections", str(fixtures_dir / "detections.jsonl"),
                   "--out", str(out), "--config", str(config), *knowledge_args])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err

    def test_select_incoherent_filter(self, tmp_path, knowledge_args):
        detections = tmp_path / "det.jsonl"
        rows = [
            # 3 boxes, mutually unrelated -> selected
            {"image": "messy", "boxes": [
                {"id": "b1", "candidates": [{"label": "snake", "conf": 0.9}]},
                {"id": "b2", "candidates": [{"label": "person", "conf": 0.8}]},
                {"id": "b3", "candidates": [{"label": "banana", "conf": 0.7}]},
            ]},
            # 2 boxes -> outside the 3..7 box window
            {"image": "small", "boxes": [
                {"id": "b1", "candidates": [{"label": "snake", "conf": 0.9}]},
                {"id": "b2", "candidates": [{"label": "person", "conf": 0.8}]},
            ]},
            # 3 boxes, coherent tennis scene -> filtered out
            {"image": "coherent", "boxes": [
                {"id": "b1", "candidates": [{"label": "person", "conf": 0.9}]},
                {"id": "b2", "candidates": [{"label": "racket", "conf": 0.8}]},
                {"id": "b3", "candidates": [{"label": "tennis ball", "conf": 0.7}]},
            ]},
        ]
        detections.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "refined.jsonl"
        rc = main(["refine", "--detections", str(detections), "--out", str(out),
                   "--select-incoherent", *knowledge_args])
        assert rc == 0
        assert [r["image"] for r in read_jsonl(out)] == ["messy"]

    @pytest.mark.parametrize("n_boxes, kept", [(7, True), (8, False)])
    def test_select_incoherent_box_window_top(self, tmp_path, knowledge_args, n_boxes, kept):
        # labels with no vector and no co-location: every pair's srel is 0
        labels = ["anvil", "compass", "crate", "kettle", "ladder", "lantern", "saddle",
                  "trumpet"][:n_boxes]
        boxes = [{"id": f"b{i}", "candidates": [{"label": label, "conf": 0.9}]}
                 for i, label in enumerate(labels)]
        detections = tmp_path / "det.jsonl"
        detections.write_text(json.dumps({"image": "unrelated", "boxes": boxes}) + "\n")
        out = tmp_path / "refined.jsonl"
        rc = main(["refine", "--detections", str(detections), "--out", str(out),
                   "--select-incoherent", *knowledge_args])
        assert rc == 0
        assert [r["image"] for r in read_jsonl(out)] == (["unrelated"] if kept else [])

    def test_dump_lp(self, fixtures_dir, tmp_path, knowledge_args):
        out = tmp_path / "refined.jsonl"
        lp_dir = tmp_path / "lp"
        rc = main(["refine", "--detections", str(fixtures_dir / "detections.jsonl"),
                   "--out", str(out), "--dump-lp", str(lp_dir), *knowledge_args])
        assert rc == 0
        dumped = sorted(p.name for p in lp_dir.iterdir())
        assert dumped == ["img_001.lp", "img_002.lp", "img_003.lp"]
        text = (lp_dir / "img_001.lp").read_text()
        assert text.startswith("\\ joint label selection instance")
        assert "Maximize" in text and "End" in text

    def test_dump_lp_gives_distinct_ids_distinct_files(self, fixtures_dir, tmp_path,
                                                        knowledge_args):
        rows = read_jsonl(fixtures_dir / "detections.jsonl")[:2]
        rows[0]["image"], rows[1]["image"] = "a/b", "a?b"
        detections = tmp_path / "d.jsonl"
        detections.write_text("".join(json.dumps(r) + "\n" for r in rows))
        ref_dir, lp_dir = tmp_path / "ref", tmp_path / "lp"
        for det, out_dir in ((fixtures_dir / "detections.jsonl", ref_dir), (detections, lp_dir)):
            assert main(["refine", "--detections", str(det), "--out", str(tmp_path / "o.jsonl"),
                         "--dump-lp", str(out_dir), *knowledge_args]) == 0
        assert sorted(p.name for p in lp_dir.iterdir()) == ["a%2Fb.lp", "a%3Fb.lp"]
        first, second = (ref_dir / "img_001.lp").read_text(), (ref_dir / "img_002.lp").read_text()
        assert first != second
        assert (lp_dir / "a%2Fb.lp").read_text() == first
        assert (lp_dir / "a%3Fb.lp").read_text() == second


@pytest.fixture()
def refined_path(fixtures_dir, tmp_path, knowledge_args):
    out = tmp_path / "refined.jsonl"
    rc = main(["refine", "--detections", str(fixtures_dir / "detections.jsonl"),
               "--out", str(out), *knowledge_args])
    assert rc == 0
    return out


class TestEval:
    def test_metrics_rows(self, fixtures_dir, tmp_path, refined_path):
        out = tmp_path / "metrics.tsv"
        rc = main(["eval", "--system", f"mysys={refined_path}",
                   "--judgments", str(fixtures_dir / "judgments.jsonl"),
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "system\tpool\tmode\tprecision\trecall\tf1\timages"
        rows = [line.split("\t") for line in lines[1:]]
        # 3 pools x 2 modes
        assert len(rows) == 6
        assert all(row[0] == "mysys" for row in rows)

    def test_two_systems_doubled_rows(self, fixtures_dir, tmp_path, refined_path):
        out = tmp_path / "metrics.tsv"
        rc = main(["eval", "--system", f"a={refined_path}", "--system", f"b={refined_path}",
                   "--judgments", str(fixtures_dir / "judgments.jsonl"),
                   "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 13

    def test_image_mismatch_exits_3(self, fixtures_dir, tmp_path, refined_path, capsys):
        partial = tmp_path / "partial.jsonl"
        lines = refined_path.read_text().splitlines()
        partial.write_text(lines[0] + "\n")
        rc = main(["eval", "--system", str(partial),
                   "--judgments", str(fixtures_dir / "judgments.jsonl"),
                   "--out", str(tmp_path / "m.tsv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "img_002" in err and "img_003" in err

    def test_unknown_pool_tag_exits_2(self, tmp_path, refined_path):
        judgments = tmp_path / "j.jsonl"
        judgments.write_text('{"image": "img_001", "pool": "WEIRD", "labels": {"a": [2]}}\n')
        rc = main(["eval", "--system", str(refined_path),
                   "--judgments", str(judgments), "--out", str(tmp_path / "m.tsv")])
        assert rc == 2

    @pytest.mark.parametrize("labels, message", [
        ([{"label": 7, "space": "CL", "box": "b1"}], "expected a string"),
        ([{"label": None, "space": "CL", "box": "b1"}], "expected a string"),
        ([{"label": ["a"], "space": "CL", "box": "b1"}], "expected a string"),
        ({"x": 1}, "expected a list of dict"),
    ])
    def test_mistyped_refined_line_exits_2_naming_line(self, fixtures_dir, tmp_path, capsys,
                                                       labels, message):
        system = tmp_path / "system.jsonl"
        system.write_text(json.dumps({"image": "img_001", "labels": labels}) + "\n")
        rc = main(["eval", "--system", str(system),
                   "--judgments", str(fixtures_dir / "judgments.jsonl"),
                   "--out", str(tmp_path / "m.tsv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{system}:1" in err and message in err


class TestTuneCommand:
    def run_tune(self, fixtures_dir, tmp_path, knowledge_args, out_name, extra=()):
        out = tmp_path / out_name
        rc = main(["tune", "--train", str(fixtures_dir / "detections.jsonl"),
                   "--gold", str(fixtures_dir / "gold.jsonl"),
                   "--trials", "3", "--seed", "11", "--out", str(out),
                   *extra, *knowledge_args])
        return rc, out

    def test_seed_reproducible(self, fixtures_dir, tmp_path, knowledge_args):
        rc1, out1 = self.run_tune(fixtures_dir, tmp_path, knowledge_args, "t1.tsv")
        rc2, out2 = self.run_tune(fixtures_dir, tmp_path, knowledge_args, "t2.tsv")
        assert rc1 == rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_trial_single_row(self, fixtures_dir, tmp_path, knowledge_args):
        out = tmp_path / "t.tsv"
        rc = main(["tune", "--train", str(fixtures_dir / "detections.jsonl"),
                   "--gold", str(fixtures_dir / "gold.jsonl"),
                   "--trials", "1", "--seed", "0", "--out", str(out), *knowledge_args])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2  # header + one trial

    def test_zero_weight_ranges_tie_on_first_trial(self, fixtures_dir, tmp_path,
                                                   knowledge_args, capsys):
        ranges = []
        for name in ("alpha", "beta", "gamma", "kappa"):
            ranges += ["--range", f"{name}=0:0"]
        rc, out = self.run_tune(fixtures_dir, tmp_path, knowledge_args, "t.tsv",
                                extra=ranges)
        assert rc == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        scores = [row[-1] for row in rows]
        assert len(set(scores)) == 1
        snippet = capsys.readouterr().out
        assert "alpha = 0.000000" in snippet

    def test_invalid_later_trial_exits_2_before_any_refine(self, fixtures_dir, tmp_path,
                                                             knowledge_args, monkeypatch):
        rng = random.Random(4)
        deltas = [sample_params(rng, {"delta": (0.5, 1.5)})["delta"] for _ in range(3)]
        assert deltas[0] <= 1.0 < max(deltas[1:])  # only a later trial is invalid
        calls = 0
        real = pipeline.refine_record

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "refine_record", counted)
        out = tmp_path / "t.tsv"
        rc = main(["tune", "--train", str(fixtures_dir / "detections.jsonl"),
                   "--gold", str(fixtures_dir / "gold.jsonl"), "--range", "delta=0.5:1.5",
                   "--trials", "3", "--seed", "4", "--out", str(out), *knowledge_args])
        assert rc == 2
        assert calls == 0
        assert not out.exists()

    @pytest.mark.parametrize("conf", NON_NUMBER_CONFS)
    def test_non_number_confidence_line_skipped(self, fixtures_dir, tmp_path,
                                                knowledge_args, capsys, conf):
        train = tmp_path / "train.jsonl"
        train.write_text((fixtures_dir / "detections.jsonl").read_text(encoding="utf-8")
                         + detection_line(image="extra", conf=conf) + "\n")
        rc, plain = self.run_tune(fixtures_dir, tmp_path, knowledge_args, "plain.tsv")
        assert rc == 0
        capsys.readouterr()
        out = tmp_path / "t.tsv"
        rc = main(["tune", "--train", str(train), "--gold", str(fixtures_dir / "gold.jsonl"),
                   "--trials", "3", "--seed", "11", "--out", str(out), *knowledge_args])
        assert rc == 0
        assert "1 malformed detection lines skipped" in capsys.readouterr().err
        assert out.read_bytes() == plain.read_bytes()

    def test_invalid_trials_exits_2(self, fixtures_dir, tmp_path, knowledge_args):
        out = tmp_path / "t.tsv"
        rc = main(["tune", "--train", str(fixtures_dir / "detections.jsonl"),
                   "--gold", str(fixtures_dir / "gold.jsonl"),
                   "--trials", "0", "--seed", "0", "--out", str(out), *knowledge_args])
        assert rc == 2


class TestOptions:
    @pytest.mark.parametrize("command, option", [
        ("mine-vsim", ["--alpha", "1"]),
        ("mine-vsim", ["--config", "run.cfg"]),
        ("mine-vsim", ["--jobs", "2"]),
        ("eval", ["--seed", "3"]),
        ("eval", ["--budget", "none"]),
        ("refine", ["--seed", "3"]),
    ])
    def test_option_the_command_does_not_read_is_a_usage_error(
            self, fixtures_dir, tmp_path, knowledge_args, refined_path, capsys,
            command, option):
        inputs = {
            "mine-vsim": ["--corpus", str(fixtures_dir / "corpus.jsonl")],
            "eval": ["--system", str(refined_path),
                     "--judgments", str(fixtures_dir / "judgments.jsonl")],
            "refine": ["--detections", str(fixtures_dir / "detections.jsonl"),
                       *knowledge_args],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, "--out", str(tmp_path / "out"), *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option", [
        ("mine-vsim", "--out"),
        ("refine", "--out"),
        ("refine", "--dump-lp"),
        ("eval", "--out"),
        ("tune", "--out"),
    ])
    def test_unwritable_output_exits_2(self, fixtures_dir, tmp_path, knowledge_args,
                                       refined_path, capsys, command, option):
        inputs = {
            "mine-vsim": ["--corpus", str(fixtures_dir / "corpus.jsonl")],
            "refine": ["--detections", str(fixtures_dir / "detections.jsonl"),
                       *knowledge_args],
            "eval": ["--system", str(refined_path),
                     "--judgments", str(fixtures_dir / "judgments.jsonl")],
            "tune": ["--train", str(fixtures_dir / "detections.jsonl"),
                     "--gold", str(fixtures_dir / "gold.jsonl"), "--trials", "1",
                     *knowledge_args],
        }[command]
        if option == "--out":
            outputs = ["--out", str(tmp_path / "missing" / "out")]
        else:  # an existing file where the dump directory should go
            outputs = ["--out", str(tmp_path / "out"), option, str(refined_path)]
        rc = main([command, *inputs, *outputs])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["refine", "tune"])
    def test_jobs_accepts_only_1(self, fixtures_dir, tmp_path, knowledge_args, capsys, command):
        inputs = {
            "refine": ["--detections", str(fixtures_dir / "detections.jsonl")],
            "tune": ["--train", str(fixtures_dir / "detections.jsonl"),
                     "--gold", str(fixtures_dir / "gold.jsonl"), "--trials", "1"],
        }[command]
        argv = [command, *inputs, "--out", str(tmp_path / "out"), *knowledge_args]
        assert main([*argv, "--jobs", "1"]) == 0
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--jobs", "2"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
