import random
import re
import sys

import numpy as np
import pytest

from tagrefine.errors import LoadError
from tagrefine.knowledge import (
    load_allowlist,
    load_assertions,
    load_coloc,
    load_embeddings,
    load_hypernyms,
)
from tagrefine.labels import canon_label


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


_WS = re.compile(r"\s+")


def canon_label_reference(text):
    """The regex form of canon_label, kept as its reference."""
    return _WS.sub(" ", text.strip()).lower()


class TestCanonLabel:
    def test_every_code_point_matches_regex_reference(self):
        # each code point leads, trails, and forms a run of two inside the label
        texts = (f"{c}A{c}{c}b{c}" for c in map(chr, range(sys.maxunicode + 1)))
        mismatched = [t for t in texts if canon_label(t) != canon_label_reference(t)]
        assert mismatched == []

    def test_lowercase_and_collapse(self):
        assert canon_label("  Tennis   Ball ") == "tennis ball"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canon_label("   ")


class TestLoadEmbeddings:
    def test_two_lines_three_floats(self, tmp_path):
        path = write(tmp_path, "emb.txt", "cat 1 2 3\ndog 0.5 0.5 0\n")
        table = load_embeddings(path)
        assert table.dim == 3
        assert len(table) == 2
        assert np.allclose(table.vectors["cat"], [1, 2, 3])

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = write(tmp_path, "emb.txt", "cat 1 2 3\ndog 1 2 3 4\n")
        with pytest.raises(LoadError) as err:
            load_embeddings(path)
        assert ":2" in str(err.value)

    def test_empty_file(self, tmp_path):
        table = load_embeddings(write(tmp_path, "emb.txt", ""))
        assert table.dim == 0
        assert len(table) == 0

    def test_non_numeric_component(self, tmp_path):
        path = write(tmp_path, "emb.txt", "cat 1 x 3\n")
        with pytest.raises(LoadError):
            load_embeddings(path)

    def test_non_finite_component(self, tmp_path):
        for value in ("nan", "inf", "-inf"):
            path = write(tmp_path, "emb.txt", f"cat 1 {value} 3\n")
            with pytest.raises(LoadError, match="non-finite vector component"):
                load_embeddings(path)

    def test_overflowing_squared_norm_names_line(self, tmp_path):
        # every component is finite, but the norm of this row is not
        path = write(tmp_path, "emb.txt", "cat 1 0 0\nsnake 1e200 0 0\n")
        with pytest.raises(LoadError, match="squared vector norm overflows") as err:
            load_embeddings(path)
        assert ":2" in str(err.value)

    def test_duplicate_token_last_wins(self, tmp_path, caplog):
        path = write(tmp_path, "emb.txt", "cat 1 0\ncat 0 1\n")
        table = load_embeddings(path)
        assert "1 duplicate embedding tokens (last wins)" in caplog.text
        assert np.allclose(table.vectors["cat"], [0, 1])

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = write(tmp_path, "emb.txt", "# header\n\ncat 1 0\n")
        assert len(load_embeddings(path)) == 1

    def test_idempotent(self, tmp_path):
        path = write(tmp_path, "emb.txt", "cat 1 2\ndog 3 4\n")
        a, b = load_embeddings(path), load_embeddings(path)
        assert a.dim == b.dim
        assert set(a.vectors) == set(b.vectors)

    def test_multiword_label_vector_is_token_mean(self, tmp_path):
        path = write(tmp_path, "emb.txt", "tennis 1 0\nball 0 1\n")
        table = load_embeddings(path)
        assert np.allclose(table.label_vector("tennis ball"), [0.5, 0.5])
        assert table.label_vector("rocket science") is None


class TestLoadHypernyms:
    def test_allowlisted_parent_retained(self, tmp_path):
        allow = {"insect": 50.0, "hymenopteran": 1.0}
        path = write(tmp_path, "hyp.tsv", "ant\tinsect\t1\n")
        assert load_hypernyms(path, allow, threshold=10.0) == {"ant": ("insect",)}

    def test_below_threshold_parent_pruned(self, tmp_path):
        allow = {"insect": 50.0, "hymenopteran": 1.0}
        path = write(tmp_path, "hyp.tsv", "ant\tinsect\t1\nant\thymenopteran\t1\n")
        assert load_hypernyms(path, allow, threshold=10.0) == {"ant": ("insect",)}

    def test_absent_parent_is_below_any_positive_threshold(self, tmp_path):
        path = write(tmp_path, "hyp.tsv", "ant\tinsect\t1\n")
        assert load_hypernyms(path, {}, threshold=1e-9) == {}
        # default threshold 0 keeps everything
        assert load_hypernyms(path, {}, threshold=0.0) == {"ant": ("insect",)}

    def test_depth_cap(self, tmp_path):
        path = write(tmp_path, "hyp.tsv", "ant\tinsect\t1\nant\tbeing\t4\nant\tthing\t0\n")
        assert load_hypernyms(path, {}, 0.0) == {"ant": ("insect",)}

    def test_five_parents_capped_to_three_deterministically(self, tmp_path):
        allow = {"p1": 5, "p2": 4, "p3": 3, "p4": 3, "p5": 1}
        rows = [f"ant\tp{i}\t1" for i in range(1, 6)]
        expected = {"ant": ("p1", "p2", "p3")}  # p3 beats p4 lexicographically at score 3
        for seed in range(5):
            shuffled = rows[:]
            random.Random(seed).shuffle(shuffled)
            path = write(tmp_path, f"hyp{seed}.tsv", "\n".join(shuffled) + "\n")
            assert load_hypernyms(path, allow, 0.0) == expected

    def test_malformed_line_errors_with_lineno(self, tmp_path):
        path = write(tmp_path, "hyp.tsv", "ant\tinsect\t1\nant insect 1\n")
        with pytest.raises(LoadError) as err:
            load_hypernyms(path, {}, 0.0)
        assert ":2" in str(err.value)

    def test_self_loop_dropped(self, tmp_path):
        path = write(tmp_path, "hyp.tsv", "ant\tant\t1\n")
        assert load_hypernyms(path, {}, 0.0) == {}

    def test_parent_index(self, tmp_path):
        path = write(tmp_path, "hyp.tsv", "ant\tinsect\t1\nant\tanimal\t2\n")
        assert load_hypernyms(path, {}, 0.0) == {"ant": ("animal", "insect")}


class TestLoadAssertions:
    def test_positive_has_property_kept(self, tmp_path):
        path = write(tmp_path, "a.tsv", "baby\thasProperty\tnewborn\t10.17\n")
        assert load_assertions(path) == {"baby": {"newborn": 10.17}}

    def test_negative_score_dropped(self, tmp_path):
        path = write(tmp_path, "a.tsv", "acne medicine\tusedFor\tclear skin\t-1.0\n")
        assert load_assertions(path) == {}

    def test_unsupported_relation_dropped(self, tmp_path):
        path = write(tmp_path, "a.tsv", "flower\tmadeOf\tpetal\t1.0\n")
        assert load_assertions(path) == {}

    def test_non_numeric_score_is_load_error(self, tmp_path):
        path = write(tmp_path, "a.tsv", "flower\tusedFor\tsmelling\thigh\n")
        with pytest.raises(LoadError):
            load_assertions(path)

    def test_zero_score_dropped(self, tmp_path):
        path = write(tmp_path, "a.tsv", "flower\tusedFor\tsmelling\t0\n")
        assert load_assertions(path) == {}

    @pytest.mark.parametrize("rows", [
        ["x\tusedFor\taa\t1.0", "x\thasProperty\taa\t4.0"],
        ["x\thasProperty\taa\t4.0", "x\tusedFor\taa\t1.0"],
    ])
    def test_repeated_pair_keeps_highest_score(self, tmp_path, rows):
        path = write(tmp_path, "a.tsv", "\n".join(rows) + "\n")
        assert load_assertions(path) == {"x": {"aa": 4.0}}


class TestLoadColoc:
    def test_orders_sum(self, tmp_path):
        path = write(tmp_path, "c.tsv", "a\tb\t3\nb\ta\t2\n")
        table = load_coloc(path)
        assert table.get("a", "b") == 5
        assert table.get("b", "a") == 5

    def test_both_orders_retrievable(self, tmp_path):
        path = write(tmp_path, "c.tsv", "person\tmicrophone\t7\ntable\tchair\t4\n")
        table = load_coloc(path)
        assert table.get("microphone", "person") == 7
        assert table.get("chair", "table") == 4

    def test_unseen_pair_zero(self, tmp_path):
        table = load_coloc(write(tmp_path, "c.tsv", "a\tb\t3\n"))
        assert table.get("a", "z") == 0

    def test_negative_count_is_load_error(self, tmp_path):
        path = write(tmp_path, "c.tsv", "a\tb\t-3\n")
        with pytest.raises(LoadError):
            load_coloc(path)

    def test_symmetry_invariant(self, tmp_path):
        rng = random.Random(0)
        labels = ["a", "b", "c", "d"]
        rows = []
        for _ in range(30):
            x, y = rng.sample(labels, 2)
            rows.append(f"{x}\t{y}\t{rng.randint(0, 9)}")
        table = load_coloc(write(tmp_path, "c.tsv", "\n".join(rows) + "\n"))
        for x in labels:
            for y in labels:
                assert table.get(x, y) == table.get(y, x)

    def test_self_pairs_ignored(self, tmp_path):
        table = load_coloc(write(tmp_path, "c.tsv", "a\ta\t3\na\tb\t1\n"))
        assert table.get("a", "a") == 0
        assert table.max_count == 1


class TestLoadAllowlist:
    def test_scores_and_default(self, tmp_path):
        allow = load_allowlist(write(tmp_path, "w.tsv", "insect\t50\n"))
        assert allow == {"insect": 50.0}  # absent labels score 0 in load_hypernyms

    def test_negative_score_rejected(self, tmp_path):
        with pytest.raises(LoadError):
            load_allowlist(write(tmp_path, "w.tsv", "insect\t-1\n"))
