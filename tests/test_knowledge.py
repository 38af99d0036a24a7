import logging
import math
import random
import re
import sys

import numpy as np
import pytest

from tagrefine import knowledge, relatedness, vsim
from tagrefine.errors import LoadError
from tagrefine.knowledge import (
    EMBEDDING_BLOCK,
    load_allowlist,
    load_assertions,
    load_coloc,
    load_embeddings,
    load_hypernyms,
)
from tagrefine.labels import CanonLabels, PairTable, canon_label
from tagrefine.textio import data_lines
from tagrefine.vsim import read_vsim_tsv


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
        assert len(table.vectors) == 2
        assert np.allclose(table.vectors["cat"], [1, 2, 3])

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = write(tmp_path, "emb.txt", "cat 1 2 3\ndog 1 2 3 4\n")
        with pytest.raises(LoadError) as err:
            load_embeddings(path)
        assert ":2" in str(err.value)

    def test_empty_file(self, tmp_path):
        table = load_embeddings(write(tmp_path, "emb.txt", ""))
        assert table.dim == 0
        assert len(table.vectors) == 0

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
        assert len(load_embeddings(path).vectors) == 1

    def test_idempotent(self, tmp_path):
        path = write(tmp_path, "emb.txt", "cat 1 2\ndog 3 4\n")
        a, b = load_embeddings(path), load_embeddings(path)
        assert a.dim == b.dim
        assert set(a.vectors) == set(b.vectors)

    def test_multiword_label_vector_is_token_mean(self, tmp_path):
        path = write(tmp_path, "emb.txt", "tennis 1 0\nball 0 1\n")
        table = load_embeddings(path)
        vec, norm = relatedness._entry(table, "tennis ball")
        assert vec.tolist() == [0.5, 0.5] and norm == math.sqrt(0.5)
        vec, norm = relatedness._entry(table, "tennis racket")  # one token in the vocabulary
        assert vec is table.vectors["tennis"] and norm == 1.0
        assert relatedness._entry(table, "rocket science") is None


    def test_token_only_row_names_its_line(self, tmp_path):
        path = write(tmp_path, "emb.txt", "cat 1 2\ndog\nfish 3 4\n")
        with pytest.raises(LoadError, match="expected `token v1 ... vd`") as err:
            load_embeddings(path)
        assert err.value.line == 2

    def test_bad_row_in_third_block_names_its_line(self, tmp_path):
        rows = [f"w{i} 1 2" for i in range(2 * EMBEDDING_BLOCK + 5)]
        rows.append("bad 1 x")
        path = write(tmp_path, "emb.txt", "\n".join(rows + ["last 1 2"]) + "\n")
        with pytest.raises(LoadError, match="non-numeric vector component") as err:
            load_embeddings(path)
        assert err.value.line == 2 * EMBEDDING_BLOCK + 6

    def test_underscores_and_non_ascii_digits_load_as_float_reads_them(self, tmp_path):
        path = write(tmp_path, "emb.txt", "cat 1_000 \u0661\u0662 0.5\ndog 1 2 3\n")
        table = load_embeddings(path)
        assert table.vectors["cat"].tolist() == [1000.0, 12.0, 0.5]
        assert table.vectors["dog"].tolist() == [1.0, 2.0, 3.0]

    def test_crlf_file_gives_the_same_vectors(self, tmp_path):
        text = "# vectors\ncat 0.1 -2e-3 7\n\ndog 1e5 0.25 -0\n"
        lf = load_embeddings(write(tmp_path, "lf.txt", text))
        path = tmp_path / "crlf.txt"
        path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        crlf = load_embeddings(path)
        assert list(crlf.vectors) == list(lf.vectors) == ["cat", "dog"]
        assert all(crlf.vectors[t].tobytes() == lf.vectors[t].tobytes() for t in lf.vectors)

    def test_bad_row_before_a_line_that_is_not_utf8_is_reported_first(self, tmp_path):
        # the text decoder reads ahead, so the undecodable line, past the
        # first 8 KiB, fails while the bad row's block is still filling
        long_row = " ".join(["0.125"] * 60)
        rows = [f"cat {long_row}", "dog", *(f"w{i} {long_row}" for i in range(40))]
        path = tmp_path / "emb.txt"
        path.write_bytes("\n".join(rows).encode("utf-8") + b"\nbad\xff 1\n")
        assert path.stat().st_size > 8192 and len(rows) < EMBEDDING_BLOCK
        with pytest.raises(LoadError, match="expected `token v1 ... vd`") as err:
            load_embeddings(path)
        assert err.value.line == 2

    def test_norms_are_numpys_bit_for_bit(self, tmp_path):
        rng = random.Random("embedding-norms")
        lines, last = [], {}
        for k in range(400):
            dim = 6
            kind = k % 4
            if kind == 0:  # components near 1e150, whose squares still sum finite
                vec = [rng.uniform(-1, 1) * 10.0 ** rng.uniform(148, 153.5) for _ in range(dim)]
            elif kind == 1:  # subnormal components, whose squares underflow
                vec = [rng.choice([5e-324, -5e-324, 1e-310, -2.2e-308]) for _ in range(dim)]
            else:
                vec = [rng.gauss(0, 1) * 10.0 ** rng.randint(-30, 30) for _ in range(dim)]
            vec = np.array(vec)
            assert math.isfinite(vec @ vec)
            token = f"w{rng.randrange(300)}"  # about a quarter of the tokens repeat
            last[token] = vec
            lines.append(" ".join([token, *map(repr, vec.tolist())]))
        table = load_embeddings(write(tmp_path, "emb.txt", "\n".join(lines) + "\n"))
        assert list(table.norms) == list(table.vectors) and len(table.norms) == len(last)
        for token, vec in last.items():
            assert table.vectors[token].tobytes() == vec.tobytes()  # the last row wins
            assert table.norms[token].hex() == float(np.linalg.norm(vec)).hex()

    def test_vectors_are_read_only(self, tmp_path):
        rows = [f"w{i} {i} 1" for i in range(EMBEDDING_BLOCK + 1)]
        table = load_embeddings(write(tmp_path, "emb.txt", "\n".join(rows) + "\n"))
        for vec in table.vectors.values():
            with pytest.raises(ValueError, match="read-only"):
                vec[0] = 1.0


_reference_log = logging.getLogger("tests.embeddings_reference")


@np.errstate(over="ignore")
def load_embeddings_reference(path):
    """`load_embeddings` one row at a time, each row's floats parsed by
    `np.array` on its fields: the reference the block parse must match."""
    vectors = {}
    dim = 0
    duplicates = 0
    for lineno, line in data_lines(path):
        parts = line.split()
        if len(parts) < 2:
            raise LoadError(path, "expected `token v1 ... vd`", lineno)
        token = canon_label(parts[0])
        try:
            vec = np.array(parts[1:], dtype=float)
        except ValueError as exc:
            raise LoadError(path, f"non-numeric vector component: {exc}", lineno) from exc
        if not math.isfinite(vec @ vec):
            what = "squared vector norm overflows" if np.isfinite(vec).all() \
                else "non-finite vector component"
            raise LoadError(path, what, lineno)
        if dim == 0 and not vectors:
            dim = vec.size
        elif vec.size != dim:
            raise LoadError(
                path, f"dimension mismatch: expected {dim}, got {vec.size}", lineno
            )
        if token in vectors:
            duplicates += 1
        vec.setflags(write=False)
        vectors[token] = vec
    if duplicates:
        _reference_log.warning("%s: %d duplicate embedding tokens (last wins)", path, duplicates)
    return knowledge.EmbeddingTable(dim=dim, vectors=vectors)


# separators str.split splits on, Unicode ones included
SEPARATORS = [" ", " ", " ", "  ", "\t", " \t", "\u3000", "\xa0", "\x0b", "\x0c", "\u2003"]
TOKENS = ["cat", "Dog", "tennis", "ball", "\u00fcber", "a#b", "#tag"]
# values float() reads and numpy's text parser does not
FLOAT_ONLY = ["1_000", "1_0.5", "\u0661\u0662", "\uff11", "\u0967.5"]
# errors: non-finite, overflowing or non-numeric components
BAD_VALUES = ["nan", "inf", "-Infinity", "NaN", "1e400", "x", "1,5", "0x10", "--1", "1e",
              "1.5.2", "\u00bd", "1#", "#1", '"1"']


def _value(rng, quirk_rate):
    if rng.random() < quirk_rate:
        return rng.choice(FLOAT_ONLY)
    x = rng.gauss(0, 1)
    return rng.choice([repr(x), f"{x:.4f}", f"{x:.3e}", str(rng.randint(-5, 5)),
                       "-0", "+1.5", ".5", "5.", "1E-3"])


def _embedding_line(rng, dim, bad_rate, quirk_rate):
    """One line of a random embeddings file, without its line ending."""
    if rng.random() < 0.06:
        return rng.choice(["", "   ", "\t", "# comment 1 2", "  # x", "#"])
    token = rng.choice(TOKENS) if rng.random() < 0.3 else f"w{rng.randrange(60)}"
    if rng.random() < 0.1:
        token = " " + token
    values = [_value(rng, quirk_rate) for _ in range(dim)]
    if rng.random() < bad_rate:
        kind = rng.randrange(4)
        if kind == 0:  # token only
            values = []
        elif kind == 1:  # another dimension
            values = values[:-1] if dim > 1 and rng.random() < 0.5 else values + ["1"]
        elif kind == 2:
            values[rng.randrange(dim)] = rng.choice(BAD_VALUES)
        else:  # every component finite, the squared norm not
            values = ["1e200"] * dim
    if rng.random() < 0.8:
        line = rng.choice(SEPARATORS).join([token, *values])
    else:
        line = token + "".join(rng.choice(SEPARATORS) + v for v in values)
    return line + rng.choice(["", "", " ", "\t"])


def random_embedding_file(rng) -> bytes:
    """A file of 0-160 lines mixing rows, comments, blanks, duplicate tokens,
    odd separators, line endings and numerals and, in some files, bad rows
    or a line that is not UTF-8."""
    dim = rng.randint(1, 4)
    bad_rate = rng.choice([0.0, 0.0, 0.005, 0.02, 0.1])
    quirk_rate = rng.choice([0.0, 0.0, 0.002, 0.02])
    ending = rng.choice(["\n", "\r\n", None])
    lines = [_embedding_line(rng, dim, bad_rate, quirk_rate).encode("utf-8")
             for _ in range(rng.randint(0, 160))]
    if lines and rng.random() < 0.04:
        lines[rng.randrange(len(lines))] += b"\xff"
    return b"".join(line + (ending or rng.choice(["\n", "\r\n"])).encode("ascii")
                    for line in lines)


def embedding_outcome(load, path, caplog):
    """What loading `path` gives: the error, or the table and any warnings."""
    caplog.clear()
    try:
        table = load(path)
    except LoadError as exc:
        return str(exc), exc.line
    # the reference's table works its norms out with np.linalg.norm
    rows = [(token, vec.dtype, vec.shape, vec.tobytes(), vec.flags.writeable,
             table.norms[token].hex()) for token, vec in table.vectors.items()]
    return table.dim, rows, [record.getMessage() for record in caplog.records]


class TestLoadEmbeddingsOracle:
    """The loader against its row-at-a-time reference on seeded random files."""

    @pytest.mark.parametrize("block", [EMBEDDING_BLOCK, 3])
    def test_matches_reference(self, block, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr(knowledge, "EMBEDDING_BLOCK", block)
        path = tmp_path / "emb.txt"
        rng = random.Random(f"embeddings:{block}")
        errors = 0
        for _ in range(200):
            path.write_bytes(random_embedding_file(rng))
            expected = embedding_outcome(load_embeddings_reference, path, caplog)
            assert embedding_outcome(load_embeddings, path, caplog) == expected
            errors += len(expected) == 2
        # the files load whole often enough, and fail often enough, to test both
        assert 40 <= errors <= 160


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


class TestPairTable:
    def test_get_reads_both_ways_round(self):
        table = PairTable({("b", "a"): 0.25})
        assert table.get("a", "b") == table.get("b", "a") == 0.25

    def test_pair_given_twice_in_either_order_sums(self):
        table = PairTable()
        table.add("a", "b", 3)
        table.add("b", "a", 4)
        assert table.get("a", "b") == table.get("b", "a") == 7
        assert len(table) == 1

    def test_self_pair_not_kept(self):
        table = PairTable({("a", "a"): 5, ("a", "b"): 1})
        assert table.get("a", "a") == 0
        assert "a" not in table.neighbors("a")
        assert table.max_value == 1 and len(table) == 1

    def test_missing_pair_and_unknown_label(self):
        table = PairTable({("a", "b"): 2})
        assert table.get("a", "z") == 0 and table.get("y", "z") == 0
        empty = table.neighbors("z")
        assert dict(empty) == {}
        with pytest.raises(TypeError):
            empty["a"] = 1
        assert table.neighbors("z") == {} and "z" not in table.labels()

    def test_max_value_is_the_largest(self):
        assert PairTable().max_value == 0
        table = PairTable({("a", "b"): 2, ("c", "d"): 9, ("a", "c"): 4})
        assert table.max_value == 9
        table.add("b", "a", 8)
        assert table.max_value == 10

    def test_pairs_sorted_with_lower_label_first(self):
        table = PairTable({("d", "c"): 0.5, ("b", "a"): 0.1, ("c", "a"): 0.3})
        assert list(table.pairs()) == [("a", "b", 0.1), ("a", "c", 0.3), ("c", "d", 0.5)]

    def test_labels_len_and_equality(self):
        table = PairTable({("a", "b"): 0.5, ("b", "c"): 0.2})
        assert sorted(table.labels()) == ["a", "b", "c"]
        assert len(table) == 2 and len(PairTable()) == 0
        assert table == PairTable({("c", "b"): 0.2, ("b", "a"): 0.5})
        assert table != PairTable({("a", "b"): 0.5})
        assert table != {("a", "b"): 0.5, ("b", "c"): 0.2}


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
        assert table.max_value == 1


class TestLoadAllowlist:
    def test_scores_and_default(self, tmp_path):
        allow = load_allowlist(write(tmp_path, "w.tsv", "insect\t50\n"))
        assert allow == {"insect": 50.0}  # absent labels score 0 in load_hypernyms

    def test_negative_score_rejected(self, tmp_path):
        with pytest.raises(LoadError):
            load_allowlist(write(tmp_path, "w.tsv", "insect\t-1\n"))


class EveryField(dict):
    """`CanonLabels` without its memo: `canon_label` on every lookup, as the
    loaders did before they kept one per load."""

    def __getitem__(self, text):
        return canon_label(text)


WORDS = ["cat", "dog", "tennis ball", "sofa", "a b c", "\u00fcber", "x", "lamp"]


def raw_label(rng):
    """A spelling of one of a few labels; now and then one that is empty."""
    if rng.random() < 0.01:
        return rng.choice(["", " ", "\u3000"])
    word = rng.choice(WORDS)
    word = rng.choice([word, word.upper(), word.title(), word.replace(" ", "  "),
                       word.replace(" ", "\u00a0")])
    return rng.choice(["", " ", "\u2003"]) + word + rng.choice(["", " ", "  "])


# loader -> (reads a path, one random row)
CANON_LOADERS = {
    "allowlist": (load_allowlist, lambda rng: f"{raw_label(rng)}\t{rng.choice([0, 1.5, 7])}"),
    "hypernyms": (lambda path: load_hypernyms(path, {"dog": 2.0, "sofa": 0.5}, 1.0),
                  lambda rng: f"{raw_label(rng)}\t{raw_label(rng)}\t{rng.randint(0, 4)}"),
    "assertions": (load_assertions, lambda rng: "\t".join([
        raw_label(rng), rng.choice(["usedFor", "hasProperty", "madeOf"]), raw_label(rng),
        rng.choice(["1.5", "2", "0", "-1", "0.25"])])),
    "coloc": (load_coloc, lambda rng: f"{raw_label(rng)}\t{raw_label(rng)}\t{rng.randint(0, 9)}"),
    "vsim": (read_vsim_tsv, lambda rng: f"{raw_label(rng)}\t{raw_label(rng)}\t0.5"),
}


def load_outcome(load, path, caplog):
    caplog.clear()
    try:
        result = load(path)
    except LoadError as exc:
        return str(exc), exc.line
    return result, [record.getMessage() for record in caplog.records]


class TestLabelFieldsCanonicalisedOnce:
    """Each loader keeps one `CanonLabels` per load; its tables, errors and
    warnings are those of calling `canon_label` on every field."""

    @pytest.mark.parametrize("name", CANON_LOADERS)
    def test_matches_canon_label_on_every_field(self, name, tmp_path, caplog, monkeypatch):
        load, row = CANON_LOADERS[name]
        rng = random.Random(f"canon:{name}")
        path = tmp_path / f"{name}.tsv"
        errors = 0
        for _ in range(60):
            n_rows = rng.randint(1, 4) if name == "vsim" else rng.randint(0, 40)
            path.write_text("".join(row(rng) + "\n" for _ in range(n_rows)), encoding="utf-8")
            got = load_outcome(load, path, caplog)
            with monkeypatch.context() as patch:
                patch.setattr(knowledge, "CanonLabels", EveryField)
                patch.setattr(vsim, "CanonLabels", EveryField)
                assert load_outcome(load, path, caplog) == got
            errors += isinstance(got[0], str)
        assert 0 < errors < 60  # some files load whole, some fail

    def test_an_empty_label_raises_at_its_first_row(self, tmp_path):
        path = write(tmp_path, "c.tsv", "a\tb\t1\n \tb\t2\nc\t \t3\n")
        with pytest.raises(LoadError, match="empty label") as err:
            load_coloc(path)
        assert err.value.line == 2

    def test_a_failed_field_is_not_kept(self):
        canon = CanonLabels()
        for _ in range(2):
            with pytest.raises(ValueError, match="empty label"):
                canon["  "]
        assert canon["  Tennis  Ball"] == "tennis ball"
        assert canon == {"  Tennis  Ball": "tennis ball"}
