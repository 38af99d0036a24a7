import gc
import itertools
import math
import random
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagrefine.errors import ConfigError
from tagrefine.knowledge import EmbeddingTable
from tagrefine.labels import PairTable, tokens
from tagrefine import relatedness
from tagrefine.relatedness import Relatedness, image_coherence


def emb(**vectors) -> EmbeddingTable:
    dim = len(next(iter(vectors.values()))) if vectors else 0
    return EmbeddingTable(dim=dim, vectors={
        token: np.array(vec, dtype=float) for token, vec in vectors.items()
    })


NO_VECTORS = EmbeddingTable(dim=0, vectors={})


def cosine(a, b, table):
    """Embedding-only relatedness: srel at delta 1."""
    return Relatedness(table, PairTable(), delta=1.0).srel(a, b)


def coloc(a, b, table):
    """Co-location-only relatedness: srel at delta 0 with no embeddings."""
    return Relatedness(NO_VECTORS, table, delta=0.0).srel(a, b)


def srel(a, b, delta, table, cl):
    return Relatedness(table, cl, delta=delta).srel(a, b)


def label_vector(table, label):
    """Reference: the mean of a label's in-vocabulary token vectors; None if
    every token is out of vocabulary."""
    in_vocab = [table.vectors[t] for t in tokens(label) if t in table.vectors]
    if not in_vocab:
        return None
    if len(in_vocab) == 1:
        return in_vocab[0]
    return np.mean(in_vocab, axis=0)


# Reference copy of the three-function srel that `Relatedness.srel` replaced;
# the one path must reproduce it bit for bit.

def ref_cosine(a, b, table):
    va = label_vector(table, a)
    vb = label_vector(table, b)
    if va is None or vb is None:
        return 0.0
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    raw = float(np.dot(va, vb)) / (na * nb)
    return min(1.0, max(0.0, raw))


def ref_coloc(a, b, table):
    if table.max_value == 0:
        return 0.0
    return table.get(a, b) / table.max_value


def ref_srel(a, b, delta, table, cl):
    value = delta * ref_cosine(a, b, table) + (1.0 - delta) * ref_coloc(a, b, cl)
    return min(1.0, max(0.0, value))


class TestCosine:
    def test_self_similarity_is_one(self):
        table = emb(cat=[1.0, 2.0])
        assert cosine("cat", "cat", table) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        table = emb(cat=[1.0, 0.0], boat=[0.0, 1.0])
        assert cosine("cat", "boat", table) == 0.0

    def test_out_of_vocabulary_is_zero(self):
        table = emb(cat=[1.0, 0.0])
        assert cosine("cat", "unicorn", table) == 0.0
        assert cosine("unicorn", "dragon", table) == 0.0

    def test_negative_cosine_clamped(self):
        table = emb(hot=[1.0, 0.0], cold=[-1.0, 0.0])
        assert cosine("hot", "cold", table) == 0.0

    def test_multiword_mean(self):
        table = emb(tennis=[1.0, 0.0], ball=[0.0, 1.0], sport=[1.0, 1.0])
        # mean([1,0],[0,1]) = [.5,.5], parallel to sport
        assert cosine("tennis ball", "sport", table) == pytest.approx(1.0)

    def test_zero_vector_is_zero(self):
        table = emb(void=[0.0, 0.0], cat=[1.0, 0.0])
        assert cosine("void", "cat", table) == 0.0

    def test_empty_table_total(self):
        assert cosine("a", "b", NO_VECTORS) == 0.0


class TestColoc:
    table = PairTable({("apple", "table"): 10, ("chair", "table"): 5})

    def test_max_pair_is_one(self):
        assert coloc("apple", "table", self.table) == 1.0

    def test_unseen_pair_is_zero(self):
        assert coloc("apple", "chair", self.table) == 0.0

    def test_half_of_max(self):
        assert coloc("table", "chair", self.table) == 0.5

    def test_empty_table(self):
        assert coloc("a", "b", PairTable()) == 0.0


class TestSrel:
    def test_blend_arithmetic(self):
        # delta .6, cosine .5, coloc .25 -> .4
        table = emb(a=[1.0, 0.0], b=[0.5, np.sqrt(3) / 2])  # cos = 0.5
        cl = PairTable({("a", "b"): 1, ("x", "y"): 4})  # coloc = 0.25
        assert srel("a", "b", 0.6, table, cl) == pytest.approx(0.4)

    def test_delta_one_is_pure_cosine(self):
        table = emb(a=[1.0, 1.0], b=[1.0, 0.0])
        cl = PairTable({("a", "b"): 3})
        assert srel("a", "b", 1.0, table, cl) == pytest.approx(ref_cosine("a", "b", table))

    def test_delta_zero_unseen_pair_is_zero(self):
        table = emb(a=[1.0, 0.0], b=[1.0, 0.0])
        assert srel("a", "b", 0.0, table, PairTable()) == 0.0

    def test_delta_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            Relatedness(emb(a=[1.0]), PairTable(), delta=1.5)

    @given(
        st.floats(0, 1),
        st.lists(st.floats(-1, 1), min_size=3, max_size=3),
        st.lists(st.floats(-1, 1), min_size=3, max_size=3),
        st.integers(0, 20),
        st.integers(1, 20),
    )
    @settings(max_examples=80, deadline=None)
    def test_symmetric_and_in_unit_interval(self, delta, va, vb, count, cmax):
        table = emb(a=va, b=vb)
        cl = PairTable({("a", "b"): min(count, cmax), ("p", "q"): cmax})
        rel = Relatedness(table, cl, delta=delta)
        ab = rel.srel("a", "b")
        ba = rel.srel("b", "a")
        assert ab == ba
        assert 0.0 <= ab <= 1.0

    def test_monotone_in_both_components(self):
        delta = 0.5
        lo_cos = emb(a=[1.0, 0.0], b=[0.5, np.sqrt(3) / 2])
        hi_cos = emb(a=[1.0, 0.0], b=[1.0, 0.1])
        cl_lo = PairTable({("a", "b"): 1, ("p", "q"): 10})
        cl_hi = PairTable({("a", "b"): 8, ("p", "q"): 10})
        assert srel("a", "b", delta, hi_cos, cl_lo) > srel("a", "b", delta, lo_cos, cl_lo)
        assert srel("a", "b", delta, lo_cos, cl_hi) > srel("a", "b", delta, lo_cos, cl_lo)

    def test_empty_coloc_reduces_to_weighted_cosine(self):
        table = emb(a=[1.0, 2.0], b=[2.0, 1.0])
        expected = 0.7 * ref_cosine("a", "b", table)
        assert srel("a", "b", 0.7, table, PairTable()) == pytest.approx(expected)


TOKENS = ("t0", "t1", "t2", "t3")
VECTOR = st.one_of(st.just([0.0, 0.0, 0.0]),
                   st.lists(st.floats(-1, 1), min_size=3, max_size=3))
# one to three tokens, `oov` never in the table
LABEL = st.lists(st.sampled_from((*TOKENS, "oov")), min_size=1, max_size=3).map(" ".join)


class TestPerLabelState:
    def test_matches_reference_in_either_order(self):
        table = emb(a=[1.0, 0.5], b=[0.3, 1.0])
        cl = PairTable({("a", "b"): 2, ("p", "q"): 4})
        rel = Relatedness(table, cl, delta=0.4)
        direct = ref_srel("a", "b", 0.4, table, cl)
        assert rel.srel("a", "b") == direct
        assert rel.srel("b", "a") == direct  # and again, from the kept label entries

    @given(
        st.floats(0, 1),
        st.lists(VECTOR, min_size=len(TOKENS), max_size=len(TOKENS)),
        st.dictionaries(st.tuples(LABEL, LABEL), st.integers(1, 20), max_size=4),
        st.lists(st.tuples(LABEL, LABEL), min_size=1, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_reference(self, delta, vectors, counts, pairs):
        table = emb(**dict(zip(TOKENS, vectors)))
        cl = PairTable(counts)
        rel = Relatedness(table, cl, delta=delta)
        for a, b in pairs:
            expected = ref_srel(a, b, delta, table, cl)
            assert rel.srel(a, b) == expected
            assert rel.srel(b, a) == expected
            assert ref_srel(b, a, delta, table, cl) == expected

    def test_state_bounded_by_distinct_labels(self):
        rng = np.random.default_rng(0)
        labels = [f"l{i}" for i in range(60)]
        table = EmbeddingTable(dim=4, vectors={lab: rng.normal(size=4) for lab in labels})
        cl = PairTable({(labels[i], labels[i + 1]): i + 1 for i in range(10)})
        rel = Relatedness(table, cl, delta=0.5)
        for a, b in itertools.combinations(labels, 2):
            rel.srel(a, b)
        held = [value for value in vars(rel).values() if hasattr(value, "__len__")]
        assert held  # the embedding table at least
        assert all(len(value) <= 60 for value in held)
        # the label entries: one miss per distinct label, never evicted
        info = rel._vector.cache_info()
        assert info.misses == info.currsize == 60

    def test_novel_labels_keep_the_cache_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(relatedness, "LABEL_CACHE", 4)
        rng = np.random.default_rng(2)
        words = [f"w{i}" for i in range(6)]
        table = EmbeddingTable(dim=3, vectors={w: rng.normal(size=3) for w in words})
        cl = PairTable({(words[i], words[i + 1]): i + 1 for i in range(5)})
        rel = Relatedness(table, cl, delta=0.5)
        # every pair asks for a label the cache has not seen, so it keeps evicting
        stream = [(w, f"{w} novel{i}") for i, w in enumerate(words * 5)]
        for a, b in stream + stream[:3]:
            assert rel.srel(a, b) == ref_srel(a, b, 0.5, table, cl)
            assert rel._vector.cache_info().currsize <= 4
        assert rel._vector.cache_info().currsize == 4

    def test_store_freed_without_the_cyclic_gc(self):
        table = emb(a=[1.0, 0.0], b=[0.6, 0.8])
        rel = Relatedness(table, PairTable())
        rel.srel("a", "b")
        rel.table(["a", "b"], ["b"])
        alive = weakref.ref(table)
        del table
        enabled = gc.isenabled()
        gc.disable()
        try:
            del rel  # reference counting alone must free the label cache and the table
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_threads_filling_one_instance_agree_with_reference(self):
        rng = np.random.default_rng(1)
        words = [f"w{i}" for i in range(12)]
        table = EmbeddingTable(dim=8, vectors={w: rng.normal(size=8) for w in words})
        labels = [*words, *(f"{a} {b}" for a, b in zip(words, words[1:])), "oov"]
        cl = PairTable({(labels[i], labels[i + 2]): i + 1 for i in range(20)})
        pairs = list(itertools.combinations(labels, 2))
        expected = [ref_srel(a, b, 0.3, table, cl) for a, b in pairs]
        rel = Relatedness(table, cl, delta=0.3)
        results = [None] * 8

        def work(k):
            results[k] = [rel.srel(a, b) for a, b in (pairs if k % 2 else reversed(pairs))]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, got in enumerate(results):
            assert got == (expected if k % 2 else expected[::-1])


def has_vector(label, table):
    vec = label_vector(table, label)
    return vec is not None and float(np.linalg.norm(vec)) != 0.0


def assert_table_matches_srel(rel, labels, extra):
    """`rel.table(labels, extra)` against `rel.srel` on every pair of labels x
    (labels + extra): close where a dot product enters, bit-equal where none
    does, and one value per pair of labels, whichever way it is asked for."""
    table = rel.table(labels, extra)
    for a in labels:
        for b in [*labels, *extra]:
            got, want = table(a, b), rel.srel(a, b)
            assert isinstance(got, float)
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15), (a, b, got, want)
            if not (has_vector(a, rel.emb) and has_vector(b, rel.emb)):
                assert got.hex() == want.hex(), (a, b, got, want)
    for a in labels:
        for b in labels:
            assert table(a, b).hex() == table(b, a).hex(), (a, b)


# Components are 0 or at least 1e-100 in size, so no product of two of them
# underflows and every dot product is accurate to a few ulps of its terms.
COMPONENT = st.floats(-1, 1).map(lambda x: x if abs(x) >= 1e-100 else 0.0)
TABLE_VECTOR = st.one_of(st.just([0.0, 0.0, 0.0]),
                         st.lists(COMPONENT, min_size=3, max_size=3))


class TestTable:
    @given(
        st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0, 1)),
        # None: a store with no embeddings at all (dimension 0)
        st.one_of(st.none(), st.lists(TABLE_VECTOR, min_size=len(TOKENS),
                                      max_size=len(TOKENS))),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_srel(self, delta, vectors, data):
        pool = data.draw(st.lists(LABEL, min_size=1, max_size=8, unique=True))
        label = st.sampled_from(pool)
        # an empty or all-zero map is a store with no co-location (max_value 0)
        counts = data.draw(st.dictionaries(st.tuples(label, label), st.integers(0, 20),
                                           max_size=6))
        labels = data.draw(st.lists(label, min_size=1, max_size=6))
        extra = data.draw(st.lists(label, max_size=8))
        table = NO_VECTORS if vectors is None else emb(**dict(zip(TOKENS, vectors)))
        assert_table_matches_srel(Relatedness(table, PairTable(counts), delta), labels, extra)

    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("store", ["vectors", "no vectors", "no coloc"])
    def test_named_cases(self, delta, store):
        table = emb(t0=[1.0, 0.5, -0.25], t1=[0.3, 1.0, 0.7], t2=[0.0, 0.0, 0.0],
                    t3=[-0.6, 0.2, 0.9])
        # multiword, out of vocabulary, zero vector, pairs with co-location
        # but no cosine ("oov", "t2"), and with co-location and a negative
        # cosine ("t0", "t3")
        labels = ["t0", "t1", "t0 t1", "t2", "t3", "t3 oov", "oov", "t1 t2 t3"]
        counts = {("t0", "t1"): 4, ("oov", "t1"): 2, ("t2", "t0 t1"): 7, ("oov", "t2"): 1,
                  ("t0", "t3"): 3}
        if store == "no vectors":
            table = NO_VECTORS
        if store == "no coloc":
            counts = {}
        rel = Relatedness(table, PairTable(counts), delta=delta)
        assert_table_matches_srel(rel, labels[:6], labels[6:])
        # extra labels that are also labels keep their place among the labels
        assert_table_matches_srel(rel, labels[5::-1], labels[2:])

    def test_blends_of_one_geometry_leave_it_unchanged(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(8)]
        table = EmbeddingTable(dim=5, vectors={w: rng.normal(size=5) for w in words})
        labels = [*words, "w0 w1", "w2 w3 w4", "oov"]
        cl = PairTable({(labels[i], labels[i + 3]): i + 1 for i in range(len(labels) - 3)})
        # most extra labels are labels too, so the cosine square is mirrored
        head, extra = labels[:9], labels[2:] + ["w1"]
        shared = Relatedness(table, cl).table(head, extra)

        def fresh(delta):
            return Relatedness(table, cl, delta=delta).table(head, extra).block(head, extra)

        for delta in (0.3, 0.8, 0.3, 1.0, 0.0, 0.3):
            got = shared.blend(delta).block(head, extra)
            assert got.tobytes() == fresh(delta).tobytes(), delta
        assert shared.block(head, extra).tobytes() == fresh(0.5).tobytes()

    def test_labels_outside_the_block_are_lookup_errors(self):
        rel = Relatedness(emb(a=[1.0, 0.0], b=[0.6, 0.8], c=[0.0, 1.0]),
                          PairTable({("a", "c"): 3}), delta=0.5)
        table = rel.table(["a"], ["b", "c"])
        assert table("a", "c") == rel.srel("a", "c")
        with pytest.raises(LookupError):
            table("c", "a")  # "c" is not one of the labels
        with pytest.raises(LookupError):
            table("a", "z")


def entry_reference(emb, label):
    """A label's vector and norm as `Relatedness` worked them out before the
    embedding table kept its tokens' norms."""
    vec = label_vector(emb, label)
    if vec is not None:
        norm = float(np.linalg.norm(vec))
        if norm != 0.0:
            return vec, norm
    return None


def table_reference(rel, labels, extra=()):
    """`Relatedness.table` as it was before the loader's norms, the cached
    mirror indices and the in-place clamps and blend, kept as its reference:
    (index, cosines, co-location terms, blended values) at `rel.delta`."""
    index = {label: i for i, label in enumerate(dict.fromkeys([*labels, *extra]))}
    n = len(dict.fromkeys(labels))
    zero = np.zeros(rel.emb.dim)
    entries = [entry_reference(rel.emb, label) or (zero, 1.0) for label in index]
    mat = np.array([vec for vec, _ in entries]).reshape(len(index), rel.emb.dim)
    norms = np.array([norm for _, norm in entries])
    cos = (mat[:n] @ mat.T) / np.outer(norms[:n], norms)
    cos = np.minimum(1.0, np.maximum(0.0, cos))
    square, lower = cos[:, :n], np.tril_indices(n, -1)
    square[lower] = square.T[lower]

    co = np.zeros_like(cos)
    coloc, max_value = rel.coloc_table, rel.coloc_table.max_value
    if max_value:
        for i, a in zip(range(n), index):
            for b, count in coloc.neighbors(a).items():
                j = index.get(b)
                if j is not None:
                    co[i, j] = count / max_value
    return index, cos, co, blend_reference(cos, co, rel.delta)


def blend_reference(cos, co, delta):
    return np.minimum(1.0, np.maximum(0.0, delta * cos + (1.0 - delta) * co))


def random_component(rng):
    kind = rng.random()
    if kind < 0.1:
        return 0.0
    if kind < 0.15:
        return rng.choice([5e-324, -1e-310, 2.5e-308])  # subnormal or nearly
    if kind < 0.2:
        return rng.uniform(-1, 1) * 10.0 ** rng.randint(-150, 150)
    return rng.gauss(0, 1)


def random_store(rng):
    """A `Relatedness` over up to 10 tokens (some with a zero vector, some
    all subnormal) and co-location counts among labels in and out of the
    blocks drawn from it, max_value 0 in some stores."""
    dim = rng.choice([0, 1, 3, 8])
    words = [f"t{i}" for i in range(rng.randint(0, 10))]
    vectors = {}
    for word in words:
        roll = rng.random()
        if roll < 0.1:
            vec = [0.0] * dim
        elif roll < 0.15:
            vec = [rng.choice([5e-324, -5e-324, 0.0]) for _ in range(dim)]
        else:
            vec = [random_component(rng) for _ in range(dim)]
        vectors[word] = np.array(vec, dtype=float)
    # half the stores keep the norms the loader computes, half work them out
    norms = {t: math.sqrt(v @ v) for t, v in vectors.items()} if rng.random() < 0.5 else None
    table = EmbeddingTable(dim=dim, vectors=vectors, norms=norms)
    pool = random_labels(rng, words, 12)
    counts = {}
    if rng.random() < 0.85:
        others = pool + ["far", "away label"]  # neighbours no block holds
        for _ in range(rng.randint(0, 20)):
            counts[(rng.choice(pool), rng.choice(others))] = rng.choice([0, 1, 2, 7, 1000, 3**40])
    delta = rng.choice([0.0, 0.5, 1.0, rng.random()])
    return Relatedness(table, PairTable(counts), delta), pool


def random_labels(rng, words, k):
    """`k` labels: single tokens, multiword labels, out-of-vocabulary words
    and labels with one token in the vocabulary."""
    vocab = words + ["oov", "x"]
    return [" ".join(rng.choice(vocab) for _ in range(rng.choice([1, 1, 1, 2, 3])))
            for _ in range(k)]


def assert_table_is_reference(rel, labels, extra):
    table = rel.table(labels, extra)
    index, cos, co, values = table_reference(rel, labels, extra)
    assert list(table._index.items()) == list(index.items())
    for got, want in ((table._cos, cos), (table._co, co), (table._values, values)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    for delta in (0.25, 1.0 - rel.delta):
        blended = table.blend(delta)._values
        assert blended.tobytes() == blend_reference(cos, co, delta).tobytes()


class TestTableOracle:
    """`Relatedness.table` against `table_reference` on seeded random
    stores: the index, cosines, co-location terms and blends, bit for bit."""

    def test_matches_reference(self):
        rng = random.Random("srel-table")
        for _ in range(300):
            rel, pool = random_store(rng)
            for n in (0, 1, 2, rng.randint(3, 9)):
                # repeated labels, and extra labels that are labels too or not
                labels = [rng.choice(pool) for _ in range(n)]
                extra = [rng.choice(pool + labels) for _ in range(rng.randint(0, 8))]
                extra += random_labels(rng, list(rel.emb.vectors), rng.randint(0, 3))
                assert_table_is_reference(rel, labels, extra)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_small_blocks(self, n):
        table = emb(t0=[1.0, 0.5, -0.25], t1=[0.3, 1.0, 0.7], t2=[0.0, 0.0, 0.0])
        counts = {("t0", "t1"): 4, ("t1", "far"): 9, ("t0 t1", "oov"): 2}
        for cl in (PairTable(counts), PairTable({("t0", "t1"): 0})):
            rel = Relatedness(table, cl, delta=0.5)
            labels = ["t0 t1", "t1", "t1"][:n]
            assert_table_is_reference(rel, labels, ["t2", "oov", "t0", "t0 t1"])
            assert_table_is_reference(rel, labels, [])


class TestMirrorCopy:
    """This machine's BLAS may return a bit-symmetric product, so the copy's
    direction is checked on squares that are not symmetric."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_upper_triangle_is_copied_onto_the_lower(self, n):
        square = np.arange(n * n, dtype=float).reshape(n, n) ** 1.5
        before = square.copy()
        relatedness._mirror_upper(square)
        # the upper triangle and the diagonal stay; [j, i] takes [i, j]
        assert square.tolist() == (np.triu(before) + np.triu(before, 1).T).tolist()

    def test_copies_within_a_view_of_a_wider_block(self):
        block = np.arange(12, dtype=float).reshape(3, 4)
        relatedness._mirror_upper(block[:, :3])
        assert block.tolist() == [[0, 1, 2, 3], [1, 5, 6, 7], [2, 6, 10, 11]]


class TestTableCaches:
    def test_blend_at_own_delta_is_the_table(self):
        rel = Relatedness(emb(a=[1.0, 0.0], b=[0.6, 0.8]), PairTable({("a", "b"): 2}), 0.4)
        table = rel.table(["a", "b"])
        assert table.blend(0.4) is table
        other = table.blend(0.7)
        assert other is not table
        assert other.blend(0.7) is other
        assert other("a", "b") == Relatedness(rel.emb, rel.coloc_table, 0.7).srel("a", "b")


class TestImageCoherence:
    def test_single_label_is_coherent(self):
        rel = Relatedness(emb(a=[1.0]), PairTable())
        assert image_coherence(["a"], rel) == 1.0

    def test_mean_over_pairs(self):
        table = emb(a=[1.0, 0.0], b=[1.0, 0.0], c=[0.0, 1.0])
        rel = Relatedness(table, PairTable(), delta=1.0)
        # pairs: (a,b)=1, (a,c)=0, (b,c)=0 -> mean 1/3
        assert image_coherence(["a", "b", "c"], rel) == pytest.approx(1 / 3)
