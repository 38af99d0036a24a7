import gc
import itertools
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagrefine.errors import ConfigError
from tagrefine.knowledge import ColocTable, EmbeddingTable
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
    return Relatedness(table, ColocTable(), delta=1.0).srel(a, b)


def coloc(a, b, table):
    """Co-location-only relatedness: srel at delta 0 with no embeddings."""
    return Relatedness(NO_VECTORS, table, delta=0.0).srel(a, b)


def srel(a, b, delta, table, cl):
    return Relatedness(table, cl, delta=delta).srel(a, b)


# Reference copy of the three-function srel that `Relatedness.srel` replaced;
# the one path must reproduce it bit for bit.

def ref_cosine(a, b, table):
    va = table.label_vector(a)
    vb = table.label_vector(b)
    if va is None or vb is None:
        return 0.0
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    raw = float(np.dot(va, vb)) / (na * nb)
    return min(1.0, max(0.0, raw))


def ref_coloc(a, b, table):
    if table.max_count == 0:
        return 0.0
    return table.get(a, b) / table.max_count


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
    table = ColocTable({("apple", "table"): 10, ("chair", "table"): 5})

    def test_max_pair_is_one(self):
        assert coloc("apple", "table", self.table) == 1.0

    def test_unseen_pair_is_zero(self):
        assert coloc("apple", "chair", self.table) == 0.0

    def test_half_of_max(self):
        assert coloc("table", "chair", self.table) == 0.5

    def test_empty_table(self):
        assert coloc("a", "b", ColocTable()) == 0.0


class TestSrel:
    def test_blend_arithmetic(self):
        # delta .6, cosine .5, coloc .25 -> .4
        table = emb(a=[1.0, 0.0], b=[0.5, np.sqrt(3) / 2])  # cos = 0.5
        cl = ColocTable({("a", "b"): 1, ("x", "y"): 4})  # coloc = 0.25
        assert srel("a", "b", 0.6, table, cl) == pytest.approx(0.4)

    def test_delta_one_is_pure_cosine(self):
        table = emb(a=[1.0, 1.0], b=[1.0, 0.0])
        cl = ColocTable({("a", "b"): 3})
        assert srel("a", "b", 1.0, table, cl) == pytest.approx(ref_cosine("a", "b", table))

    def test_delta_zero_unseen_pair_is_zero(self):
        table = emb(a=[1.0, 0.0], b=[1.0, 0.0])
        assert srel("a", "b", 0.0, table, ColocTable()) == 0.0

    def test_delta_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            Relatedness(emb(a=[1.0]), ColocTable(), delta=1.5)

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
        cl = ColocTable({("a", "b"): min(count, cmax), ("p", "q"): cmax})
        rel = Relatedness(table, cl, delta=delta)
        ab = rel.srel("a", "b")
        ba = rel.srel("b", "a")
        assert ab == ba
        assert 0.0 <= ab <= 1.0

    def test_monotone_in_both_components(self):
        delta = 0.5
        lo_cos = emb(a=[1.0, 0.0], b=[0.5, np.sqrt(3) / 2])
        hi_cos = emb(a=[1.0, 0.0], b=[1.0, 0.1])
        cl_lo = ColocTable({("a", "b"): 1, ("p", "q"): 10})
        cl_hi = ColocTable({("a", "b"): 8, ("p", "q"): 10})
        assert srel("a", "b", delta, hi_cos, cl_lo) > srel("a", "b", delta, lo_cos, cl_lo)
        assert srel("a", "b", delta, lo_cos, cl_hi) > srel("a", "b", delta, lo_cos, cl_lo)

    def test_empty_coloc_reduces_to_weighted_cosine(self):
        table = emb(a=[1.0, 2.0], b=[2.0, 1.0])
        expected = 0.7 * ref_cosine("a", "b", table)
        assert srel("a", "b", 0.7, table, ColocTable()) == pytest.approx(expected)


TOKENS = ("t0", "t1", "t2", "t3")
VECTOR = st.one_of(st.just([0.0, 0.0, 0.0]),
                   st.lists(st.floats(-1, 1), min_size=3, max_size=3))
# one to three tokens, `oov` never in the table
LABEL = st.lists(st.sampled_from((*TOKENS, "oov")), min_size=1, max_size=3).map(" ".join)


class TestPerLabelState:
    def test_matches_reference_in_either_order(self):
        table = emb(a=[1.0, 0.5], b=[0.3, 1.0])
        cl = ColocTable({("a", "b"): 2, ("p", "q"): 4})
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
        cl = ColocTable(counts)
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
        cl = ColocTable({(labels[i], labels[i + 1]): i + 1 for i in range(10)})
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
        cl = ColocTable({(words[i], words[i + 1]): i + 1 for i in range(5)})
        rel = Relatedness(table, cl, delta=0.5)
        # every pair asks for a label the cache has not seen, so it keeps evicting
        stream = [(w, f"{w} novel{i}") for i, w in enumerate(words * 5)]
        for a, b in stream + stream[:3]:
            assert rel.srel(a, b) == ref_srel(a, b, 0.5, table, cl)
            assert rel._vector.cache_info().currsize <= 4
        assert rel._vector.cache_info().currsize == 4

    def test_store_freed_without_the_cyclic_gc(self):
        table = emb(a=[1.0, 0.0], b=[0.6, 0.8])
        rel = Relatedness(table, ColocTable())
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
        cl = ColocTable({(labels[i], labels[i + 2]): i + 1 for i in range(20)})
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
    vec = table.label_vector(label)
    return vec is not None and float(np.linalg.norm(vec)) != 0.0


def assert_table_matches_srel(rel, rows, cols):
    """`rel.table(rows, cols)` against `rel.srel` on every pair: close where a
    dot product enters, bit-equal where none does, and one value per pair of
    labels that are both rows and both columns."""
    table = rel.table(rows, cols)
    for a in rows:
        for b in cols:
            got, want = table(a, b), rel.srel(a, b)
            assert isinstance(got, float)
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15), (a, b, got, want)
            if not (has_vector(a, rel.emb) and has_vector(b, rel.emb)):
                assert got.hex() == want.hex(), (a, b, got, want)
    both = set(rows) & set(cols)
    for a in both:
        for b in both:
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
        # an empty or all-zero map is a store with no co-location (max_count 0)
        counts = data.draw(st.dictionaries(st.tuples(label, label), st.integers(0, 20),
                                           max_size=6))
        rows = data.draw(st.lists(label, min_size=1, max_size=6))
        cols = data.draw(st.lists(label, min_size=1, max_size=8))
        table = NO_VECTORS if vectors is None else emb(**dict(zip(TOKENS, vectors)))
        assert_table_matches_srel(Relatedness(table, ColocTable(counts), delta), rows, cols)

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
        rel = Relatedness(table, ColocTable(counts), delta=delta)
        assert_table_matches_srel(rel, labels[:6], labels)
        assert_table_matches_srel(rel, labels[::-1], labels[2:])

    def test_labels_outside_the_block_are_key_errors(self):
        rel = Relatedness(emb(a=[1.0, 0.0], b=[0.6, 0.8], c=[0.0, 1.0]),
                          ColocTable({("a", "c"): 3}), delta=0.5)
        table = rel.table(["a"], ["b", "c"])
        assert table("a", "c") == rel.srel("a", "c")
        with pytest.raises(KeyError):
            table("c", "a")  # "c" is not a row
        with pytest.raises(KeyError):
            table("a", "z")


class TestImageCoherence:
    def test_single_label_is_coherent(self):
        rel = Relatedness(emb(a=[1.0]), ColocTable())
        assert image_coherence(["a"], rel) == 1.0

    def test_mean_over_pairs(self):
        table = emb(a=[1.0, 0.0], b=[1.0, 0.0], c=[0.0, 1.0])
        rel = Relatedness(table, ColocTable(), delta=1.0)
        # pairs: (a,b)=1, (a,c)=0, (b,c)=0 -> mean 1/3
        assert image_coherence(["a", "b", "c"], rel) == pytest.approx(1 / 3)
