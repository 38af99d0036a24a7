import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagrefine.errors import ConfigError
from tagrefine.knowledge import ColocTable, EmbeddingTable
from tagrefine.relatedness import (
    Relatedness,
    coloc,
    cosine,
    image_coherence,
    srel,
)


def emb(**vectors) -> EmbeddingTable:
    dim = len(next(iter(vectors.values()))) if vectors else 0
    return EmbeddingTable(dim=dim, vectors={
        token: np.array(vec, dtype=float) for token, vec in vectors.items()
    })


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
        assert cosine("a", "b", EmbeddingTable(dim=0, vectors={})) == 0.0


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
        assert srel("a", "b", 1.0, table, cl) == pytest.approx(cosine("a", "b", table))

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
        ab = srel("a", "b", delta, table, cl)
        ba = srel("b", "a", delta, table, cl)
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
        expected = 0.7 * cosine("a", "b", table)
        assert srel("a", "b", 0.7, table, ColocTable()) == pytest.approx(expected)


class TestRelatednessCache:
    def test_cached_matches_direct(self):
        table = emb(a=[1.0, 0.5], b=[0.3, 1.0])
        cl = ColocTable({("a", "b"): 2, ("p", "q"): 4})
        rel = Relatedness(table, cl, delta=0.4)
        direct = srel("a", "b", 0.4, table, cl)
        assert rel.srel("a", "b") == direct
        assert rel.srel("b", "a") == direct  # cache key is unordered


class TestImageCoherence:
    def test_single_label_is_coherent(self):
        rel = Relatedness(emb(a=[1.0]), ColocTable())
        assert image_coherence(["a"], rel) == 1.0

    def test_mean_over_pairs(self):
        table = emb(a=[1.0, 0.0], b=[1.0, 0.0], c=[0.0, 1.0])
        rel = Relatedness(table, ColocTable(), delta=1.0)
        # pairs: (a,b)=1, (a,c)=0, (b,c)=0 -> mean 1/3
        assert image_coherence(["a", "b", "c"], rel) == pytest.approx(1 / 3)
