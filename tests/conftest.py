import pathlib

import pytest

from tagrefine import ilp
from tagrefine.knowledge import (
    KnowledgeStore,
    load_allowlist,
    load_assertions,
    load_coloc,
    load_embeddings,
    load_hypernyms,
)
from tagrefine.vsim import accumulate, finalize, read_detections_jsonl

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def fixture_records():
    records, skipped = read_detections_jsonl(FIXTURES / "detections.jsonl")
    assert skipped == 0
    return records


@pytest.fixture(scope="session")
def fixture_store() -> KnowledgeStore:
    """The bundled desk-scale store, with vsim mined from the bundled corpus."""
    corpus, skipped = read_detections_jsonl(FIXTURES / "corpus.jsonl")
    assert skipped == 0
    allowlist = load_allowlist(FIXTURES / "allowlist.tsv")
    return KnowledgeStore.assemble(
        embeddings=load_embeddings(FIXTURES / "embeddings.txt"),
        parents=load_hypernyms(FIXTURES / "hypernyms.tsv", allowlist),
        by_subject=load_assertions(FIXTURES / "assertions.tsv"),
        coloc=load_coloc(FIXTURES / "coloc.tsv"),
        vsim=finalize(accumulate(corpus)),
    )


@pytest.fixture
def every_node_branches(monkeypatch):
    """`ilp.solve_exact` branches at every node but the one that decides the
    last box, instead of solving small searches whole."""
    monkeypatch.setattr(ilp, "WHOLE_MAX_CHOICES", 0)
