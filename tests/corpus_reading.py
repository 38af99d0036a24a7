"""The corpus reader on both of its paths, checked against each other.

`read_detections_jsonl(path)` builds and returns the records (the list
path); `read_detections_jsonl(path, into=acc)` folds them into `acc` as it
reads and keeps none (the fold path). `read_both` runs both and asserts
that they skip the same lines with the same warnings, and that the fold
path's sums are those `accumulate` makes of the list path's records.
"""

import logging

from tagrefine import vsim
from tagrefine.errors import LoadError


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _read(path, into):
    """(what the reader returned or raised, the warnings it logged)."""
    logger = logging.getLogger(vsim.__name__)
    handler = _Warnings()
    logger.addHandler(handler)
    try:
        result = vsim.read_detections_jsonl(path, into=into)
    except LoadError as exc:
        result = exc
    finally:
        logger.removeHandler(handler)
    return result, handler.messages


def assert_same_sums(acc, ref):
    """`acc` and `ref` hold the same sums at the same scale, labels in the
    same first-seen order, over as many records."""
    assert list(acc.total_conf.items()) == list(ref.total_conf.items())  # folds the chunk
    assert acc.pair_conf == ref.pair_conf
    assert acc.scale == ref.scale
    assert acc.records_seen == ref.records_seen


def read_both(path):
    """(records, skipped, warnings) of the list path, after checking the
    fold path against it; a LoadError raised by both is raised again."""
    acc = vsim.MiningAccumulator()
    listed, warnings = _read(path, None)
    folded, fold_warnings = _read(path, acc)
    assert fold_warnings == warnings
    if isinstance(listed, LoadError):
        assert isinstance(folded, LoadError)
        assert (str(folded), folded.line) == (str(listed), listed.line)
        raise listed
    records, skipped = listed
    assert folded == ([], skipped)
    assert_same_sums(acc, vsim.accumulate(records))
    return records, skipped, warnings
