"""Behaviour every text-input reader shares: comment rule, open errors, line
numbers, UTF-8 decoding."""

import json

import pytest

from corpus_reading import read_both
from tagrefine.cli import _read_gold_jsonl, _read_refined_jsonl, read_config_file
from tagrefine.errors import LoadError
from tagrefine.textio import json_value
from tagrefine.evaluation import read_judgments_jsonl
from tagrefine.knowledge import (
    load_allowlist,
    load_assertions,
    load_coloc,
    load_embeddings,
    load_hypernyms,
)
from tagrefine.vsim import read_vsim_tsv

DETECTION = json.dumps({"image": "i1", "boxes": [
    {"id": "b", "candidates": [{"label": "a", "conf": 0.5}]}]})

# name -> (reader, one good data line, one malformed data line)
READERS = {
    "vsim": (read_vsim_tsv, "a\tb\t0.5", "a\tb"),
    # the corpus reader on its list and its fold path: (records, skipped)
    "detections": (lambda path: read_both(path)[:2], DETECTION,
                   '{"image": "i2", "boxes": ["b"]}'),
    "judgments": (read_judgments_jsonl, '{"image": "i1", "pool": "CL", "labels": {"a": [2]}}',
                  '{"image": "i1", "pool": "CL", "labels": ["a"]}'),
    "refined": (_read_refined_jsonl,
                '{"image": "i1", "labels": [{"label": "a", "space": "CL", "box": "b"}]}',
                '{"image": "i1", "labels": [{"label": "a", "space": "??"}]}'),
    "gold": (_read_gold_jsonl, '{"image": "i1", "labels": ["a"]}', "{broken"),
    "config": (read_config_file, "alpha = 1  # trailing comment", "alpha 1"),
    # embedding tables hold arrays, which do not compare with ==
    "embeddings": (lambda path: sorted(load_embeddings(path).vectors), "a 1.0 2.0", "a"),
    "hypernyms": (lambda path: load_hypernyms(path, {}), "a\tb\t1", "a\tb"),
    "assertions": (load_assertions, "a\tusedFor\tb\t1.0", "a\tusedFor\tb"),
    "coloc": (load_coloc, "a\tb\t3", "a\tb\tmany"),
    "allowlist": (load_allowlist, "a\t1.0", "a"),
}


# case -> (reader, a JSON line whose field has the wrong type, the reader's message)
WRONG_TYPES = {
    "gold-string": ("gold", '{"image": "i1", "labels": "snake"}', "bad gold record"),
    "gold-number": ("gold", '{"image": "i1", "labels": ["snake", 5]}', "bad gold record"),
    "grades-float-bool": ("judgments", '{"image": "i1", "pool": "CL", '
                          '"labels": {"a": [1.5, 2.9, true]}}', "bad judgment record"),
    "grades-string": ("judgments", '{"image": "i1", "pool": "CL", "labels": {"a": "21"}}',
                      "bad judgment record"),
    "grades-bool": ("judgments", '{"image": "i1", "pool": "CL", "labels": {"a": [true]}}',
                    "bad judgment record"),
    "refined-number": ("refined", '{"image": "i1", "labels": '
                       '[{"label": 5, "space": "CL", "box": "b"}]}', "bad refined record"),
    # ids are JSON strings; str() would read these as 'None', '7' and "['i2']"
    "gold-image-null": ("gold", '{"image": null, "labels": ["a"]}', "bad gold record"),
    "gold-image-list": ("gold", '{"image": ["i2"], "labels": ["a"]}', "bad gold record"),
    "judgments-image-number": ("judgments", '{"image": 7, "pool": "CL", "labels": {"a": [2]}}',
                               "bad judgment record"),
    "judgments-image-null": ("judgments", '{"image": null, "pool": "CL", '
                             '"labels": {"a": [2]}}', "bad judgment record"),
    "refined-image-number": ("refined", '{"image": 7, "labels": []}', "bad refined record"),
    "refined-image-list": ("refined", '{"image": ["i2"], "labels": []}', "bad refined record"),
}

# reader -> (a line whose key repeats the good line's, the message naming the key)
REPEATED_KEYS = {
    "judgments": ('{"image": "i1", "pool": "CL", "labels": {"b": [0]}}',
                  "bad judgment record: duplicate image and pool ('i1', 'CL')"),
    "refined": ('{"image": "i1", "labels": []}', "bad refined record: duplicate image 'i1'"),
    "gold": ('{"image": "i1", "labels": ["b"]}', "bad gold record: duplicate image 'i1'"),
}

# detection fields that must be JSON strings, set to a null, a number or a list
NON_STRING_DETECTION_IDS = [{"image": None}, {"image": 7}, {"image": ["i2"]},
                            {"box": 3.5}, {"box": None}, {"box": ["b"]}]


def write(tmp_path, lines):
    path = tmp_path / "input.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


@pytest.mark.parametrize("name", READERS)
def test_blank_and_comment_lines_skipped(name, tmp_path):
    read, good, _ = READERS[name]
    plain = read(write(tmp_path, [good]))
    commented = read(write(tmp_path, ["", "# comment", "   # indented", "\t# tab", good, "  "]))
    assert commented == plain


@pytest.mark.parametrize("name", READERS)
def test_unopenable_path_names_path(name, tmp_path):
    read = READERS[name][0]
    missing = tmp_path / "missing.txt"
    with pytest.raises(LoadError, match="cannot open") as info:
        read(missing)
    assert info.value.path == str(missing)


@pytest.mark.parametrize("name", READERS)
def test_malformed_line_reported_by_number(name, tmp_path):
    read, good, bad = READERS[name]
    path = write(tmp_path, ["# header", good, bad])
    if name == "detections":  # the one lenient reader: skip and count
        records, skipped = read(path)
        assert [r.image_id for r in records] == ["i1"]
        assert skipped == 1
        return
    with pytest.raises(LoadError) as info:
        read(path)
    assert info.value.line == 3
    assert f"{path}:3:" in str(info.value)


@pytest.mark.parametrize("name", READERS)
def test_non_utf8_line_reported_by_number(name, tmp_path):
    read, good, _ = READERS[name]
    # the padding puts the bad byte past the decoder's first block of bytes
    padding = b"# padding comment\n" * 1000
    path = tmp_path / "input.txt"
    path.write_bytes(padding + good.encode() + b"\n" + b"\xff" + good.encode() + b"\n")
    with pytest.raises(LoadError, match="not valid UTF-8") as info:
        read(path)
    assert info.value.line == 1002
    assert f"{path}:1002:" in str(info.value)


@pytest.mark.parametrize("case", WRONG_TYPES)
def test_wrong_field_type_reported_by_number(case, tmp_path):
    name, line, message = WRONG_TYPES[case]
    read, good, _ = READERS[name]
    path = write(tmp_path, [good, line])
    with pytest.raises(LoadError) as info:
        read(path)
    assert info.value.line == 2
    assert f"{path}:2: {message}: " in str(info.value)


@pytest.mark.parametrize("name", REPEATED_KEYS)
def test_repeated_key_reported_by_number(name, tmp_path):
    read, good, _ = READERS[name]
    repeat, message = REPEATED_KEYS[name]
    path = write(tmp_path, [good, "# comment", repeat])
    with pytest.raises(LoadError) as info:
        read(path)
    assert info.value.line == 3
    assert str(info.value).endswith(f"{path}:3: {message}")


def test_judgment_labels_with_one_canonical_form_rejected(tmp_path):
    path = write(tmp_path, ['{"image": "i1", "pool": "CL", "labels": {"a": [2]}}',
                            '{"image": "i2", "pool": "CL", "labels": '
                            '{"Dog": [2, 2, 2], "dog": [0, 0, 0]}}'])
    with pytest.raises(LoadError) as info:
        read_judgments_jsonl(path)
    assert info.value.line == 2
    assert str(info.value).endswith(f"{path}:2: bad judgment record: duplicate label 'dog'")


@pytest.mark.parametrize("bad", NON_STRING_DETECTION_IDS)
def test_non_string_detection_id_skipped(bad, tmp_path):
    fields = {"image": "i2", "box": "b", **bad}
    line = json.dumps({"image": fields["image"], "boxes": [
        {"id": fields["box"], "candidates": [{"label": "a", "conf": 0.5}]}]})
    path = write(tmp_path, [DETECTION, line])
    records, skipped, warnings = read_both(path)
    assert [r.image_id for r in records] == ["i1"]
    assert skipped == 1
    assert warnings == [f"{path}:2 skipped: malformed detection record: expected a string, "
                        f"got {fields['image' if 'image' in bad else 'box']!r}"]


@pytest.mark.parametrize("name, message", [("gold", "bad gold record"),
                                           ("judgments", "bad judgment record"),
                                           ("refined", "bad refined record")])
def test_line_that_is_not_json_keeps_the_reader_message(name, message, tmp_path):
    read, good, _ = READERS[name]
    path = write(tmp_path, [good, "{broken"])
    with pytest.raises(LoadError, match=f"{path}:2: {message}: Expecting"):
        read(path)


def json_outcome(decode, line):
    try:
        return "value", decode(line)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("line", [
    '{"a": [1, 2.5, "x"]}', ' {"a": 1}', '{"a": 1}\t ', '{"a": 1} x', '{"a": 1}{}', '7 8',
    '\ufeff{"a": 1}', '', '  ', 'NaN', '-Infinity', '1e400', '-0', '[1, 2', '{"a": }',
    '"\\ud800"', '{"a": 1}\r', "{'a': 1}", 'nul'])
def test_json_value_decodes_and_fails_as_json_loads(line):
    assert repr(json_outcome(json_value, line)) == repr(json_outcome(json.loads, line))
