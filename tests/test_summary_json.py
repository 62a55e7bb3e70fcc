"""``write_summary_json`` writes what ``json.dump(indent=2, sort_keys=True)``
writes, plus a newline, and raises what it raises."""

import collections
import json
import random

import numpy as np
import pytest

from ltlseq import generator
from ltlseq.generator import write_summary_json

# strings that could fool a writer splicing text: the brace-line separator
# itself, quotes, backslashes, control characters, non-ASCII, a lone surrogate
_STRINGS = (
    "",
    "a",
    "},\n      {",
    "},\\n  {",
    '"',
    '\\"',
    "\\",
    "\x00\x1f\x7f",
    "\n\t\r",
    "é",
    "漢字",
    "\U0001f600",
    "\ud800",
    "NaN",
    "{}",
    "[]",
    ": ",
)


class _Int(int):
    pass


class _Float(float):
    pass


class _Dict(dict):
    pass


def _scalar(rng):
    return rng.choice(
        (
            lambda: rng.choice(_STRINGS) + rng.choice(_STRINGS),
            lambda: rng.randint(-5, 5),
            lambda: rng.choice((-1, 1)) * 10 ** rng.randrange(40),  # big ints
            lambda: rng.choice((True, False)),  # bool next to int
            lambda: None,
            lambda: rng.uniform(-1e6, 1e6),
            lambda: rng.choice((float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324)),
            lambda: rng.choice((_Int(3), _Float(0.5))),
        )
    )()


def _key(rng):
    return rng.choice(_STRINGS) + str(rng.randrange(4))


def _flat_dict(rng, size):
    return {_key(rng): _scalar(rng) for _ in range(size)}


def _value(rng, depth):
    if depth >= 4 or rng.random() < 0.3:
        return _scalar(rng)
    size = rng.randrange(4)
    return rng.choice(
        (
            lambda: _flat_dict(rng, size),
            lambda: [_scalar(rng) for _ in range(size)],
            # the shape of the DFA transition list, now and then with an empty item
            lambda: [_flat_dict(rng, rng.randrange(rng.random() < 0.2, 4)) for _ in range(size)],
            lambda: {_key(rng): _value(rng, depth + 1) for _ in range(size)},
            lambda: [_value(rng, depth + 1) for _ in range(size)],
            lambda: tuple(_value(rng, depth + 1) for _ in range(size)),
            lambda: {rng.choice((1, 2.5, True, None)): _value(rng, depth + 1) for _ in range(size)},
            lambda: _Dict(_flat_dict(rng, size)),
            lambda: collections.OrderedDict(_flat_dict(rng, size)),
        )
    )()


def _outcome(write, doc):
    try:
        return write(doc)
    except Exception as err:
        return type(err), str(err)


def _expected(doc):
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _written(tmp_path):
    path = tmp_path / "out.json"

    def write(doc):
        write_summary_json(doc, path)
        return path.read_bytes()

    return write


def test_random_documents_match_json_dump(tmp_path):
    rng = random.Random(20261018)
    write = _written(tmp_path)
    docs = [_value(rng, rng.randrange(3)) for _ in range(3000)]
    assert sum(isinstance(doc, (dict, list)) and bool(doc) for doc in docs) > 1000
    for doc in docs:
        assert _outcome(write, doc) == _outcome(_expected, doc), repr(doc)


@pytest.mark.parametrize(
    "doc",
    [
        np.int64(3),
        {"a": 1, "b": np.int64(3)},
        [{"from": 0, "to": np.int64(1)}],
        {"z": [1, {"y": {"x": np.float32(0.5)}}]},
        {"s": {1, 2}},
        {1: "a", "b": 2},  # keys json cannot sort
    ],
    ids=["top", "flat-dict", "dict-list", "nested", "set", "mixed-keys"],
)
def test_unserializable_values_raise_what_json_dump_raises(tmp_path, doc):
    expected = _outcome(_expected, doc)
    assert expected[0] is TypeError
    assert _outcome(_written(tmp_path), doc) == expected


def test_circular_reference_raises_what_json_dump_raises(tmp_path):
    doc = {"a": [1]}
    doc["a"].append(doc)
    expected = _outcome(_expected, doc)
    assert expected == (ValueError, "Circular reference detected")
    assert _outcome(_written(tmp_path), doc) == expected


def test_transition_list_depths(tmp_path):
    """Lists of flat dicts, alone and nested up to four levels deep."""
    entries = [{"from": s, "letter": t, "to": (s + t) % 3} for s in range(3) for t in range(4)]
    write = _written(tmp_path)
    for doc in (entries, {"dfa": {"transitions": entries}}, [[{"x": entries}]], [{"a": 1}, {}]):
        assert write(doc) == _expected(doc)


def test_without_the_c_encoder(tmp_path, monkeypatch):
    monkeypatch.setattr(generator, "_c_make_encoder", None)
    rng = random.Random(7)
    write = _written(tmp_path)
    for _ in range(50):
        doc = _value(rng, 0)
        assert _outcome(write, doc) == _outcome(_expected, doc)
