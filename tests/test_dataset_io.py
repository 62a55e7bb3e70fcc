"""Dataset bytes and the CSV boundary: golden digests, strict cells, row widths."""

import csv
import hashlib
from dataclasses import replace

import pytest
from click.testing import CliRunner

from ltlseq.cli import main
from ltlseq.errors import DatasetFormatError
from ltlseq.generator import attach_image_indices, deserialize, generate_dataset, serialize
from ltlseq.library import builtin_task, builtin_task_names
from test_tasks import family_spec

# sha256 of (sequences.csv, metadata.json); "task5+images" attaches image
# indices from a synthetic pool of 50 images per class
GOLDEN_DATASETS = {
    "task1": (
        "8854f1079447002bc68bc062ee9ba02bff1501d5522329d706f4ba7735a8e310",
        "66dbedaf6525e86d60069d2d0d40eb24f4a7dd675f20649c8e15758c9e547f13",
    ),
    "task2": (
        "7690d8337c97b7d50f399ba4d82a0a6a874b0a361b0afce4a8f4c7fccb106fd1",
        "dcab292698a0aebfee0a44754c2fc300f939a3969c7c86c6271772040f4b9166",
    ),
    "task3": (
        "e9509f74cef6524d21331d9d870652166b7011ed2002e1332b0afa94d87ca5f9",
        "3210cb4ffc58fd00454a4a2cf2b9fadfba013ea5f6efc16409bb1ad38bb4a4c9",
    ),
    "task4": (
        "149a1fbe5cfcc70363f8c8b190203914c8ab37409d69d395d0cb100bcacf3add",
        "03079d2b074f65efdc8714eaeba74a693332328944d63fa72cdd7cfef4361727",
    ),
    "task5": (
        "d3ab66abf2b2b97872d4626f0d2158c852cca8081d7cba870801dfb75e463a9e",
        "1636e43428c67f0a4b6cd58257efe0670784a8bd7a1142716b28a0209ab95062",
    ),
    "task6": (
        "00a8913f1f319fce6cbec0a452e8d4b4dbbee570948f3a916c2306366b5f589b",
        "f1118ab111b1d74fbb2ae7fa833e2508b555f54bcef228df7c4f72382d76235a",
    ),
    "example": (
        "cfa14a573fac7ba293c759488fb1e6e8d9e64f8f6faf1b80cde716583b5be101",
        "49b0aebb209d7eaba0a5ad3d39d03a42b290d8cadaee99f0f5a6f11cb6f6ee4f",
    ),
    "fam6": (
        "684e441664b1e434b8e8723bf90cf6afb6a9128a863567235f299578f6f3a68a",
        "56ff69da46244be973df48e5d81ac9bc5a681078d299f84a769325a73aaaf5b3",
    ),
    "fam10": (
        "0381a55f71ceeac92863bd04df15ae67889d214aeb29750a88e0eb7df58ce779",
        "835ffdfa2164099f6f85911500ebf724698d2ad24ee4b746cfccaaf49b1711eb",
    ),
    "task5+images": (
        "97473b7eb0c39e9e4b27ad52a1efada387c001467153ae5e3e881d9588f30784",
        "08597a634919739d355b5df791f9b0bf9d1a52359ac0db60fb5524910c328a5f",
    ),
}


def pools_for(spec, n_images=50):
    per_source = {}
    for v in spec.variables:
        for label in v.domain.labels:
            per_source.setdefault(v.source, {})[label] = list(range(n_images))
    return {"train": per_source, "test": per_source}


def golden_dataset(name):
    if name.startswith("fam"):
        return generate_dataset(replace(family_spec(int(name[3:])), splits=(40, 10, 10)))
    if name == "task5+images":
        spec = builtin_task("task5", splits=(30, 10, 10))
        return attach_image_indices(generate_dataset(spec), pools_for(spec))
    return generate_dataset(builtin_task(name))


def file_digests(directory):
    return tuple(
        hashlib.sha256((directory / f).read_bytes()).hexdigest()
        for f in ("sequences.csv", "metadata.json")
    )


@pytest.mark.parametrize("name", list(GOLDEN_DATASETS))
def test_golden_dataset_bytes(name, tmp_path):
    assert set(builtin_task_names()) <= set(GOLDEN_DATASETS)
    ds = golden_dataset(name)
    serialize(ds, tmp_path)
    assert file_digests(tmp_path) == GOLDEN_DATASETS[name]
    assert deserialize(tmp_path, verify=True).splits == ds.splits


# ---------------------------------------------------------------------------
# Malformed cells and rows: every one names its line


def _first_row(rows, col, value):
    i = rows[0].index(col)
    return next(r for r in range(1, len(rows)) if rows[r][i] == value)


def _set_truth(old, new):
    def change(rows):
        col = next(c for c in rows[0] if c.endswith("_truth"))
        r = _first_row(rows, col, old)
        rows[r][rows[0].index(col)] = new
        return r + 1, "is not 0 or 1"

    return change


def _set_positive_label(new):
    # every row of the first positive sequence, so the label never changes
    def change(rows):
        col = rows[0].index("seq_label")
        r = _first_row(rows, "seq_label", "1")
        for row in rows[1:]:
            if row[:2] == rows[r][:2]:
                row[col] = new
        return r + 1, "seq_label cell '5' is not 0 or 1"

    return change


def _drop_last_cell(rows):
    rows[3].pop()
    return 4, f"row has {len(rows[0]) - 1} cells, the header has {len(rows[0])}"


def _add_cell(rows):
    rows[3].append("0")
    return 4, f"row has {len(rows[0]) + 1} cells, the header has {len(rows[0])}"


def _after_blank_line(change):
    # a blank line is not a record, but errors still name the physical line
    def corrupt(rows):
        line, message = change(rows)
        rows.insert(line - 1, [])
        return line + 1, message

    return corrupt


CORRUPTIONS = {
    "truth-7": _set_truth("1", "7"),
    "truth-minus-0": _set_truth("0", "-0"),
    "truth-padded": _set_truth("1", " 1"),
    "truth-empty": _set_truth("0", ""),
    "seq-label-5": _set_positive_label("5"),
    "short-row": _drop_last_cell,
    "long-row": _add_cell,
    "truth-7-after-blank-line": _after_blank_line(_set_truth("1", "7")),
}


def corrupted_dataset(tmp_path, corrupt):
    serialize(generate_dataset(builtin_task("task1", splits=(10, 4, 4))), tmp_path)
    csv_path = tmp_path / "sequences.csv"
    rows = list(csv.reader(csv_path.open(newline="")))
    line, message = corrupt(rows)
    with csv_path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return f"sequences.csv:{line}: ", message


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_deserialize_rejects_malformed_rows(tmp_path, name, verify):
    where, message = corrupted_dataset(tmp_path, CORRUPTIONS[name])
    with pytest.raises(DatasetFormatError) as exc:
        deserialize(tmp_path, verify=verify)
    assert where in str(exc.value) and message in str(exc.value)


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_infer_rejects_malformed_rows(tmp_path, name):
    where, message = corrupted_dataset(tmp_path, CORRUPTIONS[name])
    result = CliRunner().invoke(main, ["infer", str(tmp_path)])
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert where in result.output and message in result.output


def test_unknown_label_keeps_its_message(tmp_path):
    def unknown_label(rows):
        rows[2][rows[0].index("Y_label")] = "x"
        return 3, "label 'x' not in domain 'fashion'"

    where, message = corrupted_dataset(tmp_path, unknown_label)
    with pytest.raises(DatasetFormatError) as exc:
        deserialize(tmp_path)
    assert str(exc.value).endswith(where + message)


def test_csv_module_error_names_its_line(tmp_path):
    serialize(generate_dataset(builtin_task("task5", splits=(10, 4, 4))), tmp_path)
    csv_path = tmp_path / "sequences.csv"
    data = csv_path.read_bytes()
    csv_path.write_bytes(data + b"9" * (csv.field_size_limit() + 1) + b"\r\n")
    line = data.count(b"\n") + 1
    result = CliRunner().invoke(main, ["infer", str(tmp_path)])
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert f"sequences.csv:{line}: unreadable (field larger than field limit" in result.output
