"""A damaged upstream artifact never ends a stage in "unexpected failure".

One 1-epoch, 4-subject study is built per session. Each example copies its
output directory, damages one file that a stage reads (an upstream artifact,
``run_manifest.json``, or for ``report`` the checkpoints) and runs the stage in
process through ``cli.main``. The stage must exit 0, or exit 1 or 2 with an
error that names the damaged file. A damaged manifest may also read as stale
(exit 1, "stale: rerun ..."), since the stale check reads nothing else.
"""

import csv
import json
import logging
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskopt import cli

STAGES = ("cluster", "select", "train", "report")
DAMAGES = ("truncate", "empty", "drop", "retype", "text", "nan", "not-utf8", "swap")


def _reads(stage):
    return sorted([*cli.STAGES[stage].reads, cli.RUN_MANIFEST]
                  + (["checkpoints"] if stage == "report" else []))


@pytest.fixture(scope="session")
def base_run(tmp_path_factory):
    """The config and output directory of a finished 1-epoch study."""
    data_dir = tmp_path_factory.mktemp("fuzz-base") / "data"
    assert cli.main(["synth", "--out", str(data_dir), "--subjects", "4", "--tasks", "6",
                     "--clusters", "3"]) == 0
    raw = json.loads((data_dir / "config.json").read_text())
    raw["cluster"].update(k_max=4, restarts=2)
    raw["nn"].update(hidden=[8], max_epochs=1, patience=1)
    (data_dir / "config.json").write_text(json.dumps(raw))
    for stage in ("ingest", *STAGES):
        assert cli.main([stage, "--config", str(data_dir / "config.json")]) == 0, stage
    return raw


def _slots(value):
    """(container, key) of every value nested in a JSON document."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield value, key
        yield from _slots(child)


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _damage_json(path, damage, pick):
    text = path.read_text(encoding="utf-8")
    if damage == "swap":
        lines = text.splitlines(keepends=True)
        i, j = pick(len(lines)), pick(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
        path.write_text("".join(lines), encoding="utf-8")
        return
    doc = json.loads(text)
    slots = list(_slots(doc))
    if damage == "drop":
        slots = [(c, k) for c, k in slots if isinstance(c, dict)]
    elif damage in ("text", "nan"):
        slots = [(c, k) for c, k in slots if type(c[k]) in (int, float)]
    if not slots:
        return
    container, key = slots[pick(len(slots))]
    if damage == "drop":
        del container[key]
    elif damage == "retype":
        others = [v for v in ("text", 0, 1.5, None, [], {}, True)
                  if type(v) is not type(container[key])]
        container[key] = others[pick(len(others))]
    else:
        container[key] = "abc" if damage == "text" else float("nan")
    path.write_text(json.dumps(doc), encoding="utf-8")


def _damage_csv(path, damage, pick):
    with path.open(newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    if damage == "drop":
        column = pick(len(header))
        for row in [header, *rows]:
            del row[column]
    elif damage == "swap":
        i, j = pick(len(rows)), pick(len(rows))
        rows[i], rows[j] = rows[j], rows[i]
    else:  # one cell, a number cell if there is one
        cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
        cells = [(i, j) for i, j in cells if _is_number(rows[i][j])] or cells
        i, j = cells[pick(len(cells))]
        rows[i][j] = {"retype": "", "text": "abc", "nan": "nan"}[damage]
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _damage_arrays(path, damage, pick):
    """A ``.npy`` matrix or the ``.npz`` sensor table."""
    if damage == "text":
        path.write_text("abc\n", encoding="utf-8")
        return
    with path.open("rb") as fh:
        loaded = np.load(fh)
        arrays = dict(loaded) if path.suffix == ".npz" else {None: loaded}
    floats = sorted(name for name, a in arrays.items() if a.dtype.kind == "f")
    name = floats[pick(len(floats))] if damage == "nan" else sorted(arrays)[pick(len(arrays))]
    values = arrays[name]
    i, j = pick(len(values)), pick(len(values))
    if damage == "drop" and path.suffix == ".npz":
        del arrays[name]
    elif damage == "drop":
        arrays[name] = np.delete(values, pick(values.shape[1]), axis=1)
    elif damage == "retype":
        arrays[name] = values.astype(np.int64 if values.dtype.kind == "f" else np.float64)
    elif damage == "nan":
        values.reshape(-1)[pick(values.size)] = np.nan
    else:  # swap
        values[[i, j]] = values[[j, i]]
    with path.open("wb") as fh:
        if path.suffix == ".npz":
            np.savez(fh, **arrays)
        else:
            np.save(fh, arrays[None])


def _damage(path, damage, pick):
    data = path.read_bytes()
    text = path.suffix in (".csv", ".json")
    if damage == "truncate":
        path.write_bytes(data[:pick(len(data))])
    elif damage == "empty":
        path.write_bytes(b"")
    elif damage == "not-utf8":  # a Latin-1 byte; at the start of a binary file
        at = pick(len(data) + 1) if text else 0
        path.write_bytes(data[:at] + b"\xe9" + data[at:])
    elif path.suffix == ".json":
        _damage_json(path, damage, pick)
    elif path.suffix == ".csv":
        _damage_csv(path, damage, pick)
    else:
        _damage_arrays(path, damage, pick)


class _Errors(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_artifact_is_named(base_run, tmp_path_factory, data):
    stage = data.draw(st.sampled_from(STAGES), label="stage")
    name = data.draw(st.sampled_from(_reads(stage)), label="file")
    damage = data.draw(st.sampled_from(DAMAGES), label="damage")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

    work = tmp_path_factory.mktemp("fuzz")
    try:
        out = work / "run"
        shutil.copytree(base_run["paths"]["out_dir"], out)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(
            base_run | {"paths": base_run["paths"] | {"out_dir": str(out)}}))
        paths = (sorted((out / "checkpoints").iterdir()) if name == "checkpoints"
                 else [out / name])
        for path in paths:  # every checkpoint alike, so report meets a damaged one
            rng = np.random.default_rng(seed)
            _damage(path, damage, lambda n: int(rng.integers(max(n, 1))))

        errors = _Errors()
        logging.getLogger("taskopt").addHandler(errors)
        try:
            code = cli.main([stage, "--config", str(config_path)])
        finally:
            logging.getLogger("taskopt").removeHandler(errors)
    finally:
        shutil.rmtree(work)

    assert not any("unexpected failure" in m for m in errors.messages), errors.messages
    assert code in (0, 1, 2)
    if code:
        message = errors.messages[-1]
        named = ("checkpoints/model_" if name == "checkpoints" else name) in message
        stale = name == cli.RUN_MANIFEST and code == 1 and message.startswith("stale: rerun")
        assert named or stale, (code, message)
