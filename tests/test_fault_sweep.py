"""Seeded byte-mutation sweep of every file the command line reads.

A tiny finished grid (one source, three targets, so `analyze` reads
`cka.csv`) supplies one valid copy of each file.  Each file then takes a
fixed number of seeded edits (set a byte, truncate, insert a byte), one at a
time, and the command that reads it runs in process after each: `generate`
for the config, `eval` for the manifest, an eval split and the checkpoint,
`analyze` for the run artifacts.  Every edit must end in exit 0, or in exit 2
with exactly one `error:` line that names the edited file's own directory or
a path inside it (not always the edited file: a target renamed in run.json is
missing from eval.csv beside it), or, for the config only, a JSON key path of
the edited file.  Any other exception, or a
warning, fails the test.  The file is restored after each edit.
"""

import json

import pytest

from ditto import Rng
from ditto.cli import main

SEED = 0
EDITS = 200  # per file


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    sizes = {"labeled": 24, "unlabeled": 24, "fewshot": 6, "eval": 18}
    config = root / "config.json"
    config.write_text(json.dumps({
        "dataset": {
            "seed": 3,
            "base": {"means": [[0.0, 2.2], [1.9, -1.1], [-2.3, -1.4]], "sigma": 0.45},
            "domains": [{"id": "src", "kind": "source", "transform": {"kind": "identity"},
                         "sizes": sizes}] + [
                {"id": f"rot{angle}", "kind": "target",
                 "transform": {"kind": "rotation", "angle": angle}, "sizes": sizes}
                for angle in (20, 40, 60)],
        },
        "experiment": {
            "encoder": {"input_dim": 2, "hidden_dims": [4], "activation": "tanh"},
            "num_classes": 3, "epochs": 1, "batch_size": 24, "variants": ["baseline"],
            "seeds": [0], "source_fractions": [100], "ks": [0],
        },
    }))
    assert main(["run-all", "--config", str(config), "--out", str(root / "out")]) == 0
    return root


RUN = "out/results/S100/k0/baseline/seed0"
# each file the sweep edits: (its directory under the grid's root, the
# command that reads it)
FILES = {"config.json": ("", "generate"), "manifest.json": ("out/data", "eval"),
         "rot40.eval.npy": ("out/data", "eval"), "model.npz": (RUN, "eval"),
         "run.json": (RUN, "analyze"), "eval.csv": (RUN, "analyze"),
         "cka.csv": (RUN, "analyze")}


def _argv(root, command):
    return {"generate": ["generate", "--config", str(root / "config.json"),
                         "--out", str(root / "gen")],
            "eval": ["eval", "--model", str(root / RUN / "model.npz"),
                     "--data", str(root / "out" / "data"), "--out", str(root / "scores.csv")],
            "analyze": ["analyze", "--results", str(root / "out" / "results"),
                        "--out", str(root / "tables")]}[command]


def _edit(data: bytes, rng: Rng) -> bytes:
    kind, pos, byte = (int(rng.integers(0, n, 1)[0]) for n in (3, len(data), 256))
    if kind == 0:
        return data[:pos] + bytes([byte]) + data[pos + 1:]
    if kind == 1:
        return data[:pos]
    return data[:pos] + bytes([byte]) + data[pos:]


def _names_path_or_key(line: str, directory, data: bytes | None) -> bool:
    """Whether the error line names `directory` or a path inside it, or, when
    `data` is given, starts with a key path whose head is a top-level key of
    the JSON object `data`."""
    if str(directory) in line:
        return True
    if data is None:
        return False
    try:
        obj = json.loads(data)
    except ValueError:
        return False
    return isinstance(obj, dict) and any(
        line.startswith(f"error: {key}{sep}") for key in obj for sep in ".[:")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(FILES))
def test_every_edit_is_read_or_one_named_error(grid, capsys, name):
    where, command = FILES[name]
    path, argv = grid / where / name, _argv(grid, command)
    original = path.read_bytes()
    rng = Rng(SEED).child(name)
    try:
        for i in range(EDITS):
            data = _edit(original, rng)
            path.write_bytes(data)
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err
            if code == 0:
                continue
            lines = err.splitlines()
            assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), \
                (i, code, err)
            keys = data if name == "config.json" else None
            assert _names_path_or_key(lines[0], grid / where, keys), (i, lines[0])
    finally:
        path.write_bytes(original)
