"""Reference snapshots of scenario outputs and the comparison against them.

A snapshot records every data file a scenario writes (``manifest.json`` is
run metadata and is skipped).  CSV headers and label cells must match
exactly; numeric cells must match within the tolerance that
``tolerances.json`` assigns to ``<scenario>/<file>:<field>``, where the
field is the CSV column name or the dotted key path of a JSON value.

Numeric columns longer than ``SKETCH_MIN_CELLS`` (the 20000-row readout
shot tables) are stored as a sketch instead of cell by cell, to keep the
reference small: count, min, max and ``SKETCH_PROJECTIONS`` exactly summed
dot products with fixed Gaussian weights.  The sketch test is implied by
the cellwise test (``|d proj| <= sum |w| (atol + rtol |x|)``), so it never
rejects an output the cellwise test would accept.  It is weaker by about
the column length: one cell is caught when it moves by more than about
``n`` times its cellwise tolerance, so sketched columns get a tight one.
"""

from __future__ import annotations

import csv
import fnmatch
import gzip
import hashlib
import json
import math
import os

import numpy as np

SKETCH_MIN_CELLS = 5000
SKETCH_PROJECTIONS = 4
SKETCH_WEIGHT_SEED = 20240304
METADATA_FILES = frozenset({"manifest.json"})


def data_files(out_dir: str) -> list:
    """Sorted data-file names in a scenario output directory."""
    return sorted(f for f in os.listdir(out_dir)
                  if f not in METADATA_FILES and not f.startswith("."))


def digest(out_dir: str) -> str:
    """sha256 over the names and bytes of the data files."""
    h = hashlib.sha256()
    for name in data_files(out_dir):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def data_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in data_files(out_dir))


def _parse_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _weights(n: int) -> np.ndarray:
    return np.random.default_rng(SKETCH_WEIGHT_SEED).standard_normal((SKETCH_PROJECTIONS, n))


def _sketch(x: np.ndarray) -> dict:
    w = _weights(x.size)
    return {
        "n": int(x.size),
        "min": float(x.min()),
        "max": float(x.max()),
        "proj": [math.fsum(row) for row in w * x],
        "w_abs": np.abs(w).sum(axis=1).tolist(),
        "wx_abs": (np.abs(w) @ np.abs(x)).tolist(),
    }


def _column_entry(cells: list) -> dict:
    values = [_parse_float(c) for c in cells]
    if any(v is None for v in values):
        return {"labels": cells}
    x = np.asarray(values, dtype=float)
    if x.size > SKETCH_MIN_CELLS and np.all(np.isfinite(x)):
        return {"sketch": _sketch(x)}
    return {"values": values}


def _read_csv(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    header, body = rows[0], rows[1:]
    if any(len(r) != len(header) for r in body):
        raise ValueError(f"{os.path.basename(path)}: ragged rows")
    return header, [list(col) for col in zip(*body)] if body else [[] for _ in header]


def snapshot_file(path: str) -> dict:
    if path.endswith(".csv"):
        header, columns = _read_csv(path)
        return {"kind": "csv", "header": header, "rows": len(columns[0]) if columns else 0,
                "columns": [_column_entry(c) for c in columns]}
    if path.endswith(".json"):
        with open(path) as fh:
            return {"kind": "json", "value": json.load(fh)}
    raise ValueError(f"{os.path.basename(path)}: neither CSV nor JSON")


def snapshot(out_dir: str) -> dict:
    """Reference entry for every data file of one scenario run."""
    return {name: snapshot_file(os.path.join(out_dir, name)) for name in data_files(out_dir)}


# ---------------------------------------------------------------------------
# tolerances
# ---------------------------------------------------------------------------

class Tolerances:
    """First matching ``rules`` entry wins; ``default`` otherwise."""

    def __init__(self, spec: dict):
        self.default = (float(spec["default"]["rtol"]), float(spec["default"]["atol"]))
        self.rules = [(r["match"], float(r["rtol"]), float(r["atol"])) for r in spec["rules"]]

    @classmethod
    def load(cls, path: str) -> "Tolerances":
        with open(path) as fh:
            return cls(json.load(fh))

    def lookup(self, key: str) -> tuple:
        for pattern, rtol, atol in self.rules:
            if fnmatch.fnmatchcase(key, pattern):
                return rtol, atol
        return self.default


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * abs(b)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _compare_json(ref, got, key: str, field: str, tol: Tolerances, errors: list) -> None:
    where = f"{key}:{field}"
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            errors.append(f"{where}: keys differ")
            return
        for k in ref:
            _compare_json(ref[k], got[k], key, f"{field}.{k}" if field else str(k), tol, errors)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            errors.append(f"{where}: length differs")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare_json(r, g, key, f"{field}.{i}" if field else str(i), tol, errors)
    elif _is_number(ref) and _is_number(got):
        rtol, atol = tol.lookup(where)
        if not _close(float(got), float(ref), rtol, atol):
            errors.append(f"{where}: {got!r} vs reference {ref!r}")
    elif ref != got or type(ref) is not type(got):
        errors.append(f"{where}: {got!r} vs reference {ref!r}")


def _compare_column(ref: dict, got: dict, where: str, tol: Tolerances, errors: list) -> None:
    kind = next(iter(ref))
    if kind != next(iter(got)):
        errors.append(f"{where}: column kind {next(iter(got))} vs reference {kind}")
        return
    if kind == "labels":
        if ref[kind] != got[kind]:
            errors.append(f"{where}: labels differ")
        return
    rtol, atol = tol.lookup(where)
    if kind == "values":
        bad = [i for i, (r, g) in enumerate(zip(ref["values"], got["values"]))
               if not _close(g, r, rtol, atol)]
        if bad:
            i = bad[0]
            errors.append(f"{where}: {len(bad)} cells out of tolerance, first row {i}: "
                          f"{got['values'][i]!r} vs reference {ref['values'][i]!r}")
        return
    r, g = ref["sketch"], got["sketch"]
    if r["n"] != g["n"]:
        errors.append(f"{where}: {g['n']} cells vs reference {r['n']}")
        return
    for stat in ("min", "max"):
        if not _close(g[stat], r[stat], rtol, atol):
            errors.append(f"{where}: {stat} {g[stat]!r} vs reference {r[stat]!r}")
    rounding = 4.0 * np.finfo(float).eps  # one rounding per product
    for k, (rp, gp) in enumerate(zip(r["proj"], g["proj"])):
        bound = atol * r["w_abs"][k] + (rtol + rounding) * r["wx_abs"][k]
        if abs(gp - rp) > bound:
            errors.append(f"{where}: sketch projection {k} moved {abs(gp - rp):.3e} > {bound:.3e}")


def compare(reference: dict, out_dir: str, scenario: str, tol: Tolerances) -> list:
    """Differences between a scenario's outputs and its reference entry."""
    errors = []
    names = data_files(out_dir)
    if names != sorted(reference):
        return [f"{scenario}: files {names} vs reference {sorted(reference)}"]
    for name in names:
        ref = reference[name]
        key = f"{scenario}/{name}"
        try:
            got = snapshot_file(os.path.join(out_dir, name))
        except (ValueError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            errors.append(f"{key}: unreadable: {exc}")
            continue
        if got["kind"] != ref["kind"]:
            errors.append(f"{key}: kind differs")
        elif ref["kind"] == "json":
            _compare_json(ref["value"], got["value"], key, "", tol, errors)
        elif ref["header"] != got["header"] or ref["rows"] != got["rows"]:
            errors.append(f"{key}: header or row count differs")
        else:
            for field, rc, gc in zip(ref["header"], ref["columns"], got["columns"]):
                _compare_column(rc, gc, f"{key}:{field}", tol, errors)
    return errors


# ---------------------------------------------------------------------------
# reference store
# ---------------------------------------------------------------------------

def reference_path(root: str, scenario: str, config_seed) -> str:
    """Seeded scenarios have one file per pool seed, the others one file."""
    stem = "any" if config_seed is None else f"seed{config_seed:02d}"
    return os.path.join(root, scenario, f"{stem}.json.gz")


def save_reference(path: str, entry: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    text = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(text.encode())


def load_reference(path: str) -> dict:
    with gzip.open(path, "rb") as fh:
        return json.loads(fh.read().decode())
