"""On-disk formats for problem specs, sample matrices and YAML documents.

Problem specs are YAML trees with a schema_version field.  Samples go to CSV
(one row per draw, header = dimension names) or to a packed binary layout:
two little-endian int64 counts (rows, cols) followed by row-major
little-endian float64 values.  A sample index lists SHA-256 digests of
sample files in the format `sha256sum -c` checks, so that a binary twin
written beside a CSV can stand in for it while both still match the index.
Every YAML document the package reads or writes (configs, problem specs,
manifests, metrics) goes through `load_yaml` and `dump_yaml`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import re
import warnings
from pathlib import Path

import numpy as np
import orjson
import yaml

from .bayesnet import BayesNetSpec, BayesNode
from .snlp import SnlpEdge, SnlpProblem

SCHEMA_VERSION = 1
_HEADER_BYTES = 16
SAMPLE_INDEX = "samples.sha256"
# fresh sample rows printed per orjson call: a few hundred KB of text at
# d = 100
_CSV_BLOCK_ROWS = 256
# `<digest>  <path>`; a path never holds a character sha256sum would escape
_INDEX_LINE = re.compile(r"([0-9a-f]{64})  (.+)")

# libyaml's safe loader and dumper when PyYAML was built with it: the same
# documents and bytes as the pure-Python classes, several times faster
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def load_yaml(path):
    """The YAML document in the file at `path`, built from safe types."""
    return yaml.load(Path(path).read_text(), Loader=_Loader)


def dump_yaml(data) -> str:
    """`data` as a YAML document of safe types, mappings in insertion order."""
    return yaml.dump(data, Dumper=_Dumper, sort_keys=False)


def problem_to_dict(problem) -> dict:
    if isinstance(problem, BayesNetSpec):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "bayes_net",
            "layers": [
                [
                    {
                        "kind": node.kind,
                        "parents": list(node.parents),
                        "weights": [list(w) for w in node.weights],
                        "component_weights": list(node.component_weights),
                        "mean_offset": node.mean_offset,
                        "variance": node.variance,
                    }
                    for node in layer
                ]
                for layer in problem.layers
            ],
        }
    if isinstance(problem, SnlpProblem):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "snlp",
            "true_positions": problem.true_positions.tolist(),
            "anchor_positions": problem.anchor_positions.tolist(),
            "edges": [[e.i, e.j, e.measured] for e in problem.edges],
            "noise_variance": problem.noise_variance,
            "radius": problem.radius,
            "side": problem.side,
            "warnings": list(problem.warnings),
        }
    raise TypeError(f"cannot serialize problem of type {type(problem)!r}")


def problem_from_dict(data: dict):
    """The problem of a `problem_to_dict` document; a document of another
    shape raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("a problem spec must be a mapping")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    kind = data.get("kind")
    try:
        return _problem_of_kind(kind, data)
    except KeyError as exc:
        raise ValueError(f"{kind} problem spec: missing field {exc}") from None
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed {kind} problem spec: {exc}") from None


def _problem_of_kind(kind, data: dict):
    if kind == "bayes_net":
        layers = tuple(
            tuple(
                BayesNode(
                    kind=node["kind"],
                    parents=tuple(node["parents"]),
                    weights=tuple(tuple(w) for w in node["weights"]),
                    component_weights=tuple(node["component_weights"]),
                    mean_offset=node["mean_offset"],
                    variance=node["variance"],
                )
                for node in layer
            )
            for layer in data["layers"]
        )
        return BayesNetSpec(layers=layers)
    if kind == "snlp":
        return SnlpProblem(
            true_positions=np.asarray(data["true_positions"], dtype=float),
            anchor_positions=np.asarray(data["anchor_positions"], dtype=float).reshape(-1, 2),
            edges=tuple(SnlpEdge(int(i), int(j), float(m)) for i, j, m in data["edges"]),
            noise_variance=float(data["noise_variance"]),
            radius=float(data["radius"]),
            side=float(data["side"]),
            warnings=tuple(data.get("warnings", [])),
        )
    raise ValueError(f"unknown problem kind {kind!r}")


def save_problem(path, problem) -> None:
    Path(path).write_text(dump_yaml(problem_to_dict(problem)))


def load_problem(path):
    return problem_from_dict(load_yaml(path))


def save_samples_csv(path, samples: np.ndarray, names: list[str]) -> None:
    """One header row of names, then one row per sample of repr() values,
    each line ended by CR LF as csv.writer ends it.

    The body is printed by orjson, blocks of _CSV_BLOCK_ROWS rows at a
    time.  orjson prints a float with Ryu's shortest round-trip digits,
    the digits repr prints (the shortest string that reads back to the
    same float, the nearest such, ties to even), and lays them out as repr
    does for 0 and for 1e-4 <= |v| < 1e16: `-0.0`, `0.0001`,
    `9999999999999998.0`.  Outside that range the layouts differ (orjson
    writes 1e-05 as `0.00001`, 1e+16 as `1e16`, NaN and infinities as
    `null`), so a row holding such a value keeps its repr line, and every
    file's bytes are repr's.
    """
    samples = np.ascontiguousarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != len(names):
        raise ValueError("samples must be (rows, len(names))")
    # a row whose bits repeat the previous row's (a rejected Metropolis
    # step) repeats its line; bits, unlike float ==, tell 0.0 from -0.0
    bits = samples.view(np.uint64)
    fresh = np.ones(len(samples), dtype=bool)
    fresh[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    first = np.flatnonzero(fresh)
    repeats = np.diff(np.append(first, len(samples))).tolist()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(names)
        # neither printer writes a comma, quote or line break within a
        # float, so the body needs no csv quoting
        for start in range(0, len(first), _CSV_BLOCK_ROWS):
            block = samples[first[start:start + _CSV_BLOCK_ROWS]]
            # `[[a,b],[c,d]]`: each row's line lies between `],[`
            lines = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[
                2:-2].decode().split("],[")
            mag = np.abs(block)
            # NaN fails every comparison, inf the upper bound
            same = ((mag >= 1e-4) & (mag < 1e16) | (mag == 0)).all(axis=1)
            for k in np.flatnonzero(~same).tolist():
                lines[k] = ",".join(map(repr, block[k].tolist()))
            fh.writelines((line + "\r\n") * count for line, count in
                          zip(lines, repeats[start:start + _CSV_BLOCK_ROWS]))


def load_samples_csv(path) -> tuple[np.ndarray, list[str]]:
    """Samples and column names from a CSV; a file without a header, with a
    row of the wrong length or a value that is not a number raises a
    ValueError naming the path."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader, None)
        if not names:
            raise ValueError(f"{path}: no header row of column names")
        body = fh.read()
    lines = body.splitlines()
    # csv.reader ends a record at \r, \n or \r\n, and after an unterminated
    # last line; splitlines also breaks at a few characters float() takes
    # for whitespace, so equal counts mean the lines are the records
    rows = body.count("\n") + body.count("\r") - body.count("\r\n")
    rows += bool(body) and body[-1] not in "\r\n"
    samples = None
    if len(lines) == rows:
        try:
            with warnings.catch_warnings():
                # a body of blank lines only is "no data" to loadtxt
                warnings.simplefilter("ignore")
                samples = np.loadtxt(lines, delimiter=",", comments=None,
                                     ndmin=2)
        except ValueError:
            pass
    # loadtxt skips blank lines, which are a defect here, so its row count
    # must match too; anything else is read row by row, which names the defect
    if samples is None or samples.shape != (rows, len(names)):
        samples = _read_rows(path, body, len(names), reader.line_num)
    return samples, names


def _read_rows(path, body: str, width: int, header_lines: int) -> np.ndarray:
    reader = csv.reader(io.StringIO(body, newline=""))
    try:
        rows = [[float(v) for v in row] for row in reader]
    except ValueError as exc:
        line = header_lines + reader.line_num
        raise ValueError(f"{path}: line {line}: {exc}") from None
    for k, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: data row {k + 1} has {len(row)} values, "
                             f"the header names {width}")
    return np.asarray(rows, dtype=float).reshape(len(rows), width)


def save_samples_binary(path, samples: np.ndarray) -> None:
    samples = np.ascontiguousarray(samples, dtype="<f8")
    with open(path, "wb") as fh:
        np.asarray(samples.shape, dtype="<i8").tofile(fh)
        samples.tofile(fh)


def load_samples_binary(path) -> np.ndarray:
    """Samples from the packed binary layout; a short header, a negative
    count or a payload that is not exactly rows * cols values raises a
    ValueError naming the path."""
    return _read_binary(path)[0]


def _read_binary(path) -> tuple[np.ndarray, str]:
    """load_samples_binary's samples and the SHA-256 hex digest of the
    file's bytes, read once."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_HEADER_BYTES)
        if len(header) < _HEADER_BYTES:
            raise ValueError(f"{path}: {size} bytes is shorter than the "
                             f"{_HEADER_BYTES}-byte (rows, cols) header")
        rows, cols = (int(v) for v in np.frombuffer(header, dtype="<i8"))
        if rows < 0 or cols < 0:
            raise ValueError(f"{path}: negative shape ({rows}, {cols})")
        need, payload = 8 * rows * cols, size - _HEADER_BYTES
        if payload != need:
            defect = "truncated" if payload < need else "trailing bytes"
            raise ValueError(f"{path}: {defect}: shape ({rows}, {cols}) needs "
                             f"{need} payload bytes, file has {payload}")
        data = np.empty((rows, cols), dtype="<f8")
        if fh.readinto(data) != need:
            raise ValueError(f"{path}: truncated while reading")
    digest = hashlib.sha256(header)
    digest.update(data)
    return data, digest.hexdigest()


def twin_path(csv_path) -> Path:
    """The binary twin written beside a sample CSV."""
    return Path(csv_path).with_suffix(".bin")


def _sha256(path) -> str:
    # read through one small buffer, as hashlib.file_digest (3.11+) does
    digest, buffer = hashlib.sha256(), bytearray(1 << 18)
    view = memoryview(buffer)
    with open(path, "rb") as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def write_sample_index(root, paths) -> None:
    """Write `root/samples.sha256`: one `<sha256 hex>  <path>` line for each
    of `paths` (files under `root`), the path posix and relative to `root`,
    lines sorted by path, so that `sha256sum -c samples.sha256` run in
    `root` checks every file.  A path holding a backslash, line feed or
    carriage return, which sha256sum would escape, is a ValueError."""
    root = Path(root)
    lines = []
    for rel in sorted(Path(p).relative_to(root).as_posix() for p in paths):
        if any(c in rel for c in "\\\n\r"):
            raise ValueError(f"sample index path {rel!r} holds a backslash, "
                             "line feed or carriage return")
        lines.append(f"{_sha256(root / rel)}  {rel}\n")
    (root / SAMPLE_INDEX).write_bytes(os.fsencode("".join(lines)))


def read_sample_index(root) -> dict[str, str]:
    """Posix path relative to `root` -> SHA-256 hex digest, from
    `root/samples.sha256`; empty when the index is missing or unreadable.
    Lines that are no digest entry are skipped; the last entry for a path
    wins."""
    try:
        text = os.fsdecode((Path(root) / SAMPLE_INDEX).read_bytes())
    except (OSError, ValueError):
        return {}
    index = {}
    for line in text.split("\n"):
        match = _INDEX_LINE.fullmatch(line)
        if match is None:
            continue
        digest, rel = match.groups()
        index[rel] = digest
    return index


def load_verified_twin(root, csv_rel: str, index: dict) -> np.ndarray | None:
    """The samples of the twin of `root/csv_rel` when `index` lists both
    files and both digests match the bytes on disk, else None; never raises
    for a missing, unreadable or damaged file."""
    twin_rel = twin_path(csv_rel).as_posix()
    want_csv, want_twin = index.get(csv_rel), index.get(twin_rel)
    if want_csv is None or want_twin is None:
        return None
    root = Path(root)
    try:
        if _sha256(root / csv_rel) != want_csv:
            return None
        samples, digest = _read_binary(root / twin_rel)
    except (OSError, ValueError):
        return None
    return samples if digest == want_twin else None
