import csv
import hashlib
import shutil
import subprocess

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from trsvi.experiment import run_experiment
from trsvi.model import (
    SAMPLE_INDEX,
    BayesNetConfig,
    ancestral_sample,
    build_snlp,
    dump_yaml,
    generate_bayes_net,
    load_problem,
    load_samples_binary,
    load_samples_csv,
    load_verified_twin,
    load_yaml,
    problem_from_dict,
    read_sample_index,
    save_problem,
    save_samples_binary,
    save_samples_csv,
    write_sample_index,
)
from trsvi.model.snlp import SnlpConfig


def test_bayes_net_round_trip(tmp_path):
    spec = generate_bayes_net(
        BayesNetConfig(layer_sizes=(3, 3), max_parents=2, gmm_nodes=2, seed=8)
    )
    path = tmp_path / "problem.yaml"
    save_problem(path, spec)
    assert load_problem(path) == spec


def test_snlp_round_trip(tmp_path):
    problem = build_snlp(
        SnlpConfig(unknowns=4, anchors=2, side=5.0, radius=3.0,
                   noise_variance=0.02, seed=3)
    )
    path = tmp_path / "problem.yaml"
    save_problem(path, problem)
    loaded = load_problem(path)
    np.testing.assert_array_equal(loaded.true_positions, problem.true_positions)
    np.testing.assert_array_equal(loaded.anchor_positions, problem.anchor_positions)
    assert loaded.edges == problem.edges
    assert loaded.noise_variance == problem.noise_variance


def test_schema_version_checked(tmp_path):
    spec = generate_bayes_net(BayesNetConfig(layer_sizes=(2,), seed=0))
    path = tmp_path / "problem.yaml"
    save_problem(path, spec)
    data = yaml.safe_load(path.read_text())
    assert data["schema_version"] == 1
    data["schema_version"] = 999
    with pytest.raises(ValueError):
        problem_from_dict(data)


@pytest.mark.parametrize("data", [
    [1, 2],
    {"schema_version": 1, "kind": "bayes_net", "layers": 3},
    {"schema_version": 1, "kind": "bayes_net"},
    {"schema_version": 1, "kind": "bayes_net", "layers": [[5]]},
    {"schema_version": 1, "kind": "bayes_net", "layers": [[{"kind": "root"}]]},
    {"schema_version": 1, "kind": "snlp", "true_positions": [[0.0, 0.0]],
     "anchor_positions": [], "edges": []},
], ids=["list", "int layers", "no layers", "int node", "node without fields",
        "snlp without noise"])
def test_malformed_spec_is_a_value_error(data):
    """A malformed spec raises ValueError, which the CLI turns into a
    one-line config error naming the file, never TypeError or KeyError."""
    with pytest.raises(ValueError, match="spec"):
        problem_from_dict(data)


def test_same_seed_serializes_byte_identically(tmp_path):
    cfg = BayesNetConfig(layer_sizes=(4, 4), max_parents=3, gmm_nodes=2, seed=31)
    p1, p2 = tmp_path / "a.yaml", tmp_path / "b.yaml"
    save_problem(p1, generate_bayes_net(cfg))
    save_problem(p2, generate_bayes_net(cfg))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"),
                    reason="PyYAML built without libyaml")
def test_libyaml_and_pure_python_yaml_agree(tmp_path):
    """On a real artifact's manifest, metrics and problem spec, libyaml's
    safe dumper writes the pure-Python dumper's bytes, and `load_yaml`
    reads back what the pure-Python loader does."""
    config = {
        "problem": {"kind": "snlp", "unknowns": 3, "anchors": 2, "seed": 4},
        "method": [{"name": "tr-svi-kl", "iterations": 2},
                   {"name": "svn-ctr", "iterations": 2}],
        "run": {"particles": 6, "seeds": [0, 1], "init_center": 3.0},
        "output": {"ground_truth": {"samples": 50, "burn_in": 10}},
    }
    artifact = run_experiment(config, tmp_path / "run")
    for name in ("manifest.yaml", "metrics.yaml", "problem.yaml"):
        text = (artifact / name).read_text()
        data = yaml.load(text, Loader=yaml.SafeLoader)
        assert load_yaml(artifact / name) == data
        pure = yaml.dump(data, Dumper=yaml.SafeDumper, sort_keys=False)
        assert yaml.dump(data, Dumper=yaml.CSafeDumper,
                         sort_keys=False) == pure == dump_yaml(data) == text


def test_csv_round_trip_is_exact(tmp_path):
    spec = generate_bayes_net(BayesNetConfig(layer_sizes=(2, 2), seed=1))
    samples = ancestral_sample(spec, 50, seed=0)
    path = tmp_path / "samples.csv"
    save_samples_csv(path, samples, [f"x{i}" for i in range(4)])
    loaded, names = load_samples_csv(path)
    assert names == ["x0", "x1", "x2", "x3"]
    np.testing.assert_array_equal(loaded, samples)   # repr round-trips floats


def test_binary_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(37, 5))
    path = tmp_path / "samples.bin"
    save_samples_binary(path, samples)
    np.testing.assert_array_equal(load_samples_binary(path), samples)


def test_binary_layout_counts_then_rows(tmp_path):
    samples = np.arange(6, dtype=float).reshape(2, 3)
    path = tmp_path / "samples.bin"
    save_samples_binary(path, samples)
    raw = path.read_bytes()
    counts = np.frombuffer(raw[:16], dtype="<i8")
    assert counts.tolist() == [2, 3]
    values = np.frombuffer(raw[16:], dtype="<f8")
    np.testing.assert_array_equal(values, samples.reshape(-1))


def test_truncated_binary_rejected(tmp_path):
    path = tmp_path / "samples.bin"
    save_samples_binary(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_samples_binary(path)


# -- malformed sample files -------------------------------------------------

def _raises_naming(path, loader, match):
    with pytest.raises(ValueError, match=match) as info:
        loader(path)
    assert str(path) in str(info.value)


def test_csv_without_header_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    _raises_naming(path, load_samples_csv, "header")


def test_csv_non_numeric_value_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1\r\n1.0,2.0\r\n3.0,abc\r\n")
    _raises_naming(path, load_samples_csv, "line 3")


@settings(max_examples=60, deadline=None)
@given(
    cols=st.integers(1, 5),
    widths=st.lists(st.integers(0, 7), min_size=1, max_size=8),
)
def test_ragged_csv_rejected(tmp_path_factory, cols, widths):
    path = tmp_path_factory.mktemp("csv") / "ragged.csv"
    lines = [",".join(f"x{j}" for j in range(cols))]
    lines += [",".join(["0.5"] * w) for w in widths]
    path.write_text("\r\n".join(lines) + "\r\n")
    if all(w == cols for w in widths):
        loaded, _ = load_samples_csv(path)
        assert loaded.shape == (len(widths), cols)
    else:
        _raises_naming(path, load_samples_csv, "data row")


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(0, 6), cols=st.integers(0, 4), data=st.data())
def test_truncated_or_padded_binary_rejected(tmp_path_factory, rows, cols,
                                             data):
    path = tmp_path_factory.mktemp("bin") / "samples.bin"
    save_samples_binary(path, np.ones((rows, cols)))
    raw = path.read_bytes()
    cut = data.draw(st.integers(0, len(raw)), label="kept bytes")
    extra = data.draw(st.binary(max_size=20), label="trailing bytes")
    path.write_bytes(raw[:cut] + (extra if cut == len(raw) else b""))
    if cut == len(raw) and not extra:
        assert load_samples_binary(path).shape == (rows, cols)
    elif cut < 16:
        _raises_naming(path, load_samples_binary, "header")
    else:
        _raises_naming(path, load_samples_binary, "truncated|trailing")


@settings(max_examples=40, deadline=None)
@given(shape=st.tuples(st.integers(-2**40, 8), st.integers(-2**40, 8)).filter(
    lambda s: min(s) < 0))
def test_negative_binary_shape_rejected(tmp_path_factory, shape):
    path = tmp_path_factory.mktemp("bin") / "negative.bin"
    path.write_bytes(np.asarray(shape, dtype="<i8").tobytes() + bytes(64))
    _raises_naming(path, load_samples_binary, "negative shape")


# -- bulk CSV writer and loader against the row-by-row oracles --------------

EDGE_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
               -2.2250738585072014e-308, 1e16, 9999999999999998.0, 1e-4,
               9.999999999999999e-05, 0.1, -1.5e300]
CELLS = st.one_of(st.sampled_from(EDGE_FLOATS),
                  st.floats(allow_nan=True, allow_infinity=True))
# header names, some of which csv.writer must quote
NAMES = st.text(alphabet=list('ab é,"\r\n'), max_size=4)


@st.composite
def named_samples(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    cells = draw(st.lists(CELLS, min_size=rows * cols, max_size=rows * cols))
    names = draw(st.lists(NAMES, min_size=cols, max_size=cols))
    return np.array(cells, dtype=float).reshape(rows, cols), names


def _outcome(loader, path):
    """(samples bytes, shape, names) or the error a loader raises."""
    try:
        samples, names = loader(path)
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    return samples.dtype, samples.shape, samples.tobytes(), names


@settings(max_examples=150, deadline=None)
@given(case=named_samples())
def test_csv_writer_byte_identical_and_loader_bitwise(tmp_path_factory, case):
    samples, names = case
    folder = tmp_path_factory.mktemp("csv")
    new, old = folder / "new.csv", folder / "old.csv"
    save_samples_csv(new, samples, names)
    oracles.csv_writer_save_samples(old, samples, names)
    assert new.read_bytes() == old.read_bytes()
    expected = _outcome(oracles.csv_reader_load_samples, new)
    assert _outcome(load_samples_csv, new) == expected
    if samples.shape[1] > 0:   # a file of no columns has no header
        # repr writes every NaN as "nan", read back as the one quiet NaN
        canonical = np.where(np.isnan(samples), np.nan, samples)
        assert expected[1:3] == (samples.shape, canonical.tobytes())


# body lines: numbers, non-numbers, blanks and whitespace (some of it a line
# break to str.splitlines), with every line ending csv.reader knows and a
# last line with or without one
FIELDS = st.sampled_from(["0.5", "-1e-300", "nan", "-inf", " 2.0 ", "abc",
                          "", "1_0", '"3.0"', "  ", "4\x0c", "5\x0c6",
                          "\x85"])
LINES = st.lists(FIELDS, min_size=0, max_size=4).map(",".join)
ENDINGS = st.sampled_from(["\r\n", "\n", "\r"])


@settings(max_examples=300, deadline=None)
@given(cols=st.integers(1, 3),
       lines=st.lists(st.tuples(LINES, ENDINGS), max_size=6),
       last_ending=st.booleans())
def test_csv_loader_matches_oracle_on_malformed_bodies(tmp_path_factory, cols,
                                                       lines, last_ending):
    body = "".join(text + end for text, end in lines)
    if lines and not last_ending:
        body = body[:-len(lines[-1][1])]
    path = tmp_path_factory.mktemp("csv") / "body.csv"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"x{j}" for j in range(cols)) + "\r\n" + body)
    assert _outcome(load_samples_csv, path) == _outcome(
        oracles.csv_reader_load_samples, path)


def test_csv_blank_line_rejected(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_bytes(b"x0,x1\r\n1.0,2.0\r\n\r\n3.0,4.0\r\n")
    _raises_naming(path, load_samples_csv, "data row 2")


# rows a Metropolis ground truth repeats, and rows float == would confuse:
# 0.0 against -0.0, NaN against itself and NaNs of other sign or payload
NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001]
POOL_ROWS = [[0.0, 1.5], [-0.0, 1.5], [0.0, -0.0], [1.5, 0.0]] + [
    [np.uint64(bits).view(float), 2.0] for bits in NAN_BITS]


@settings(max_examples=150, deadline=None)
@given(picks=st.lists(st.integers(0, len(POOL_ROWS) - 1), max_size=12))
def test_repeated_rows_written_as_the_repr_oracle(tmp_path_factory, picks):
    samples = np.array([POOL_ROWS[k] for k in picks], dtype=float).reshape(
        len(picks), 2)
    folder = tmp_path_factory.mktemp("csv")
    new, old = folder / "new.csv", folder / "old.csv"
    save_samples_csv(new, samples, ["a", "b"])
    oracles.repr_rows_save_samples(old, samples, ["a", "b"])
    assert new.read_bytes() == old.read_bytes()


def test_repeated_rows_keep_zero_signs_and_nans(tmp_path):
    samples = np.array([[0.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [np.nan, 1.0],
                        [np.nan, 1.0], [-0.0, 1.0]])
    path = tmp_path / "rows.csv"
    save_samples_csv(path, samples, ["a", "b"])
    assert path.read_bytes().split(b"\r\n")[1:-1] == [
        b"0.0,1.0", b"0.0,1.0", b"-0.0,1.0", b"nan,1.0", b"nan,1.0",
        b"-0.0,1.0"]


# -- sample index and verified twins ----------------------------------------

def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sample_index_lists_plain_paths_as_sha256sum_does(tmp_path):
    names = ["plain.csv", "sub/deep.bin", "runs/a+b_c-1.0/seed_0/final.csv"]
    for k, name in enumerate(names):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(bytes([k]) * (k + 1))
    write_sample_index(tmp_path, [tmp_path / name for name in names])
    text = (tmp_path / SAMPLE_INDEX).read_text()
    assert text == "".join(f"{_digest(tmp_path / name)}  {name}\n"
                           for name in sorted(names))
    assert read_sample_index(tmp_path) == {
        name: _digest(tmp_path / name) for name in names}
    if shutil.which("sha256sum"):
        done = subprocess.run(["sha256sum", "--check", "--strict",
                               SAMPLE_INDEX], cwd=tmp_path,
                              capture_output=True)
        assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("name", ["back\\slash.csv", "line\nfeed.csv",
                                  "carriage\rreturn.csv"])
def test_sample_index_rejects_paths_sha256sum_would_escape(tmp_path, name):
    for path in (tmp_path / "plain.csv", tmp_path / name):
        path.write_bytes(b"x")
    with pytest.raises(ValueError, match="sample index path"):
        write_sample_index(tmp_path, [tmp_path / "plain.csv", tmp_path / name])
    assert not (tmp_path / SAMPLE_INDEX).exists()


def test_sample_index_reader_skips_lines_that_are_no_entry(tmp_path):
    a, b = "a" * 64, "b" * 64
    (tmp_path / SAMPLE_INDEX).write_text(
        f"{a}  x.csv\nnot an entry\n{a.upper()}  y.csv\n{b}  x.bin\n\n"
        f"\\{b}  back\\\\slash.csv\n")
    assert read_sample_index(tmp_path) == {"x.csv": a, "x.bin": b}
    assert read_sample_index(tmp_path / "nowhere") == {}


def _twin_case(tmp_path, defect):
    samples = np.arange(12.0).reshape(4, 3)
    csv_path, twin = tmp_path / "s.csv", tmp_path / "s.bin"
    save_samples_csv(csv_path, samples, ["a", "b", "c"])
    save_samples_binary(twin, samples)
    write_sample_index(tmp_path, [csv_path, twin])
    if defect == "edited csv":
        save_samples_csv(csv_path, samples + 1.0, ["a", "b", "c"])
    elif defect == "truncated twin":
        twin.write_bytes(twin.read_bytes()[:-8])
    elif defect == "trailing bytes":
        twin.write_bytes(twin.read_bytes() + bytes(8))
    elif defect == "missing twin":
        twin.unlink()
    elif defect == "twin is a folder":
        twin.unlink()
        twin.mkdir()
    elif defect == "missing csv":
        csv_path.unlink()
    elif defect == "twin of other values":
        save_samples_binary(twin, samples + 1.0)
    elif defect == "index lists only the csv":
        (tmp_path / SAMPLE_INDEX).write_text(
            f"{_digest(csv_path)}  s.csv\n")
    elif defect == "missing index":
        (tmp_path / SAMPLE_INDEX).unlink()
    return samples, load_verified_twin(tmp_path, "s.csv",
                                       read_sample_index(tmp_path))


def test_verified_twin_read_when_both_digests_match(tmp_path):
    samples, twin = _twin_case(tmp_path, None)
    assert twin.dtype == np.float64 and twin.flags.writeable
    assert twin.tobytes() == samples.tobytes()


def test_index_and_twins_work_without_hashlib_file_digest(tmp_path,
                                                          monkeypatch):
    # the package supports Python 3.10, whose hashlib has no file_digest
    monkeypatch.delattr(hashlib, "file_digest", raising=False)
    samples, twin = _twin_case(tmp_path, None)
    assert twin.tobytes() == samples.tobytes()
    assert read_sample_index(tmp_path) == {
        "s.csv": _digest(tmp_path / "s.csv"),
        "s.bin": _digest(tmp_path / "s.bin")}


@pytest.mark.parametrize("defect", [
    "edited csv", "truncated twin", "trailing bytes", "missing twin",
    "twin is a folder", "missing csv", "twin of other values",
    "index lists only the csv", "missing index"])
def test_unverified_twin_is_not_read(tmp_path, defect):
    assert _twin_case(tmp_path, defect)[1] is None
