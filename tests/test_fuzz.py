"""Malformed input files through the CLI, and failing property tests under this pytest config."""

import contextlib
import copy
import io
import json
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from oakern import cli

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

ERROR_PREFIXES = ("error: ", "numeric error: ", "consistency error: ")

small_numbers = st.integers(-3, 3) | st.floats(-4.0, 4.0, allow_nan=False)
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(small_numbers, max_size=3),
    st.dictionaries(st.text(max_size=2), small_numbers, max_size=2),
)


@st.composite
def rbf_datasets(draw):
    dim = draw(st.integers(1, 3))
    point = st.lists(small_numbers, min_size=dim, max_size=dim)
    tuples = draw(st.lists(st.lists(point, min_size=1, max_size=3), min_size=1, max_size=3))
    return {
        "base_kernel": {"type": "rbf", "gamma": draw(st.floats(0.1, 4.0))},
        "tuples": [{"label": f"t{i}", "elements": t} for i, t in enumerate(tuples)],
    }


@st.composite
def table_datasets(draw):
    labels = ["a", "b"]
    off = draw(st.floats(0.0, 1.0))
    elements = st.lists(st.sampled_from(labels), min_size=1, max_size=3)
    return {
        "base_kernel": {"type": "table", "labels": labels, "values": [[1.0, off], [off, 1.0]]},
        "tuples": [{"elements": t} for t in draw(st.lists(elements, min_size=1, max_size=3))],
    }


constant_one_datasets = st.lists(
    st.integers(1, 3).map(lambda n: {"elements": ["1"] * n}), min_size=1, max_size=3
).map(lambda tuples: {"base_kernel": {"type": "constant_one"}, "tuples": tuples})


@st.composite
def matrix_documents(draw):
    n = draw(st.integers(1, 4))
    values = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            values[i][j] = values[j][i] = draw(small_numbers)
    doc = {"values": values}
    if draw(st.booleans()):
        doc["labels"] = [f"m{i}" for i in range(n)]
    return doc


def paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from paths(child, prefix + (key,))


@st.composite
def mutated(draw, documents):
    """A valid document with up to three positions replaced by junk values."""
    doc = draw(documents)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(paths(doc))))
        value = draw(junk)
        if not path:
            doc = value
            continue
        doc = copy.deepcopy(doc)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return doc


def run_on_file(tmp_path, command, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--input", str(path), "--output", str(tmp_path / "out")])
    return code, err.getvalue()


def assert_clean_outcome(code, err):
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith(ERROR_PREFIXES) and err.count("\n") == 1, err


fuzz_settings = settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])


@given(mutated(st.one_of(rbf_datasets(), table_datasets(), constant_one_datasets)))
@fuzz_settings
def test_gram_on_malformed_datasets(tmp_path, doc):
    assert_clean_outcome(*run_on_file(tmp_path, "gram", "dataset.json", doc))


@given(mutated(matrix_documents()), st.sampled_from(["spectrum", "repair"]))
@fuzz_settings
def test_matrix_commands_on_malformed_files(tmp_path, doc, command):
    assert_clean_outcome(*run_on_file(tmp_path, command, "matrix.json", doc))


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_test_is_reported(tmp_path):
    # Hypothesis imports libcst to report a failure, and libcst's imports warn;
    # under filterwarnings = error that warning must not abort the session
    sample = tmp_path / "test_sample.py"
    sample.write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-q", "-p", "no:cacheprovider", str(sample)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
