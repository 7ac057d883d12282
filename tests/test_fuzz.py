"""Malformed input files and flags through the CLI, and failing property tests under this pytest config."""

import contextlib
import copy
import io
import json
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from oakern import cli
from oakern.assignment_kernel import MAX_GRAM_CELLS

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

ERROR_PREFIXES = ("error: ", "numeric error: ", "consistency error: ")
# the two documented exit-3 lines of the verdict commands
VERDICT_LINES = ("counterexample did not refute PSD-ness\n", "min-kernel verdict failed\n")

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


# CSV cells: numbers, then text that is not a JSON number literal or not a finite one
csv_junk = st.text(max_size=3) | st.sampled_from(
    ["true", "nan", "NaN", "1e999", "1_0", "", " ", "0x1", '"2"', "[1]"]
)


@st.composite
def csv_documents(draw):
    n = draw(st.integers(1, 4))
    rows = [[""] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = repr(draw(small_numbers))
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(csv_junk)
    ragged = draw(st.sampled_from([None, "short", "long"]))
    if ragged == "short":
        rows[draw(st.integers(0, n - 1))].pop()
    elif ragged == "long":
        rows[draw(st.integers(0, n - 1))].append(repr(draw(small_numbers)))
    return "".join(",".join(row) + "\n" for row in rows)


# flag text; a length is at most 50 or past the Gram size bound, which refuses it before
# anything is built, and a grid has at most 4 values, so no example allocates much
number_text = st.floats().map(repr) | st.integers(-5, 100).map(str) | st.text(
    alphabet="0123456789.-+e_naifx ", max_size=6
)
too_long = st.integers(MAX_GRAM_CELLS + 1, 2**70)
length_text = st.integers(-3, 50).map(str) | too_long.map(str) | st.sampled_from(
    ["", " ", "x", "1.5", "1_0", "+5", "-0", "0x1", "1e1", "nan", "\u0663"]
)


@st.composite
def flag_argvs(draw):
    command = draw(st.sampled_from(["counterexample", "sweep", "verify-min-kernel"]))
    if command == "counterexample":
        argv = [command, f"--gamma={draw(number_text)}"]
    elif command == "sweep":
        argv = [command, "--grid=" + ",".join(draw(st.lists(number_text, max_size=4)))]
    else:
        argv = [command, "--lengths=" + ",".join(draw(st.lists(length_text, max_size=8)))]
    if draw(st.booleans()):
        argv.append(f"--tol={draw(number_text)}")
    return argv


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


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def run_on_file(tmp_path, command, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return run_cli([command, "--input", str(path), "--output", str(tmp_path / "out")])


def assert_clean_outcome(code, err):
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1, err
        assert err.startswith(ERROR_PREFIXES) or (code == 3 and err in VERDICT_LINES), err


fuzz_settings = settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])


@given(mutated(st.one_of(rbf_datasets(), table_datasets(), constant_one_datasets)))
@fuzz_settings
def test_gram_on_malformed_datasets(tmp_path, doc):
    assert_clean_outcome(*run_on_file(tmp_path, "gram", "dataset.json", json.dumps(doc)))


@given(mutated(matrix_documents()), st.sampled_from(["spectrum", "repair"]))
@fuzz_settings
def test_matrix_commands_on_malformed_files(tmp_path, doc, command):
    assert_clean_outcome(*run_on_file(tmp_path, command, "matrix.json", json.dumps(doc)))


@given(csv_documents(), st.sampled_from(["spectrum", "repair"]))
@fuzz_settings
def test_matrix_commands_on_malformed_csv(tmp_path, text, command):
    assert_clean_outcome(*run_on_file(tmp_path, command, "matrix.csv", text))


@given(flag_argvs())
@fuzz_settings
def test_flag_commands_on_malformed_flags(tmp_path, argv):
    # exit 3 with a verdict line is a clean outcome: it includes verify-min-kernel's
    # tol-0 verdict on a PSD Gram whose float eigenvalue dips just below 0
    assert_clean_outcome(*run_cli(argv + ["--output", str(tmp_path / "out")]))


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
