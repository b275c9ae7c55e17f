"""Property test of CLI input: whatever JSON document `fft`, `ifft` or
`polymul` is given, on every engine, the command either succeeds or
exits 2 with exactly one `error:` line; it never raises."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ringfft.cli import main  # noqa: E402

LEAVES = (st.none() | st.booleans() | st.text(max_size=4)
          | st.floats(allow_nan=True, allow_infinity=True)
          | st.floats(min_value=1e300, max_value=1.7e308)
          | st.integers()
          | st.integers(min_value=-(10 ** 400), max_value=10 ** 400))

ANY_DOCUMENT = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=6)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)


@st.composite
def sized_lists(draw, leaves):
    """A list of a supported length or next to one, tiled from a few
    drawn elements, so that both network paths are reached."""
    n = draw(st.sampled_from((0, 1, 2, 3, 4, 8, 16, 256, 512, 1024, 2048)))
    base = draw(st.lists(leaves, min_size=1, max_size=6))
    return (base * n)[:n]


NUMBERS = (st.floats(allow_nan=True, allow_infinity=True)
           | st.integers(min_value=-(10 ** 400), max_value=10 ** 400))
POLYNOMIALS = ANY_DOCUMENT | sized_lists(NUMBERS) | sized_lists(LEAVES)
SPECTRA = ANY_DOCUMENT | st.fixed_dictionaries({
    "order": st.sampled_from(("falcon_internal", "natural_eval")) | LEAVES,
    "values": ANY_DOCUMENT | sized_lists(
        st.tuples(NUMBERS, NUMBERS) | st.lists(LEAVES, max_size=3)),
})

ENGINES = ("reference", "inplace", "simulator")


def _run(command, documents, flags):
    """main(command files... flags) on the documents written as JSON
    files (NaN and infinities as Python's json writes them); returns
    (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, doc in enumerate(documents):
            path = Path(tmp) / f"in{k}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([command, *paths, *flags])
    return status, out.getvalue(), err.getvalue()


def _check(status, out, err):
    assert status in (0, 2), (status, err)
    if status == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
    else:
        assert err == ""
    assert "NaN" not in out and "Infinity" not in out


SETTINGS = hypothesis.settings(max_examples=40, deadline=None)


@pytest.mark.parametrize("engine", ENGINES)
@SETTINGS
@hypothesis.given(doc=POLYNOMIALS)
def test_fft_any_document(engine, doc):
    _check(*_run("fft", [doc], ["--engine", engine]))


@pytest.mark.parametrize("engine", ENGINES)
@SETTINGS
@hypothesis.given(doc=SPECTRA)
def test_ifft_any_document(engine, doc):
    _check(*_run("ifft", [doc], ["--engine", engine]))


@SETTINGS
@hypothesis.given(a=POLYNOMIALS, b=POLYNOMIALS, check=st.booleans())
def test_polymul_any_documents(a, b, check):
    _check(*_run("polymul", [a, b], ["--check"] * check))
