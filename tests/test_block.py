"""One type for a data file's rows: a whole file and a run of its rows are
both a :class:`Block`, cut by slicing its line starts."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbench.data import read_unlabeled, write_rows

from test_data import crlf_sourced
from test_encoding import tables


def file_lines(block):
    """Each row's line of a whole-file block, from its text alone: the
    lines after the header, each with its newline."""
    return [line + b"\n" for line in block.text.split(b"\n")[1:-1]]


def assert_same_rows(got, want):
    assert bytes(got.lines) == bytes(want.lines)
    assert np.array_equal(got.starts - got.starts[0], want.starts - want.starts[0])
    assert np.array_equal(got.labels, want.labels)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(tables(), st.booleans(), st.data())
def test_a_cut_is_the_files_rows(tmp_path_factory, table, from_crlf, data):
    tmp_path = tmp_path_factory.mktemp("cut")
    ds = crlf_sourced(table, tmp_path) if from_crlf else table
    lo = data.draw(st.integers(0, len(ds)))
    hi = data.draw(st.integers(lo, len(ds)))
    cut = ds.block(lo, hi)
    oracle = file_lines(ds)[lo:hi]
    assert len(cut) == hi - lo
    assert bytes(cut.lines) == b"".join(oracle)
    assert cut.text is ds.text

    inner_lo = data.draw(st.integers(0, len(cut)))
    inner_hi = data.draw(st.integers(inner_lo, len(cut)))
    assert_same_rows(cut.block(inner_lo, inner_hi), ds.block(lo + inner_lo, lo + inner_hi))

    unlabeled = cut.unlabeled()
    assert unlabeled.labels is None
    assert unlabeled.starts[-1] == len(unlabeled.text)
    rows = [unlabeled.text[a:b] for a, b in zip(unlabeled.starts[:-1], unlabeled.starts[1:])]
    assert all(line[-3:-1] in (b",0", b",1") for line in oracle)
    assert rows == [line[:-3] + b"\n" for line in oracle]

    write_rows(tmp_path / "test.csv", ds.schema, unlabeled)
    read = read_unlabeled(tmp_path / "test.csv", ds.schema)
    assert bytes(read.lines) == bytes(unlabeled.lines)
    assert np.array_equal(read.starts - read.starts[0], unlabeled.starts)
