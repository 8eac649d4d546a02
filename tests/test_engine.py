"""Dataset generation, indexing, selectivity and file round-trip tests."""

from __future__ import annotations

import gc
import random
import tracemalloc
from array import array
from pathlib import Path

import pytest

from planrace import engine
from planrace.engine import (
    DISTRIBUTIONS,
    Collection,
    IndexCatalog,
    Projection,
    Query,
    RangePredicate,
    build_index,
    generate_dataset,
    load_dataset,
    query_shape,
    save_dataset,
    selectivity,
)
from planrace.errors import (
    DatasetFormatError,
    EmptyCollectionError,
    PlanraceError,
    UnknownFieldError,
)
from planrace.optimizer import optimize
from planrace.plans import OptimizerVariant
from planrace.scenarios import get_scenario


def make_collection(a_values, b_values):
    return Collection("test", {"A": list(a_values), "B": list(b_values)})


def index_column(c, ix, f):
    """Field f's column in the index's order, gathered through its rids."""
    return array("q", [c.columns[f][rid] for rid in ix.rids])


def index_entries(c, ix):
    """The index as (key tuple, record_id) pairs in index order."""
    keys = zip(*(index_column(c, ix, f) for f in ix.key_fields))
    return list(zip(keys, ix.rids))


def assert_index_columns_follow_rids(c, ix):
    assert ix.key_values == index_column(c, ix, ix.key_fields[0])


# --- generate_dataset ---------------------------------------------------

def test_uniform_distinct_is_permutation_per_field():
    c = generate_dataset(20, "uniform-distinct", seed=1)
    for f in ("A", "B"):
        assert sorted(c.columns[f]) == list(range(20))


def test_single_document_dataset():
    c = generate_dataset(1, "uniform-distinct", seed=99)
    assert len(c) == 1
    assert {f: column[0] for f, column in c.columns.items()} == {"A": 0, "B": 0}


def test_large_uniform_distinct_spans_domain():
    c = generate_dataset(100_000, "uniform-distinct", seed=7)
    assert len(c) == 100_000
    ix = build_index(c, ["A"])
    entries = index_entries(c, ix)
    assert entries[0][0] == (0,)
    assert entries[-1][0] == (99_999,)


def test_generation_deterministic_for_seed():
    c1 = generate_dataset(500, "uniform-distinct", seed=42)
    c2 = generate_dataset(500, "uniform-distinct", seed=42)
    assert c1.columns == c2.columns
    c3 = generate_dataset(500, "uniform-distinct", seed=43)
    assert c1.columns != c3.columns


def test_empty_dataset_rejected():
    with pytest.raises(EmptyCollectionError):
        generate_dataset(0, "uniform-distinct", seed=1)


def test_other_distributions_produce_in_domain_values():
    for dist in ("uniform-with-repeats", "zipfian"):
        c = generate_dataset(200, dist, seed=5)
        assert len(c.columns["A"]) == len(c.columns["B"]) == 200
        for a, b in zip(c.columns["A"], c.columns["B"]):
            assert 0 <= a < 200
            assert 0 <= b < 200


# --- build_index ---------------------------------------------------------

def test_index_sorts_single_field():
    c = make_collection([5, 1, 3], [0, 0, 0])
    ix = build_index(c, ["A"])
    assert ix.name == "A_1"
    assert index_entries(c, ix) == [((1,), 1), ((3,), 2), ((5,), 0)]
    assert_index_columns_follow_rids(c, ix)


def test_compound_index_sorts_lexicographically():
    c = make_collection([1, 1], [9, 2])
    ix = build_index(c, ["A", "B"])
    assert ix.name == "A_1_B_1"
    assert [e[0] for e in index_entries(c, ix)] == [(1, 2), (1, 9)]
    assert_index_columns_follow_rids(c, ix)


def test_index_entry_count_matches_documents():
    rng = random.Random(3)
    c = make_collection([rng.randrange(50) for _ in range(120)],
                        [rng.randrange(50) for _ in range(120)])
    for keys in (["A"], ["B"], ["A", "B"]):
        ix = build_index(c, keys)
        assert len(index_entries(c, ix)) == len(c)
        assert len(ix.key_values) == len(c)


@pytest.mark.parametrize("dist", ["uniform-with-repeats", "zipfian"])
def test_index_order_matches_sorted_key_rid_pairs(dist):
    # repeated keys: ties within a key fall back to the next key, then rid
    c = generate_dataset(3000, dist, seed=17)
    for keys in (["A"], ["B"], ["A", "B"], ["B", "A"]):
        ix = build_index(c, keys)
        expected = sorted(
            (tuple(c.columns[f][rid] for f in keys), rid) for rid in range(len(c)))
        assert index_entries(c, ix) == expected
        assert_index_columns_follow_rids(c, ix)


DERIVATION_CASES = {
    "uniform-distinct": lambda: generate_dataset(3000, "uniform-distinct", seed=17),
    "uniform-with-repeats": lambda: generate_dataset(3000, "uniform-with-repeats", seed=17),
    "zipfian": lambda: generate_dataset(3000, "zipfian", seed=17),
    "single-document": lambda: make_collection([4], [2]),
    "all-equal-A": lambda: make_collection([7] * 200,
                                           random.Random(5).choices(range(40), k=200)),
}


def key_then_rid_order(c, keys):
    """The record ids sorted by (key tuple, record_id), from scratch."""
    return array("q", sorted(range(len(c)),
                             key=lambda rid: (*(c.columns[f][rid] for f in keys), rid)))


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_collection_order_is_value_then_record_id_order(dist):
    c = generate_dataset(3000, dist, seed=17)
    assert c._orders == {}  # built on first call
    for f in ("A", "B"):
        order = c.order(f)
        assert order == key_then_rid_order(c, (f,)) and order.typecode == "q"
        assert c.order(f) is order
        # order[k] is the record id of the k-th sorted value
        assert array("q", [c.columns[f][rid] for rid in order]) == c.sorted_values(f)
    with pytest.raises(UnknownFieldError, match="Z"):
        c.order("Z")


@pytest.mark.parametrize("keys", [("A", "B"), ("B", "A")], ids=["AB", "BA"])
@pytest.mark.parametrize("case", sorted(DERIVATION_CASES))
def test_compound_index_from_leading_index_equals_full_sort(case, keys):
    # derived from the leading field's order: only runs of equal leading
    # keys are re-sorted
    c = DERIVATION_CASES[case]()
    ix = build_index(c, keys)
    assert ix.rids == key_then_rid_order(c, keys)
    assert ix.key_values is c.sorted_values(keys[0])
    assert_index_columns_follow_rids(c, ix)


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_index_rids_are_int64_arrays_in_key_then_record_id_order(dist):
    c = generate_dataset(3000, dist, seed=11)
    catalog = get_scenario("covering").build_catalog(c)
    for ix in catalog.indexes:
        assert ix._rids is None  # built when the index's order is first read
        assert isinstance(ix.rids, array) and ix.rids.typecode == "q"
        assert ix.rids == key_then_rid_order(c, ix.key_fields)
    a, _, ab = catalog.indexes  # A_1, B_1, A_1_B_1
    assert a.rids is c.order("A")
    # without ties in A, A's order is already A_1_B_1's
    assert (ab.rids is a.rids) == (dist == "uniform-distinct")


def test_compound_index_shares_leading_index_lists_without_ties():
    c = generate_dataset(500, "uniform-distinct", seed=3)
    catalog = get_scenario("covering").build_catalog(c)
    a, _, ab = catalog.indexes  # A_1, B_1, A_1_B_1
    assert ab.rids is a.rids is c.order("A")
    assert ab.key_values is a.key_values


def test_compound_index_with_ties_copies_all_but_leading_column():
    c = generate_dataset(500, "uniform-with-repeats", seed=3)
    catalog = get_scenario("covering").build_catalog(c)
    a, _, ab = catalog.indexes  # A_1, B_1, A_1_B_1
    assert ab.rids is not a.rids and ab.rids != a.rids
    assert ab.key_values is a.key_values
    assert index_entries(c, ab) == index_entries(c, build_index(c, ["A", "B"]))


def test_collections_compare_by_name_and_columns_alone():
    a = generate_dataset(50, seed=1)
    b = generate_dataset(50, seed=1)
    a.sorted_values("A")
    a.order("B")
    assert a == b and b == a
    assert a != Collection(a.name, {"A": a.columns["B"], "B": a.columns["A"]})


def test_catalog_indexes_are_fixed_when_it_is_built():
    c = generate_dataset(50, "uniform-distinct", seed=3)
    a, b = build_index(c, ["A"]), build_index(c, ["B"])
    catalog = IndexCatalog([a, b])
    assert catalog.indexes == (a, b)
    with pytest.raises(AttributeError):
        catalog.indexes.append(build_index(c, ["A", "B"]))
    with pytest.raises(AttributeError):
        catalog.indexes = (a,)
    assert catalog.indexes == (a, b)
    with pytest.raises(ValueError, match="duplicate index name 'A_1'"):
        IndexCatalog([a, b, build_index(c, ["A"])])


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_positions_count_the_values_below_each_bound(dist):
    c = generate_dataset(1000, dist, seed=9)
    rng = random.Random(dist)
    for f in c.field_list:
        column = c.columns[f]
        for _ in range(30):
            low = rng.randrange(-5, 1005)
            high = low + rng.randrange(0, 300)
            start, end = c.positions(RangePredicate(f, low, high))
            assert (start, end) == (sum(v < low for v in column), sum(v < high for v in column))
            assert sorted(column)[start:end] == sorted(v for v in column if low <= v < high)
    with pytest.raises(UnknownFieldError, match="Z"):
        c.positions(RangePredicate("Z", 0, 1))


def test_index_unknown_field_error_names_field():
    c = make_collection([1], [2])
    with pytest.raises(UnknownFieldError, match="Z"):
        build_index(c, ["Z"])


def test_range_positions():
    c = make_collection([5, 1, 3, 8], [0, 0, 0, 0])
    ix = build_index(c, ["A"])
    lo, hi = ix.range_positions(3, 8)
    assert [e[0][0] for e in index_entries(c, ix)[lo:hi]] == [3, 5]
    assert ix.range_positions(0, 100) == (0, 4)
    assert ix.range_positions(4, 4) == (2, 2)


# --- selectivity ---------------------------------------------------------

def test_selectivity_exact_on_permutation():
    c = generate_dataset(2000, "uniform-distinct", seed=11)
    assert selectivity(c, RangePredicate("A", 0, 400)) == pytest.approx(0.2)
    assert selectivity(c, RangePredicate("A", 700, 700)) == 0.0
    assert selectivity(c, RangePredicate("B", 0, 2000)) == 1.0


def test_selectivity_window_formula_property():
    # for a permutation of 0..N-1, count in [a, b) is exactly the clipped width
    n = 1000
    c = generate_dataset(n, "uniform-distinct", seed=13)
    rng = random.Random(0)
    for _ in range(50):
        a = rng.randrange(0, n)
        b = rng.randrange(a, n + 1)
        expected = (min(b, n) - max(a, 0)) / n
        assert selectivity(c, RangePredicate("A", a, b)) == pytest.approx(expected)


def test_selectivity_unknown_field():
    c = make_collection([1], [2])
    with pytest.raises(UnknownFieldError):
        selectivity(c, RangePredicate("Q", 0, 1))


# --- save / load ---------------------------------------------------------

def test_round_trip_identity(tmp_path):
    c = generate_dataset(100, "uniform-distinct", seed=21)
    path = tmp_path / "data.csv"
    save_dataset(c, path)
    loaded = load_dataset(path)
    assert loaded.field_list == c.field_list
    assert len(loaded) == len(c)
    assert loaded.columns == c.columns


def test_file_format_is_stable(tmp_path):
    c = make_collection([3, 1], [7, 9])
    path = tmp_path / "data.csv"
    save_dataset(c, path)
    assert path.read_text() == "record_id,A,B\n0,3,7\n1,1,9\n"


def test_load_rejects_non_integer(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("record_id,A,B\n0,1,2\n1,x,3\n")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert err.value.line_no == 3


@pytest.mark.parametrize("rows,line_no", [
    ("0,1_000,\u0661\n", 2),
    ("0,1,2\n1, 7 ,+3\n", 3),
    ("0,1,2\n1,7,+3\n", 3),
    ("0,1,2\n1,7,\u0663\n", 3),
])
def test_load_rejects_integers_int_would_read(tmp_path, rows, line_no):
    path = tmp_path / "bad.csv"
    path.write_text("record_id,A,B\n" + rows, encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="non-integer value") as err:
        load_dataset(path)
    assert err.value.line_no == line_no


def test_load_accepts_crlf_zero_padding_and_minus(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(b"record_id,A,B\r\n0,05,-3\r\n01,-0,7\r\n")
    expected = {"A": array("q", [5, 0]), "B": array("q", [-3, 7])}
    assert load_dataset(path).columns == expected
    # without the padded record id the block is in save_dataset's form
    path.write_bytes(b"record_id,A,B\r\n0,05,-3\r\n1,-0,7\r\n")
    monkeypatch.setattr(engine, "_parse_lines", None)
    assert load_dataset(path).columns == expected


def test_load_rejects_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("record_id,A,B\n0,1\n")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert err.value.line_no == 2


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,A,B\n0,1,2\n")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert err.value.line_no == 1


def test_load_rejects_duplicate_field(tmp_path):
    # one column per field name: a repeated name would silently drop a column
    path = tmp_path / "bad.csv"
    path.write_text("record_id,A,A\n0,1,2\n")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert err.value.line_no == 1


def reference_load(path):
    """Field columns of a dataset file, read whole and checked line by line.

    Every value must be ASCII digits with an optional leading `-`, and every
    field value in the int64 range.
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DatasetFormatError(path, 1, "empty file")
    header = lines[0].split(",")
    if header[:1] != ["record_id"] or len(header) < 2:
        raise DatasetFormatError(path, 1, f"bad header {lines[0]!r} (expected record_id,<fields>)")
    if len(set(header)) != len(header):
        raise DatasetFormatError(path, 1, f"duplicate field name in header {lines[0]!r}")
    width = len(header)
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise DatasetFormatError(
                path, line_no, f"expected {width} columns, found {len(parts)}")
        if not all(part.isascii() and part.removeprefix("-").isdigit() for part in parts):
            raise DatasetFormatError(path, line_no, f"non-integer value in {line!r}")
        values = [int(part) for part in parts]
        if values[0] != line_no - 2:
            raise DatasetFormatError(
                path, line_no, f"record_id {values[0]} out of order (expected {line_no - 2})")
        for value in values[1:]:
            if not -2**63 <= value < 2**63:
                raise DatasetFormatError(path, line_no, f"value {value} outside the int64 range "
                                                        f"[{-2**63}, {2**63 - 1}]")
        rows.append(values[1:])
    if not rows:
        raise DatasetFormatError(path, 1, "no documents")
    return {f: array("q", [row[k] for row in rows]) for k, f in enumerate(header[1:])}


def load_outcome(loader, path):
    try:
        return "columns", loader(path)
    except DatasetFormatError as exc:
        return "error", exc.line_no, str(exc)


@pytest.fixture(scope="module")
def dataset_texts(tmp_path_factory):
    """save_dataset's text per distribution, and the line numbers to edit.

    The lines are one inside the first block that load_dataset reads, the
    first line of its second block, and the last line.
    """
    path = tmp_path_factory.mktemp("texts") / "data.csv"
    texts = {}
    for dist in DISTRIBUTIONS:
        save_dataset(generate_dataset(12_000, dist, seed=4), path)
        texts[dist] = path.read_text(encoding="utf-8")
    path.write_text(texts["uniform-distinct"], encoding="utf-8")  # the file edited below
    with path.open(encoding="utf-8") as file:
        file.readline()
        second_block = 2 + len(file.readlines(engine.LOAD_BLOCK_CHARS))
    assert 100 < second_block < 12_000  # at least three blocks
    return texts, {"first-block": 5, "later-block": second_block, "last-line": 12_001}


def edit_line(text, line_no, edit):
    lines = text.split("\n")
    lines[line_no - 1] = edit(lines[line_no - 1])
    return "\n".join(lines)


def with_rid(new_rid):
    return lambda line: new_rid(line.split(",", 1)[0]) + line[line.index(","):]


def with_field(new_a):
    def edit(line):
        rid, a, rest = line.split(",", 2)
        return ",".join([rid, new_a(a), rest])
    return edit


# record ids written other than as str(row): True if the file stays valid
RID_EDITS = {
    "rid-plus": (with_rid(lambda rid: "+" + rid), False),
    "rid-zero-padded": (with_rid(lambda rid: "0" + rid), True),
    "rid-space": (with_rid(lambda rid: " " + rid), False),
}
FAULTS = {
    "extra-column": lambda line: line + ",1",
    "missing-column": lambda line: line[:line.rindex(",")],
    "non-integer": lambda line: line.replace(",", ",x", 1),
    "rid-out-of-order": with_rid(lambda rid: str(int(rid) + 1)),
    "blank-line": lambda line: "\n" + line,
    # forms int() reads that a dataset file may not hold, in field A
    "underscore": with_field(lambda a: "1_" + a),
    "spaces": with_field(lambda a: " " + a + " "),
    "tab": with_field(lambda a: "\t" + a),
    "plus": with_field(lambda a: "+" + a),
    "arabic-indic-digit": with_field(lambda a: a + "\u0661"),
    # forms int() rejects as well
    "minus-alone": with_field(lambda a: "-"),
    "minus-inside": with_field(lambda a: a + "-1"),
    # integers outside the int64 range
    "above-int64": with_field(lambda a: str(2**63)),
    "below-int64": with_field(lambda a: str(-2**63 - 1)),
}


def assert_loads_like_reference(path, text):
    path.write_bytes(text.encode("utf-8"))
    outcome = load_outcome(lambda p: load_dataset(p).columns, path)
    assert outcome == load_outcome(reference_load, path)
    return outcome


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_load_matches_reference_on_saved_files(tmp_path, dataset_texts, dist):
    texts, _ = dataset_texts
    path = tmp_path / "data.csv"
    for text in (texts[dist], texts[dist].replace("\n", "\r\n"), texts[dist][:-1]):
        assert assert_loads_like_reference(path, text)[0] == "columns"


WHERE = ["first-block", "later-block", "last-line"]


@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("edit", sorted(RID_EDITS))
def test_load_matches_reference_on_other_valid_rids(tmp_path, dataset_texts, edit, where):
    # `05` is still a valid record id; `+5` and ` 5` are no longer integers
    # of the file format
    texts, line_nos = dataset_texts
    line_no = line_nos[where]
    change, valid = RID_EDITS[edit]
    text = edit_line(texts["uniform-distinct"], line_no, change)
    outcome = assert_loads_like_reference(tmp_path / "data.csv", text)
    if valid:
        assert outcome[0] == "columns"
    else:
        assert outcome[:2] == ("error", line_no)


@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_load_matches_reference_on_faults(tmp_path, dataset_texts, fault, where):
    texts, line_nos = dataset_texts
    line_no = line_nos[where]
    for text in (texts["uniform-distinct"], texts["uniform-distinct"][:-1]):
        faulty = edit_line(text, line_no, FAULTS[fault])
        outcome = assert_loads_like_reference(tmp_path / "data.csv", faulty)
        assert outcome[:2] == ("error", line_no)


@pytest.mark.parametrize("where", WHERE)
def test_load_matches_reference_on_a_field_moved_to_the_next_line(tmp_path, dataset_texts,
                                                                  where):
    # both lines have a wrong column count, yet every value keeps its place
    # in the file's sequence of values
    texts, line_nos = dataset_texts
    line_no = line_nos[where]
    lines = texts["uniform-distinct"].split("\n")
    head, moved = lines[line_no - 2].rsplit(",", 1)
    lines[line_no - 2:line_no] = [head, moved + "," + lines[line_no - 1]]
    outcome = assert_loads_like_reference(tmp_path / "data.csv", "\n".join(lines))
    assert outcome[:2] == ("error", line_no - 1)


@pytest.mark.parametrize("text", ["", "\n", "record_id,A,B\n", "record_id,A,B"])
def test_load_matches_reference_without_rows(tmp_path, text):
    assert assert_loads_like_reference(tmp_path / "data.csv", text)[0] == "error"


def test_load_checks_saved_files_block_by_block(tmp_path, monkeypatch):
    # blocks in save_dataset's own form never need the line-by-line check
    path = tmp_path / "data.csv"
    save_dataset(generate_dataset(12_000, "zipfian", seed=4), path)

    def refuse(*args):
        raise AssertionError("a block went to the line-by-line check")

    monkeypatch.setattr(engine, "_parse_lines", refuse)
    assert load_dataset(path).columns == reference_load(path)


@pytest.mark.parametrize("value,valid", [
    (str(2**63 - 1), True),
    (str(-2**63), True),
    (str(2**63), False),
    (str(-2**63 - 1), False),
])
@pytest.mark.parametrize("rid", ["1", "01"], ids=["in-form", "line-by-line"])
def test_load_takes_values_in_the_int64_range(tmp_path, monkeypatch, value, valid, rid):
    # a zero-padded record id sends its block to the line-by-line check
    path = tmp_path / "data.csv"
    path.write_text(f"record_id,A,B\n0,1,2\n{rid},{value},3\n")
    if not valid:
        with pytest.raises(DatasetFormatError, match="outside the int64 range") as err:
            load_dataset(path)
        assert err.value.line_no == 3
        return
    if rid == "1":
        monkeypatch.setattr(engine, "_parse_lines", None)
    assert load_dataset(path).columns == {"A": array("q", [1, int(value)]),
                                          "B": array("q", [2, 3])}


def test_block_columns_leave_values_outside_int64_to_the_line_check():
    assert engine._block_columns([f"0,{2**63 - 1},{-2**63}"], 0, 3) == [
        array("q", [2**63 - 1]), array("q", [-2**63])]
    for value in (2**63, -2**63 - 1):
        assert engine._block_columns(["0,1\n", f"1,{value}"], 0, 2) is None


@pytest.mark.parametrize("value", [2**63, -2**63 - 1])
def test_collection_rejects_values_outside_int64(value):
    with pytest.raises(PlanraceError, match="field 'B' holds a value outside the int64 range"):
        make_collection([0, 1], [value, 0])


# --- storage footprint ---------------------------------------------------

def is_int64_array(values):
    return isinstance(values, array) and values.typecode == "q"


def saved_and_loaded(tmp_path, collection):
    save_dataset(collection, tmp_path / "data.csv")
    return load_dataset(tmp_path / "data.csv")


COLLECTIONS = {
    "hand-built": lambda tmp_path: make_collection(range(5), [4, 4, 0, 1, 1]),
    "generated": lambda tmp_path: generate_dataset(300, "uniform-with-repeats", seed=2),
    "loaded": lambda tmp_path: saved_and_loaded(
        tmp_path, generate_dataset(300, "zipfian", seed=2)),
}


@pytest.mark.parametrize("source", sorted(COLLECTIONS))
def test_columns_sorted_values_and_index_orders_are_int64_arrays(tmp_path, source):
    c = COLLECTIONS[source](tmp_path)
    assert all(map(is_int64_array, c.columns.values()))
    catalog = get_scenario("covering").build_catalog(c)
    for ix in catalog.indexes:
        lead = ix.key_fields[0]
        # the leading values are the field's one sorted copy
        assert ix.key_values is c.sorted_values(lead)
        assert is_int64_array(ix.key_values) and is_int64_array(ix.rids)


def test_storage_retains_under_64_bytes_per_document(tmp_path):
    # columns and sorted copies take 8 bytes per value; with lists of int
    # objects the same steps retained about 148 bytes per document
    n = 20_000
    path = tmp_path / "data.csv"
    save_dataset(generate_dataset(n, "uniform-distinct", seed=3), path)
    scenario = get_scenario("covering")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        c = load_dataset(path)
        catalog = scenario.build_catalog(c)
        query = scenario.make_query(RangePredicate("A", 0, n // 3), RangePredicate("B", 0, n // 2))
        optimize(query, c, catalog, OptimizerVariant.MOD)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / n < 64


# --- query shape ---------------------------------------------------------

def test_shape_elides_constants():
    q1 = Query((RangePredicate("A", 0, 10), RangePredicate("B", 5, 6)))
    q2 = Query((RangePredicate("A", 900, 901), RangePredicate("B", 0, 99999)))
    assert query_shape(q1) == query_shape(q2)


def test_shape_reflects_projection():
    preds = (RangePredicate("A", 0, 10), RangePredicate("B", 5, 6))
    bare = Query(preds)
    projected = Query(preds, projection=Projection(("A", "B")))
    assert query_shape(bare) != query_shape(projected)


def test_shape_ignores_predicate_order():
    ab = Query((RangePredicate("A", 0, 10), RangePredicate("B", 5, 6)), Projection(("A", "B")))
    ba = Query((RangePredicate("B", 1, 2), RangePredicate("A", 3, 4)), Projection(("B", "A")))
    assert query_shape(ab) == query_shape(ba)
    assert hash(query_shape(ab)) == hash(query_shape(ba))
    assert query_shape(Query(ab.predicates)) == query_shape(Query(ba.predicates))


def test_query_rejects_duplicate_fields():
    with pytest.raises(ValueError):
        Query((RangePredicate("A", 0, 1), RangePredicate("A", 2, 3)))


def test_range_predicate_rejects_inverted():
    with pytest.raises(ValueError):
        RangePredicate("A", 5, 4)
