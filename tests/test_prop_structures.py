"""Property-based tests: core data structures vs reference models."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sortedrun import subtract_spans
from repro.engine.btree import BPlusTree
from repro.engine.page import SlottedPage
from repro.engine.record import Schema
from repro.errors import DeviceBoundsError, OutOfSpaceError, StorageError
from repro.storage.device import _BACKING_BLOCK, BlockStore
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.util.units import KB, MB

# ---------------------------------------------------------------- B+-tree
btree_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "search"]),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=5),
    ),
    max_size=200,
)


@given(ops=btree_ops, order=st.integers(min_value=4, max_value=16))
@settings(max_examples=60, deadline=None)
def test_btree_matches_multimap_model(ops, order):
    tree = BPlusTree(order=order)
    model: dict[int, list[int]] = {}
    for op, key, value in ops:
        if op == "insert":
            tree.insert(key, value)
            model.setdefault(key, []).append(value)
        elif op == "delete":
            expected = bool(model.get(key)) and value in model.get(key, [])
            assert tree.delete(key, value) == expected
            if expected:
                model[key].remove(value)
        else:
            assert tree.search(key) == model.get(key, [])
    tree.check_invariants()
    expected_items = [
        (k, v) for k in sorted(model) for v in model[k] if model[k]
    ]
    assert list(tree.items()) == expected_items


@given(
    lo=st.integers(min_value=0, max_value=50),
    span=st.integers(min_value=0, max_value=50),
    keys=st.lists(st.integers(min_value=0, max_value=60), max_size=80),
)
@settings(max_examples=60, deadline=None)
def test_btree_range_matches_filter(lo, span, keys):
    tree = BPlusTree(order=6)
    for i, key in enumerate(keys):
        tree.insert(key, i)
    hi = lo + span
    got = [(k, v) for k, v in tree.range(lo, hi)]
    expected = sorted(
        ((k, i) for i, k in enumerate(keys) if lo <= k <= hi),
        key=lambda kv: (kv[0], keys.index(kv[0]) if False else 0),
    )
    # Order within a key is insertion order; compare as multisets per key.
    assert sorted(got) == sorted(expected)
    assert [k for k, _ in got] == sorted(k for k, _ in got)


# ----------------------------------------------------------- slotted pages
page_records = st.lists(st.binary(min_size=1, max_size=120), max_size=20)


@given(records=page_records)
@settings(max_examples=60, deadline=None)
def test_page_roundtrip_arbitrary_records(records):
    page = SlottedPage(page_size=4096)
    stored = []
    for data in records:
        if not page.fits(len(data)):
            continue
        stored.append((page.insert(data), data))
    clone = SlottedPage.from_bytes(page.to_bytes())
    for slot, data in stored:
        assert clone.get(slot) == data


@given(
    records=page_records,
    deletes=st.sets(st.integers(min_value=0, max_value=19)),
)
@settings(max_examples=60, deadline=None)
def test_page_delete_compact_preserves_survivors(records, deletes):
    page = SlottedPage(page_size=4096)
    slots = {}
    for data in records:
        if page.fits(len(data)):
            slots[page.insert(data)] = data
    for slot in list(deletes):
        if slot in slots:
            page.delete(slot)
            del slots[slot]
    page.compact()
    survivors = dict(page.records())
    assert survivors == slots


# ------------------------------------------------------------- schema pack
field_values = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(alphabet=string.ascii_letters + string.digits, max_size=12),
)


@given(values=field_values)
@settings(max_examples=100, deadline=None)
def test_schema_pack_unpack_roundtrip(values):
    schema = Schema([("a", "u32"), ("b", "i64"), ("c", "f64"), ("d", "s12")])
    assert schema.unpack(schema.pack(values)) == values


# ------------------------------------------------------- extent allocation
alloc_ops = st.lists(
    st.tuples(
        st.sampled_from(["create", "delete"]),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=1, max_value=64),
    ),
    max_size=60,
)


@given(ops=alloc_ops)
@settings(max_examples=60, deadline=None)
def test_allocator_never_overlaps_and_conserves_space(ops):
    capacity = 256 * KB
    volume = StorageVolume(SimulatedDisk(capacity=capacity))
    live: dict[str, tuple[int, int]] = {}
    for op, name_id, size_kb in ops:
        name = f"f{name_id}"
        if op == "create" and name not in live:
            try:
                handle = volume.create(name, size_kb * KB)
            except OutOfSpaceError:
                continue
            live[name] = (handle.offset, handle.size)
        elif op == "delete" and name in live:
            volume.delete(name)
            del live[name]
        # Invariant: live extents never overlap.
        spans = sorted(live.values())
        for (o1, s1), (o2, _s2) in zip(spans, spans[1:]):
            assert o1 + s1 <= o2
        # Invariant: used + free == capacity.
        used = sum(s for _, s in live.values())
        assert volume.free_bytes == capacity - used


# ------------------------------------------------------------- BlockStore
_STORE_BLOCKS = 4
_STORE_CAPACITY = _STORE_BLOCKS * _BACKING_BLOCK
#: Offsets worth landing on: backing-block edges and their neighbours.
_EDGES = [
    edge + delta
    for edge in range(0, _STORE_CAPACITY + 1, _BACKING_BLOCK)
    for delta in (-3, -1, 0, 1, 3)
    if 0 <= edge + delta <= _STORE_CAPACITY
]


@st.composite
def _store_span(draw):
    """An in-range ``(offset, size)``: often starting or ending on (or next
    to) a backing-block edge, sometimes empty, sometimes spanning blocks."""
    if draw(st.booleans()):
        start = draw(st.sampled_from(_EDGES))
    else:
        start = draw(st.integers(0, _STORE_CAPACITY))
    room = _STORE_CAPACITY - start
    size = draw(
        st.one_of(
            st.just(0),
            st.integers(0, min(room, 64)),
            st.integers(0, room),
            # end exactly on the next backing-block edge
            st.just(min(room, _BACKING_BLOCK - start % _BACKING_BLOCK)),
        )
    )
    return start, size


_store_ops = st.lists(
    st.tuples(st.sampled_from(["write", "read"]), _store_span(), st.integers(0, 255)),
    min_size=1,
    max_size=25,
)


@given(ops=_store_ops)
@settings(max_examples=80, deadline=None)
def test_blockstore_matches_bytearray_model(ops):
    """BlockStore reads back what a flat zero-initialised bytearray holds,
    for accesses inside one backing block, across edges, ending exactly on
    one, touching never-written space, and of zero length — and a read's
    bytes are a copy: a later write does not change them."""
    store = BlockStore(_STORE_CAPACITY)
    model = bytearray(_STORE_CAPACITY)
    reads = []
    for op, (offset, size), fill in ops:
        if op == "write":
            pattern = bytes(range(fill, 256)) + bytes(range(fill))
            data = (pattern * (size // 256 + 1))[:size]
            store.write(offset, data)
            model[offset : offset + size] = data
        else:
            got = store.read(offset, size)
            assert isinstance(got, bytes)
            assert got == bytes(model[offset : offset + size])
            reads.append((got, bytes(got)))
    assert store.read(0, _STORE_CAPACITY) == bytes(model)
    store.write(0, b"\xa5" * _STORE_CAPACITY)  # overwrite everything
    for got, copy in reads:
        assert got == copy
    assert store.resident_bytes == _STORE_CAPACITY


@given(span=_store_span(), overshoot=st.integers(1, 3 * _BACKING_BLOCK))
@settings(max_examples=40, deadline=None)
def test_blockstore_rejects_out_of_range_before_writing(span, overshoot):
    offset, _ = span
    store = BlockStore(_STORE_CAPACITY)
    size = _STORE_CAPACITY - offset + overshoot
    with pytest.raises(DeviceBoundsError):
        store.write(offset, b"\x01" * size)
    assert store.resident_bytes == 0
    assert store.read(0, _STORE_CAPACITY) == bytes(_STORE_CAPACITY)


@given(
    lo=st.integers(0, 60),
    hi=st.integers(-5, 60),
    holes=st.lists(
        st.tuples(st.integers(-5, 70), st.integers(0, 20)).map(
            lambda hole: (hole[0], hole[0] + hole[1])
        ),
        max_size=6,
    ),
)
@settings(max_examples=300, deadline=None)
def test_subtract_spans_is_a_set_difference(lo, hi, holes):
    """The spans are exactly [lo, hi] minus every hole, maximal, disjoint
    and in order — none for an empty range."""
    spans = subtract_spans(lo, hi, holes)
    missing = set(range(lo, hi + 1)).difference(
        *(range(h_lo, h_hi + 1) for h_lo, h_hi in holes)
    )
    assert [k for s_lo, s_hi in spans for k in range(s_lo, s_hi + 1)] == sorted(missing)
    assert all(s_lo <= s_hi for s_lo, s_hi in spans)
    assert all(a[1] + 1 < b[0] for a, b in zip(spans, spans[1:]))
