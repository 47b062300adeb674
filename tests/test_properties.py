"""Property-based tests (hypothesis) on core data structures and
invariants."""

import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.generator import CaseGenerator
from repro.core.mut import MuT
from repro.core.types import TypeRegistry
from repro.service.xdr import XdrDecoder, XdrEncoder
from repro.sim.errors import AccessViolation
from repro.sim.filesystem import (
    DirectoryNode,
    FileNode,
    FileSystem,
    FileSystemError,
)
from repro.sim.machine import Machine
from repro.sim.memory import AddressSpace
from repro.sim.personality import Personality

# ----------------------------------------------------------------------
# XDR
# ----------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=0xFFFF_FFFF))
def test_xdr_u32_roundtrip(value):
    assert XdrDecoder(XdrEncoder().u32(value).bytes()).u32() == value


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_xdr_i32_roundtrip(value):
    assert XdrDecoder(XdrEncoder().i32(value).bytes()).i32() == value


@given(st.binary(max_size=200))
def test_xdr_opaque_roundtrip_and_alignment(blob):
    data = XdrEncoder().opaque(blob).bytes()
    assert len(data) % 4 == 0
    decoder = XdrDecoder(data)
    assert decoder.opaque() == blob
    decoder.done()


@given(st.lists(st.text(max_size=40), max_size=12))
def test_xdr_string_array_roundtrip(items):
    data = XdrEncoder().string_array(items).bytes()
    assert XdrDecoder(data).string_array() == items


@given(
    st.integers(min_value=0, max_value=0xFFFF_FFFF),
    st.binary(max_size=64),
    st.text(max_size=32),
)
def test_xdr_mixed_sequence_roundtrip(number, blob, text):
    data = XdrEncoder().u32(number).opaque(blob).string(text).bytes()
    decoder = XdrDecoder(data)
    assert decoder.u32() == number
    assert decoder.opaque() == blob
    assert decoder.string() == text
    decoder.done()


# ----------------------------------------------------------------------
# Virtual memory
# ----------------------------------------------------------------------


@given(st.binary(min_size=1, max_size=512), st.integers(min_value=0, max_value=64))
def test_memory_write_read_roundtrip(data, offset):
    mem = AddressSpace()
    region = mem.map(len(data) + offset)
    mem.write(region.start + offset, data)
    assert mem.read(region.start + offset, len(data)) == data


@given(st.binary(max_size=128))
def test_cstring_scan_modes_agree_on_rounded_allocations(payload):
    payload = payload.replace(b"\x00", b"x")
    mem = AddressSpace()
    addr = mem.alloc_cstring(payload)  # word-rounded
    bytewise = mem.read_cstring(addr)
    wordwise = mem.read_cstring(addr, word_at_a_time=True)
    assert bytewise == wordwise == payload


@given(st.integers(min_value=1, max_value=256), st.integers(min_value=1, max_value=8))
def test_reads_never_cross_region_end(size, overshoot):
    mem = AddressSpace()
    region = mem.map(size)
    try:
        mem.read(region.start, size + overshoot)
        crossed = True
    except AccessViolation:
        crossed = False
    assert not crossed


@given(st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=20))
def test_mappings_never_overlap(sizes):
    mem = AddressSpace()
    regions = [mem.map(size) for size in sizes]
    spans = sorted((r.start, r.end) for r in regions)
    for (_, first_end), (second_start, _) in zip(spans, spans[1:]):
        assert first_end <= second_start


# ----------------------------------------------------------------------
# Generator determinism
# ----------------------------------------------------------------------

_names = st.text(alphabet=string.ascii_letters, min_size=1, max_size=16)


@settings(max_examples=25, deadline=None)
@given(
    name=_names,
    pool_sizes=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4),
    cap=st.integers(min_value=1, max_value=64),
)
def test_generator_deterministic_and_unique(name, pool_sizes, cap):
    types = TypeRegistry()
    params = []
    for position, pool_size in enumerate(pool_sizes):
        t = types.new_type(f"t{position}")
        for index in range(pool_size):
            t.add(f"V{position}_{index}", lambda ctx: index)
        params.append(t.name)
    mut = MuT(name, "libc", "C string", tuple(params), lambda ctx, args: 0)
    gen = CaseGenerator(types, cap=cap)
    first = [c.value_names for c in gen.cases(mut)]
    second = [c.value_names for c in gen.cases(mut)]
    assert first == second
    assert len(set(first)) == len(first)  # no duplicate cases
    total = 1
    for pool_size in pool_sizes:
        total *= pool_size
    assert len(first) == min(total, cap)


# ----------------------------------------------------------------------
# Filesystem path normalisation
# ----------------------------------------------------------------------

_path_pieces = st.lists(
    st.sampled_from(["a", "b", "c", ".", "..", "dir1", ""]), max_size=8
)


@given(_path_pieces)
def test_split_is_idempotent(pieces):
    fs = FileSystem()
    path = "/" + "/".join(pieces)
    once = fs.split(path)
    twice = fs.split("/" + "/".join(once))
    assert once == twice
    assert all(piece not in (".", "..", "") for piece in once)


@given(st.text(alphabet="abcXYZ", min_size=1, max_size=10))
def test_case_insensitive_fs_finds_any_casing(name):
    fs = FileSystem(case_insensitive=True)
    fs.create_file(f"/{name}", b"x")
    assert fs.lookup(f"/{name.upper()}") is not None
    assert fs.lookup(f"/{name.lower()}") is not None


# ----------------------------------------------------------------------
# Case-fold directory index
# ----------------------------------------------------------------------


def reference_key(directory, name, case_insensitive):
    """The linear first-match scan the maintained index replaced: the
    exact name wins, then the first key in insertion order that folds
    to the same string."""
    if name in directory.entries:
        return name
    if case_insensitive:
        lowered = name.lower()
        for key in directory.entries:
            if key.lower() == lowered:
                return key
    return None


def rebuilt_index(directory):
    index = {}
    for key in directory.entries:
        index.setdefault(key.lower(), []).append(key)
    return index


def directories(node):
    yield node
    for child in node.entries.values():
        if isinstance(child, DirectoryNode):
            yield from directories(child)


#: Names the operations use: case collisions within a two-name alphabet.
_FOLD_NAMES = ["a", "A", "ab", "AB"]
#: Names the checks look up: every casing, so ``aB`` and ``Ab`` always
#: take the case-fold path.
_LOOKUP_NAMES = ["a", "A", "ab", "AB", "aB", "Ab"]
_fold_paths = st.one_of(
    st.sampled_from(["/tmp/" + name for name in _FOLD_NAMES]),
    st.sampled_from(["/tmp/a/" + name for name in _FOLD_NAMES]),
)
_fs_ops = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "create",
                "create",
                "unlink",
                "mkdir",
                "rmdir",
                "remove",
                "rename",
                "rename",
                "link",
                "link",
                "clone",
                "wear",
            ]
        ),
        _fold_paths,
        _fold_paths,
    ),
    max_size=30,
)


def _apply_fs_op(machine, op, case_insensitive, snapshots):
    kind, path, target = op
    if kind == "clone":
        snapshots.append(machine.fs)  # must stay intact from here on
        machine.fs = machine.fs.clone()
        return
    if kind == "wear":
        image = machine._fs_wear()
        machine._restore_fs(image)
        assert machine._fs_wear() == image
        return
    fs = machine.fs
    try:
        parent, name = fs._parent_of(target if kind == "link" else path)
    except FileSystemError:
        return
    expected = reference_key(parent, name, case_insensitive)
    before = list(parent.entries)
    try:
        if kind == "create":
            fs.create_file(path, b"x")
        elif kind == "mkdir":
            fs.mkdir(path)
        elif kind == "rename":
            fs.rename(path, target)
        elif kind == "link":
            node = fs.lookup(path)
            if isinstance(node, FileNode):
                parent.link(name, node)  # a raw hard link
        elif kind == "remove":
            try:
                parent.remove(name, case_insensitive)
            except KeyError:
                assert expected is None
            else:
                assert list(parent.entries) == [
                    key for key in before if key != expected
                ]
        else:
            getattr(fs, kind)(path)  # unlink / rmdir
            assert list(parent.entries) == [
                key for key in before if key != expected
            ]
    except FileSystemError:
        assert list(parent.entries) == before


#: Three names in one fold group ("ab"), built through a raw hard link
#: and a rename onto a differently cased name, then carried through
#: clone and wear and taken apart again.
_FOLD_COLLISIONS = [
    ("create", "/tmp/ab", "/tmp/ab"),
    ("link", "/tmp/ab", "/tmp/AB"),
    ("create", "/tmp/a", "/tmp/a"),
    ("rename", "/tmp/a", "/tmp/Ab"),
    ("clone", "/tmp/a", "/tmp/a"),
    ("wear", "/tmp/a", "/tmp/a"),
    ("remove", "/tmp/aB", "/tmp/aB"),
    ("link", "/tmp/AB", "/tmp/AB"),
    ("unlink", "/tmp/aB", "/tmp/aB"),
    ("clone", "/tmp/a", "/tmp/a"),
    ("rename", "/tmp/Ab", "/tmp/ab"),
]


@settings(max_examples=200, deadline=None)
@given(st.booleans(), _fs_ops)
@example(True, _FOLD_COLLISIONS)
@example(False, _FOLD_COLLISIONS)
def test_case_fold_index_matches_linear_scan(case_insensitive, ops):
    machine = Machine(
        Personality(
            key="testos",
            name="Test OS",
            api="win32",
            family="nt",
            crt_flavor="msvcrt",
            case_insensitive_fs=case_insensitive,
        )
    )
    snapshots = []
    for op in ops:
        _apply_fs_op(machine, op, case_insensitive, snapshots)
        for fs in [machine.fs, *snapshots]:
            for directory in directories(fs.root):
                assert directory._lower == rebuilt_index(directory)
                for name in _LOOKUP_NAMES:
                    key = reference_key(directory, name, case_insensitive)
                    found = directory.lookup(name, case_insensitive)
                    if key is None:
                        assert found is None
                    else:
                        assert found is directory.entries[key]


# ----------------------------------------------------------------------
# CRT invariants
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    payload=st.binary(max_size=24).map(lambda b: b.replace(b"\x00", b"a")),
    n=st.integers(min_value=0, max_value=48),
)
def test_strncpy_matches_iso_semantics(payload, n):
    from repro.core.context import TestContext
    from repro.posix.linux import LINUX
    from repro.sim.machine import Machine

    machine = Machine(LINUX)
    ctx = TestContext(machine, machine.spawn_process())
    src = ctx.cstring(payload)
    dest = ctx.buffer(64, b"\xff" * 64)
    ctx.crt.strncpy(dest, src, n)
    expected = payload[:n] + b"\x00" * max(0, n - len(payload))
    assert ctx.mem.read(dest, n) == expected
    # Bytes past n are untouched.
    if n < 64:
        assert ctx.mem.read(dest + n, 1) == b"\xff"


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-300, max_value=400))
def test_ctype_flavours_agree_inside_common_domain(c):
    from repro.core.context import TestContext
    from repro.posix.linux import LINUX
    from repro.sim.machine import Machine
    from repro.win32.variants import WINNT

    glibc_machine = Machine(LINUX)
    glibc = TestContext(glibc_machine, glibc_machine.spawn_process()).crt
    nt_machine = Machine(WINNT)
    msvcrt = TestContext(nt_machine, nt_machine.spawn_process()).crt
    if -1 <= c <= 255:
        assert glibc.isalpha(c) == msvcrt.isalpha(c)
        assert glibc.isdigit(c) == msvcrt.isdigit(c)
    else:
        # msvcrt is total; glibc may fault -- but must never crash the
        # machine (user-mode fault only).
        msvcrt.isalpha(c)
        try:
            glibc.isalpha(c)
        except AccessViolation:
            pass
        assert not glibc_machine.crashed


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_civil_time_matches_datetime(seconds):
    import datetime

    from repro.libc.time_funcs import _civil_from_unix

    expected = datetime.datetime.fromtimestamp(seconds, tz=datetime.timezone.utc)
    year, mon, day, hour, minute, sec, wday, yday = _civil_from_unix(seconds)
    assert (year, mon + 1, day, hour, minute, sec) == (
        expected.year,
        expected.month,
        expected.day,
        expected.hour,
        expected.minute,
        expected.second,
    )
    assert wday == (expected.weekday() + 1) % 7
    assert yday == expected.timetuple().tm_yday - 1
