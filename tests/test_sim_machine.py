"""Unit tests for machines, processes, objects, clock, and guarded access."""

import json

import pytest

from repro.sim.clock import SimClock
from repro.sim.errors import (
    AccessViolation,
    MachineCrashed,
    SystemCrash,
    TaskHang,
)
from repro.sim.guarded import (
    crt_read,
    crt_write,
    kernel_copy_from_user,
    kernel_copy_to_user,
)
from repro.sim.machine import Machine
from repro.sim.objects import (
    CURRENT_THREAD_HANDLE,
    EventObject,
    FileObject,
    HandleTable,
    ThreadObject,
)
from repro.sim.personality import CORRUPT, PROBE, RAW, Personality


def personality(**overrides) -> Personality:
    base = dict(
        key="testos",
        name="Test OS",
        api="win32",
        family="nt",
        crt_flavor="msvcrt",
    )
    base.update(overrides)
    return Personality(**base)


class TestMachineLifecycle:
    def test_boot_creates_tmp(self):
        machine = Machine(personality())
        assert machine.fs.lookup("/tmp") is not None

    def test_panic_marks_crashed_and_raises(self):
        machine = Machine(personality())
        with pytest.raises(SystemCrash):
            machine.panic("boom", "SomeCall")
        assert machine.crashed
        assert machine.crash_function == "SomeCall"

    def test_operations_after_crash_fail(self):
        machine = Machine(personality())
        with pytest.raises(SystemCrash):
            machine.panic("boom")
        with pytest.raises(MachineCrashed):
            machine.spawn_process()

    def test_reboot_restores_service(self):
        machine = Machine(personality())
        with pytest.raises(SystemCrash):
            machine.panic("boom")
        machine.reboot()
        assert not machine.crashed
        assert machine.reboot_count == 1
        machine.spawn_process()

    def test_reboot_resets_filesystem(self):
        machine = Machine(personality())
        machine.fs.create_file("/tmp/junk")
        with pytest.raises(SystemCrash):
            machine.panic("boom")
        machine.reboot()
        assert machine.fs.lookup("/tmp/junk") is None

    def test_corruption_below_tolerance_absorbed(self):
        machine = Machine(personality(corruption_tolerance=3))
        machine.note_corruption("fwrite")
        machine.note_corruption("fwrite")
        machine.note_corruption("fwrite")
        assert not machine.crashed
        assert machine.corruption_level == 3

    def test_corruption_over_tolerance_crashes(self):
        machine = Machine(personality(corruption_tolerance=3))
        for _ in range(3):
            machine.note_corruption("fwrite")
        with pytest.raises(SystemCrash, match="accumulated corruption"):
            machine.note_corruption("strncpy")
        assert machine.crash_function == "strncpy"

    def test_reboot_clears_corruption(self):
        machine = Machine(personality(corruption_tolerance=1))
        machine.note_corruption("x")
        with pytest.raises(SystemCrash):
            machine.note_corruption("x")
        machine.reboot()
        assert machine.corruption_level == 0

    def test_shared_region_only_with_shared_memory(self):
        assert Machine(personality()).shared_region is None
        shared = Machine(personality(shared_system_memory=True))
        assert shared.shared_region is not None


class TestWearState:
    """Machine wear must capture *everything* a later MuT's outcome can
    depend on -- including the filesystem tree and shared-arena bytes,
    not just the corruption/clock/pid counters."""

    P = dict(shared_system_memory=True, case_insensitive_fs=True)

    def _worn_machine(self) -> Machine:
        machine = Machine(personality(**self.P))
        fs = machine.fs
        fs.mkdir("/tmp/deep")
        node = fs.create_file("/tmp/deep/a.dat", b"payload")
        node.read_only = True
        node.hidden = True
        node.mode = 0o600
        parent, name = fs._parent_of("/tmp/deep/b.dat")
        parent.link(name, node)  # hard link: two names, one node
        node.nlink = 2
        sym = fs.create_file("/tmp/sym", b"")
        sym.symlink_target = "/tmp/deep/a.dat"
        fs.create_file("/tmp/doomed", b"x")
        fs.unlink("/tmp/doomed")
        machine.shared_region.data[7] = 0xAB
        machine.clock.ticks = 1234
        machine._corruption = 2
        machine._next_pid = 777
        return machine

    def test_wear_round_trips_through_json(self):
        worn = self._worn_machine()
        wear = json.loads(json.dumps(worn.wear_state()))

        fresh = Machine(personality(**self.P))
        fresh.restore_wear(wear)
        assert fresh.wear_state() == wear

        restored = fresh.fs.lookup("/tmp/deep/a.dat")
        assert bytes(restored.data) == b"payload"
        assert restored.read_only and restored.hidden
        assert restored.mode == 0o600
        # Hard-link aliasing survives: both names resolve to ONE node.
        assert fresh.fs.lookup("/tmp/deep/b.dat") is restored
        assert restored.nlink == 2
        assert fresh.fs.lookup("/tmp/sym").symlink_target == "/tmp/deep/a.dat"
        assert fresh.fs.lookup("/tmp/doomed") is None
        assert fresh.fs._file_count == worn.fs._file_count
        assert fresh.shared_region.data[7] == 0xAB

    def test_wear_timestamps_and_protection_round_trip(self):
        worn = self._worn_machine()
        node = worn.fs.lookup("/tmp/deep/a.dat")
        node.created_at, node.modified_at, node.accessed_at = 10, 20, 30

        fresh = Machine(personality(**self.P))
        fresh.restore_wear(worn.wear_state())
        restored = fresh.fs.lookup("/tmp/deep/a.dat")
        assert (restored.created_at, restored.modified_at,
                restored.accessed_at) == (10, 20, 30)
        # Boot-time system nodes keep their protection through restore.
        assert fresh.fs.lookup("/tmp").protected
        assert fresh.fs.lookup("/etc_passwd").protected

    def test_counter_only_wear_restores_like_before(self):
        """Checkpoints written before filesystem wear existed carry only
        the four counters; restoring one must not disturb the
        freshly-booted filesystem."""
        fresh = Machine(personality())
        fresh.restore_wear(
            {"corruption": 1, "reboot_count": 2,
             "clock_ticks": 3, "next_pid": 400}
        )
        assert fresh.corruption_level == 1
        assert fresh.reboot_count == 2
        assert fresh.clock.ticks == 3
        assert fresh.fs.lookup("/etc_passwd") is not None
        assert fresh.fs.lookup("/home/ballista") is not None


class TestProcess:
    def test_console_fds_preopened(self):
        process = Machine(personality()).spawn_process()
        assert set(process.fds) >= {0, 1, 2}
        assert process.fds[1].writable

    def test_alloc_fd_reuses_lowest_free(self):
        process = Machine(personality()).spawn_process()
        fd = process.alloc_fd(process.fds[0], lowest=3)
        assert fd == 3
        process.close_fd(3)
        assert process.alloc_fd(process.fds[0], lowest=3) == 3

    def test_terminate_closes_everything(self):
        machine = Machine(personality())
        process = machine.spawn_process()
        handle = process.handles.insert(EventObject(True, False))
        process.terminate(42)
        assert process.exit_code == 42
        assert process.handles.get(handle) is None

    def test_shared_arena_visible_across_processes(self):
        machine = Machine(personality(shared_system_memory=True))
        first = machine.spawn_process()
        second = machine.spawn_process()
        first.memory.write_u32(machine.shared_region.start, 0xABCD)
        assert second.memory.read_u32(machine.shared_region.start) == 0xABCD

    def test_spawn_thread_ids_unique(self):
        process = Machine(personality()).spawn_process()
        ids = {process.spawn_thread().tid for _ in range(5)}
        assert len(ids) == 5


class TestHandleTable:
    def test_insert_and_resolve(self):
        table = HandleTable()
        event = EventObject(True, False)
        handle = table.insert(event)
        assert table.get(handle) is event
        assert handle % 4 == 0

    def test_close_decrements_and_destroys(self):
        table = HandleTable()
        event = EventObject(True, False)
        handle = table.insert(event)
        assert table.close(handle)
        assert event.destroyed
        assert not table.close(handle)

    def test_two_handles_one_object(self):
        table = HandleTable()
        event = EventObject(True, False)
        first = table.insert(event)
        second = table.insert(event)
        table.close(first)
        assert not event.destroyed
        table.close(second)
        assert event.destroyed

    def test_file_object_closes_open_file(self):
        machine = Machine(personality())
        machine.fs.create_file("/tmp/a", b"x")
        open_file = machine.fs.open("/tmp/a")
        table = HandleTable()
        handle = table.insert(FileObject(open_file))
        table.close(handle)
        assert open_file.closed

    def test_pseudo_handles_are_not_table_entries(self):
        table = HandleTable()
        assert table.get(CURRENT_THREAD_HANDLE) is None

    def test_thread_object_has_context(self):
        thread = ThreadObject(1)
        assert "eip" in thread.context


class TestClock:
    def test_advance_accumulates(self):
        clock = SimClock()
        clock.begin_call("x")
        clock.advance(100)
        assert clock.ticks == 100

    def test_watchdog_fires_past_budget(self):
        clock = SimClock(watchdog_ticks=1000)
        clock.begin_call("WaitForever")
        with pytest.raises(TaskHang):
            clock.advance(1001)

    def test_watchdog_rearmed_per_call(self):
        clock = SimClock(watchdog_ticks=1000)
        clock.begin_call("a")
        clock.advance(900)
        clock.begin_call("b")
        clock.advance(900)  # fresh budget, no hang

    def test_block_forever_raises_hang(self):
        clock = SimClock(watchdog_ticks=500)
        clock.begin_call("Sleep")
        with pytest.raises(TaskHang) as info:
            clock.block_forever()
        assert info.value.function == "Sleep"

    def test_unix_seconds_advances_with_ticks(self):
        clock = SimClock()
        start = clock.unix_seconds()
        clock.begin_call("x")
        clock.advance(5000)
        assert clock.unix_seconds() == start + 5


class TestGuardedAccess:
    def _machine(self, mode_func: str, mode: str) -> Machine:
        kwargs = {}
        if mode == RAW:
            kwargs["raw_kernel_access"] = frozenset({mode_func})
        elif mode == CORRUPT:
            kwargs["corrupting_access"] = frozenset({mode_func})
        return Machine(personality(shared_system_memory=True, **kwargs))

    def test_probe_write_returns_false_on_bad_pointer(self):
        machine = self._machine("f", PROBE)
        process = machine.spawn_process()
        assert not kernel_copy_to_user(machine, process.memory, "f", 0, b"x")
        assert not machine.crashed

    def test_probe_write_succeeds_on_good_pointer(self):
        machine = self._machine("f", PROBE)
        process = machine.spawn_process()
        addr = process.memory.alloc(b"\x00" * 8)
        assert kernel_copy_to_user(machine, process.memory, "f", addr, b"ok")
        assert process.memory.read(addr, 2) == b"ok"

    def test_raw_write_panics_on_bad_pointer(self):
        machine = self._machine("f", RAW)
        process = machine.spawn_process()
        with pytest.raises(SystemCrash):
            kernel_copy_to_user(machine, process.memory, "f", 0, b"x")
        assert machine.crashed

    def test_corrupt_write_absorbs_and_counts(self):
        machine = self._machine("f", CORRUPT)
        process = machine.spawn_process()
        assert kernel_copy_to_user(machine, process.memory, "f", 0, b"x")
        assert machine.corruption_level == 1
        assert not machine.crashed

    def test_probe_read_returns_none_on_bad_pointer(self):
        machine = self._machine("f", PROBE)
        process = machine.spawn_process()
        assert kernel_copy_from_user(machine, process.memory, "f", 0, 4) is None

    def test_raw_read_panics(self):
        machine = self._machine("f", RAW)
        process = machine.spawn_process()
        with pytest.raises(SystemCrash):
            kernel_copy_from_user(machine, process.memory, "f", 0, 4)

    def test_corrupt_read_returns_stale_zeroes(self):
        machine = self._machine("f", CORRUPT)
        process = machine.spawn_process()
        assert kernel_copy_from_user(machine, process.memory, "f", 0, 4) == b"\x00" * 4

    def test_crt_write_probe_mode_faults_in_user_mode(self):
        machine = self._machine("f", PROBE)
        process = machine.spawn_process()
        with pytest.raises(AccessViolation):
            crt_write(machine, process.memory, "f", 0, b"x")

    def test_crt_write_corrupt_mode_reports_absorbed(self):
        machine = self._machine("f", CORRUPT)
        process = machine.spawn_process()
        assert crt_write(machine, process.memory, "f", 0, b"x") is False
        assert machine.corruption_level == 1

    def test_crt_read_raw_mode_panics(self):
        machine = self._machine("f", RAW)
        process = machine.spawn_process()
        with pytest.raises(SystemCrash):
            crt_read(machine, process.memory, "f", 0, 4)


class TestPersonality:
    def test_access_mode_resolution(self):
        p = personality(
            raw_kernel_access=frozenset({"A"}),
            corrupting_access=frozenset({"B"}),
        )
        assert p.kernel_access_mode("A") == RAW
        assert p.kernel_access_mode("B") == CORRUPT
        assert p.kernel_access_mode("C") == PROBE

    def test_supports_missing_functions(self):
        p = personality(missing_functions=frozenset({"SleepEx"}))
        assert not p.supports("SleepEx")
        assert p.supports("Sleep")
