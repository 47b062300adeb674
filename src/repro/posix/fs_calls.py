"""POSIX File/Directory Access system calls (30 MuTs).

Pathnames are picked up by the kernel (:meth:`copy_path`), so bad
string pointers produce ``EFAULT`` error returns -- never aborts.
"""

from __future__ import annotations

from repro.libc import errno_codes as E
from repro.sim.filesystem import FileSystemError, OpenFile

_U32 = 0xFFFF_FFFF

O_WRONLY = 0o1
O_RDWR = 0o2
O_CREAT = 0o100
O_EXCL = 0o200
O_TRUNC = 0o1000
O_APPEND = 0o2000
_O_KNOWN = 0o7777

STAT_SIZE = 64


class FsCallsMixin:
    """open/stat/link and friends."""

    # ------------------------------------------------------------------
    # Open / create
    # ------------------------------------------------------------------

    def open(self, pathname: int, flags: int, mode: int) -> int:
        path = self.copy_path("open", pathname)
        if path is None:
            return self._err(E.EFAULT)
        if flags & ~_O_KNOWN & _U32:
            return self._err(E.EINVAL)
        accmode = flags & 0o3
        readable = accmode in (0, O_RDWR)
        writable = accmode in (O_WRONLY, O_RDWR)
        try:
            open_file = self.machine.fs.open(
                path,
                readable=readable,
                writable=writable,
                create=bool(flags & O_CREAT),
                truncate=bool(flags & O_TRUNC) and writable,
                exclusive=bool(flags & O_EXCL),
                append=bool(flags & O_APPEND),
            )
        except FileSystemError as exc:
            return self._fs_err(exc)
        return self.process.alloc_fd(open_file, lowest=3)

    def creat(self, pathname: int, mode: int) -> int:
        return self.open(pathname, O_CREAT | O_WRONLY | O_TRUNC, mode)

    # ------------------------------------------------------------------
    # Links and names
    # ------------------------------------------------------------------

    def unlink(self, pathname: int) -> int:
        path = self.copy_path("unlink", pathname)
        if path is None:
            return self._err(E.EFAULT)
        try:
            self.machine.fs.unlink(path)
            return 0
        except FileSystemError as exc:
            return self._fs_err(exc)

    def link(self, oldpath: int, newpath: int) -> int:
        old = self.copy_path("link", oldpath)
        new = self.copy_path("link", newpath)
        if old is None or new is None:
            return self._err(E.EFAULT)
        node = self.machine.fs.lookup(old)
        if node is None:
            return self._err(E.ENOENT)
        if node.is_directory:
            return self._err(E.EPERM)
        if self.machine.fs.lookup(new) is not None:
            return self._err(E.EEXIST)
        try:
            parent, name = self.machine.fs._parent_of(new)
        except FileSystemError as exc:
            return self._fs_err(exc)
        parent.link(name, node)
        node.nlink += 1
        return 0

    def symlink(self, target: int, linkpath: int) -> int:
        target_path = self.copy_path("symlink", target)
        link_path = self.copy_path("symlink", linkpath)
        if target_path is None or link_path is None:
            return self._err(E.EFAULT)
        if self.machine.fs.lookup(link_path) is not None:
            return self._err(E.EEXIST)
        try:
            node = self.machine.fs.create_file(link_path, exclusive=True)
        except FileSystemError as exc:
            return self._fs_err(exc)
        node.symlink_target = target_path  # type: ignore[attr-defined]
        return 0

    def readlink(self, pathname: int, buf: int, bufsiz: int) -> int:
        path = self.copy_path("readlink", pathname)
        if path is None:
            return self._err(E.EFAULT)
        node = self.machine.fs.lookup(path)
        if node is None:
            return self._err(E.ENOENT)
        target = getattr(node, "symlink_target", None)
        if target is None:
            return self._err(E.EINVAL)
        data = target.encode("latin-1")[: max(bufsiz & _U32, 0)]
        if data and not self.copy_out("readlink", buf, data):
            return self._err(E.EFAULT)
        return len(data)

    def rename(self, oldpath: int, newpath: int) -> int:
        old = self.copy_path("rename", oldpath)
        new = self.copy_path("rename", newpath)
        if old is None or new is None:
            return self._err(E.EFAULT)
        try:
            self.machine.fs.rename(old, new)
            return 0
        except FileSystemError as exc:
            return self._fs_err(exc)

    # ------------------------------------------------------------------
    # Directories
    # ------------------------------------------------------------------

    def mkdir(self, pathname: int, mode: int) -> int:
        path = self.copy_path("mkdir", pathname)
        if path is None:
            return self._err(E.EFAULT)
        try:
            node = self.machine.fs.mkdir(path)
        except FileSystemError as exc:
            return self._fs_err(exc)
        node.mode = mode & 0o7777
        return 0

    def rmdir(self, pathname: int) -> int:
        path = self.copy_path("rmdir", pathname)
        if path is None:
            return self._err(E.EFAULT)
        try:
            self.machine.fs.rmdir(path)
            return 0
        except FileSystemError as exc:
            return self._fs_err(exc)

    def chdir(self, pathname: int) -> int:
        path = self.copy_path("chdir", pathname)
        if path is None:
            return self._err(E.EFAULT)
        node = self.machine.fs.lookup(path)
        if node is None:
            return self._err(E.ENOENT)
        if not node.is_directory:
            return self._err(E.ENOTDIR)
        self.process.cwd = path
        return 0

    def fchdir(self, fd: int) -> int:
        obj = self._fd_object(fd)
        if obj is None:
            return self._err(E.EBADF)
        return self._err(E.ENOTDIR)  # fds only reference regular files here

    def getcwd(self, buf: int, size: int) -> int:
        cwd = self.process.cwd.encode("latin-1") + b"\x00"
        if buf == 0 or (size & _U32) == 0:
            return self._err(E.EINVAL, ret=0)
        if (size & _U32) < len(cwd):
            return self._err(E.ERANGE, ret=0)
        if not self.copy_out("getcwd", buf, cwd):
            return self._err(E.EFAULT, ret=0)
        return buf

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------

    def _write_stat(self, func: str, node, statbuf: int) -> int:
        blob = bytearray(STAT_SIZE)
        blob[0:4] = (1).to_bytes(4, "little")  # st_dev
        mode = node.mode | (0o040000 if node.is_directory else 0o100000)
        blob[4:8] = mode.to_bytes(4, "little")
        blob[8:12] = getattr(node, "nlink", 1).to_bytes(4, "little")
        size = 0 if node.is_directory else node.size
        blob[12:16] = size.to_bytes(4, "little")
        blob[16:20] = ((node.accessed_at // 1000) & _U32).to_bytes(4, "little")
        blob[20:24] = ((node.modified_at // 1000) & _U32).to_bytes(4, "little")
        blob[24:28] = ((node.created_at // 1000) & _U32).to_bytes(4, "little")
        if not self.copy_out(func, statbuf, bytes(blob)):
            return self._err(E.EFAULT)
        return 0

    def stat(self, pathname: int, statbuf: int) -> int:
        path = self.copy_path("stat", pathname)
        if path is None:
            return self._err(E.EFAULT)
        node = self.machine.fs.lookup(path)
        if node is None:
            return self._err(E.ENOENT)
        return self._write_stat("stat", node, statbuf)

    def lstat(self, pathname: int, statbuf: int) -> int:
        return self.stat(pathname, statbuf)

    def fstat(self, fd: int, statbuf: int) -> int:
        obj = self._fd_object(fd)
        if obj is None:
            return self._err(E.EBADF)
        node = getattr(obj, "node", None)
        if node is None:
            return self._err(E.EINVAL)
        return self._write_stat("fstat", node, statbuf)

    def access(self, pathname: int, mode: int) -> int:
        path = self.copy_path("access", pathname)
        if path is None:
            return self._err(E.EFAULT)
        if mode & ~0o7 and mode != 0:
            return self._err(E.EINVAL)
        node = self.machine.fs.lookup(path)
        if node is None:
            return self._err(E.ENOENT)
        if mode & 0o2 and node.read_only:
            return self._err(E.EACCES)
        return 0

    def chmod(self, pathname: int, mode: int) -> int:
        path = self.copy_path("chmod", pathname)
        if path is None:
            return self._err(E.EFAULT)
        node = self.machine.fs.lookup(path)
        if node is None:
            return self._err(E.ENOENT)
        node.mode = mode & 0o7777
        return 0

    def fchmod(self, fd: int, mode: int) -> int:
        obj = self._fd_object(fd)
        if obj is None:
            return self._err(E.EBADF)
        node = getattr(obj, "node", None)
        if node is None:
            return self._err(E.EINVAL)
        node.mode = mode & 0o7777
        return 0

    def _chown_common(self, node, owner: int, group: int) -> int:
        if owner not in (-1, 0, self.process.uid) and owner > 0xFFFF:
            return self._err(E.EINVAL)
        if owner not in (-1, self.process.uid):
            return self._err(E.EPERM)  # unprivileged chown
        return 0

    def chown(self, pathname: int, owner: int, group: int) -> int:
        path = self.copy_path("chown", pathname)
        if path is None:
            return self._err(E.EFAULT)
        node = self.machine.fs.lookup(path)
        if node is None:
            return self._err(E.ENOENT)
        return self._chown_common(node, owner, group)

    def lchown(self, pathname: int, owner: int, group: int) -> int:
        return self.chown(pathname, owner, group)

    def fchown(self, fd: int, owner: int, group: int) -> int:
        obj = self._fd_object(fd)
        if obj is None:
            return self._err(E.EBADF)
        return self._chown_common(getattr(obj, "node", None), owner, group)

    def utime(self, pathname: int, times: int) -> int:
        path = self.copy_path("utime", pathname)
        if path is None:
            return self._err(E.EFAULT)
        node = self.machine.fs.lookup(path)
        if node is None:
            return self._err(E.ENOENT)
        if times == 0:
            now = self.machine.clock.tick_count()
            node.accessed_at = node.modified_at = now
            return 0
        raw = self.copy_in("utime", times, 8)
        if raw is None:
            return self._err(E.EFAULT)
        node.accessed_at = int.from_bytes(raw[0:4], "little") * 1000
        node.modified_at = int.from_bytes(raw[4:8], "little") * 1000
        return 0

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------

    def truncate(self, pathname: int, length: int) -> int:
        path = self.copy_path("truncate", pathname)
        if path is None:
            return self._err(E.EFAULT)
        node = self.machine.fs.lookup(path)
        if node is None:
            return self._err(E.ENOENT)
        if node.is_directory:
            return self._err(E.EISDIR)
        if length < 0:
            return self._err(E.EINVAL)
        handle = OpenFile(node, readable=True, writable=True)
        try:
            handle.truncate(min(length, 1 << 24))
        except FileSystemError as exc:
            return self._fs_err(exc)
        return 0

    def ftruncate(self, fd: int, length: int) -> int:
        obj = self._fd_object(fd)
        if obj is None:
            return self._err(E.EBADF)
        if length < 0:
            return self._err(E.EINVAL)
        try:
            obj.truncate(min(length, 1 << 24))
        except (FileSystemError, AttributeError):
            return self._err(E.EINVAL)
        return 0

    # ------------------------------------------------------------------
    # Special files and limits
    # ------------------------------------------------------------------

    def umask(self, mask: int) -> int:
        previous = self.process.umask
        self.process.umask = mask & 0o777
        return previous

    def mknod(self, pathname: int, mode: int, dev: int) -> int:
        path = self.copy_path("mknod", pathname)
        if path is None:
            return self._err(E.EFAULT)
        if mode & 0o170000 not in (0, 0o100000, 0o010000):
            return self._err(E.EPERM)  # devices need privilege
        try:
            self.machine.fs.create_file(path, exclusive=True)
            return 0
        except FileSystemError as exc:
            return self._fs_err(exc)

    def mkfifo(self, pathname: int, mode: int) -> int:
        path = self.copy_path("mkfifo", pathname)
        if path is None:
            return self._err(E.EFAULT)
        try:
            node = self.machine.fs.create_file(path, exclusive=True)
        except FileSystemError as exc:
            return self._fs_err(exc)
        node.mode = (mode & 0o777) | 0o010000
        return 0

    def _write_statfs(self, func: str, buf: int) -> int:
        blob = bytearray(STAT_SIZE)
        blob[0:4] = (0xEF53).to_bytes(4, "little")  # ext2 magic
        blob[4:8] = (4096).to_bytes(4, "little")  # block size
        blob[8:12] = (0x20000).to_bytes(4, "little")  # blocks
        blob[12:16] = (0x10000).to_bytes(4, "little")  # free
        if not self.copy_out(func, buf, bytes(blob)):
            return self._err(E.EFAULT)
        return 0

    def statfs(self, pathname: int, buf: int) -> int:
        path = self.copy_path("statfs", pathname)
        if path is None:
            return self._err(E.EFAULT)
        if self.machine.fs.lookup(path) is None:
            return self._err(E.ENOENT)
        return self._write_statfs("statfs", buf)

    def fstatfs(self, fd: int, buf: int) -> int:
        if self._fd_object(fd) is None:
            return self._err(E.EBADF)
        return self._write_statfs("fstatfs", buf)

    def pathconf(self, pathname: int, name: int) -> int:
        path = self.copy_path("pathconf", pathname)
        if path is None:
            return self._err(E.EFAULT)
        if self.machine.fs.lookup(path) is None:
            return self._err(E.ENOENT)
        limits = {0: 255, 1: 255, 2: 4096, 3: 0x7FFF_FFFF, 4: 4096}
        if name not in limits:
            return self._err(E.EINVAL)
        return limits[name]
