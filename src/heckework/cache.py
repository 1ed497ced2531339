"""The on-disk KL cache of `kl --cache-dir`: written, never read for values.

One file per (table kind, system content hash), holding length-prefixed
binary records under a magic header with a schema version; bumping the
version invalidates old files.  A file appears with its header already in
place: the header is written to a fresh temporary file that is then
hard-linked to the table's name, so of two racing writers exactly one
creates it.  Each store holds one O_APPEND descriptor per table and makes
one os.write per batch of whole records, so the batches of concurrent
writers do not interleave.  A load keeps the last record of each key and
stops at the first torn record; the store's next batch to that table first
cuts the torn tail off, unless the file has grown since the load.  A
foreign header (another magic or version) is a torn tail at offset 0, so
that batch cuts the whole file and writes this schema's header first.

A KL record (`write_kl`) is keyed by json.dumps([y word, w word]) and holds
the canonical {"v": ...} JSON of P_{y,w} in u-units.  `kl` computes its
whole table before it writes anything.  A file that is exactly the header
and the table's records in fill order, as a cold call leaves it, is
compared column by column and neither parsed nor written; any other is
loaded and gets only the records it lacks or holds with other bytes.  No
record, well formed or not, ever changes what `kl` prints.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

MAGIC = b"HWBC"
SCHEMA_VERSION = 1
HEADER = MAGIC + struct.pack("<I", SCHEMA_VERSION)

_LEN = struct.Struct("<I")  # the length prefix of a record's key or value
pack_len = _LEN.pack


class CacheStore:
    def __init__(self, root):
        self._fds = {}
        self._torn = {}  # (kind, syshash) -> (end of the last whole record or 0, size) at load
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, kind, syshash):
        return self.root / ("%s-%s.hwc" % (kind, syshash))

    def load_table(self, kind, syshash):
        """All records of one table as a dict of key bytes -> value bytes."""
        path = self._path(kind, syshash)
        out = {}
        if not path.exists():
            return out
        blob = path.read_bytes()
        pos, n, unpack = len(HEADER), len(blob), _LEN.unpack_from
        if blob[:pos] != HEADER:  # a foreign header: the whole file is torn
            self._torn[kind, syshash] = (0, n)
            return out
        vals = {}  # each distinct value once, which keeps a KL table small in memory
        while pos + 4 <= n:
            kend = pos + 4 + unpack(blob, pos)[0]
            if kend + 4 > n:
                break
            end = kend + 4 + unpack(blob, kend)[0]
            if end > n:
                break
            val = blob[kend + 4 : end]
            out[blob[pos + 4 : kend]] = vals.setdefault(val, val)
            pos = end
        if pos < n:  # a torn record: no load reads past it
            self._torn[kind, syshash] = (pos, n)
        return out

    def holds(self, kind, syshash, chunks):
        """Whether the table's file is exactly this schema's header and the
        byte chunks, read one chunk at a time up to the first difference."""
        try:
            f = open(self._path(kind, syshash), "rb")
        except FileNotFoundError:
            return False
        with f:
            return (f.read(len(HEADER)) == HEADER
                    and all(f.read(len(c)) == c for c in chunks) and not f.read(1))

    def _open(self, kind, syshash):
        path = self._path(kind, syshash)
        if not path.exists():
            tmp = self.root / (".%s.%d-%d" % (path.name, os.getpid(), id(self)))
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            try:
                os.write(fd, HEADER)
                os.link(tmp, path)
            except FileExistsError:
                pass  # another writer created the table first
            finally:
                os.close(fd)
                os.unlink(tmp)
        return os.open(path, os.O_WRONLY | os.O_APPEND)

    def extend(self, kind, syshash, framed):
        """Append whole records with one os.write: framed is a list of byte
        chunks that join to records, each key and value behind `pack_len`."""
        if not framed:
            return
        fd = self._fds.get((kind, syshash))
        if fd is None:
            fd = self._fds[(kind, syshash)] = self._open(kind, syshash)
        torn = self._torn.pop((kind, syshash), None)
        if torn is not None and os.fstat(fd).st_size == torn[1]:
            os.ftruncate(fd, torn[0])  # back to the last whole record
            if not torn[0]:  # or to nothing, behind a foreign header
                framed = [HEADER, *framed]
        os.write(fd, b"".join(framed))

    def append(self, kind, syshash, key, value):
        self.extend(kind, syshash, [pack_len(len(key)), key, pack_len(len(value)), value])

    def close(self):
        for fd in self._fds.values():
            os.close(fd)
        self._fds.clear()

    def __del__(self):
        self.close()


def _kl_columns(table):
    """The records of every pair y < w in the columns that the KLTable
    `table` has filled, in fill order: per column one flat list of byte
    chunks, each record's key length, key and framed value, that joins to
    the column's records.  Each distinct value is encoded once."""
    # id -> b'[' + json of its word + b', ': the key of (y, w) is y's head
    # and the tail json of w's word + b']'
    heads = [b"[" + json.dumps(list(x.word)).encode() + b", " for x in table.system._elts]
    vals = {}  # handle -> framed value
    for w, col in table.filled():
        tail, parts = heads[w][1:-2] + b"]", []
        for y, h in col.items():
            if y == w:
                continue  # P_{w,w} = 1 is never a record
            key = heads[y] + tail
            val = vals.get(h)
            if val is None:
                v = json.dumps(table.value(h).to_json(), sort_keys=True).encode()
                val = vals[h] = pack_len(len(v)) + v
            parts += (pack_len(len(key)), key, val)
        yield parts


def write_kl(store, table):
    """Append to `store` the records of `_kl_columns(table)` that its table
    lacks or holds with other bytes.  A file that is exactly the header
    and these records is only compared, column by column; any other is
    loaded once, then gets one batch per column, in fill order."""
    syshash = table.system.content_hash()
    if store.holds("kl", syshash, (b"".join(parts) for parts in _kl_columns(table))):
        return
    held = store.load_table("kl", syshash)
    for parts in _kl_columns(table):
        if held:  # keep the key length, key and value of each record not held
            parts = [c for i in range(0, len(parts), 3)
                     if held.get(parts[i + 1]) != parts[i + 2][4:] for c in parts[i : i + 3]]
        store.extend("kl", syshash, parts)
