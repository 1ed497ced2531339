"""The on-disk KL cache of `kl --cache-dir`: written, never read for values.

One file per (table kind, system content hash), holding length-prefixed
binary records under a magic header with a schema version; bumping the
version invalidates old files.  A file is written whole or not at all: its
header and records go to a temporary file in the same directory, which then
replaces the table's file, so a reader or a racing writer only ever sees a
whole file.  A load keeps the last record of each key and stops at the
first torn record; a file under a foreign header (another magic or
version) loads as empty.

A KL record (`write_kl`) is keyed by json.dumps([y word, w word]) and holds
the canonical {"v": ...} JSON of P_{y,w} in u-units.  `kl` computes its
whole table before it writes anything.  A file that is exactly the header
and the table's records in fill order, as a cold call leaves it, is
compared column by column and neither parsed nor written; any other is
replaced by exactly that.  No record, well formed or not, ever changes what
`kl` prints.
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
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, kind, syshash):
        return self.root / ("%s-%s.hwc" % (kind, syshash))

    def load_table(self, kind, syshash):
        """All records of one table as a dict of key bytes -> value bytes, up
        to the first torn record; a file under a foreign header holds none."""
        path = self._path(kind, syshash)
        blob = path.read_bytes() if path.exists() else b""
        out, pos, n, unpack = {}, len(HEADER), len(blob), _LEN.unpack_from
        if not blob.startswith(HEADER):
            return out  # no file, or a foreign header
        while pos + 4 <= n:
            kend = pos + 4 + unpack(blob, pos)[0]
            if kend + 4 > n:
                break
            end = kend + 4 + unpack(blob, kend)[0]
            if end > n:
                break
            out[blob[pos + 4 : kend]] = blob[kend + 4 : end]
            pos = end
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

    def write(self, kind, syshash, chunks):
        """Make the table's file this schema's header and the byte chunks:
        they are written one at a time to a temporary file beside it, unique
        to this process and store, which then replaces it.  A failure
        removes the temporary file and leaves the table's file as it was."""
        path = self._path(kind, syshash)
        tmp = path.with_name(".%s.%d-%d" % (path.name, os.getpid(), id(self)))
        try:
            with open(tmp, "wb") as f:
                f.write(HEADER)
                for c in chunks:
                    f.write(c)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def append(self, kind, syshash, key, value):
        """Write the table with one record added or put in place of its key's."""
        records = self.load_table(kind, syshash)
        records[key] = value
        self.write(kind, syshash, (pack_len(len(k)) + k + pack_len(len(v)) + v
                                   for k, v in records.items()))


def _kl_columns(table):
    """The records of every pair y < w in the columns that the KLTable
    `table` has filled, in fill order: per column the bytes of its records,
    each key and value behind `pack_len`.  Each distinct value is encoded
    once."""
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
        yield b"".join(parts)


def write_kl(store, table):
    """Write to `store` the records of `_kl_columns(table)`, one column at a
    time, unless its table's file is exactly the header and these records:
    that file is only compared, column by column, and keeps its bytes."""
    syshash = table.system.content_hash()
    if not store.holds("kl", syshash, _kl_columns(table)):
        store.write("kl", syshash, _kl_columns(table))
