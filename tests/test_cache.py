"""The KL cache file format and concurrent writers."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

from heckework import CoxeterSystem
from heckework.cache import MAGIC, SCHEMA_VERSION, CacheStore
from heckework.cli import main
from heckework.hecke import KLTable

HEADER = MAGIC + struct.pack("<I", SCHEMA_VERSION)


def record(key, value):
    return struct.pack("<I", len(key)) + key + struct.pack("<I", len(value)) + value


def records_in_order(blob):
    """The (key, value) records of a table file, in file order."""
    assert blob.startswith(HEADER)
    out, pos = [], len(HEADER)
    while pos < len(blob):
        (klen,) = struct.unpack_from("<I", blob, pos)
        key = blob[pos + 4 : pos + 4 + klen]
        pos += 4 + klen
        (vlen,) = struct.unpack_from("<I", blob, pos)
        out.append((key, blob[pos + 4 : pos + 4 + vlen]))
        pos += 4 + vlen
    assert pos == len(blob)
    return out


def kl_record(y, w, p):
    """Key and value bytes of one KL entry, as schema version 1 writes them."""
    return (
        json.dumps([list(y.word), list(w.word)]).encode(),
        json.dumps(p.to_json(), sort_keys=True).encode(),
    )


def bruhat_pairs(system):
    return [
        (y, w)
        for w in system.elements()
        for y in sorted(system.lower_interval(w), key=lambda x: x.sort_key())
        if y != w
    ]


def test_format_constants():
    assert HEADER == b"HWBC\x01\x00\x00\x00"


def test_existing_table_file_loads_and_serves(tmp_path):
    plain = KLTable(CoxeterSystem.from_label("A3"))
    pairs = bruhat_pairs(plain.system)
    blob = HEADER + b"".join(record(*kl_record(y, w, plain.p(y, w))) for y, w in pairs)
    store = CacheStore(tmp_path)
    system = CoxeterSystem.from_label("A3")
    path = store._path("kl", system.content_hash())
    path.write_bytes(blob)
    warm = KLTable(system, store=store)
    assert len(warm._p) == len(pairs)
    for y, w in pairs:
        assert warm.p(system.element(y.word), system.element(w.word)) == plain.p(y, w)
    store.close()
    assert path.read_bytes() == blob  # every entry was served, none appended


def a3_table(tmp_path, bad=None):
    """A cache-free A3 KLTable, its Bruhat pairs y < w, and a store whose KL
    table holds a record for each pair: the true value, or `bad`."""
    plain = KLTable(CoxeterSystem.from_label("A3"))
    pairs = bruhat_pairs(plain.system)
    records = [kl_record(y, w, plain.p(y, w)) for y, w in pairs]
    store = CacheStore(tmp_path)
    store._path("kl", plain.system.content_hash()).write_bytes(
        HEADER + b"".join(record(k, v if bad is None else bad) for k, v in records)
    )
    return plain, pairs, store


def test_records_decode_on_first_use_and_share_equal_values(tmp_path):
    plain, pairs, store = a3_table(tmp_path)
    system = CoxeterSystem.from_label("A3")
    warm = KLTable(system, store=store)
    assert not warm._decoded  # nothing decoded before the first lookup
    got = [warm.p(system.element(y.word), system.element(w.word)) for y, w in pairs]
    assert got == [plain.p(y, w) for y, w in pairs]
    # one decode and one shared polynomial per distinct value bytes
    assert len({id(p) for p in got}) == len(warm._decoded) == len(set(warm._p.values()))
    store.close()


BAD_VALUES = {
    "not-json": b"not json",
    "constant-term-7": b'{"v": {"0": 7}}',
    "no-constant-term": b'{"v": {"1": 1}}',
    "degree-bound": b'{"v": {"0": 1, "9": 1}}',
    "negative-exponent": b'{"v": {"-1": 1, "0": 1}}',
    "bool-coefficient": b'{"v": {"0": true}}',
    "float-coefficient": b'{"v": {"0": 1.0}}',
    "infinite-coefficient": b'{"v": {"0": Infinity}}',
    "deep-nesting": b"[" * 100000 + b"]" * 100000,
    "non-canonical-exponent": b'{"v": {"00": 1}}',
    "extra-field": b'{"u": 1, "v": {"0": 1}}',
    "list": b"[1]",
    "zero": b'{"v": {}}',
}


@pytest.mark.parametrize("bad", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_bad_records_are_recomputed_never_served(tmp_path, bad):
    plain, pairs, store = a3_table(tmp_path, bad)
    system = CoxeterSystem.from_label("A3")
    warm = KLTable(system, store=store)
    for y, w in pairs:
        assert warm.p(system.element(y.word), system.element(w.word)) == plain.p(y, w)
    store.close()
    # every pair was appended again, so the next load holds only good records
    expected = dict(kl_record(y, w, plain.p(y, w)) for y, w in pairs)
    assert store.load_table("kl", system.content_hash()) == expected


def test_new_records_keep_the_format(tmp_path):
    store = CacheStore(tmp_path)
    system = CoxeterSystem.from_label("B3")
    cold = KLTable(system, store=store)
    for w in system.elements():
        for y in system.lower_interval(w):
            cold.p(y, w)
    store.close()
    plain = KLTable(CoxeterSystem.from_label("B3"))
    expected = dict(kl_record(y, w, plain.p(y, w)) for y, w in bruhat_pairs(plain.system))
    assert store.load_table("kl", system.content_hash()) == expected
    blob = store._path("kl", system.content_hash()).read_bytes()
    assert blob.startswith(HEADER)
    assert len(blob) == len(HEADER) + sum(len(record(k, v)) for k, v in expected.items())


def test_a_half_warm_store_appends_only_the_missing_records(tmp_path):
    # decoded and computed values meet in one recursion: every pair still
    # gets the cold table's P, and only the absent records are written
    plain = KLTable(CoxeterSystem.from_label("B3"))
    pairs = bruhat_pairs(plain.system)
    records = [kl_record(y, w, plain.p(y, w)) for y, w in pairs]
    store = CacheStore(tmp_path)
    system = CoxeterSystem.from_label("B3")
    path = store._path("kl", system.content_hash())
    blob = HEADER + b"".join(record(k, v) for k, v in records[::2])
    path.write_bytes(blob)
    warm = KLTable(system, store=store)
    for y, w in pairs:
        assert warm.p(system.element(y.word), system.element(w.word)) == plain.p(y, w)
    store.close()
    # the kept records stay in place, and the file grew by the others, once
    grown = path.read_bytes()
    assert grown.startswith(blob)
    assert store.load_table("kl", system.content_hash()) == dict(records)
    assert len(grown) == len(HEADER) + sum(len(record(k, v)) for k, v in records)


def test_computed_values_are_shared(tmp_path):
    # a cold fill keeps one object per distinct P, with a store or without;
    # with a store each distinct value is framed once (`_shared`), and the
    # file holds each pair's record once, with the bytes recorded before
    # values were shared, in the order the columns filled
    for store in (None, CacheStore(tmp_path)):
        system = CoxeterSystem.from_label("B3")
        cold = KLTable(system, store=store)
        for w in system.elements():
            for y in system.lower_interval(w):
                cold.p(y, w)
        got = [cold.p(y, w) for y, w in bruhat_pairs(system)]
        assert len({id(p) for p in got}) == len(set(got))
        assert len(cold._shared) == (0 if store is None else len(set(got)))
    store.close()
    records = records_in_order(store._path("kl", system.content_hash()).read_bytes())
    assert len({key for key, _ in records}) == len(records)
    blob = b"".join(record(k, v) for k, v in sorted(records))
    assert hashlib.sha256(blob).hexdigest() == (
        "a5db7a98451975881809ddb1498a13048fe81cf7338a90f9482872a1b26d511e")


def test_two_stores_share_one_header(tmp_path):
    a, b = CacheStore(tmp_path), CacheStore(tmp_path)
    recs = [(b"key%d" % i, b"value%d" % i) for i in range(40)]
    for i, (k, v) in enumerate(recs):
        (a if i % 3 else b).append("kl", "h", k, v)
    a.close()
    b.close()
    assert os.listdir(tmp_path) == ["kl-h.hwc"]
    blob = (tmp_path / "kl-h.hwc").read_bytes()
    assert blob == HEADER + b"".join(record(k, v) for k, v in recs)
    assert CacheStore(tmp_path).load_table("kl", "h") == dict(recs)


TAGS = ("a", "b", "c")
WRITER = """
import sys, time
from heckework.cache import CacheStore
store = CacheStore(sys.argv[1])
tag = sys.argv[2].encode()
while time.time() < float(sys.argv[3]):
    pass
for i in range(300):
    store.append("kl", "h", tag + b"%d" % i, b"x" * (i % 50))
"""


def test_concurrent_processes_keep_every_record(tmp_path):
    # three writers race to create the table, then interleave their appends
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    start = str(time.time() + 1.0)  # after every interpreter has started
    procs = [
        subprocess.Popen([sys.executable, "-c", WRITER, str(tmp_path), tag, start], env=env)
        for tag in TAGS
    ]
    assert [p.wait(timeout=60) for p in procs] == [0] * len(TAGS)
    blob = (tmp_path / "kl-h.hwc").read_bytes()
    assert blob.startswith(HEADER) and blob.count(MAGIC) == 1
    got = CacheStore(tmp_path).load_table("kl", "h")
    assert got == {
        tag.encode() + b"%d" % i: b"x" * (i % 50) for tag in TAGS for i in range(300)
    }
    assert sum(len(record(k, v)) for k, v in got.items()) == len(blob) - len(HEADER)


BATCH_SIZES = (1, 7, 40, 3, 120, 2)
BATCH_WRITER = """
import sys, time
from heckework.cache import CacheStore, pack_len
store = CacheStore(sys.argv[1])
tag = sys.argv[2].encode()
sizes = [int(n) for n in sys.argv[4].split(",")]
while time.time() < float(sys.argv[3]):
    pass
for b in range(60):
    n = sizes[b % len(sizes)]
    records = [(tag + b"%d-%d" % (b, i), b"x" * ((b + i) % 50)) for i in range(n)]
    store.extend("kl", "h", [c for k, v in records
                             for c in (pack_len(len(k)), k, pack_len(len(v)), v)])
"""


def test_concurrent_batches_keep_every_record_and_never_interleave(tmp_path):
    # three writers race to create the table, then write batches of mixed
    # sizes: every record survives, and each batch lies whole and in order
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    start = str(time.time() + 1.0)  # after every interpreter has started
    sizes = ",".join(map(str, BATCH_SIZES))
    procs = [
        subprocess.Popen([sys.executable, "-c", BATCH_WRITER, str(tmp_path), tag, start, sizes],
                         env=env)
        for tag in TAGS
    ]
    assert [p.wait(timeout=60) for p in procs] == [0] * len(TAGS)
    blob = (tmp_path / "kl-h.hwc").read_bytes()
    assert blob.count(MAGIC) == 1
    got = records_in_order(blob)
    batches = {
        (tag, b): [(tag.encode() + b"%d-%d" % (b, i), b"x" * ((b + i) % 50))
                   for i in range(BATCH_SIZES[b % len(BATCH_SIZES)])]
        for tag in TAGS for b in range(60)
    }
    assert sorted(got) == sorted(r for batch in batches.values() for r in batch)
    pos = {key: i for i, (key, _) in enumerate(got)}
    for batch in batches.values():
        first = pos[batch[0][0]]
        assert got[first : first + len(batch)] == batch


def written_pairs(kl):
    """Key -> value bytes of every pair the table has computed so far; a
    column's diagonal P_{w,w} = 1 is never a record."""
    elts = kl.system._elts
    return dict(
        kl_record(elts[y], elts[w], kl.value(h))
        for w, col in kl._by_id.items()
        for y, h in col.items()
        if y != w
    )


def test_every_public_call_leaves_no_record_unwritten(tmp_path):
    # p, column and _mu_down, the readers that fill columns, each write
    # what they computed
    store = CacheStore(tmp_path)
    system = CoxeterSystem.from_label("A3")
    kl = KLTable(system, store=store)
    w0 = system.elements()[-1]
    seen = 0
    for call in (
        lambda: kl.p(system.element("2"), system.element("2132")),
        lambda: kl.column(system.element("12321")),
        lambda: kl._mu_down(system._id(w0), 0),
    ):
        call()
        assert kl._pending == []
        loaded = store.load_table("kl", system.content_hash())
        assert loaded == written_pairs(kl)
        assert len(loaded) > seen  # each call computed new pairs
        seen = len(loaded)
    store.close()


B4 = "1,4,2,2;4,1,3,2;2,3,1,3;2,2,3,1"


def test_a_cold_kl_call_writes_the_records_of_a_per_pair_fill(tmp_path, capsys):
    # the kl command writes a column per batch, in output order; the file
    # holds the same records and bytes as p() over every pair, reordered
    assert main(["kl", "--matrix", B4, "--cache-dir", str(tmp_path / "kl")]) == 0
    capsys.readouterr()
    store = CacheStore(tmp_path / "p")
    system = CoxeterSystem([[int(x) for x in row.split(",")] for row in B4.split(";")])
    table = KLTable(system, store=store)
    for w in system.elements():
        for y in system.lower_interval(w):
            table.p(y, w)
    store.close()
    by_kl = CacheStore(tmp_path / "kl")
    kind, syshash = "kl", system.content_hash()
    assert by_kl.load_table(kind, syshash) == store.load_table(kind, syshash)
    sizes = {len(s._path(kind, syshash).read_bytes()) for s in (by_kl, store)}
    assert sizes == {3124553}
