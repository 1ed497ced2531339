"""The KL cache: its file format, its one writer and concurrent writers."""

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
from heckework.cache import MAGIC, SCHEMA_VERSION, CacheStore, write_kl
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


def filled(system):
    """A KLTable of the system with every column filled, pair by pair."""
    table = KLTable(system)
    for w in system.elements():
        for y in system.lower_interval(w):
            table.p(y, w)
    return table


def kl_stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def a3_store(tmp_path, bad=None):
    """The Bruhat pairs y < w of A3 with their true records, and the path of
    a KL table that holds a record for each pair: the true value, or `bad`."""
    plain = KLTable(CoxeterSystem.from_label("A3"))
    pairs = bruhat_pairs(plain.system)
    records = [kl_record(y, w, plain.p(y, w)) for y, w in pairs]
    path = CacheStore(tmp_path)._path("kl", plain.system.content_hash())
    path.write_bytes(HEADER + b"".join(record(k, v if bad is None else bad) for k, v in records))
    return dict(records), path


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
def test_bad_records_are_recomputed_never_served(tmp_path, capsys, bad):
    # kl prints its cache-free text whatever the file holds, and appends the
    # true record of every pair, so the next load holds only good records
    # and the next call writes nothing
    argv = ["kl", "--type", "A3"]
    plain = kl_stdout(capsys, argv)
    good, path = a3_store(tmp_path, bad)
    assert kl_stdout(capsys, [*argv, "--cache-dir", str(tmp_path)]) == plain
    assert CacheStore(tmp_path).load_table("kl", path.stem.split("-", 1)[1]) == good
    blob = path.read_bytes()
    assert kl_stdout(capsys, [*argv, "--cache-dir", str(tmp_path)]) == plain
    assert path.read_bytes() == blob


def test_new_records_keep_the_format(tmp_path):
    system = CoxeterSystem.from_label("B3")
    store = CacheStore(tmp_path)
    write_kl(store, filled(system))
    store.close()
    expected = dict(kl_record(y, w, KLTable(system).p(y, w)) for y, w in bruhat_pairs(system))
    assert store.load_table("kl", system.content_hash()) == expected
    blob = store._path("kl", system.content_hash()).read_bytes()
    assert blob.startswith(HEADER)
    assert len(blob) == len(HEADER) + sum(len(record(k, v)) for k, v in expected.items())


def test_a_half_warm_store_appends_only_the_missing_records(tmp_path):
    system = CoxeterSystem.from_label("B3")
    records = [kl_record(y, w, KLTable(system).p(y, w)) for y, w in bruhat_pairs(system)]
    store = CacheStore(tmp_path)
    path = store._path("kl", system.content_hash())
    blob = HEADER + b"".join(record(k, v) for k, v in records[::2])
    path.write_bytes(blob)
    write_kl(store, filled(system))
    store.close()
    # the kept records stay in place, and the file grew by the others, once
    grown = path.read_bytes()
    assert grown.startswith(blob)
    assert store.load_table("kl", system.content_hash()) == dict(records)
    assert len(grown) == len(HEADER) + sum(len(record(k, v)) for k, v in records)


def test_computed_values_are_shared(tmp_path):
    # a fill keeps one object per distinct P; the writer writes each pair's
    # record once, with the bytes recorded before values were shared, in
    # the order the columns filled
    system = CoxeterSystem.from_label("B3")
    table = filled(system)
    got = [table.p(y, w) for y, w in bruhat_pairs(system)]
    assert len({id(p) for p in got}) == len(set(got))
    store = CacheStore(tmp_path)
    write_kl(store, table)
    store.close()
    records = records_in_order(store._path("kl", system.content_hash()).read_bytes())
    assert len({key for key, _ in records}) == len(records)
    elts = system._elts
    assert records == [kl_record(elts[y], elts[w], table.value(h))
                       for w, col in table.filled() for y, h in col.items() if y != w]
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
        for w, col in kl.filled()
        for y, h in col.items()
        if y != w
    )


def test_every_public_call_leaves_no_record_unwritten(tmp_path):
    # p, column and _mu_down, the readers that fill columns: after each,
    # the writer appends exactly the pairs filled since the last write
    store = CacheStore(tmp_path)
    system = CoxeterSystem.from_label("A3")
    kl = KLTable(system)
    path = store._path("kl", system.content_hash())
    w0 = system.elements()[-1]
    seen = 0
    for call in (
        lambda: kl.p(system.element("2"), system.element("2132")),
        lambda: kl.column(system.element("12321")),
        lambda: kl._mu_down(system._id(w0), 0),
    ):
        call()
        write_kl(store, kl)
        loaded = store.load_table("kl", system.content_hash())
        assert loaded == written_pairs(kl)
        assert len(records_in_order(path.read_bytes())) == len(loaded)
        assert len(loaded) > seen  # each call computed new pairs
        seen = len(loaded)
    store.close()


B4 = "1,4,2,2;4,1,3,2;2,3,1,3;2,2,3,1"


def test_a_cold_kl_call_writes_the_records_of_a_per_pair_fill(tmp_path, capsys):
    # the kl command fills in output order, a per-pair fill in enumeration
    # order: the files hold the same records, and the kl file its pinned bytes
    assert main(["kl", "--matrix", B4, "--cache-dir", str(tmp_path / "kl")]) == 0
    capsys.readouterr()
    system = CoxeterSystem([[int(x) for x in row.split(",")] for row in B4.split(";")])
    store = CacheStore(tmp_path / "p")
    write_kl(store, filled(system))
    store.close()
    by_kl = CacheStore(tmp_path / "kl")
    kind, syshash = "kl", system.content_hash()
    assert by_kl.load_table(kind, syshash) == store.load_table(kind, syshash)
    blob = by_kl._path(kind, syshash).read_bytes()
    assert {len(blob), len(store._path(kind, syshash).read_bytes())} == {3124553}
    assert hashlib.sha256(blob).hexdigest() == (
        "8d274776dc7ba0599674efbe1b934a04db3b4146da98956b9d37edd12bf64760")


COLD_FILES = {
    "A3": (8607, "d40015863a17298cef9c9e1199efe19180a4863e6e9f420d7d2748b82cefa5b5"),
    "A4": (212107, "a4482b085634c507a69a0b2765f5e78b1dd581ce130a8dfea490fdbdc4e5f660"),
}


def cold_file(tmp_path, capsys, label):
    """The argv of a `kl --cache-dir` call, its cache file and the bytes that
    a cold call leaves in it."""
    argv = ["kl", "--type", label, "--cache-dir", str(tmp_path)]
    kl_stdout(capsys, argv)
    (path,) = tmp_path.iterdir()
    return argv, path, path.read_bytes()


@pytest.mark.parametrize("label", COLD_FILES)
def test_a_cold_kl_call_writes_pinned_bytes(tmp_path, capsys, label):
    _, _, blob = cold_file(tmp_path, capsys, label)
    assert (len(blob), hashlib.sha256(blob).hexdigest()) == COLD_FILES[label]


def test_a_torn_tail_is_cut_off_before_the_next_batch(tmp_path, capsys):
    # a file cut mid-record loads up to the torn record; the next kl call
    # cuts the file back to its last whole record and appends the rest, so
    # every record loads and the call after it writes nothing
    argv = ["kl", "--type", "A3", "--cache-dir", str(tmp_path)]
    plain = kl_stdout(capsys, argv)
    (path,) = tmp_path.iterdir()
    whole = path.read_bytes()
    assert len(whole) == 8607
    path.write_bytes(whole[:4303])
    syshash = path.stem.split("-", 1)[1]
    torn = CacheStore(tmp_path).load_table("kl", syshash)
    assert 0 < len(torn) < len(records_in_order(whole))
    assert kl_stdout(capsys, argv) == plain
    healed = path.read_bytes()
    assert healed.startswith(b"".join([HEADER, *(record(k, v) for k, v in torn.items())]))
    assert len(healed) == len(whole)
    assert CacheStore(tmp_path).load_table("kl", syshash) == dict(records_in_order(whole))
    assert kl_stdout(capsys, argv) == plain
    assert path.read_bytes() == healed


def test_a_cut_waits_for_a_file_that_grew_since_the_load(tmp_path):
    # another store appended behind a torn byte after this store's load:
    # this store's next batch cuts nothing, so no writer's batch is lost
    store, other = CacheStore(tmp_path), CacheStore(tmp_path)
    store.append("kl", "h", b"a", b"1")
    path = store._path("kl", "h")
    path.write_bytes(path.read_bytes() + b"\x09")
    assert store.load_table("kl", "h") == {b"a": b"1"}
    other.append("kl", "h", b"b", b"2")
    store.append("kl", "h", b"c", b"3")
    store.close()
    other.close()
    assert path.read_bytes() == b"".join(
        [HEADER, record(b"a", b"1"), b"\x09", record(b"b", b"2"), record(b"c", b"3")])


def no_load(*args):
    raise AssertionError("load_table called")


def test_a_warm_call_on_a_cold_file_compares_and_never_loads(tmp_path, capsys, monkeypatch):
    argv, path, whole = cold_file(tmp_path, capsys, "A4")
    monkeypatch.setattr(CacheStore, "load_table", no_load)
    kl_stdout(capsys, argv)
    assert path.read_bytes() == whole


def test_a_later_record_with_other_bytes_gets_the_true_record_appended(tmp_path, capsys):
    # the file holds the whole stream, then a record that overrides an
    # earlier key: a compare that stops at the stream's end would miss it
    argv, path, whole = cold_file(tmp_path, capsys, "A3")
    key, value = records_in_order(whole)[5]
    bad = record(key, b'{"v": {"0": 7}}')
    path.write_bytes(whole + bad)
    kl_stdout(capsys, argv)
    assert path.read_bytes() == whole + bad + record(key, value)
    kl_stdout(capsys, argv)
    assert path.read_bytes() == whole + bad + record(key, value)


def test_a_file_without_its_last_column_gets_only_that_column(tmp_path, capsys):
    argv, path, whole = cold_file(tmp_path, capsys, "A3")
    records = records_in_order(whole)
    last_w = json.loads(records[-1][0])[1]
    kept = [r for r in records if json.loads(r[0])[1] != last_w]
    assert records[: len(kept)] == kept and len(kept) < len(records)
    path.write_bytes(HEADER + b"".join(record(k, v) for k, v in kept))
    kl_stdout(capsys, argv)
    assert path.read_bytes() == whole


def test_a_foreign_header_is_cut_and_the_file_becomes_warm(tmp_path, capsys, monkeypatch):
    # a file under another schema version is cut back to nothing and
    # rewritten as a cold call writes it; the next call only compares
    argv, path, whole = cold_file(tmp_path, capsys, "A3")
    path.write_bytes(MAGIC + struct.pack("<I", 2) + whole[len(HEADER):])
    kl_stdout(capsys, argv)
    assert path.read_bytes() == whole
    monkeypatch.setattr(CacheStore, "load_table", no_load)
    kl_stdout(capsys, argv)
    assert path.read_bytes() == whole
