"""The KL cache: its file format, its one writer, and files written whole
or not at all, also by concurrent writers."""

import hashlib
import json
import os
import struct
import subprocess
import sys
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
    # kl prints its cache-free text whatever the file holds, and rewrites
    # it with the true record of every pair, so the next load holds only
    # good records and the next call writes nothing
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
    expected = dict(kl_record(y, w, KLTable(system).p(y, w)) for y, w in bruhat_pairs(system))
    assert store.load_table("kl", system.content_hash()) == expected
    blob = store._path("kl", system.content_hash()).read_bytes()
    assert blob.startswith(HEADER)
    assert len(blob) == len(HEADER) + sum(len(record(k, v)) for k, v in expected.items())


def test_a_half_warm_store_is_rewritten_as_the_whole_table(tmp_path):
    system = CoxeterSystem.from_label("B3")
    records = [kl_record(y, w, KLTable(system).p(y, w)) for y, w in bruhat_pairs(system)]
    store, fresh = CacheStore(tmp_path / "half"), CacheStore(tmp_path / "fresh")
    path = store._path("kl", system.content_hash())
    path.write_bytes(HEADER + b"".join(record(k, v) for k, v in records[::2]))
    table = filled(system)
    write_kl(store, table)
    write_kl(fresh, table)
    # a file holding every other record is replaced by the whole table, in
    # fill order, byte for byte as a fresh store gets it
    whole = path.read_bytes()
    assert whole == fresh._path("kl", system.content_hash()).read_bytes()
    assert store.load_table("kl", system.content_hash()) == dict(records)
    assert len(whole) == len(HEADER) + sum(len(record(k, v)) for k, v in records)


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
    # the last record has an empty value, and still ends the file whole
    recs = [(b"key%d" % i, b"value%d" % i) for i in range(40)] + [(b"empty", b"")]
    for i, (k, v) in enumerate(recs):
        (a if i % 3 else b).append("kl", "h", k, v)
    assert os.listdir(tmp_path) == ["kl-h.hwc"]
    blob = (tmp_path / "kl-h.hwc").read_bytes()
    assert blob == HEADER + b"".join(record(k, v) for k, v in recs)
    assert CacheStore(tmp_path).load_table("kl", "h") == dict(recs)


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
    # the file holds exactly the pairs filled so far
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


B4 = "1,4,2,2;4,1,3,2;2,3,1,3;2,2,3,1"


def test_a_cold_kl_call_writes_the_records_of_a_per_pair_fill(tmp_path, capsys):
    # the kl command fills in output order, a per-pair fill in enumeration
    # order: the files hold the same records, and the kl file its pinned bytes
    assert main(["kl", "--matrix", B4, "--cache-dir", str(tmp_path / "kl")]) == 0
    capsys.readouterr()
    system = CoxeterSystem([[int(x) for x in row.split(",")] for row in B4.split(";")])
    store = CacheStore(tmp_path / "p")
    write_kl(store, filled(system))
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


def test_concurrent_kl_calls_leave_one_whole_file(tmp_path):
    # three cold A4 calls race: each writes a temporary file of its own and
    # moves it onto the table's name, so the directory ends with the one
    # table file, holding the cold bytes, and no temporary file
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "heckework.cli", "kl", "--type", "A4",
            "--cache-dir", str(tmp_path)]
    procs = [subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL) for _ in range(3)]
    assert [p.wait(timeout=60) for p in procs] == [0, 0, 0]
    (path,) = tmp_path.iterdir()
    blob = path.read_bytes()
    assert (len(blob), hashlib.sha256(blob).hexdigest()) == COLD_FILES["A4"]


def test_a_torn_file_is_rewritten_whole(tmp_path, capsys):
    # a file cut mid-record loads up to the torn record; the next kl call
    # replaces it with the whole table, whose first records are those that
    # loaded, so every record loads and the call after it writes nothing
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


def no_load(*args):
    raise AssertionError("load_table called")


def no_write(*args):
    raise AssertionError("write called")


def test_a_warm_call_on_a_cold_file_compares_and_never_loads(tmp_path, capsys, monkeypatch):
    # nor writes: the file that holds exactly the records keeps its bytes
    argv, path, whole = cold_file(tmp_path, capsys, "A4")
    monkeypatch.setattr(CacheStore, "load_table", no_load)
    monkeypatch.setattr(CacheStore, "write", no_write)
    kl_stdout(capsys, argv)
    assert path.read_bytes() == whole


def test_a_later_record_with_other_bytes_is_rewritten_away(tmp_path, capsys):
    # the file holds the whole stream, then a record that overrides an
    # earlier key: a compare that stops at the stream's end would keep it,
    # and the next load would serve the wrong bytes.  The file becomes the
    # cold bytes, and stays so
    argv, path, whole = cold_file(tmp_path, capsys, "A3")
    key, _ = records_in_order(whole)[5]
    path.write_bytes(whole + record(key, b'{"v": {"0": 7}}'))
    kl_stdout(capsys, argv)
    assert path.read_bytes() == whole
    kl_stdout(capsys, argv)
    assert path.read_bytes() == whole


def test_a_file_without_its_last_column_is_rewritten_whole(tmp_path, capsys):
    argv, path, whole = cold_file(tmp_path, capsys, "A3")
    records = records_in_order(whole)
    last_w = json.loads(records[-1][0])[1]
    kept = [r for r in records if json.loads(r[0])[1] != last_w]
    assert records[: len(kept)] == kept and len(kept) < len(records)
    path.write_bytes(HEADER + b"".join(record(k, v) for k, v in kept))
    kl_stdout(capsys, argv)
    assert path.read_bytes() == whole


def test_a_foreign_header_is_cut_and_the_file_becomes_warm(tmp_path, capsys, monkeypatch):
    # a file under another schema version is replaced by what a cold call
    # writes; the next call only compares
    argv, path, whole = cold_file(tmp_path, capsys, "A3")
    path.write_bytes(MAGIC + struct.pack("<I", 2) + whole[len(HEADER):])
    kl_stdout(capsys, argv)
    assert path.read_bytes() == whole
    monkeypatch.setattr(CacheStore, "load_table", no_load)
    kl_stdout(capsys, argv)
    assert path.read_bytes() == whole
