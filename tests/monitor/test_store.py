"""Tests for the shared store (in-memory and NFS-like file store)."""

import pytest

from repro.monitor.store import FileStore, InMemoryStore


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemoryStore()
    return FileStore(tmp_path / "nfs")


class TestSharedStoreContract:
    def test_get_missing(self, store):
        assert store.get("nope") is None
        assert store.value("nope", default=42) == 42
        assert store.age("nope", now=10.0) is None

    def test_put_get_roundtrip(self, store):
        store.put("a/b", {"x": 1}, time=3.5)
        t, v = store.get("a/b")
        assert t == 3.5 and v == {"x": 1}

    def test_overwrite_updates_time(self, store):
        store.put("k", 1, time=1.0)
        store.put("k", 2, time=2.0)
        assert store.get("k") == (2.0, 2)

    def test_age(self, store):
        store.put("k", 1, time=5.0)
        assert store.age("k", now=8.0) == pytest.approx(3.0)

    def test_keys_prefix(self, store):
        store.put("nodestate/n1", 1, 0.0)
        store.put("nodestate/n2", 1, 0.0)
        store.put("latency/n1", 1, 0.0)
        assert store.keys("nodestate/") == ["nodestate/n1", "nodestate/n2"]
        assert len(store.keys()) == 3

    def test_delete(self, store):
        store.put("k", 1, 0.0)
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert store.get("k") is None

    def test_complex_values(self, store):
        rec = {"static": {"cores": 12}, "list": [1.5, None, "x"]}
        store.put("rec", rec, 0.0)
        assert store.value("rec") == rec


class TestFileStore:
    def test_persistence_across_instances(self, tmp_path):
        root = tmp_path / "nfs"
        FileStore(root).put("livehosts", ["a", "b"], 1.0)
        assert FileStore(root).value("livehosts") == ["a", "b"]

    def test_unsafe_key_characters_roundtrip(self, tmp_path):
        fs = FileStore(tmp_path / "nfs")
        fs.put("weird key/with:chars", 1, 0.0)
        assert fs.value("weird key/with:chars") == 1
        assert fs.keys() == ["weird key/with:chars"]

    def test_path_traversal_rejected(self, tmp_path):
        fs = FileStore(tmp_path / "nfs")
        with pytest.raises(ValueError):
            fs.put("../escape", 1, 0.0)
        with pytest.raises(ValueError):
            fs.put("a//b", 1, 0.0)

    def test_nested_keys_make_subdirs(self, tmp_path):
        fs = FileStore(tmp_path / "nfs")
        fs.put("a/b/c", 7, 0.0)
        assert (tmp_path / "nfs" / "a" / "b" / "c.json").exists()


class TestInMemoryStore:
    def test_len(self):
        s = InMemoryStore()
        s.put("a", 1, 0.0)
        s.put("b", 2, 0.0)
        assert len(s) == 2

    def test_shares_by_reference(self):
        # Cheap writes: a later mutation through the writer's alias shows.
        s = InMemoryStore()
        value = {"load": 1.0}
        s.put("k", value, 0.0)
        value["load"] = 99.0
        assert s.value("k") == {"load": 99.0}
