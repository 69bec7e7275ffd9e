import pytest

from expodom.cache import (
    CACHE_ENV_VAR,
    CacheRecord,
    ResultsCache,
    cache_from_environment,
    records,
)


class TestCacheRecord:
    def test_line_parse_round_trip(self):
        rec = CacheRecord("F?LT?", 3, 2, 2)
        assert CacheRecord.parse(rec.line()) == rec

    def test_chain_violation_rejected(self):
        with pytest.raises(ValueError):
            CacheRecord("C~", 1, 2, 1)
        with pytest.raises(ValueError):
            CacheRecord("C~", 2, 1, 2)

    def test_parse_rejects_malformed(self):
        for bad in ("", "C~\t1\t1", "C~\t1\t1\t1\t1", "\t1\t1\t1",
                    "C~\tx\t1\t1"):
            with pytest.raises(ValueError):
                CacheRecord.parse(bad)


class TestResultsCache:
    def test_put_get_and_reload(self, tmp_path):
        path = str(tmp_path / "cache.tsv")
        cache = ResultsCache(path)
        assert len(cache) == 0
        cache.put("E@QW", (3, 2, 2))
        cache.put("C~", (1, 1, 1))
        cache.put("E@QW", (3, 2, 2))  # idempotent
        assert cache.get("E@QW") == (3, 2, 2)
        cache.close()

        again = ResultsCache(path)
        assert len(again) == 2
        assert again.get("C~") == (1, 1, 1)
        assert again.get("missing") is None

    def test_append_preserves_existing(self, tmp_path):
        path = str(tmp_path / "cache.tsv")
        first = ResultsCache(path)
        first.put("A_", (1, 1, 1))
        first.close()
        second = ResultsCache(path)
        second.put("Bw", (1, 1, 1))
        second.close()
        final = ResultsCache(path)
        assert len(final) == 2

    def test_bad_lines_skipped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "cache.tsv"
        path.write_bytes(b"E@QW\t3\t2\t2\n"
                         b"garbage line\n"
                         b"C~\t1\t2\t1\n"   # chain violation
                         b"\n"
                         b"B\xc3\xa9\t1\t1\t1\n"   # key is not graph6
                         b"A_\t1\t1\t1\n")
        cache = ResultsCache(str(path))
        err = capsys.readouterr().err
        assert len(cache) == 2
        assert cache.get("E@QW") == (3, 2, 2)
        assert cache.get("A_") == (1, 1, 1)
        assert err.count("skipping bad cache line") == 3
        assert ":2:" in err and ":3:" in err and ":5:" in err

    def test_put_validates_chain(self, tmp_path):
        cache = ResultsCache(str(tmp_path / "cache.tsv"))
        with pytest.raises(ValueError):
            cache.put("C~", (1, 2, 2))

    def test_records_sorted(self, tmp_path):
        cache = ResultsCache(str(tmp_path / "cache.tsv"))
        cache.put("Bw", (1, 1, 1))
        cache.put("A_", (1, 1, 1))
        assert [r.graph6 for r in records(cache)] == ["A_", "Bw"]

    def test_creates_parent_directory(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "cache.tsv"
        cache = ResultsCache(str(path))
        cache.put("A_", (1, 1, 1))
        cache.close()
        assert path.exists()


class TestEnvironment:
    def test_env_var_selects_cache(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.tsv")
        monkeypatch.setenv(CACHE_ENV_VAR, path)
        cache = cache_from_environment()
        assert cache is not None
        assert cache.path == path

    def test_unset_means_no_cache(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert cache_from_environment() is None
