import contextlib
import io
import re

import pytest
from hypothesis import given, strategies as st

from expodom.cache import CacheRecord, ResultsCache
from expodom.graphs import decode_graph6
from conftest import FUZZ

#: Text that stays on one line when the file is read back.
LINE_TEXT = st.text(st.characters(blacklist_characters="\r\n"), max_size=12)
KEYS = st.one_of(st.sampled_from(("A_", "Bw", "C~", "E@QW", " F?LT?",
                                  "F?LT? ", ">>graph6<<F?LT?")),
                 LINE_TEXT)
FIELD = st.one_of(st.integers(-2, 5).map(str),
                  # spellings int() reads; only plain digits make a field
                  st.sampled_from(("+1", " 1", "1 ", "1_0", "01", "\u0661")),
                  LINE_TEXT)
CACHE_LINE = st.one_of(
    LINE_TEXT,
    st.tuples(KEYS, FIELD, FIELD, FIELD).map("\t".join),
    # values that always satisfy the chain
    st.builds(lambda key, vals: "\t".join(
                  [key, *map(str, sorted(vals, reverse=True))]),
              KEYS, st.lists(st.integers(-1, 5), min_size=3, max_size=3)),
)


def kept_oracle(line: str):
    """(key, values) of a line the cache must keep, or None."""
    fields = line.split("\t")
    if len(fields) != 4:
        return None
    # the key is graph6 bytes alone: no header, no surrounding spaces
    if not fields[0] or any(not 63 <= ord(ch) <= 126 for ch in fields[0]):
        return None
    try:
        n = decode_graph6(fields[0]).n
    except ValueError:  # Graph6Error and SizeCapError among them
        return None
    if not all(v and set(v) <= set("0123456789") for v in fields[1:]):
        return None
    a, b, c = (int(v) for v in fields[1:])
    return (fields[0], (a, b, c)) if 1 <= c <= b <= a <= n else None


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
                    "C~\tx\t1\t1",
                    # signed, spaced, underscored or non-ASCII digits
                    "A_\t-1\t-2\t-3", "Bw\t1_0\t+2\t 0", "Bw\t1\t1\t1 ",
                    "Bw\t\u0661\t1\t1",
                    # values outside 1..order
                    "A_\t0\t0\t0", "Bw\t4\t1\t1", "?\t0\t0\t0",
                    # keys that are graph6 only once stripped
                    " F?LT?\t3\t2\t2", "F?LT? \t3\t2\t2",
                    ">>graph6<<F?LT?\t3\t2\t2"):
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

    def test_append_after_truncated_last_line(self, tmp_path, capsys):
        # an interrupted run left "D" with no newline; gluing the next
        # record onto it would forge DA_ -> (1, 1, 1) (its values are
        # (3, 3, 3)) and lose the A_ record
        path = tmp_path / "cache.tsv"
        path.write_bytes(b"D")
        cache = ResultsCache(str(path))
        cache.put("A_", (1, 1, 1))
        cache.close()
        assert path.read_bytes() == b"D\nA_\t1\t1\t1\n"
        capsys.readouterr()
        again = ResultsCache(str(path))
        assert dict(again.items()) == {"A_": (1, 1, 1)}
        assert again.get("DA_") is None
        assert capsys.readouterr().err == (
            f"warning: {path}:1: skipping bad cache line "
            "(expected 4 fields, got 1)\n")

    def test_bad_lines_skipped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "cache.tsv"
        path.write_bytes(b"E@QW\t3\t2\t2\n"
                         b"garbage line\n"
                         b"C~\t1\t2\t1\n"   # chain violation
                         b"\n"
                         b"B\xc3\xa9\t1\t1\t1\n"   # key is not graph6
                         b"A_\t-1\t-2\t-3\n"   # signed, below 1
                         b"Bw\t1_0\t+2\t 0\n"   # not plain digits
                         b"A_\t1\t1\t1\n")
        cache = ResultsCache(str(path))
        err = capsys.readouterr().err
        assert len(cache) == 2
        assert cache.get("E@QW") == (3, 2, 2)
        assert cache.get("A_") == (1, 1, 1)
        assert cache.get("Bw") is None
        assert err.count("skipping bad cache line") == 5
        assert all(f":{i}:" in err for i in (2, 3, 5, 6, 7))

    @FUZZ
    @given(lines=st.lists(CACHE_LINE, max_size=8))
    def test_load_fuzz(self, tmp_path_factory, lines):
        # any file loads: one warning per bad line, and only the lines with
        # a graph6 key and chain-valid values are kept
        path = tmp_path_factory.getbasetemp() / "fuzz-cache.tsv"
        data = "\n".join(lines).encode("utf-8", "surrogatepass")
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            cache = ResultsCache(str(path))
        # the cache reads ASCII, each other byte as U+FFFD
        read = data.decode("ascii", "replace").split("\n")
        bad = [lineno for lineno, line in enumerate(read, start=1)
               if line.strip() and kept_oracle(line) is None]
        warned = re.findall(r":(\d+): skipping bad cache line", err.getvalue())
        assert list(map(int, warned)) == bad
        kept = dict(filter(None, map(kept_oracle, read)))
        assert list(cache.items()) == list(kept.items())

    def test_put_validates_chain(self, tmp_path):
        cache = ResultsCache(str(tmp_path / "cache.tsv"))
        with pytest.raises(ValueError):
            cache.put("C~", (1, 2, 2))

    def test_padded_keys_skipped_and_refused(self, tmp_path, capsys):
        # each line's key is valid graph6 once stripped, and none would
        # ever be hit: warned about on load, refused by put
        path = tmp_path / "cache.tsv"
        path.write_bytes(b" F?LT?\t3\t2\t2\n"
                         b"F?LT? \t3\t2\t2\n"
                         b">>graph6<<F?LT?\t3\t2\t2\n"
                         b"F?LT?\t3\t2\t2\n")
        cache = ResultsCache(str(path))
        err = capsys.readouterr().err
        assert list(cache.items()) == [("F?LT?", (3, 2, 2))]
        assert err.count("skipping bad cache line") == 3
        assert all(f":{i}:" in err for i in (1, 2, 3))
        for key in (" F?LT?", "F?LT? ", ">>graph6<<F?LT?"):
            with pytest.raises(ValueError):
                cache.put(key, (3, 2, 2))
        cache.close()
        assert path.read_bytes().count(b"\n") == 4

    def test_items_in_file_order(self, tmp_path):
        path = str(tmp_path / "cache.tsv")
        cache = ResultsCache(path)
        cache.put("Bw", (1, 1, 1))
        cache.put("A_", (1, 1, 1))
        cache.close()
        assert list(ResultsCache(path).items()) == [("Bw", (1, 1, 1)),
                                                     ("A_", (1, 1, 1))]

    def test_creates_parent_directory(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "cache.tsv"
        cache = ResultsCache(str(path))
        cache.put("A_", (1, 1, 1))
        cache.close()
        assert path.exists()

