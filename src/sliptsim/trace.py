"""Trace rows and where they go: the row layout, its CSV and JSON-lines
text, and the sinks the engine writes rows to.

Every file a sink writes is UTF-8 with "\\n" line ends, whatever the
locale and the platform, so (scenario, seed) gives the same bytes
everywhere.
"""

import json
from collections import namedtuple
from typing import Protocol

TRACE_FIELDS = (
    "time",
    "node_id",
    "event_kind",
    "phase",
    "stored_J",
    "V_B",
    "harvested_J_cum",
    "decoded_bits_cum",
)
TraceRow = namedtuple("TraceRow", TRACE_FIELDS)

CSV_HEADER = ",".join(TRACE_FIELDS) + "\n"


# Both serializers take any tuples of values in TRACE_FIELDS order: the
# TraceRows of a MemorySink or the plain tuples of a FileSink chunk.

# One CSV line: the numeric columns as repr, which round-trips a float
# exactly, and the text columns as str.  Within one call, a trailing
# column reuses text already made for a float that is nonzero, not NaN and
# equal to the current value, when that value is a float too: two such
# floats have the same bits, so the bytes are those of repr.  stored_J and
# V_B look the text up among every such value printed in them so far, as
# a store refilled to the same level repeats its earlier values;
# harvested_J_cum and decoded_bits_cum only grow, so they look at the row
# before.  Zero (0.0 == -0.0), NaN, ints and bools (True == 1 == 1.0) are
# printed every time.
def trace_to_csv(records) -> str:
    lines = [CSV_HEADER]
    append = lines.append
    texts = {}
    ph = pd = None
    th = td = ""
    for t, n, k, p, s, v, h, d in records:
        if type(s) is float and s in texts:
            ts = texts[s]
        else:
            ts = repr(s)
            if type(s) is float and s and s == s:
                texts[s] = ts
        if type(v) is float and v in texts:
            tv = texts[v]
        else:
            tv = repr(v)
            if type(v) is float and v and v == v:
                texts[v] = tv
        if not (h == ph and h and type(h) is float and type(ph) is float):
            th = repr(h)
        if not (d == pd and d and type(d) is float and type(pd) is float):
            td = repr(d)
        ph, pd = h, d
        append(f"{t!r},{n!s},{k!s},{p!s},{ts},{tv},{th},{td}\n")
    return "".join(lines)


# one encoder for every row: json.dumps with separators builds a new one per call
_JSON_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def trace_to_jsonl(records) -> str:
    return "".join([_JSON_ENCODE(dict(zip(TRACE_FIELDS, r))) + "\n" for r in records])


class TraceSink(Protocol):
    """Where the engine sends trace rows.

    write() takes one row's values in TRACE_FIELDS order; a sink whose
    builds_rows is False is called with no values, and the engine skips
    building the row.  The engine calls close() once, after the last
    row of a run that finished; len() is the number of rows produced.
    """

    builds_rows: bool

    def write(self, *values) -> None: ...

    def close(self) -> None: ...

    def __len__(self) -> int: ...


class MemorySink(list):
    """Keeps every row as a TraceRow, a namedtuple of TRACE_FIELDS (the default)."""

    builds_rows = True

    def write(self, *values):
        self.append(TraceRow._make(values))

    def close(self):
        pass


class NullSink:
    """Counts rows and keeps none."""

    builds_rows = False

    def __init__(self):
        self.rows = 0

    def write(self, *values):
        self.rows += 1

    def close(self):
        pass

    def __len__(self) -> int:
        return self.rows


class FileSink:
    """Streams rows to `path` through `serialize` (trace_to_csv or
    trace_to_jsonl), `chunk_rows` rows at a time, so memory stays flat
    however long the run; the CSV header goes out once.

    Rows go to `path` itself.  Leaving the with block calls close(), or
    only closes the file when the block raised: the CLI writes the trace
    in its staging directory, which a failed command removes.
    """

    builds_rows = True
    chunk_rows = 4096

    def __init__(self, path, serialize):
        self._serialize = serialize
        self._chunk: list[tuple] = []
        self._written = 0
        self._file = open(path, "w", encoding="utf-8", newline="\n")

    def write(self, *values):
        self._chunk.append(values)
        if len(self._chunk) >= self.chunk_rows:
            self._flush()

    def _flush(self):
        text = self._serialize(self._chunk)
        if self._written and text.startswith(CSV_HEADER):
            text = text[len(CSV_HEADER):]
        self._file.write(text)
        self._written += len(self._chunk)
        self._chunk = []

    def close(self):
        try:
            if self._chunk or not self._written:
                self._flush()
        finally:
            self._file.close()

    def __len__(self) -> int:
        return self._written + len(self._chunk)

    def __enter__(self) -> "FileSink":
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None and not self._file.closed:
            self.close()
        self._file.close()
