"""Fingerprinted dataset cache: in-process LRU + on-disk column store.

Every bench or test invocation used to regenerate its TPC-H and
microbenchmark databases from scratch — by far the largest fixed cost of
a run once plans are cached and workers are pooled. Generation is fully
deterministic (generator + frozen config dataclass + seed), so the
result is cacheable by construction.

The cache has two layers, both keyed by a *fingerprint* of
``(format version, generator name, config repr)``:

* an in-process LRU of live :class:`~repro.storage.database.Database`
  objects (bounded entry count; repeated loads within one process are
  pointer-returns), and
* an on-disk layer under a cache directory: one subdirectory per
  fingerprint holding ``meta.json`` (schema: logical types,
  dictionaries, decimal scales, foreign keys, column encodings, and
  the originating config) plus one ``.npy`` file per column — and,
  for compressed columns, a second ``.codes.npy`` file holding the
  narrow code stream — loaded back with ``np.load(..., mmap_mode="r")``
  so a cold process maps both the values and the codes instead of
  re-randomizing (or re-``astype``-ing) them. Shard workers therefore
  serve encoded scans straight off the page cache: the narrow code
  pages are shared across every worker process, and no per-process
  decode copy is ever made.

The cache directory resolves, in order: the explicit ``cache_dir``
argument, the ``REPRO_CACHE_DIR`` environment variable, then
``~/.cache/repro/datasets``. Clear it with :meth:`DatasetCache.clear`
(or simply delete the directory).

Foreign-key offset indexes are *not* stored — they are pure arithmetic
over the loaded columns and are rebuilt eagerly on load, exactly as
:meth:`Database.add_foreign_key` does at generation time.

Cross-process safety: two processes missing on the same fingerprint
(CI matrix jobs, a server starting while a bench runs) coordinate
through a per-entry lock file taken with ``O_CREAT | O_EXCL`` — the
loser waits and then finds the winner's entry on disk instead of
generating the dataset a second time. The lock guards *work
duplication*; *correctness* never depends on it, because an entry only
ever appears via an atomic rename of a fully-written temp directory
(readers see a complete entry or none). Stale locks (a crashed holder)
are broken after a timeout, and a process that cannot acquire the lock
at all falls back to generating privately — worst case duplicated
work, never corruption.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..errors import DataGenError
from ..storage.column import Column, LogicalType
from ..storage.database import Database
from ..storage.table import Table
from . import microbench, tpch

#: Bump when the on-disk layout changes; old entries simply miss.
#: v2: per-column encoding metadata + persisted narrow code streams.
FORMAT_VERSION = 2

#: Registered generators addressable by name: name -> (generate, config
#: type). The config type is what :func:`load_dataset` validates against.
GENERATORS: Dict[str, Tuple[Callable, type]] = {
    "microbench": (microbench.generate, microbench.MicrobenchConfig),
    "tpch": (tpch.generate, tpch.TpchConfig),
}

_META_FILE = "meta.json"

#: A lock older than this is presumed to belong to a crashed process
#: and is broken (dataset generation takes seconds, not minutes).
_LOCK_STALE_SECONDS = 300.0

#: How long a process waits for another's in-progress store before
#: giving up and generating privately.
_LOCK_WAIT_SECONDS = 120.0

_LOCK_POLL_SECONDS = 0.05


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/datasets``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "datasets"


def dataset_fingerprint(generator: str, config) -> str:
    """Stable fingerprint of one generated dataset.

    Configs are frozen dataclasses whose ``repr`` is a deterministic
    structural serialisation (it includes the seed), mirroring
    :func:`repro.engine.plan_cache.query_fingerprint`.
    """
    payload = f"v{FORMAT_VERSION}:{generator}:{config!r}"
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


@dataclass
class DatasetCacheStats:
    """Hit/miss counters of one dataset cache."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.memory_hits + self.disk_hits + self.misses
        return (self.memory_hits + self.disk_hits) / total if total else 0.0

    def snapshot(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class DatasetCache:
    """Two-layer (memory LRU + disk) cache of generated databases.

    Parameters
    ----------
    cache_dir:
        On-disk location; ``None`` resolves via :func:`default_cache_dir`.
    memory_entries:
        Max live databases kept in the in-process LRU.
    mmap:
        Memory-map column files on disk load instead of reading them
        into fresh arrays (saves RSS and load time for large datasets).
    """

    cache_dir: Optional[Path] = None
    memory_entries: int = 4
    mmap: bool = True
    stats: DatasetCacheStats = field(default_factory=DatasetCacheStats)
    #: Where the most recent :meth:`load` was served from:
    #: ``"memory"`` / ``"disk"`` / ``"generated"``.
    last_source: Optional[str] = None
    _entries: "OrderedDict[str, Database]" = field(
        default_factory=OrderedDict
    )

    def __post_init__(self) -> None:
        if self.memory_entries < 1:
            raise DataGenError("dataset cache needs at least one entry")
        self.cache_dir = (
            Path(self.cache_dir)
            if self.cache_dir is not None
            else default_cache_dir()
        )

    # -- loading ---------------------------------------------------------

    def load(self, generator: str, config=None) -> Database:
        """Return the database for ``(generator, config)``, generating
        it only when neither cache layer has it."""
        generate, config_type = self._resolve(generator)
        if config is None:
            config = config_type()
        if not isinstance(config, config_type):
            raise DataGenError(
                f"generator {generator!r} expects a "
                f"{config_type.__name__}, got {type(config).__name__}"
            )
        key = dataset_fingerprint(generator, config)

        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.stats.memory_hits += 1
            self.last_source = "memory"
            return cached

        db = self._load_disk(key)
        if db is not None:
            self.stats.disk_hits += 1
            self.last_source = "disk"
        else:
            # Serialise concurrent first-loads of the same fingerprint
            # across processes: whoever wins the lock generates and
            # stores; waiters re-check the disk and find the entry.
            with self._entry_lock(key):
                db = self._load_disk(key)
                if db is not None:
                    self.stats.disk_hits += 1
                    self.last_source = "disk"
                else:
                    self.stats.misses += 1
                    self.last_source = "generated"
                    db = generate(config)
                    self._store_disk(key, generator, config, db)
        self._tag(db, key, generator=generator)
        self._remember(key, db)
        return db

    def load_fingerprint(self, key: str) -> Optional[Database]:
        """Load an existing on-disk entry directly by fingerprint.

        This is how shard worker processes bootstrap: the parent ships
        only the 24-hex fingerprint over the task protocol and each
        worker maps the same ``.npy`` files read-only — no column data
        ever crosses the pipe. Returns ``None`` when the entry is
        absent (the caller decides whether that is fatal); never
        generates.
        """
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.stats.memory_hits += 1
            self.last_source = "memory"
            return cached
        db = self._load_disk(key)
        if db is None:
            return None
        self.stats.disk_hits += 1
        self.last_source = "disk"
        self._tag(db, key)
        self._remember(key, db)
        return db

    def _tag(
        self, db: Database, key: str, generator: Optional[str] = None
    ) -> None:
        """Stamp dataset provenance onto the loaded database so
        downstream consumers (the shard executor) can address the same
        entry from another process."""
        if generator is not None:
            db.dataset_generator = generator
        db.dataset_fingerprint = key
        db.dataset_cache_dir = str(self.cache_dir)

    def _resolve(self, generator: str) -> Tuple[Callable, type]:
        try:
            return GENERATORS[generator]
        except KeyError as exc:
            raise DataGenError(
                f"unknown dataset generator {generator!r}; "
                f"known: {sorted(GENERATORS)}"
            ) from exc

    def _remember(self, key: str, db: Database) -> None:
        self._entries[key] = db
        self._entries.move_to_end(key)
        while len(self._entries) > self.memory_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # -- disk layer ------------------------------------------------------

    def _entry_dir(self, key: str) -> Path:
        return self.cache_dir / key

    def _lock_path(self, key: str) -> Path:
        return self.cache_dir / f".{key}.lock"

    @contextmanager
    def _entry_lock(self, key: str):
        """Best-effort cross-process lock around one entry's generation.

        Acquired with ``O_CREAT | O_EXCL`` (atomic on every platform and
        on NFS since v3). Locks whose mtime exceeds
        ``_LOCK_STALE_SECONDS`` are presumed orphaned by a crashed
        holder and broken — but only after re-checking that the file at
        the lock path is still the *same* file that was judged stale
        (see :meth:`_break_stale_lock`): two waiters that both observed
        staleness must not both unlink, or the second unlink deletes
        the fresh lock the first breaker just re-acquired and a third
        process slips in. Only the waiter whose unlink actually removed
        the stale file retries the claim immediately; everyone else
        falls back to a normal poll tick. If the lock cannot be
        acquired within ``_LOCK_WAIT_SECONDS`` the caller proceeds
        *unlocked* — duplicated generation work at worst, since entries
        only ever appear via an atomic rename.
        """
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._lock_path(key)
        flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
        acquired = False
        deadline = time.monotonic() + _LOCK_WAIT_SECONDS
        while time.monotonic() < deadline:
            try:
                fd = os.open(path, flags)
            except FileExistsError:
                try:
                    seen = path.stat()
                except OSError:
                    continue  # holder just released; retry immediately
                if time.time() - seen.st_mtime > _LOCK_STALE_SECONDS:
                    if self._break_stale_lock(path, seen):
                        continue  # we removed it: claim on the retry
                    # Another waiter broke it first (or its holder
                    # released and a fresh lock took the path): honour
                    # whoever claims next instead of racing the unlink.
                time.sleep(_LOCK_POLL_SECONDS)
            except OSError:
                break  # unwritable cache dir: fall through unlocked
            else:
                with os.fdopen(fd, "w") as handle:
                    handle.write(str(os.getpid()))
                acquired = True
                break
        try:
            yield
        finally:
            if acquired:
                try:
                    path.unlink()
                except OSError:
                    pass

    @staticmethod
    def _break_stale_lock(path: Path, seen: os.stat_result) -> bool:
        """Unlink ``path`` only if it is still the file judged stale.

        Between a waiter's staleness check and its ``unlink`` the stale
        lock may already have been broken by another waiter *and*
        replaced by that waiter's fresh lock; a blind unlink would then
        delete the fresh lock and let a third process claim, defeating
        the mutual exclusion. Re-stat and compare file identity
        (``st_ino`` + ``st_mtime_ns``) against the observation that
        justified the break; mismatch means someone else acted first.

        Returns ``True`` only when *this* caller performed the unlink —
        the one waiter allowed to retry the claim immediately.

        The residual stat→unlink window is microseconds (versus the
        300 s staleness horizon) and its worst case is the pre-existing
        documented fallback: duplicated generation, never corruption.
        """
        try:
            current = path.stat()
        except OSError:
            return False  # gone already: someone else broke it
        if (current.st_ino, current.st_mtime_ns) != (
            seen.st_ino,
            seen.st_mtime_ns,
        ):
            return False  # a fresh lock replaced the stale one
        try:
            path.unlink()
        except OSError:
            return False
        return True

    def _store_disk(self, key: str, generator: str, config, db) -> None:
        """Persist ``db`` atomically (write to a temp dir, then rename).

        Called only after :meth:`_load_disk` missed, so an entry already
        under ``key`` is corrupt: it is moved aside and dropped before
        the fresh one is renamed in.
        """
        entry = self._entry_dir(key)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        tables = []
        tmp = Path(
            tempfile.mkdtemp(prefix=f".{key}-", dir=self.cache_dir)
        )
        try:
            for name in db.catalog.table_names:
                table = db.table(name)
                columns = []
                for col in table.iter_columns():
                    filename = f"{name}__{col.name}.npy"
                    np.save(tmp / filename, col.values, allow_pickle=False)
                    col_meta = {
                        "name": col.name,
                        "logical_type": col.logical_type.value,
                        "file": filename,
                        "dictionary": (
                            list(col.dictionary)
                            if col.dictionary is not None
                            else None
                        ),
                        "scale": col.scale,
                    }
                    # Compressed columns persist their narrow code
                    # stream too, so loaders (shard workers above all)
                    # mmap codes instead of re-deriving them per
                    # process. Codec "none" needs no second file — its
                    # code stream aliases the values.
                    enc = col.encoding
                    if enc.compressed:
                        codes_file = f"{name}__{col.name}.codes.npy"
                        np.save(
                            tmp / codes_file,
                            col.encoded_values(),
                            allow_pickle=False,
                        )
                        col_meta["encoding"] = {
                            "codec": enc.codec,
                            "dtype": enc.dtype,
                            "width": enc.width,
                            "decoded_width": enc.decoded_width,
                            "codes_file": codes_file,
                        }
                    columns.append(col_meta)
                tables.append({"name": name, "columns": columns})
            meta = {
                "format_version": FORMAT_VERSION,
                "generator": generator,
                "config": repr(config),
                "tables": tables,
                "foreign_keys": [
                    {
                        "table": fk.table,
                        "column": fk.column,
                        "ref_table": fk.ref_table,
                        "ref_column": fk.ref_column,
                    }
                    for fk in db.catalog.foreign_keys()
                ],
            }
            (tmp / _META_FILE).write_text(json.dumps(meta, indent=1))
            if entry.exists():
                aside = Path(
                    tempfile.mkdtemp(prefix=f".{key}-corrupt-", dir=self.cache_dir)
                )
                entry.replace(aside)
                shutil.rmtree(aside, ignore_errors=True)
            try:
                tmp.rename(entry)
            except OSError:
                # A concurrent process stored the same entry first.
                shutil.rmtree(tmp, ignore_errors=True)
            self.stats.stores += 1
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise

    def _load_disk(self, key: str) -> Optional[Database]:
        entry = self._entry_dir(key)
        meta_path = entry / _META_FILE
        if not meta_path.is_file():
            return None
        try:
            meta = json.loads(meta_path.read_text())
            if meta.get("format_version") != FORMAT_VERSION:
                return None
            db = Database()
            for table_meta in meta["tables"]:
                columns = []
                for col_meta in table_meta["columns"]:
                    values = np.load(
                        entry / col_meta["file"],
                        mmap_mode="r" if self.mmap else None,
                        allow_pickle=False,
                    )
                    column = Column(
                        name=col_meta["name"],
                        logical_type=LogicalType(
                            col_meta["logical_type"]
                        ),
                        values=values,
                        dictionary=(
                            tuple(col_meta["dictionary"])
                            if col_meta["dictionary"] is not None
                            else None
                        ),
                        scale=col_meta["scale"],
                    )
                    enc_meta = col_meta.get("encoding")
                    if enc_meta is not None:
                        from ..storage.compression import ColumnEncoding

                        codes = np.load(
                            entry / enc_meta["codes_file"],
                            mmap_mode="r" if self.mmap else None,
                            allow_pickle=False,
                        )
                        column.seed_encoded(
                            ColumnEncoding(
                                codec=enc_meta["codec"],
                                dtype=enc_meta["dtype"],
                                width=enc_meta["width"],
                                decoded_width=enc_meta["decoded_width"],
                            ),
                            codes,
                        )
                    columns.append(column)
                db.add_table(
                    Table(name=table_meta["name"], columns=tuple(columns))
                )
            for fk in meta["foreign_keys"]:
                db.add_foreign_key(
                    fk["table"], fk["column"], fk["ref_table"],
                    fk["ref_column"],
                )
            return db
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            # Corrupt, truncated or wrong-shape entry: treat as a miss
            # (it is regenerated, and _store_disk replaces it).
            return None

    # -- management ------------------------------------------------------

    def clear_memory(self) -> None:
        self._entries.clear()

    def clear_disk(self) -> None:
        if self.cache_dir.is_dir():
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def clear(self) -> None:
        """Drop both layers."""
        self.clear_memory()
        self.clear_disk()


_default_cache: Optional[DatasetCache] = None


def dataset_cache() -> DatasetCache:
    """The process-wide default cache (created on first use).

    The default cache's counters are registered as the
    ``dataset_cache`` stat source of the process-wide metrics registry,
    so its hit rates show up in ``stats`` snapshots alongside the plan
    cache and the service counters.
    """
    global _default_cache
    if _default_cache is None:
        _default_cache = DatasetCache()
        from ..obs import metrics_registry

        metrics_registry().register_source(
            "dataset_cache", _default_cache.stats.snapshot
        )
    return _default_cache


def load_dataset(
    generator: str, config=None, cache: Optional[DatasetCache] = None
) -> Database:
    """Convenience wrapper: load through ``cache`` (default: the
    process-wide cache)."""
    return (cache or dataset_cache()).load(generator, config)
