# lint-fixture: src/repro/service/fixture_resources.py
"""Good REP005 fixture: every acquisition has a release on all paths."""

import sqlite3
import sys
from multiprocessing import shared_memory


def with_statement(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def try_finally(path):
    db = sqlite3.connect(path)
    try:
        return db.execute("SELECT 1").fetchone()
    finally:
        db.close()


def cleanup_in_handler(name):
    segment = shared_memory.SharedMemory(name=name)
    try:
        return bytes(segment.buf[:8])
    except BaseException:
        segment.unlink()
        raise


def transfer_to_caller(path):
    # Ownership transfer: the handle outlives this function on purpose.
    # repro-lint: allow[REP005] the caller closes it (see read_one)
    db = sqlite3.connect(path)
    return db


def read_one(path):
    db = transfer_to_caller(path)
    try:
        return db.execute("SELECT 1").fetchone()
    finally:
        db.close()


def ternary_then_with(path, use_stdin):
    stream = sys.stdin if use_stdin else open(path)
    with stream:
        return stream.read()


class Closer:
    def __init__(self, path):
        self._db = sqlite3.connect(path)

    def close(self):
        self._db.close()
