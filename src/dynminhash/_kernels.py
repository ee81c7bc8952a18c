"""Compiled per-operation kernels for the hot stream-update paths.

The fallback implementations in core/baselines are the reference
semantics; these kernels execute the identical algorithm without per-row
interpreter dispatch. When numba is unavailable the package transparently
falls back to those paths (see ENABLED).
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    ENABLED = True
except ImportError:  # pragma: no cover - exercised via forced fallback tests
    ENABLED = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


_TOP = np.uint64(0xFFFFFFFFFFFFFFFF)


@njit(cache=True)
def _key(pk, x, i):
    h = (
        pk[0, x & np.uint64(255), i]
        ^ pk[1, (x >> np.uint64(8)) & np.uint64(255), i]
        ^ pk[2, (x >> np.uint64(16)) & np.uint64(255), i]
        ^ pk[3, (x >> np.uint64(24)) & np.uint64(255), i]
    )
    return np.uint64(h) << np.uint64(32) | x


@njit(cache=True)
def insert_op(pk, x, buf, size, delta, ell):
    """Insert element x into every buffer whose threshold admits its pair;
    returns 1 when some threshold moved (the caller then regates), else 0."""
    moved = 0
    for i in range(buf.shape[0]):
        key = _key(pk, x, i)
        if key <= delta[i]:
            row = buf[i]
            s = size[i]
            lo, hi = 0, s
            while lo < hi:
                mid = (lo + hi) >> 1
                if row[mid] < key:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < s and row[lo] == key:
                continue  # pair already buffered
            if s == ell:
                for j in range(ell - 1, lo, -1):
                    row[j] = row[j - 1]
                row[lo] = key
                delta[i] = row[ell - 1]
                moved = 1
            else:
                for j in range(s, lo, -1):
                    row[j] = row[j - 1]
                row[lo] = key
                size[i] = s + 1
                if s + 1 == ell:
                    delta[i] = row[ell - 1]
                    moved = 1
    return moved


@njit(cache=True)
def delete_op(pk, x, buf, size, delta):
    """Remove element x's pairs; returns 1 without mutating when any buffer
    would empty (the caller then rebuilds from a recovery query), else 0."""
    k = buf.shape[0]
    hit_row = np.empty(k, dtype=np.int64)
    hit_pos = np.empty(k, dtype=np.int64)
    hits = 0
    for i in range(k):
        key = _key(pk, x, i)
        if key <= delta[i]:
            row = buf[i]
            s = size[i]
            lo, hi = 0, s
            while lo < hi:
                mid = (lo + hi) >> 1
                if row[mid] < key:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < s and row[lo] == key:
                if s == 1:
                    return 1
                hit_row[hits] = i
                hit_pos[hits] = lo
                hits += 1
    for h in range(hits):
        i = hit_row[h]
        row = buf[i]
        s = size[i]
        for j in range(hit_pos[h], s - 1):
            row[j] = row[j + 1]
        row[s - 1] = _TOP
        size[i] = s - 1
    return 0


@njit(cache=True)
def vanilla_insert_op(pk, x, entries):
    for i in range(entries.shape[0]):
        key = _key(pk, x, i)
        if key < entries[i]:
            entries[i] = key


@njit(cache=True)
def vanilla_is_argmin(entries, x):
    low = np.uint64(0xFFFFFFFF)
    for i in range(entries.shape[0]):
        if (entries[i] & low) == x:
            return 1
    return 0
