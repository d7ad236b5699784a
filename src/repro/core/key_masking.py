"""Key masking (paper §III-B, Fig. 4 bottom).

For group-by aggregation over a *large* hash table, value masking's
unconditional lookups get expensive: every tuple pays a random access
into a structure that misses cache. Key masking masks the group-by *key*
instead: tuples failing the predicate aggregate into a single throwaway
``NULL_KEY`` entry, which stays cache-hot exactly when the predicate
fails often. No bookkeeping flag is needed — every entry other than the
throwaway is guaranteed valid.

The kernel layer detects ``NULL_KEY`` batches and prices them through the
hot-entry path of the cost accountant, whose residency degrades as valid
(cache-polluting) lookups become more frequent — reproducing the paper's
finding that key masking only overtakes hybrid beyond ~45 % selectivity
at 100 K keys and ~85 % at 10 M keys (and that it is therefore *not* the
dominant strategy Voodoo suggested).
"""

from __future__ import annotations

import numpy as np

from ..engine import kernels as K
from ..engine.events import Compute
from ..engine.hashtable import NULL_KEY
from ..engine.session import Session


def mask_keys(
    session: Session,
    keys: np.ndarray,
    mask: np.ndarray,
    array: str,
) -> np.ndarray:
    """First inner loop of Fig. 4 (bottom): ``key[j] = pred ? c : NULL``.

    A predicated select per tuple plus a sequential write of the masked
    key array (tile-resident).
    """
    n = int(keys.shape[0])
    session.tracer.emit(Compute(n=n, op="blend", simd=True, width=8))
    masked = np.where(mask, keys, NULL_KEY)
    K.seq_write(session, masked, f"key({array})", resident=True)
    return masked
