"""A rank oracle that hashes its ordered query stream.

Equal query counts can hide a changed query set, so the stream pins hash
every query in order: per query, (|S|, answer) as int64 bytes, then S as
int64 bytes.  Rank and independence queries share the one stream.
"""

import hashlib

import numpy as np

from rankprobe import RankOracle


class RecordingOracle(RankOracle):
    def __init__(self, structure):
        super().__init__(structure)
        self.digest = hashlib.sha256()

    def _record(self, s, value):
        arr = np.asarray(s, dtype=np.int64)
        self.digest.update(np.array([arr.size, value], dtype=np.int64).tobytes())
        self.digest.update(arr.tobytes())
        return value

    def rank(self, s):
        return self._record(s, super().rank(s))

    def is_independent(self, s):
        return self._record(s, super().is_independent(s))
