"""The one way the pipeline writes an output file.

Every output (corpora, tables, dictionaries, the class cache, reports, the
manifest) is written through ``atomic_output``, so an aborted run never
leaves a partial file at a final path.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_output(path: str | Path):
    """Yield a UTF-8 text handle whose contents replace ``path`` on success.

    The parent directory is created. Writes go to a temp file beside the
    target with no newline translation, which is renamed over ``path`` only
    when the block completes. On any exception it is removed and a previous
    file at ``path`` is left untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
