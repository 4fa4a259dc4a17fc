"""Replace-on-success writing, shared by every file irislam writes."""

from __future__ import annotations

import os
import uuid
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replacing(path: str | Path) -> Iterator[Path]:
    """Yield a temporary path beside path for the block to write, then rename
    it over path, so a reader sees the previous file or the whole new one.
    On any exception, interrupts included, the temporary file is deleted
    and path is left as it was. The temporary name, `<name>.<uuid4
    hex>.partial`, is unique to each writer, so writers of one path never
    rename each other's file. The block writes with ordinary calls, so the
    file's mode follows the umask."""
    path = Path(path)
    partial = path.with_name(f"{path.name}.{uuid.uuid4().hex}.partial")
    try:
        yield partial
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
