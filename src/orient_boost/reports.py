"""CSV/JSON result emission with reproducible bytes."""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Iterable

CSV_FIELDS = (
    "n", "t", "pattern", "design", "samples", "baseline_log2", "estimate_log2",
    "ratio", "stderr_ratio", "typical_frac", "seed",
)


def format_value(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def render_csv(records: list[dict]) -> str:
    lines = [",".join(CSV_FIELDS)]
    for rec in records:
        lines.append(",".join(format_value(rec[f]) for f in CSV_FIELDS))
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the strings ``chunks`` to ``path``, each as it comes, through a
    temporary file in its directory; every file the command line writes goes through here."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-report-{os.urandom(8).hex()}")
    try:
        # mode 0o666 lets the umask decide the file's permissions, as open() does
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc


def sidecar_path_for(csv_path: str, sidecar_path: str | None) -> str:
    """The sidecar's path: `sidecar_path` if given, else the CSV's with the extension .json."""
    return os.path.splitext(csv_path)[0] + ".json" if sidecar_path is None else sidecar_path


def write_report(records: list[dict], csv_path: str, sidecar: dict | None = None,
                 sidecar_path: str | None = None) -> None:
    """Write the CSV (atomically) plus an optional JSON sidecar at ``sidecar_path_for``."""
    _atomic_write(csv_path, [render_csv(records)])
    if sidecar is not None:
        _atomic_write(sidecar_path_for(csv_path, sidecar_path),
                      [json.dumps(sidecar, indent=2, sort_keys=True) + "\n"])
