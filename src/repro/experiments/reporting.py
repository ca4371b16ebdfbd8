"""Small helpers to render experiment results as aligned text tables."""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.errors import ReproError

#: Experiment sizes, from minutes (``fast``) to the paper's exact sweeps
#: (``full``): every table's mode and the CLI's ``--mode`` choices.
MODES = ("fast", "standard", "full")


def check_mode(mode: str) -> str:
    """Return ``mode`` lower-cased, or raise :class:`~repro.errors.ReproError`
    naming it when it is not one of :data:`MODES`."""
    if mode.lower() not in MODES:
        raise ReproError(f"unknown experiment mode {mode!r}; expected one of {MODES}")
    return mode.lower()


def format_seconds(seconds: float) -> str:
    """Render a duration the way the paper's tables do (``0 h 0 m 0.22 s``)."""
    hours, remainder = divmod(seconds, 3600)
    minutes, secs = divmod(remainder, 60)
    return f"{int(hours)} h {int(minutes)} m {secs:.2f} s"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render ``rows`` under ``headers`` with aligned, space-padded columns."""
    materialised: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def rows_as_dicts(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> List[dict]:
    """Zip rows with headers (JSON-friendly output for the CLI)."""
    return [dict(zip(headers, row)) for row in rows]


def format_bytes(count: int) -> str:
    """Render a byte count human-readably (``1.4 KiB``, ``3.2 MiB``)."""
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(count)} B"  # pragma: no cover - unreachable


def format_store_statistics(stats: dict, hit_ratio: float = None) -> str:
    """One-line summary of a shared prefix store (size + optional hit ratio).

    ``stats`` is :meth:`repro.store.PrefixStore.statistics`; ``hit_ratio``
    is the fraction of membership lookups the run served from the cache.
    """
    location = stats.get("path") or "in-memory"
    line = (
        f"prefix store {location}: {stats.get('namespaces', 0)} namespaces, "
        f"{stats.get('entries', 0)} entries in {stats.get('nodes', 0)} shared "
        f"prefix nodes, {format_bytes(stats.get('bytes_on_disk', 0))} on disk"
    )
    if hit_ratio is not None:
        line += f"; cache hit ratio {hit_ratio * 100:.1f}%"
    return line
