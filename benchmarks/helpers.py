"""Small helpers shared by the figure benchmarks."""

import os

#: Where regenerated figure tables are written (also printed with -s).
#: abspath-normalized so saved paths never embed ".." segments.
RESULTS_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "results")
)


def save_table(name: str, text: str) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")


def pivot(rows, row_key, col_key, value_key):
    """rows -> {row: {col: value}} for series-style assertions."""
    table = {}
    for row in rows:
        table.setdefault(row[row_key], {})[row[col_key]] = row[value_key]
    return table


def series_of(rows, filters, x_key, y_key):
    """Filtered rows -> sorted [(x, y)] series."""
    out = []
    for row in rows:
        if all(row[k] == v for k, v in filters.items()):
            out.append((row[x_key], row[y_key]))
    return sorted(out)
