"""Reproduce a slice of the paper's Figure 7 + Table 1 interactively.

Runs the four evaluation queries (TPC-DS Q17/Q50, TPC-H Q8/Q9) at scale
factor 100 under all six compared strategies and prints the same group of
bars the paper plots, plus the Table-1 style average improvement row.

Run:  python examples/paper_comparison.py            # SF 100
      python examples/paper_comparison.py 10 100     # chosen scale factors
"""

from __future__ import annotations

import sys

from repro.bench import Sweep, figure7, format_cells, format_rows, improvement_rows


def main() -> None:
    scale_factors = tuple(int(a) for a in sys.argv[1:]) or (100,)
    cells = Sweep().run(figure7(scale_factors))
    print(format_cells(cells))
    print()
    table_sfs = tuple(sf for sf in scale_factors if sf in (100, 1000))
    if table_sfs:
        print(format_rows(improvement_rows(cells, table_sfs)))


if __name__ == "__main__":
    main()
