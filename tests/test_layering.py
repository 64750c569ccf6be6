"""Where the Cayley-table layout may be named.

Which tables a ring fills, when, and how their rows are stored is the
business of rings.py alone; every other module asks a ring for products
through its kernels. A corner reads its ambient ring's mul table, so
corners.py may also name _kernel_table, the hook that hands it over.
"""

import re
from pathlib import Path

import ringlab

PACKAGE = Path(ringlab.__file__).parent

TABLE_NAMES = ("_mul_table", "_add_table", "_neg_table", "_tables", "_fill_tables",
               "_TABLE_THRESHOLD", "_LIST_ROWS")


def modules_naming(name: str) -> set[str]:
    pattern = re.compile(rf"\b{name}\b")
    return {path.name for path in PACKAGE.glob("*.py") if pattern.search(path.read_text())}


def test_only_rings_names_the_table_layout():
    for name in TABLE_NAMES:
        assert modules_naming(name) <= {"rings.py"}, name


def test_only_rings_and_corners_name_the_kernel_table():
    assert modules_naming("_kernel_table") <= {"rings.py", "corners.py"}
