import numpy as np

import volexec
from volexec.grids import write_csv

# The artifact text of an integer index beside 0.1, -1e-300 and 1/3, as every
# CSV artifact (strategy, expansion and per-path cost files) spells it.
GOLDEN = "path,cost\n0,0.10000000000000001\n1,-1e-300\n2,0.33333333333333331\n"


def test_public_names_resolve():
    for name in volexec.__all__:
        assert hasattr(volexec, name), name


def test_write_csv_golden_bytes(tmp_path):
    values = np.array([0.1, -1e-300, 1.0 / 3.0])
    f = tmp_path / "costs.csv"
    write_csv(f, ["path", "cost"], [range(values.size), values])
    assert f.read_bytes() == GOLDEN.encode()
    # float columns print integral values the same way as an integer index
    g = tmp_path / "nodes.csv"
    write_csv(g, ["path", "cost"], [np.arange(3.0), values])
    assert g.read_bytes() == GOLDEN.encode()
