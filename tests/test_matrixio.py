import numpy as np
import pytest

from ginfo import CovarianceMatrix, Ordering, bipartite
from ginfo.matrixio import load_cvm, parse_cvm, save_cvm
from ginfo.randmat import random_spd


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(60)
    cvm = CovarianceMatrix(random_spd(4, rng), ordering=Ordering.BLOCK_XP)
    path = tmp_path / "state.cvm"
    save_cvm(path, cvm)
    loaded = load_cvm(path)
    assert loaded.ordering is Ordering.BLOCK_XP
    np.testing.assert_array_equal(loaded.matrix, cvm.matrix)


@pytest.mark.parametrize("name", ["custom", "party", ""])
def test_unnamed_ordering_rejected(name):
    # only an Ordering has a form to check the uncertainty bound against
    with pytest.raises(ValueError, match="Ordering"):
        parse_cvm(f"# cvm modes=1 ordering={name}\n1 0\n0 1\n")


def test_matrix_without_ordering_is_not_saved(tmp_path):
    path = tmp_path / "pair.cvm"
    with pytest.raises(ValueError, match="ordering"):
        save_cvm(path, bipartite.pair_cvm(bipartite.PairConfig(0.2, 0.1)))
    assert not path.exists()


def test_header_required():
    with pytest.raises(ValueError, match="header"):
        parse_cvm("1 0\n0 1\n")


def test_mode_count_checked():
    text = "# cvm modes=2 ordering=mode_interleaved\n1 0\n0 1\n"
    with pytest.raises(ValueError, match="does not match"):
        parse_cvm(text)


def test_non_spd_rejected():
    text = "# cvm modes=1 ordering=mode_interleaved\n1 0\n0 -1\n"
    with pytest.raises(ValueError):
        parse_cvm(text)


@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_non_finite_entry_rejected(entry):
    text = f"# cvm modes=1 ordering=mode_interleaved\n1 0\n0 {entry}\n"
    with pytest.raises(ValueError, match="non-finite"):
        parse_cvm(text)
