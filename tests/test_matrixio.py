import numpy as np
import pytest

from ginfo import bipartite
from ginfo.matrixio import load_cvm, parse_cvm, save_cvm
from ginfo.randmat import random_spd
from ginfo.symplectic import CovarianceMatrix, Ordering


@pytest.mark.parametrize("ordering", list(Ordering))
def test_round_trip_bit_exact(tmp_path, ordering):
    rng = np.random.default_rng(60)
    cvm = CovarianceMatrix(random_spd(4, rng), ordering=ordering)
    path = tmp_path / "state.cvm"
    save_cvm(path, cvm)
    loaded = load_cvm(path)
    assert loaded.ordering is ordering
    np.testing.assert_array_equal(loaded.matrix, cvm.matrix)


@pytest.mark.parametrize("name", ["custom", "party", ""])
def test_unnamed_ordering_rejected(name):
    # only an Ordering has a form to check the uncertainty bound against
    with pytest.raises(ValueError, match="Ordering"):
        parse_cvm(f"# cvm modes=1 ordering={name}\n1 0\n0 1\n")


def test_pair_state_saved_in_its_party_basis(tmp_path):
    pair = bipartite.pair_cvm(bipartite.PairConfig(0.2, 0.1))
    path = tmp_path / "pair.cvm"
    save_cvm(path, pair)
    assert path.read_text().startswith("# cvm modes=4 ordering=party_block_xp\n")
    loaded = load_cvm(path)
    assert loaded.ordering is Ordering.PARTY_BLOCK_XP
    np.testing.assert_array_equal(loaded.matrix, pair.matrix)


def test_party_basis_with_an_odd_mode_count_rejected():
    # the wrapper rejects an ordering that cannot hold the mode count, so such
    # a file neither loads nor can be written
    rows = "\n".join(" ".join(f"{x:g}" for x in row) for row in np.eye(6))
    text = f"# cvm modes=3 ordering=party_block_xp\n{rows}\n"
    for build in (lambda: parse_cvm(text),
                  lambda: CovarianceMatrix(np.eye(6), Ordering.PARTY_BLOCK_XP)):
        with pytest.raises(ValueError, match="cannot split 3 modes into two equal parties"):
            build()


@pytest.mark.parametrize("token", ["v2", "modes", "ordering:block_xp"])
def test_header_token_without_a_value_named(token):
    text = f"# cvm modes=1 ordering=mode_interleaved {token}\n1 0\n0 1\n"
    with pytest.raises(ValueError, match=f"header token '{token}' is not a key=value field"):
        parse_cvm(text)


def test_header_required():
    with pytest.raises(ValueError, match="header"):
        parse_cvm("1 0\n0 1\n")


def test_mode_count_checked():
    text = "# cvm modes=2 ordering=mode_interleaved\n1 0\n0 1\n"
    with pytest.raises(ValueError, match="does not match"):
        parse_cvm(text)


@pytest.mark.parametrize("body, message", [
    ("# cvm modes=0 ordering=mode_interleaved\n",
     "matrix header field modes='0' is not a positive integer"),
    ("# cvm modes=x ordering=mode_interleaved\n1 0\n0 1\n",
     "matrix header field modes='x' is not a positive integer"),
    ("# cvm modes=-1 ordering=mode_interleaved\n1 0\n0 1\n",
     "matrix header field modes='-1' is not a positive integer"),
    ("# cvm modes=1 ordering=mode_interleaved\n",
     "matrix body does not match modes=1: 0 rows, not 2"),
    ("# cvm modes=1 ordering=mode_interleaved\n1 0\n0\n",
     "matrix row 2 does not match modes=1: 1 entries"),
    ("# cvm modes=1 ordering=mode_interleaved\n1 0 0\n0 1\n",
     "matrix row 1 does not match modes=1: 3 entries"),
    ("# cvm modes=1 ordering=mode_interleaved\n1 0\n0 1\n0 0\n",
     "matrix body does not match modes=1: 3 rows, not 2"),
    ("# cvm modes=2 ordering=block_xp ordering=mode_interleaved\n" + "1 0 0 0\n" * 4,
     "matrix header field 'ordering' is given twice"),
    ("# cvm modes=2 ordering=mode_interleaved colour=red\n" + "1 0 0 0\n" * 4,
     "matrix header field 'colour' is not 'modes' or 'ordering'"),
], ids=["modes-zero", "modes-not-a-number", "modes-negative", "no-rows", "short-row",
        "long-row", "extra-row", "ordering-twice", "unknown-field"])
def test_malformed_body_named(body, message):
    with pytest.raises(ValueError) as info:
        parse_cvm(body)
    assert str(info.value) == message


def test_non_spd_rejected():
    text = "# cvm modes=1 ordering=mode_interleaved\n1 0\n0 -1\n"
    with pytest.raises(ValueError):
        parse_cvm(text)


@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_non_finite_entry_rejected(entry):
    text = f"# cvm modes=1 ordering=mode_interleaved\n1 0\n0 {entry}\n"
    with pytest.raises(ValueError, match="non-finite"):
        parse_cvm(text)
