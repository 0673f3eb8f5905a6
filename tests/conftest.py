import pytest

from orient_boost.designs import Block, BlockKind, Decomposition, steiner_triple_system


@pytest.fixture
def coin_design6():
    """K_6 cut into coin blocks of every kind: two triangles, a 4-cycle, two star-paths, one edge."""
    return Decomposition(6, 3, (
        Block(BlockKind.C3, (0, 1, 2)),
        Block(BlockKind.C4, (0, 3, 1, 4)),
        Block(BlockKind.C3, (2, 3, 4)),
        Block(BlockKind.STARPATH, (0, 5, 1)),
        Block(BlockKind.STARPATH, (2, 5, 3)),
        Block(BlockKind.EDGE, (4, 5)),
    ))


@pytest.fixture
def fano_c3():
    """The Fano plane with its block (1, 2, 6) a coin C3, so a design automorphism
    must keep block kinds: the points other than 0 fall into (1, 2, 6) and (3, 4, 5)."""
    return Decomposition(7, 3, tuple(Block(BlockKind.C3, b.vertices) if b.vertices == (1, 2, 6) else b
                                     for b in steiner_triple_system(7).blocks))
