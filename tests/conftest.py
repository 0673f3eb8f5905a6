import pytest

from orient_boost.designs import Block, BlockKind, Decomposition


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
