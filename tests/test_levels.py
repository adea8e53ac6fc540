"""Block-level hierarchy (Work/Monitor/Hot)."""

from repro.ftl.levels import DEMOTED, PROMOTED, SLC_LEVELS, BlockLevel


class TestBlockLevel:
    def test_ascending_order(self):
        assert (BlockLevel.HIGH_DENSITY < BlockLevel.WORK
                < BlockLevel.MONITOR < BlockLevel.HOT)

    def test_is_slc(self):
        assert not BlockLevel.HIGH_DENSITY.is_slc
        for level in SLC_LEVELS:
            assert level.is_slc

    def test_promotion_chain(self):
        assert BlockLevel.HIGH_DENSITY.promoted() is BlockLevel.WORK
        assert BlockLevel.WORK.promoted() is BlockLevel.MONITOR
        assert BlockLevel.MONITOR.promoted() is BlockLevel.HOT

    def test_hot_promotes_to_itself(self):
        assert BlockLevel.HOT.promoted() is BlockLevel.HOT

    def test_demotion_chain(self):
        assert BlockLevel.HOT.demoted() is BlockLevel.MONITOR
        assert BlockLevel.MONITOR.demoted() is BlockLevel.WORK
        assert BlockLevel.WORK.demoted() is BlockLevel.HIGH_DENSITY

    def test_high_density_floor(self):
        assert BlockLevel.HIGH_DENSITY.demoted() is BlockLevel.HIGH_DENSITY

    def test_slc_levels_tuple(self):
        assert SLC_LEVELS == (BlockLevel.WORK, BlockLevel.MONITOR, BlockLevel.HOT)

    def test_int_values_match_algorithm1(self):
        # Algorithm 1: block_flag (0, 1, 2, 3).
        assert [int(l) for l in BlockLevel] == [0, 1, 2, 3]

    def test_level_tables_match_the_methods(self):
        # The hot path indexes these by the int level instead of calling
        # promoted()/demoted(); the tables must be the same members.
        for level in BlockLevel:
            assert PROMOTED[int(level)] is level.promoted()
            assert DEMOTED[int(level)] is level.demoted()
        assert len(PROMOTED) == len(DEMOTED) == len(BlockLevel)
