"""Tests for SWOLE's cost models (repro.core.cost_models).

The models are symbolically-executed event streams; these tests pin down
the paper's qualitative claims: value masking's selectivity independence,
the hybrid/VM crossover moving with compute intensity, key masking's
dependence on hash-table size, and eager aggregation's flatness.
"""

import pytest

from repro.core import cost_models as cm
from repro.datagen.tpch import TpchConfig
from repro.engine.machine import PAPER_MACHINE
from repro.errors import CostModelError

N = 1_000_000


def inputs(sel, agg_ops=("mul",), **kwargs):
    defaults = dict(
        num_rows=N,
        selectivity=sel,
        pred_widths=(1, 1),
        agg_widths=(1, 1),
        agg_ops=tuple(agg_ops),
    )
    defaults.update(kwargs)
    return cm.ModelInputs(**defaults)


class TestModelInputs:
    def test_selectivity_validated(self):
        with pytest.raises(CostModelError):
            inputs(1.5)

    def test_negative_rows_rejected(self):
        with pytest.raises(CostModelError):
            cm.ModelInputs(num_rows=-1, selectivity=0.5)


class TestPlannedHtBytes:
    def test_matches_real_hashtable_sizing(self):
        from repro.engine.hashtable import HashTable

        for keys in (1, 10, 1000, 99_999):
            table = HashTable(expected_keys=keys, num_aggs=1)
            assert cm.planned_ht_bytes(keys, 1) == table.nbytes


class TestValueMasking:
    def test_selectivity_independent(self):
        low = cm.value_masking_cost(PAPER_MACHINE, inputs(0.01))
        high = cm.value_masking_cost(PAPER_MACHINE, inputs(0.99))
        assert low == pytest.approx(high)

    def test_hybrid_grows_with_selectivity(self):
        costs = [
            cm.hybrid_cost(PAPER_MACHINE, inputs(s))
            for s in (0.05, 0.3, 0.6, 0.95)
        ]
        assert costs == sorted(costs)

    def test_vm_wins_memory_bound_mul(self):
        # paper Fig 8a: masking beats hybrid at nearly all selectivities
        assert cm.value_masking_cost(
            PAPER_MACHINE, inputs(0.5)
        ) < cm.hybrid_cost(PAPER_MACHINE, inputs(0.5))

    def test_hybrid_wins_compute_bound_div_at_low_selectivity(self):
        # paper Fig 8b: division only favours masking near 100%
        div = inputs(0.3, agg_ops=("div",))
        assert cm.hybrid_cost(PAPER_MACHINE, div) < cm.value_masking_cost(
            PAPER_MACHINE, div
        )

    def test_div_crossover_near_full_selectivity(self):
        crossover = None
        for sel in [s / 100 for s in range(5, 100, 5)]:
            div = inputs(sel, agg_ops=("div",))
            if cm.value_masking_cost(
                PAPER_MACHINE, div
            ) <= cm.hybrid_cost(PAPER_MACHINE, div):
                crossover = sel
                break
        assert crossover is not None and crossover >= 0.8

    def test_access_merging_cheaper_when_memory_bound(self):
        # wide columns, no arithmetic: the stream side dominates, so the
        # saved read is visible; merging must never cost more either way
        base = inputs(0.5, agg_ops=(), agg_widths=(8, 8), pred_widths=(8,))
        merged = inputs(
            0.5,
            agg_ops=(),
            agg_widths=(8, 8),
            pred_widths=(8,),
            merged_widths=(8,),
        )
        assert cm.value_masking_cost(
            PAPER_MACHINE, merged
        ) < cm.value_masking_cost(PAPER_MACHINE, base)
        compute_bound = inputs(0.5, agg_ops=("div",), merged_widths=(1,))
        unmerged = cm.value_masking_cost(
            PAPER_MACHINE, inputs(0.5, agg_ops=("div",))
        )
        assert (
            cm.value_masking_cost(PAPER_MACHINE, compute_bound)
            <= unmerged * (1 + 1e-9)
        )


class TestKeyMasking:
    def test_km_tracks_vm_for_tiny_tables(self):
        ht = cm.planned_ht_bytes(10, 1)
        km = cm.key_masking_cost(PAPER_MACHINE, inputs(0.5), ht)
        vm = cm.value_masking_cost(PAPER_MACHINE, inputs(0.5), ht)
        assert km == pytest.approx(vm, rel=0.35)

    def test_km_beats_vm_for_large_tables_at_low_selectivity(self):
        # masked tuples hit the cached throwaway instead of DRAM
        ht = cm.planned_ht_bytes(10_000_000, 1)
        km = cm.key_masking_cost(PAPER_MACHINE, inputs(0.1), ht)
        vm = cm.value_masking_cost(PAPER_MACHINE, inputs(0.1), ht)
        assert km < vm

    def test_km_hybrid_crossover_never_moves_left_with_table_size(self):
        """Paper Fig 9 direction: bigger tables never make masking win
        *earlier*. (The measured sweeps in bench_fig9 show the full
        rightward shift; the closed-form planner captures the direction.)
        """
        machine = PAPER_MACHINE.scaled(100)

        def crossover(keys):
            ht_bytes = cm.planned_ht_bytes(keys, 1)
            for sel in [s / 100 for s in range(5, 100, 5)]:
                km = cm.key_masking_cost(machine, inputs(sel), ht_bytes)
                hy = cm.hybrid_cost(machine, inputs(sel), ht_bytes)
                if km <= hy:
                    return sel
            return 1.0

        points = [crossover(keys) for keys in (10, 1_000, 100_000)]
        assert points == sorted(points)
        assert points[0] < points[-1] or points[0] >= 0.5


class TestEagerAggregation:
    def _groupjoin_inputs(self, sel_s, build_rows=10_000):
        return cm.ModelInputs(
            num_rows=N,
            selectivity=1.0,
            agg_widths=(1, 1),
            agg_ops=("mul",),
            build_rows=build_rows,
            build_selectivity=sel_s,
            build_pred_widths=(1,),
            join_match_fraction=sel_s,
        )

    def test_eager_flat_across_build_selectivity(self):
        # |S| << |R| (the paper's regime): the cleanup deletions are a
        # rounding error, so EA's cost barely depends on the predicate
        ht = cm.planned_ht_bytes(10_000, 2)
        costs = [
            cm.eager_aggregation_cost(
                PAPER_MACHINE, self._groupjoin_inputs(s), ht
            )
            for s in (0.1, 0.5, 0.9)
        ]
        assert max(costs) / min(costs) < 1.4

    def test_groupjoin_cheaper_at_low_selectivity_small_table(self):
        small = self._groupjoin_inputs(0.05, build_rows=1_000)
        ht = cm.planned_ht_bytes(1_000, 2)
        assert cm.groupjoin_cost(
            PAPER_MACHINE, small, ht
        ) < cm.eager_aggregation_cost(PAPER_MACHINE, small, ht)


class TestBitmapBuild:
    def test_unconditional_beats_selective_at_high_selectivity(self):
        high = cm.ModelInputs(
            num_rows=N,
            selectivity=1.0,
            build_rows=1_000_000,
            build_selectivity=0.9,
            build_pred_widths=(1,),
        )
        assert cm.bitmap_build_unconditional_cost(
            PAPER_MACHINE, high
        ) < cm.bitmap_build_selective_cost(PAPER_MACHINE, high)

    def test_costs_scale_with_build_rows(self):
        small = cm.ModelInputs(
            num_rows=N, selectivity=1.0, build_rows=1_000,
            build_selectivity=0.5, build_pred_widths=(1,),
        )
        large = cm.ModelInputs(
            num_rows=N, selectivity=1.0, build_rows=1_000_000,
            build_selectivity=0.5, build_pred_widths=(1,),
        )
        assert cm.bitmap_build_unconditional_cost(
            PAPER_MACHINE, small
        ) < cm.bitmap_build_unconditional_cost(PAPER_MACHINE, large)


#: The paper machine and the one the TPC-H tests run on (SF 0.002).
ENCODING_MACHINES = {
    "paper": PAPER_MACHINE,
    "sf0.002": PAPER_MACHINE.scaled(
        TpchConfig(scale_factor=0.002).machine_scale
    ),
}


@pytest.mark.parametrize(
    "machine", ENCODING_MACHINES.values(), ids=list(ENCODING_MACHINES)
)
class TestEncodedScan:
    """The access-encoding pass's decision surface: a narrow code stream
    against the 8-byte decoded scan of the same column (the code-width
    argument of Lin et al.)."""

    def test_narrow_codes_beat_decoded_at_selective_predicates(self, machine):
        decoded = cm.decoded_scan_cost(machine, N, 8)
        for width in (1, 2, 4):
            for selectivity in (0.01, 0.10):
                encoded = cm.encoded_scan_cost(machine, N, width, selectivity)
                assert encoded < decoded, (width, selectivity)

    def test_advantage_is_the_width_ratio(self, machine):
        # SIMD decode of the survivors is orders of magnitude under the
        # stream term, so the stream width decides everything.
        decoded = cm.decoded_scan_cost(machine, N, 8)
        advantage = [
            decoded / cm.encoded_scan_cost(machine, N, width, 0.01)
            for width in (1, 2, 4, 8)
        ]
        assert advantage == sorted(advantage, reverse=True)
        assert advantage == pytest.approx([8.0, 4.0, 2.0, 1.0])
