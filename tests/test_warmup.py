"""Bulk functional warm-up against the per-address reference.

``Chip.warmup`` installs the instruction footprint one LLC bank at a time
and writes the replayed references straight into the cache arrays.  The
reference below is the straightforward per-address warm-up built from the
public ``warm_fill`` / ``warm_instruction`` / ``warm_data`` hooks; every
array, every directory entry and every workload stream must end up in
exactly the same state under both.
"""

from dataclasses import replace

import pytest

from repro.chip import chip as chip_module
from repro.chip.chip import Chip
from repro.chip.system_map import NocOutSystemMap
from repro.scenarios.registry import build_system, workload
from repro.tenancy.placement import build_placement

REFERENCES = 400


def per_address_warmup(chip: Chip, references_per_core: int) -> None:
    """Warm ``chip`` one address at a time (the reference for ``Chip.warmup``)."""
    if not chip.core_nodes:
        return
    block = chip.config.caches.block_size
    home_node = chip.system_map.home_node
    regions = sorted(
        {node.core.stream.instruction_region for node in chip.core_nodes.values()}
    )
    for base, size in regions:
        for addr in range(base, base + size, block):
            chip.directories[home_node(addr)].warm_fill(addr)

    for core_id, node in chip.core_nodes.items():
        stream = node.core.stream
        shared_base, shared_size = stream.shared_region
        for addr, is_instruction, is_write in stream.functional_references(
            references_per_core
        ):
            if is_instruction:
                node.warm_instruction(addr)
                continue
            shared = shared_base <= addr < shared_base + shared_size
            node.warm_data(addr, writable=is_write or not shared)
            if shared:
                chip.directories[home_node(addr)].warm_fill(
                    addr, sharer=core_id, writable=is_write
                )


def array_state(array):
    return {
        "sets": [list(cache_set.items()) for cache_set in array._sets],
        "evictions": array.evictions,
        "hits": array.hits,
        "misses": array.misses,
    }


def chip_state(chip: Chip):
    """Everything the functional warm-up can touch, in comparable form."""
    cores = {
        core_id: {
            "l1i": array_state(node.l1i.array),
            "l1d": array_state(node.l1d.array),
            "rng": node.core.stream.rng.getstate(),
            "pc": node.core.stream._pc,
            "blocks_generated": node.core.stream.blocks_generated,
        }
        for core_id, node in chip.core_nodes.items()
    }
    directories = {
        node_id: {
            "banks": [array_state(bank.array) for bank in directory.banks],
            "entries": [
                (addr, entry.state, entry.owner, sorted(entry.sharers))
                for addr, entry in directory.entries.items()
            ],
        }
        for node_id, directory in chip.directories.items()
    }
    return cores, directories


def assert_bulk_matches_reference(config, references=REFERENCES):
    bulk, reference = Chip(config), Chip(config)
    bulk.warmup(references)
    per_address_warmup(reference, references)
    bulk_cores, bulk_dirs = chip_state(bulk)
    ref_cores, ref_dirs = chip_state(reference)
    assert bulk_cores.keys() == ref_cores.keys()
    for core_id in ref_cores:
        assert bulk_cores[core_id] == ref_cores[core_id], f"core {core_id}"
    assert bulk_dirs.keys() == ref_dirs.keys()
    for node_id in ref_dirs:
        assert bulk_dirs[node_id] == ref_dirs[node_id], f"directory {node_id}"
    return bulk


@pytest.mark.parametrize(
    "topology", ["mesh", "flattened_butterfly", "noc_out", "cmesh", "chiplet"]
)
def test_bulk_warmup_matches_per_address_warmup(topology):
    config = build_system(topology, num_cores=64).with_workload(workload("Data Serving"))
    chip = assert_bulk_matches_reference(config)
    llc_lines = sum(
        bank.array.occupancy for d in chip.directories.values() for bank in d.banks
    )
    assert llc_lines >= config.workload.instruction_footprint_bytes // 64
    assert any(d.entries for d in chip.directories.values())


def test_scalability_limited_workload_on_scattered_cores():
    config = build_system("mesh", num_cores=64).with_workload(workload("Web Search"))
    chip = assert_bulk_matches_reference(config)
    active = sorted(chip.core_nodes)
    assert len(active) == 16
    assert active != list(range(active[0], active[0] + 16))


def test_two_tenant_chip_fills_both_instruction_regions():
    wmap = build_placement("split_half", 64, ["Data Serving", "MapReduce-C"])
    config = build_system("mesh", num_cores=64).with_workload_map(wmap)
    chip = assert_bulk_matches_reference(config)
    regions = {node.core.stream.instruction_region for node in chip.core_nodes.values()}
    assert len(regions) == 2


def test_footprint_overflowing_the_llc_evicts_like_per_block_inserts():
    base = build_system("noc_out", num_cores=64).with_workload(workload("Data Serving"))
    config = replace(base, caches=replace(base.caches, llc_total_bytes=1024 * 1024))
    chip = assert_bulk_matches_reference(config)
    evictions = sum(
        bank.array.evictions for d in chip.directories.values() for bank in d.banks
    )
    assert evictions > 0


class FoldedNocOutMap(NocOutSystemMap):
    """Deals the global banks round-robin over the LLC tiles.

    Still honours the interleaving contract (the home node depends only on
    the global bank), but tile ``t`` now owns banks ``t, t + tiles, ...``,
    which its directory folds onto one internal bank: several global banks
    share one array, so the fill must merge them in address order.
    """

    def home_node(self, addr):
        return self.llc_node(self.mapper.home_bank(addr) % self.columns)


def test_global_banks_folded_onto_one_array_fill_in_address_order(monkeypatch):
    monkeypatch.setattr(chip_module, "build_system_map", FoldedNocOutMap)
    base = build_system("noc_out", num_cores=64).with_workload(workload("Data Serving"))
    config = replace(base, caches=replace(base.caches, llc_total_bytes=2 * 1024 * 1024))
    chip = assert_bulk_matches_reference(config)
    assert isinstance(chip.system_map, FoldedNocOutMap)
    assert all(len(d.banks) == 2 for d in chip.directories.values())
    assert any(bank.array.evictions for bank in chip.directories[64].banks)
