"""Tests for the synthetic seed sources (Table 1/Table 2 machinery)."""

import io
import os
import subprocess
import sys

import pytest

from repro.addrs import IIDClass
from repro.cli.main import main
from repro.cli.worldcfg import save_config
from repro.netsim import InternetConfig, build_internet
from repro.netsim.topology import RouterRole
from repro.seeds import (
    SOURCES,
    SeedList,
    build_all_seeds,
    caida_seed,
    cdn_observations,
    cdn_seed,
    dnsdb_seed,
    fdns_seed,
    fiebig_seed,
    join,
    random_seed,
    sixgen_seed,
    tum_seed,
    tum_subsets,
)


@pytest.fixture(scope="module")
def built():
    return build_internet(InternetConfig(n_edge=50, cpe_customers_per_isp=400, seed=13))


@pytest.fixture(scope="module")
def all_seeds(built):
    return build_all_seeds(built, random_count=3000)


class TestSeedList:
    def test_addresses_and_prefixes_split(self, built):
        caida = caida_seed(built)
        assert caida.prefixes
        assert not caida.addresses

    def test_join_dedupes(self):
        a = SeedList("a", "test", [1, 2])
        b = SeedList("b", "test", [2, 3])
        merged = join("combined", [a, b])
        assert sorted(merged.addresses) == [1, 2, 3]

    def test_iid_profile(self, built):
        profile = fiebig_seed(built).iid_profile()
        assert sum(profile.values()) > 0


class TestCaida:
    def test_prefixes_at_most_48(self, built):
        assert all(prefix.length <= 48 for prefix in caida_seed(built).prefixes)

    def test_prefixes_advertised(self, built):
        for prefix in caida_seed(built).prefixes[:20]:
            assert built.truth.bgp.lookup(prefix.base) is not None


class TestFiebig:
    def test_dense_in_few_ases(self, built):
        """rDNS walking covers a minority of ASes but deeply."""
        fiebig = fiebig_seed(built)
        asns = {
            built.truth.origin_asn(addr)
            for addr in fiebig.addresses
            if built.truth.origin_asn(addr) is not None
        }
        all_asns = len(built.edge_asns)
        assert 0 < len(asns) < all_asns * 0.6

    def test_contains_unrouted_infrastructure(self, built):
        """Hidden-infra router addresses appear (the real list's large
        unrouted share)."""
        fiebig = fiebig_seed(built)
        unrouted = [
            addr for addr in fiebig.addresses if built.truth.origin_asn(addr) is None
        ]
        routed = [
            addr
            for addr in fiebig.addresses
            if built.truth.origin_asn(addr) is not None
        ]
        assert routed
        # Unrouted share is world-dependent; require presence when any
        # covered AS hides infrastructure.
        hidden_ases = [
            asys for asys in built.truth.ases.values() if asys.internal_prefixes
        ]
        if hidden_ases and unrouted:
            assert len(unrouted) > 0

    def test_lowbyte_heavy(self, built):
        profile = fiebig_seed(built).iid_profile()
        assert profile[IIDClass.LOWBYTE] > profile[IIDClass.EUI64]


class TestFdns:
    def test_contains_6to4(self, built):
        fdns = fdns_seed(built)
        sixtofour = [addr for addr in fdns.addresses if addr >> 112 == 0x2002]
        assert len(sixtofour) == 400

    def test_broad_as_coverage(self, built):
        fdns = fdns_seed(built)
        asns = {
            built.truth.origin_asn(addr)
            for addr in fdns.addresses
            if built.truth.origin_asn(addr) is not None
        }
        assert len(asns) > len(built.edge_asns) * 0.3


class TestCdn:
    def test_observations_are_privacy_addresses(self, built):
        observations = cdn_observations(built, intervals=4)
        assert observations
        # Rotation: a /64 with observations shows multiple distinct IIDs.
        from collections import defaultdict

        per64 = defaultdict(set)
        for addr, _ in observations:
            per64[addr >> 64].add(addr & ((1 << 64) - 1))
        assert any(len(iids) > 1 for iids in per64.values())

    def test_prefix_only_output(self, built):
        cdn = cdn_seed(built, 32)
        assert cdn.prefixes and not cdn.addresses

    def test_k32_finer_than_k256(self, built):
        observations = cdn_observations(built)
        k32 = cdn_seed(built, 32, observations)
        k256 = cdn_seed(built, 256, observations)
        assert len(k32) >= len(k256)

    def test_first_isp_dominates_cdn_view(self, built):
        """The WWW-fraction bias: CDN aggregates concentrate in ISP 0."""
        cdn = cdn_seed(built, 32)
        first_isp = built.truth.ases[built.cpe_asns[0]].prefixes[0]
        second_isp = built.truth.ases[built.cpe_asns[1]].prefixes[0]
        in_first = sum(1 for p in cdn.prefixes if first_isp.covers(p))
        in_second = sum(1 for p in cdn.prefixes if second_isp.covers(p))
        assert in_first > in_second


class TestSixGen:
    def test_no_cpe_in_seed_interfaces(self, built):
        """6Gen is seeded with BGP-probing results, which never include
        customer-premises routers."""
        sixgen = sixgen_seed(built, budget=5000)
        cpe_addrs = {
            addr
            for addr, router in built.truth.router_addresses.items()
            if router.role is RouterRole.CPE
        }
        overlap = cpe_addrs & set(sixgen.addresses)
        # Loose-mode cross products could coincidentally hit CPE space,
        # but the seeds themselves must not be CPE addresses; allow a tiny
        # accidental overlap.
        assert len(overlap) < len(cpe_addrs) * 0.01 + 5

    def test_budget_respected(self, built):
        assert len(sixgen_seed(built, budget=2000)) <= 2000

    def test_a_negative_budget_is_refused(self, built):
        with pytest.raises(ValueError, match="budget must be >= 0, not -1"):
            sixgen_seed(built, budget=-1)
        assert len(sixgen_seed(built, budget=0)) == len(sixgen_seed(built, budget=1))


class TestTum:
    def test_subsets_shape(self, built):
        subsets = tum_subsets(built)
        assert {"rapid7-dnsany", "ct", "traceroute", "caida-dnsnames"} <= set(subsets)

    def test_union_unique(self, built):
        tum = tum_seed(built)
        assert len(tum.addresses) == len(set(tum.addresses))

    def test_traceroute_subset_biased_to_second_isp(self, built):
        subsets = tum_subsets(built)
        first, second = built.cpe_asns[:2]
        per_asn = {first: 0, second: 0}
        for addr in subsets["traceroute"]:
            router = built.truth.router_addresses.get(addr)
            if router is not None and router.asn in per_asn and router.role is RouterRole.CPE:
                per_asn[router.asn] += 1
        assert per_asn[second] > per_asn[first]


class TestRandom:
    def test_count_and_routed(self, built):
        seeds = random_seed(built, count=500)
        assert len(seeds) == 500
        assert all(
            built.truth.bgp.covers(addr) for addr in seeds.addresses
        )

    def test_deterministic(self, built):
        assert random_seed(built, 100).addresses == random_seed(built, 100).addresses

    def test_a_negative_count_is_refused(self, built):
        with pytest.raises(ValueError, match="count must be >= 0, not -5"):
            random_seed(built, -5)
        assert len(random_seed(built, 0)) == 0


class TestBuildAll:
    def test_all_sources_present(self, all_seeds):
        expected = {
            "caida",
            "dnsdb",
            "fiebig",
            "fdns_any",
            "cdn-k256",
            "cdn-k32",
            "6gen",
            "tum",
            "random",
        }
        assert set(all_seeds) == expected

    def test_nonempty(self, all_seeds):
        for name, seed_list in all_seeds.items():
            assert len(seed_list) > 0, name


class TestSourceTable:
    def test_same_names_as_build_all(self, all_seeds):
        assert list(SOURCES) == list(all_seeds)

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_row_alone_equals_row_among_nine(self, built, all_seeds, name):
        """A source built on its own (what ``seeds --source`` does) is the
        list ``build_all_seeds`` builds: no row leans on another's RNG
        draws or on the shared CDN observations."""
        alone = SOURCES[name](
            built, random_count=3000, sixgen_budget=60_000, cdn_k32=32, cdn_k256=256
        )
        assert alone.name == name
        assert alone.items == all_seeds[name].items

    @pytest.mark.parametrize("name", ["dnsdb", "6gen"])
    def test_row_alone_in_a_fresh_interpreter(self, tmp_path, name):
        """``seeds --source NAME`` in a process no other row has run in
        writes what it writes after all nine ran in this one.  The twin
        above builds its row after the others in one process, so a row
        that borrows what another left behind (a module global an
        earlier row filled) passes it; here nothing ran earlier."""
        world = str(tmp_path / "world.json")
        with open(world, "w") as sink:
            save_config(sink, InternetConfig(n_edge=30, cpe_customers_per_isp=150, seed=5))
        argv = ["seeds", "--world", world, "--source", name, "--out"]
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        subprocess.run(
            [sys.executable, "-m", "repro.cli.main", *argv, str(tmp_path / "fresh")],
            check=True,
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        )
        build_all_seeds(build_internet(InternetConfig(n_edge=8, seed=5)), random_count=10)
        assert main(argv + [str(tmp_path / "among")], out=io.StringIO()) == 0
        fresh = (tmp_path / "fresh").read_text()
        assert fresh.strip()
        assert fresh == (tmp_path / "among").read_text()
